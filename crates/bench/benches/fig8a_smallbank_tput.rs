//! Figure 8a (Appendix F): SmallBank maximum throughput.
//!
//! Paper shape: DynaMast highest — +15% over partition-store, +10% over
//! multi-master, +40% over single-master, >6× LEAP (which ships data for
//! every localization).

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, fmt_throughput, measure_secs, print_header, print_row, run, warmup_secs,
    RunConfig,
};
use dynamast_common::{StrategyWeights, SystemConfig};
use dynamast_workloads::{SmallBankConfig, SmallBankWorkload};

fn main() {
    let num_sites = 4;
    let clients = default_clients();
    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_customers: 20_000,
        ..SmallBankConfig::default()
    });

    let columns = ["system         ", "throughput ", "aborts", "remaster%"];
    print_header("Figure 8a — SmallBank throughput (4 sites)", &columns);
    for kind in SystemKind::ALL {
        let config = SystemConfig::new(num_sites)
            .with_weights(StrategyWeights::smallbank())
            .with_seed(8001);
        let built =
            build(kind, config, &workload, dynamast_bench::SITE_WORKERS).expect("build system");
        let result = run(
            &built.system,
            &workload,
            &RunConfig::new(num_sites, clients, warmup_secs(), measure_secs()),
        );
        let remaster_pct = if result.committed > 0 {
            100.0 * result.stats.remaster_ops as f64 / result.committed as f64
        } else {
            0.0
        };
        print_row(
            &columns,
            &[
                kind.name().to_string(),
                fmt_throughput(result.throughput),
                result.stats.aborts.to_string(),
                format!("{remaster_pct:.2}%"),
            ],
        );
    }
}
