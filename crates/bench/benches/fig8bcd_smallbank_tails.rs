//! Figures 8b–8d (Appendix F): SmallBank tail latencies per transaction
//! class.
//!
//! Paper shape: single-master's update tails are ≈7× DynaMast's (all
//! updates at one site); LEAP's multi-row update tails reach ≈40× DynaMast
//! (data-shipping waits); partition-store's tails ≈4× (uncertainty-window
//! blocking); read-only Balance is similar across the replicated systems.

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, fmt_duration, measure_secs, print_header, print_row, run, warmup_secs,
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

    let classes = ["multi-row-update", "single-row-update", "balance"];
    let columns = [
        "system         ",
        "class            ",
        "p50     ",
        "p90     ",
        "p99     ",
        "max     ",
    ];
    print_header(
        "Figures 8b-8d — SmallBank tail latency per transaction class",
        &columns,
    );
    for kind in SystemKind::ALL {
        let config = SystemConfig::new(num_sites)
            .with_weights(StrategyWeights::smallbank())
            .with_seed(8002);
        let built =
            build(kind, config, &workload, dynamast_bench::SITE_WORKERS).expect("build system");
        let result = run(
            &built.system,
            &workload,
            &RunConfig::new(num_sites, clients, warmup_secs(), measure_secs()),
        );
        for class in classes {
            let l = result.latency(class);
            print_row(
                &columns,
                &[
                    kind.name().to_string(),
                    class.to_string(),
                    fmt_duration(l.p50),
                    fmt_duration(l.p90),
                    fmt_duration(l.p99),
                    fmt_duration(l.max),
                ],
            );
        }
    }
}
