//! Figure 4c: TPC-C New-Order latency distribution (avg / p50 / p90 / p99).
//!
//! Paper shape: DynaMast ≈40% below single-master on average and ≈85% below
//! partition-store/multi-master, whose p90 is ≈10× DynaMast's; LEAP's p99 is
//! ≈40× DynaMast's (data shipping + contention).

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, fmt_duration, measure_secs, print_header, print_row, run, warmup_secs,
    RunConfig,
};
use dynamast_common::{StrategyWeights, SystemConfig};
use dynamast_workloads::{TpccConfig, TpccWorkload};

fn main() {
    let num_sites = 8;
    let clients = default_clients().max(num_sites);
    let workload = TpccWorkload::new(TpccConfig::default());

    let columns = [
        "system         ",
        "new-order avg",
        "p50     ",
        "p90     ",
        "p99     ",
        "tput    ",
    ];
    print_header(
        "Figure 4c — TPC-C New-Order latency (8 sites, 45/45/10 mix)",
        &columns,
    );
    for kind in SystemKind::ALL {
        let config = SystemConfig::new(num_sites)
            .with_weights(StrategyWeights::tpcc())
            .with_seed(4003);
        let built =
            build(kind, config, &workload, dynamast_bench::SITE_WORKERS).expect("build system");
        let result = run(
            &built.system,
            &workload,
            &RunConfig::new(num_sites, clients, warmup_secs(), measure_secs()),
        );
        let l = result.latency("new-order");
        print_row(
            &columns,
            &[
                kind.name().to_string(),
                fmt_duration(l.mean),
                fmt_duration(l.p50),
                fmt_duration(l.p90),
                fmt_duration(l.p99),
                dynamast_bench::fmt_throughput(result.throughput),
            ],
        );
    }
}
