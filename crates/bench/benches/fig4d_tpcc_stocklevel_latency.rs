//! Figure 4d: TPC-C Stock-Level (read-only) latency distribution.
//!
//! Paper shape: DynaMast ≈ single-master ≈ multi-master (replicas +
//! MVCC make reads cheap); partition-store higher on average (multi-site
//! read-only transactions are straggler-bound); LEAP orders of magnitude
//! higher (it must localize read sets).

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
        "stock-level avg",
        "p50     ",
        "p90     ",
        "p99     ",
    ];
    print_header(
        "Figure 4d — TPC-C Stock-Level latency (8 sites, 45/45/10 mix)",
        &columns,
    );
    for kind in SystemKind::ALL {
        let config = SystemConfig::new(num_sites)
            .with_weights(StrategyWeights::tpcc())
            .with_seed(4004);
        let built =
            build(kind, config, &workload, dynamast_bench::SITE_WORKERS).expect("build system");
        let result = run(
            &built.system,
            &workload,
            &RunConfig::new(num_sites, clients, warmup_secs(), measure_secs()),
        );
        let l = result.latency("stock-level");
        print_row(
            &columns,
            &[
                kind.name().to_string(),
                fmt_duration(l.mean),
                fmt_duration(l.p50),
                fmt_duration(l.p90),
                fmt_duration(l.p99),
            ],
        );
    }
}
