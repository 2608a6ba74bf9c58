//! §VI-B3: New-Order average latency vs the cross-warehouse rate.
//!
//! Paper shape: from 0 to one-third cross-warehouse transactions,
//! partition-store/multi-master latency grows ≈3×; DynaMast grows only
//! ≈1.75× (it remasters toward a more single-master-like placement but
//! avoids overloading one site, ending ≈25% below single-master); LEAP
//! grows >2.2× from extra data shipping.

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
    let cross_rates = [0.0f64, 0.15, 0.33];

    let columns = ["system         ", "cross-wh%", "new-order avg", "p90     "];
    print_header(
        "Cross-warehouse sweep — TPC-C New-Order latency (8 sites)",
        &columns,
    );
    for kind in SystemKind::ALL {
        for &rate in &cross_rates {
            let workload = TpccWorkload::new(TpccConfig {
                neworder_remote_fraction: rate,
                ..TpccConfig::default()
            });
            let config = SystemConfig::new(num_sites)
                .with_weights(StrategyWeights::tpcc())
                .with_seed(4006);
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
                    format!("{:.0}%", rate * 100.0),
                    fmt_duration(l.mean),
                    fmt_duration(l.p90),
                ],
            );
        }
    }
}
