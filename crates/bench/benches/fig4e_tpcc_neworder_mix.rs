//! Figure 4e: TPC-C throughput vs the New-Order share of the mix.
//!
//! Paper shape: as New-Order dominates, DynaMast reaches >15× the
//! throughput of partition-store/multi-master, ≈20× LEAP, and ≈1.64×
//! single-master.

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, fmt_throughput, measure_secs, print_header, print_row, run, warmup_secs,
    RunConfig,
};
use dynamast_common::{StrategyWeights, SystemConfig};
use dynamast_workloads::{TpccConfig, TpccWorkload};

fn main() {
    let num_sites = 8;
    let clients = default_clients().max(num_sites);
    // Stock-Level stays at 10%; New-Order takes the given share of the rest.
    let neworder_shares = [0.15f64, 0.45, 0.85];

    let columns = ["system         ", "new-order%", "throughput "];
    print_header(
        "Figure 4e — TPC-C throughput vs %New-Order (8 sites)",
        &columns,
    );
    for kind in SystemKind::ALL {
        for &share in &neworder_shares {
            let workload = TpccWorkload::new(TpccConfig {
                neworder_fraction: share,
                payment_fraction: 0.9 - share,
                ..TpccConfig::default()
            });
            let config = SystemConfig::new(num_sites)
                .with_weights(StrategyWeights::tpcc())
                .with_seed(4005);
            let built =
                build(kind, config, &workload, dynamast_bench::SITE_WORKERS).expect("build system");
            let result = run(
                &built.system,
                &workload,
                &RunConfig::new(num_sites, clients, warmup_secs(), measure_secs()),
            );
            print_row(
                &columns,
                &[
                    kind.name().to_string(),
                    format!("{:.0}%", share * 100.0),
                    fmt_throughput(result.throughput),
                ],
            );
        }
    }
}
