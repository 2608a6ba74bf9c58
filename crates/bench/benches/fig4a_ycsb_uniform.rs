//! Figure 4a: YCSB uniform 50/50 RMW/scan — throughput vs concurrent
//! clients, all five systems.
//!
//! Paper shape: DynaMast ≈2.3× partition-store, ≈1.3× single-master, ≈2×
//! LEAP; single-master saturates as clients grow; multi-master beats
//! partition-store thanks to replica scans.

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, fmt_throughput, measure_secs, print_header, print_row, run, warmup_secs,
    RunConfig,
};
use dynamast_common::SystemConfig;
use dynamast_workloads::{YcsbConfig, YcsbWorkload};

fn main() {
    let num_sites = 4;
    let max_clients = default_clients();
    let client_steps: Vec<usize> = [max_clients / 4, max_clients / 2, max_clients]
        .into_iter()
        .filter(|c| *c >= 1)
        .collect();

    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 500_000,
        rmw_fraction: 0.5,
        payload_bytes: 0,
        ..YcsbConfig::default()
    });

    let columns = [
        "system         ",
        "clients",
        "throughput ",
        "remaster%",
        "errors",
    ];
    print_header(
        "Figure 4a — YCSB uniform 50/50 RMW/scan, 4 sites (throughput vs clients)",
        &columns,
    );
    for kind in SystemKind::ALL {
        for &clients in &client_steps {
            let config = SystemConfig::new(num_sites).with_seed(4001);
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
                    clients.to_string(),
                    fmt_throughput(result.throughput),
                    format!("{remaster_pct:.2}%"),
                    result.errors.to_string(),
                ],
            );
        }
    }
}
