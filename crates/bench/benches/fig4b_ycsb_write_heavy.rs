//! Figure 4b: YCSB uniform 90/10 RMW/scan (write-intensive).
//!
//! Paper shape: DynaMast ≈2.5× the comparators; multi-master drops *below*
//! partition-store (fewer scans to exploit replicas, update propagation
//! overhead remains); single-master saturates fastest.

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, fmt_throughput, measure_secs, print_header, print_row, run, warmup_secs,
    RunConfig,
};
use dynamast_common::SystemConfig;
use dynamast_workloads::{YcsbConfig, YcsbWorkload};

fn main() {
    let num_sites = 4;
    let clients = default_clients();
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 500_000,
        rmw_fraction: 0.9,
        payload_bytes: 0,
        ..YcsbConfig::default()
    });

    let columns = [
        "system         ",
        "throughput ",
        "rmw p99   ",
        "remaster%",
        "errors",
    ];
    print_header("Figure 4b — YCSB uniform 90/10 RMW/scan, 4 sites", &columns);
    for kind in SystemKind::ALL {
        let config = SystemConfig::new(num_sites).with_seed(4002);
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
                dynamast_bench::fmt_duration(result.latency("rmw").p99),
                format!("{remaster_pct:.2}%"),
                result.errors.to_string(),
            ],
        );
    }
}
