//! §VI-B4: Skewed YCSB (Zipf ρ=0.75, 90/10 RMW/scan).
//!
//! Paper shape: DynaMast ≈10× multi-master, ≈4× partition-store, ≈1.8×
//! single-master, ≈1.6× LEAP — the static systems cannot spread the hot
//! range over multiple sites, while DynaMast's balance factor distributes
//! hot partition masters evenly.

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
        zipf: Some(0.75),
        payload_bytes: 0,
        ..YcsbConfig::default()
    });

    let columns = [
        "system         ",
        "throughput ",
        "masters/site (dynamast-style systems)",
    ];
    print_header("Skewed YCSB — Zipf(0.75) 90/10 RMW/scan, 4 sites", &columns);
    for kind in SystemKind::ALL {
        let config = SystemConfig::new(num_sites).with_seed(4007);
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
                fmt_throughput(result.throughput),
                format!("{:?}", result.stats.masters_per_site),
            ],
        );
    }
}
