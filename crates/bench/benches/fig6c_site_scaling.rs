//! Figure 6c (Appendix E): DynaMast throughput as the number of data sites
//! grows (4 → 16 in the paper, >3× throughput).
//!
//! Uniform YCSB 50/50 RMW/scan; clients scale with sites so the offered
//! load grows proportionally (the paper reports maximum throughput per
//! site count).

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, fmt_throughput, measure_secs, print_header, print_row, run, warmup_secs,
    RunConfig,
};
use dynamast_common::SystemConfig;
use dynamast_workloads::{YcsbConfig, YcsbWorkload};

fn main() {
    let base_clients = default_clients();
    let site_counts = [4usize, 8, 12, 16];

    let columns = ["sites", "clients", "throughput ", "scaling"];
    print_header(
        "Figure 6c — DynaMast scalability with data sites (YCSB uniform 50/50)",
        &columns,
    );
    let mut baseline = None;
    for &num_sites in &site_counts {
        let workload = YcsbWorkload::new(YcsbConfig {
            num_keys: 500_000,
            rmw_fraction: 0.5,
            payload_bytes: 0,
            ..YcsbConfig::default()
        });
        let clients = base_clients * num_sites / site_counts[0];
        let config = SystemConfig::new(num_sites).with_seed(6003);
        let built = build(
            SystemKind::DynaMast,
            config,
            &workload,
            dynamast_bench::SITE_WORKERS,
        )
        .expect("build system");
        let result = run(
            &built.system,
            &workload,
            &RunConfig::new(num_sites, clients, warmup_secs(), measure_secs()),
        );
        let base = *baseline.get_or_insert(result.throughput.max(1.0));
        print_row(
            &columns,
            &[
                num_sites.to_string(),
                clients.to_string(),
                fmt_throughput(result.throughput),
                format!("{:.2}x", result.throughput / base),
            ],
        );
    }
}
