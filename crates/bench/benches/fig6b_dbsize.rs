//! Figure 6b (Appendix E): DynaMast throughput as database size grows.
//!
//! Paper shape: 6× larger databases barely change throughput on the uniform
//! mixes; the skewed mix *improves* slightly (skew spreads over more items,
//! lowering contention).

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
    let mixes: [(&str, f64, Option<f64>); 3] = [
        ("50-50U", 0.5, None),
        ("90-10U", 0.9, None),
        ("90-10S", 0.9, Some(0.75)),
    ];
    let sizes = [100_000u64, 600_000];

    let columns = ["mix   ", "keys    ", "throughput ", "resident MiB/site"];
    print_header("Figure 6b — DynaMast throughput vs database size", &columns);
    for (label, rmw, zipf) in mixes {
        for &num_keys in &sizes {
            let workload = YcsbWorkload::new(YcsbConfig {
                num_keys,
                rmw_fraction: rmw,
                zipf,
                payload_bytes: 0,
                ..YcsbConfig::default()
            });
            let config = SystemConfig::new(num_sites).with_seed(6002);
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
            let resident_mib =
                result.stats.resident_bytes as f64 / num_sites as f64 / (1024.0 * 1024.0);
            print_row(
                &columns,
                &[
                    label.to_string(),
                    num_keys.to_string(),
                    fmt_throughput(result.throughput),
                    format!("{resident_mib:.1}"),
                ],
            );
        }
    }
}
