//! Figure 5b + §VI-B5: adapting to workload change.
//!
//! Setup per the paper: mastership is manually range-assigned, but the
//! workload's partition correlations are *shuffled*, so the placement is
//! wrong and DynaMast must learn the new access patterns and remaster.
//! Many clients, 100% RMW, skewed access, client affinity of 25
//! transactions. Paper shape: throughput climbs continuously over the
//! measurement interval, ending ≈1.6× where it started.

use dynamast_bench::{
    fmt_throughput, measure_secs, print_header, print_row, run, warmup_secs, RunConfig,
};
use dynamast_common::ids::SiteId;
use dynamast_common::SystemConfig;
use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast_site::system::ReplicatedSystem;
use dynamast_workloads::ycsb::all_partitions;
use dynamast_workloads::{Workload, YcsbConfig, YcsbWorkload};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let num_sites = 4;
    let clients = 64;
    let ycsb = YcsbConfig {
        num_keys: 500_000,
        rmw_fraction: 1.0,
        zipf: Some(0.75),
        affinity_txns: 25,
        shuffle_correlations: Some(0xF1B5), // randomized correlations
        payload_bytes: 0,
        ..YcsbConfig::default()
    };
    let workload = YcsbWorkload::new(ycsb.clone());

    // Manual range placement that the shuffled workload invalidates.
    let partitions = all_partitions(&ycsb);
    let n = partitions.len() as u64;
    let placements: Vec<_> = partitions
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, SiteId::new((i as u64 * num_sites as u64 / n) as usize)))
        .collect();

    // Seeded, so built here rather than by the unplaced-start factory: each
    // site is granted its seeded partitions as it comes up.
    let config = SystemConfig::new(num_sites).with_seed(5002);
    let cfg = DynaMastConfig {
        initial_placements: placements,
        rpc_workers: dynamast_bench::SITE_WORKERS,
        ..DynaMastConfig::adaptive(config, workload.catalog())
    };
    let dynamast = DynaMastSystem::build(cfg, workload.executor());
    workload
        .populate(&mut |key, row| dynamast.load_row(key, row))
        .expect("load database");
    let system: Arc<dyn ReplicatedSystem> = dynamast;

    let measure = measure_secs() * 4; // the adaptivity curve needs a window
    let mut run_cfg = RunConfig::new(num_sites, clients, warmup_secs() / 2, measure);
    run_cfg.timeline_interval = Some(Duration::from_millis(500));
    let result = run(&system, &workload, &run_cfg);

    let columns = ["interval", "throughput "];
    print_header(
        "Figure 5b — adaptivity after workload change (DynaMast, shuffled correlations)",
        &columns,
    );
    for (i, &count) in result.timeline.iter().enumerate() {
        print_row(
            &columns,
            &[format!("t{i}"), fmt_throughput(count as f64 / 0.5)],
        );
    }
    let first = result.timeline.first().copied().unwrap_or(0).max(1) as f64;
    let window = (result.timeline.len().max(4)) / 4;
    let tail_avg: f64 = result.timeline[result.timeline.len().saturating_sub(window)..]
        .iter()
        .map(|&c| c as f64)
        .sum::<f64>()
        / window.max(1) as f64;
    println!(
        "improvement over interval: {:.2}x (paper: ~1.6x); remasters: {}",
        tail_avg / first,
        result.stats.remaster_ops
    );
}
