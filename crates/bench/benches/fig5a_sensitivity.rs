//! Figure 5a + §VI-B6: remastering-strategy hyperparameter sensitivity.
//!
//! Paper shape: zeroing `w_balance` drops throughput ≈40% (mastership
//! concentrates); scaling it to 0.01× skews write routing (34% to the
//! hottest site vs 25% even); raising `w_intra_txn` 0 → default recovers
//! ≈16% throughput on correlation-heavy workloads (≈10% for
//! `w_inter_txn`); any non-zero setting stays within ≈8% of the best.

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, fmt_throughput, measure_secs, print_header, print_row, run, warmup_secs,
    RunConfig,
};
use dynamast_common::config::WeightKind;
use dynamast_common::{StrategyWeights, SystemConfig};
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

    let sweeps: Vec<(&str, StrategyWeights)> = vec![
        ("default", StrategyWeights::ycsb()),
        (
            "w_balance = 0",
            StrategyWeights::ycsb().without(WeightKind::Balance),
        ),
        (
            "w_balance x0.01",
            StrategyWeights::ycsb().with_scaled(WeightKind::Balance, 0.01),
        ),
        (
            "w_balance x100",
            StrategyWeights::ycsb().with_scaled(WeightKind::Balance, 100.0),
        ),
        (
            "w_intra = 0",
            StrategyWeights::ycsb().without(WeightKind::IntraTxn),
        ),
        (
            "w_intra x100",
            StrategyWeights::ycsb().with_scaled(WeightKind::IntraTxn, 100.0),
        ),
        (
            "w_delay = 0",
            StrategyWeights::ycsb().without(WeightKind::Delay),
        ),
        (
            "w_delay x100",
            StrategyWeights::ycsb().with_scaled(WeightKind::Delay, 100.0),
        ),
        ("w_inter = 1", {
            let mut w = StrategyWeights::ycsb();
            w.inter_txn = 1.0;
            w
        }),
    ];

    let columns = [
        "configuration   ",
        "throughput ",
        "routing max/min share",
        "remasters",
    ];
    print_header(
        "Figure 5a — hyperparameter sensitivity (DynaMast, skewed YCSB 90/10)",
        &columns,
    );
    for (label, weights) in sweeps {
        let config = SystemConfig::new(num_sites)
            .with_weights(weights)
            .with_seed(5001);
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
        let routed = &result.stats.updates_routed_per_site;
        let total: u64 = routed.iter().sum::<u64>().max(1);
        let max_share = 100.0 * *routed.iter().max().unwrap_or(&0) as f64 / total as f64;
        let min_share = 100.0 * *routed.iter().min().unwrap_or(&0) as f64 / total as f64;
        print_row(
            &columns,
            &[
                label.to_string(),
                fmt_throughput(result.throughput),
                format!("{max_share:.0}% / {min_share:.0}%"),
                result.stats.remaster_ops.to_string(),
            ],
        );
    }
}
