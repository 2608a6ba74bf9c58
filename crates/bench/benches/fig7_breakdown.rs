//! Figure 7 (Appendix D): breakdown of DynaMast's transaction latency, plus
//! remastering-frequency and network-traffic accounting.
//!
//! Paper shape (uniform 50/50 YCSB): selector lookup ≈10%, routing (incl.
//! remastering) <1%, network >40%, stored-procedure execution ≈45%, begin
//! <1%, commit ≈1%. Fewer than 1–3% of transactions remaster; replication
//! traffic dwarfs remastering traffic (155 MB/s vs 3 MB/s in the paper).

use dynamast_baselines::{build, SystemKind};
use dynamast_bench::{
    default_clients, measure_secs, print_header, print_row, run, warmup_secs, RunConfig,
};
use dynamast_common::SystemConfig;
use dynamast_network::TrafficCategory;
use dynamast_workloads::{YcsbConfig, YcsbWorkload};

fn main() {
    let num_sites = 4;
    let clients = default_clients();
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 500_000,
        rmw_fraction: 0.5,
        ..YcsbConfig::default()
    });
    let config = SystemConfig::new(num_sites).with_seed(7001);
    let built = build(
        SystemKind::DynaMast,
        config,
        &workload,
        dynamast_bench::SITE_WORKERS,
    )
    .expect("build system");
    let before = built.network.stats().snapshot();
    let result = run(
        &built.system,
        &workload,
        &RunConfig::new(num_sites, clients, warmup_secs(), measure_secs()),
    );
    let traffic = built.network.stats().snapshot().delta_since(&before);

    let columns = ["category ", "mean     ", "share"];
    print_header(
        "Figure 7 — DynaMast latency breakdown (YCSB uniform 50/50, update txns)",
        &columns,
    );
    let total = result.breakdown.total_mean().as_secs_f64().max(1e-9);
    for (label, histogram) in result.breakdown.categories() {
        let mean = histogram.mean();
        print_row(
            &columns,
            &[
                label.to_string(),
                dynamast_bench::fmt_duration(mean),
                format!("{:.1}%", 100.0 * mean.as_secs_f64() / total),
            ],
        );
    }

    let remaster_pct = if result.committed > 0 {
        100.0 * result.stats.remaster_ops as f64 / result.committed as f64
    } else {
        0.0
    };
    println!("\ntransactions requiring remastering: {remaster_pct:.2}% (paper: <1-3%)");

    let columns = ["traffic category", "bytes     ", "messages"];
    print_header("Network traffic by category", &columns);
    for category in TrafficCategory::ALL {
        let totals = traffic.get(category);
        print_row(
            &columns,
            &[
                category.label().to_string(),
                totals.bytes.to_string(),
                totals.messages.to_string(),
            ],
        );
    }
    let repl = traffic.get(TrafficCategory::Replication).bytes.max(1);
    let remaster = traffic.get(TrafficCategory::Remaster).bytes;
    println!(
        "\nreplication / remastering traffic ratio: {:.0}:1 (paper: ~50:1)",
        repl as f64 / remaster.max(1) as f64
    );
}
