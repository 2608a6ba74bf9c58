//! Figures 8e–8g (Appendix G): the TPC-C Payment transaction.
//!
//! Paper shape: single-master has the lowest Payment average (≈0.3 ms —
//! Payment is light and the master is not overloaded by it); DynaMast is a
//! close second (≈1.2 ms — it occasionally remasters), and both are ~99/97/
//! 96% below LEAP / partition-store / multi-master. As the cross-warehouse
//! Payment rate rises 0% → 15%, DynaMast/single-master latency stays almost
//! flat while the 2PC systems' grows by ~10 ms.

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

    // 8e/8f: latency distribution at the default 15% remote rate.
    let columns = [
        "system         ",
        "payment avg",
        "p50     ",
        "p90     ",
        "p99     ",
    ];
    print_header(
        "Figures 8e/8f — TPC-C Payment latency (15% cross-warehouse)",
        &columns,
    );
    for kind in SystemKind::ALL {
        let workload = TpccWorkload::new(TpccConfig::default());
        let config = SystemConfig::new(num_sites)
            .with_weights(StrategyWeights::tpcc())
            .with_seed(8005);
        let built =
            build(kind, config, &workload, dynamast_bench::SITE_WORKERS).expect("build system");
        let result = run(
            &built.system,
            &workload,
            &RunConfig::new(num_sites, clients, warmup_secs(), measure_secs()),
        );
        let l = result.latency("payment");
        print_row(
            &columns,
            &[
                kind.name().to_string(),
                fmt_duration(l.mean),
                fmt_duration(l.p50),
                fmt_duration(l.p90),
                fmt_duration(l.p99),
            ],
        );
    }

    // 8g: average Payment latency vs cross-warehouse rate.
    let columns = ["system         ", "cross-wh%", "payment avg"];
    print_header("Figure 8g — Payment latency vs %cross-warehouse", &columns);
    for kind in SystemKind::ALL {
        for rate in [0.0f64, 0.15] {
            let workload = TpccWorkload::new(TpccConfig {
                payment_remote_fraction: rate,
                ..TpccConfig::default()
            });
            let config = SystemConfig::new(num_sites)
                .with_weights(StrategyWeights::tpcc())
                .with_seed(8006);
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
                    format!("{:.0}%", rate * 100.0),
                    fmt_duration(result.latency("payment").mean),
                ],
            );
        }
    }
}
