//! The four benchmark workloads: what runs, on which configuration, and why.
//!
//! Every scenario is the same deployment — adaptive DynaMast, 4 sites, full
//! replication, 4 RPC workers per site, zero simulated service time, the
//! flight recorder in its production default — driven by 2 closed-loop
//! clients. They differ in the transaction mix and in which substrate
//! (network delay, durable log) is switched on, so that each one loads a
//! different set of layers.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dynamast::common::config::{FsyncMode, NetworkConfig, RetryPolicy};
use dynamast::common::{StrategyWeights, SystemConfig};
use dynamast::core::dynamast::DynaMastConfig;
use dynamast::workloads::{
    SmallBankConfig, SmallBankWorkload, TpccConfig, TpccWorkload, Workload, YcsbConfig,
    YcsbWorkload,
};

/// Data sites in every scenario.
pub const NUM_SITES: usize = 4;
/// RPC worker threads per site.
pub const RPC_WORKERS: usize = 4;
/// Closed-loop client threads (OLTPBench-style callers that wait for the
/// reply, paper §VI-A2). Two, because the reference host has two cores.
pub const CLIENTS: usize = 2;
/// How long one RPC attempt waits for its reply before the fabric sends the
/// request again. The library default is 500 ms, and a re-sent `ExecUpdate`
/// executes twice (delivery is at-least-once): with that default a
/// checkpoint stall on `tpcc_durable` was enough to commit a transaction
/// twice (seed 1001: sites committed 7 409 updates for 7 407 the clients
/// issued), which fails `client_updates_match_site_commits`, and a
/// benchmark run must be correct. The benchmark injects no faults, so
/// nothing is ever lost and no re-send is ever needed; 10 s keeps execution
/// exactly-once. Only an RPC stalled past 500 ms behaves differently under
/// the shipped policy, and how many there were stays visible as
/// `network.would_resend_per_ktxn`.
pub const RPC_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(10);
/// Period of `checkpoint_all()` on the durable scenario.
pub const CHECKPOINT_EVERY: Duration = Duration::from_secs(3);

/// Workload names and the one-line reason each exists (mirrored in
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ycsb_write",
        "90% 3-key RMWs: commit pipeline, log fill, propagator and refresh apply at 3 replicas do the work",
    ),
    (
        "ycsb_scan",
        "90% 200-1000-key scans on the same database: MVCC reads and read routing dominate, commit path nearly idle",
    ),
    (
        "smallbank_remaster",
        "90% hotspot over a 100us LAN: remaster release/grant round trips and hot-row lock waits dominate",
    ),
    (
        "tpcc_durable",
        "multi-table write sets on an on-disk log with group fsync and periodic checkpoints, then a timed recover",
    ),
];

/// One fully specified benchmark scenario.
pub struct Scenario {
    /// Workload name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// Generator, catalog, executor and population.
    pub workload: Arc<dyn Workload>,
    /// System configuration handed to `DynaMastConfig::adaptive`.
    pub system: SystemConfig,
    /// Redo-log directory when the scenario runs on disk.
    pub log_dir: Option<PathBuf>,
    /// Sum of all SmallBank balances after population, if SmallBank.
    pub smallbank_initial_total: Option<i64>,
    /// Human-readable echo of the workload configuration.
    pub workload_config: String,
}

impl Scenario {
    /// Builds the named scenario. `seed` feeds both the system (network
    /// jitter, statistics sampling) and — through the driver — the client
    /// generators. `out_dir` is where the durable scenario keeps its log.
    pub fn named(name: &str, seed: u64, out_dir: &Path) -> Option<Scenario> {
        let retry = RetryPolicy {
            attempt_timeout: RPC_ATTEMPT_TIMEOUT,
            deadline: RPC_ATTEMPT_TIMEOUT * 3,
            ..RetryPolicy::standard()
        };
        let instant = NetworkConfig::instant().with_retry(retry);
        let base = SystemConfig::new(NUM_SITES)
            .with_instant_service()
            .with_seed(seed);
        let ycsb = |rmw_fraction: f64, name: &'static str| {
            let config = YcsbConfig {
                num_keys: 100_000,
                payload_bytes: 256,
                rmw_fraction,
                ..YcsbConfig::default()
            };
            Scenario {
                name,
                workload_config: format!("{config:?}"),
                workload: Arc::new(YcsbWorkload::new(config)),
                system: SystemConfig {
                    network: instant,
                    ..base.clone()
                },
                log_dir: None,
                smallbank_initial_total: None,
            }
        };
        match name {
            "ycsb_write" => Some(ycsb(0.9, "ycsb_write")),
            "ycsb_scan" => Some(ycsb(0.1, "ycsb_scan")),
            "smallbank_remaster" => {
                let config = SmallBankConfig::default();
                Some(Scenario {
                    name: "smallbank_remaster",
                    workload_config: format!("{config:?}"),
                    smallbank_initial_total: Some(
                        config.num_customers as i64 * 2 * config.initial_balance,
                    ),
                    workload: Arc::new(SmallBankWorkload::new(config)),
                    // The stated injected delay: 100 us one way + up to
                    // 20 us jitter + 1 us/KiB on every message.
                    system: SystemConfig {
                        network: NetworkConfig::lan().with_retry(retry),
                        ..base.with_weights(StrategyWeights::smallbank())
                    },
                    log_dir: None,
                })
            }
            "tpcc_durable" => {
                let config = TpccConfig::default();
                let log_dir = out_dir.join("tpcc_durable-log");
                Some(Scenario {
                    name: "tpcc_durable",
                    workload_config: format!("{config:?}"),
                    workload: Arc::new(TpccWorkload::new(config)),
                    system: SystemConfig {
                        network: instant,
                        ..base
                            .with_weights(StrategyWeights::tpcc())
                            .with_durability(log_dir.clone(), FsyncMode::Group)
                    },
                    log_dir: Some(log_dir),
                    smallbank_initial_total: None,
                })
            }
            _ => None,
        }
    }

    /// The deployment configuration (same for `build` and `recover`).
    pub fn dynamast_config(&self) -> DynaMastConfig {
        let mut cfg = DynaMastConfig::adaptive(self.system.clone(), self.workload.catalog());
        cfg.rpc_workers = RPC_WORKERS;
        cfg
    }

    /// Whether the scenario runs on an on-disk log.
    pub fn durable(&self) -> bool {
        self.log_dir.is_some()
    }
}
