//! The replication thread budget: one feeder thread per origin log, no
//! per-(site, origin) subscriber threads. A test binary of its own, so no
//! other test's deployment shares the process it counts threads in.

use std::sync::Arc;

use bytes::Bytes;
use dynamast::common::{Result, SystemConfig};
use dynamast::core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast::site::proc::{ProcCall, ProcExecutor, TxnCtx};
use dynamast::storage::Catalog;

struct Noop;

impl ProcExecutor for Noop {
    fn execute(&self, _ctx: &mut dyn TxnCtx, _call: &ProcCall) -> Result<Bytes> {
        Ok(Bytes::new())
    }
}

/// The names of this process's threads.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn four_sites_run_one_feeder_per_origin_log() {
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(4)
        .with_instant_network()
        .with_instant_service();
    let system = DynaMastSystem::build(DynaMastConfig::adaptive(config, catalog), Arc::new(Noop));
    let names = thread_names();
    let feeders = names.iter().filter(|n| n.starts_with("feed-")).count();
    assert_eq!(feeders, 4, "one feeder per origin log: {names:?}");
    assert!(
        !names.iter().any(|n| n.starts_with("repl-")),
        "no per-(site, origin) subscriber threads: {names:?}"
    );
    system.shutdown();
    let names = thread_names();
    assert!(
        !names.iter().any(|n| n.starts_with("feed-")),
        "a log joins its feeder with its last subscription: {names:?}"
    );
}
