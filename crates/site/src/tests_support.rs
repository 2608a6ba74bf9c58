//! Shared helpers for the site crate's integration tests.
//!
//! Provides a minimal single-table deployment: `n` data sites (2PC
//! participants too) over an instantaneous network with a pass-through executor that writes a
//! constant row to every write-set key.

use std::sync::Arc;

use bytes::Bytes;
use dynamast_common::config::NetworkConfig;
use dynamast_common::ids::{Key, SiteId, TableId};
use dynamast_common::{Result, Row, SystemConfig, Value};
use dynamast_network::Network;
use dynamast_replication::LogSet;
use dynamast_storage::Catalog;

use crate::data_site::{DataSite, DataSiteConfig, SiteRuntime};
use crate::proc::{ProcCall, ProcExecutor, TxnCtx};

/// The test table.
pub const TABLE: TableId = TableId::new(0);

/// Writes `Value::U64(7)` to every key of the write set.
pub struct ConstExec;

impl ProcExecutor for ConstExec {
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        for key in &call.write_set {
            ctx.write(*key, Row::new(vec![Value::U64(7)]))?;
        }
        Ok(Bytes::new())
    }
}

/// A running test deployment.
pub struct TestDeployment {
    /// The sites.
    pub sites: Vec<Arc<DataSite>>,
    /// The shared logs.
    pub logs: LogSet,
    /// The shared network.
    pub network: Arc<Network>,
    _runtimes: Vec<SiteRuntime>,
}

/// Builds `n` replicated data sites with zero network latency and zero
/// simulated service time. Every site is also a 2PC participant whose
/// static owner assigns every partition to site 0.
pub fn deployment(n: usize) -> TestDeployment {
    let mut catalog = Catalog::new();
    catalog.add_table("t", 1, 100);
    let system = SystemConfig::new(n)
        .with_instant_network()
        .with_instant_service();
    let network = Network::new(NetworkConfig::instant(), 1);
    let logs = LogSet::new(n);
    let mut sites = Vec::new();
    let mut runtimes = Vec::new();
    for i in 0..n {
        let site = DataSite::new(
            DataSiteConfig {
                id: SiteId::new(i),
                system: system.clone(),
                replicate: true,
                initial_partitions: Vec::new(),
                static_owner: Some(Arc::new(|_| SiteId::new(0))),
                hosted: None,
                freshness_parks: None,
            },
            catalog.clone(),
            logs.clone(),
            Arc::clone(&network),
            Arc::new(ConstExec),
        );
        runtimes.push(site.start(4));
        sites.push(site);
    }
    TestDeployment {
        sites,
        logs,
        network,
        _runtimes: runtimes,
    }
}

/// An update call writing the given records.
pub fn write_call(records: &[u64]) -> ProcCall {
    ProcCall {
        proc_id: 1,
        args: Bytes::new(),
        write_set: records.iter().map(|r| Key::new(TABLE, *r)).collect(),
        read_keys: vec![],
        read_ranges: vec![],
    }
}
