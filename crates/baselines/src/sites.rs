//! The site assembly the statically placed comparators (multi-master,
//! partition-store and LEAP) share: one fabric, volatile logs and one data
//! site per `SystemConfig::num_sites`, each a 2PC participant over the
//! deployment's fixed owner function, differing only in whether commits
//! replicate.

use std::sync::Arc;

use dynamast_common::ids::{Key, PartitionId, SiteId, TableId};
use dynamast_common::{FlightRecorder, Result, Row, SystemConfig};
use dynamast_network::Network;
use dynamast_replication::LogSet;
use dynamast_site::data_site::{DataSite, DataSiteConfig, SiteRuntime, StaticOwnerFn};
use dynamast_site::proc::ProcExecutor;
use dynamast_site::system::SystemStats;
use dynamast_storage::Catalog;

/// The running sites of one deployment.
pub(crate) struct Sites {
    pub(crate) catalog: Catalog,
    /// Tables replicated at every site and never partitioned.
    pub(crate) static_tables: Vec<TableId>,
    pub(crate) network: Arc<Network>,
    pub(crate) all: Vec<Arc<DataSite>>,
    _runtimes: Vec<SiteRuntime>,
}

impl Sites {
    /// Builds and starts every site with `workers` RPC workers each.
    pub(crate) fn start(
        system: &SystemConfig,
        catalog: Catalog,
        static_tables: Vec<TableId>,
        executor: &Arc<dyn ProcExecutor>,
        workers: usize,
        replicate: bool,
        static_owner: &StaticOwnerFn,
    ) -> Self {
        let network = Network::new(system.network, system.seed);
        network.set_recorder(Some(FlightRecorder::from_env()));
        let logs = LogSet::new(system.num_sites);
        let mut all = Vec::with_capacity(system.num_sites);
        let mut runtimes = Vec::with_capacity(system.num_sites);
        for i in 0..system.num_sites {
            let site = DataSite::new(
                DataSiteConfig {
                    id: SiteId::new(i),
                    system: system.clone(),
                    replicate,
                    initial_partitions: Vec::new(),
                    static_owner: Some(Arc::clone(static_owner)),
                    hosted: None,
                    freshness_parks: None,
                },
                catalog.clone(),
                logs.clone(),
                Arc::clone(&network),
                Arc::clone(executor),
            );
            runtimes.push(site.start(workers));
            all.push(site);
        }
        Sites {
            catalog,
            static_tables,
            network,
            all,
            _runtimes: runtimes,
        }
    }

    /// Loads one row: at every site when `everywhere` or its table is
    /// static, else only at the site `owner` names for its partition, which
    /// is returned.
    pub(crate) fn load_row(
        &self,
        key: Key,
        row: Row,
        everywhere: bool,
        owner: &StaticOwnerFn,
    ) -> Result<Option<(PartitionId, SiteId)>> {
        if everywhere || self.static_tables.contains(&key.table) {
            for site in &self.all {
                site.load_row(key, row.clone())?;
            }
            return Ok(None);
        }
        let partition = self.catalog.partition_of(key)?;
        let site = owner(partition);
        self.all[site.as_usize()].load_row(key, row)?;
        Ok(Some((partition, site)))
    }

    /// Commits, aborts and resident bytes summed over the sites, with no
    /// remastering.
    pub(crate) fn stats(&self) -> SystemStats {
        SystemStats {
            committed_updates: self.all.iter().map(|s| s.commits.get()).sum(),
            aborts: self.all.iter().map(|s| s.aborts.get()).sum(),
            remaster_ops: 0,
            partitions_moved: 0,
            masters_per_site: Vec::new(),
            updates_routed_per_site: Vec::new(),
            resident_bytes: self.all.iter().map(|s| s.store().resident_bytes()).sum(),
        }
    }
}
