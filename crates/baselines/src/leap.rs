//! LEAP (§VI-A1): single-site execution via data shipping.
//!
//! "LEAP, like DynaMast, guarantees single-site transaction execution but
//! bases its architecture on a partitioned multi-master database without
//! replication. To guarantee single-site execution, LEAP localizes data in a
//! transaction's read and write sets to the site where the transaction
//! executes. To perform this data localization, LEAP does data shipping,
//! copying data from the old master to the new master."
//!
//! The contrast with DynaMast is deliberate and shows up in three ways this
//! implementation makes concrete:
//!
//! 1. **Reads localize too** — LEAP has no replicas, so a read-only scan
//!    drags every touched partition (records included) to the executing
//!    site, while DynaMast serves it from any replica.
//! 2. **Transfers carry data** — `LeapRelease`/`LeapGrant` messages contain
//!    full records (accounted under [`TrafficCategory::DataShip`]), not the
//!    metadata-only release/grant of dynamic mastering.
//! 3. **No placement strategy** — the destination is simply the site owning
//!    the most touched partitions; nothing anticipates future accesses, so
//!    hot partitions ping-pong (the paper measures LEAP moving data
//!    constantly and suffering 40× tail latencies on multi-row
//!    transactions).
//!
//! The LEAP ownership manager holds each touched partition's lock for the
//! whole transaction (localize → execute → unlock), which is what makes
//! concurrent transactions on overlapping partitions wait for each other's
//! data migrations — the tail-latency effect in Fig. 8.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{PartitionId, SiteId, TableId};
use dynamast_common::metrics::Counter;
use dynamast_common::{DynaError, Result, SystemConfig};
use dynamast_core::partition_map::PartitionMap;
use dynamast_network::{EndpointId, Network, TrafficCategory};
use dynamast_site::data_site::{DataSite, StaticOwnerFn};
use dynamast_site::messages::{expect_ok, SiteRequest, SiteResponse};
use dynamast_site::proc::{ProcCall, ProcExecutor, ReadMode};
use dynamast_site::system::{
    exec_read_at, exec_update_at, Breakdown, ClientSession, ReplicatedSystem, SystemStats,
    TxnOutcome,
};
use dynamast_storage::Catalog;

use crate::sites::Sites;

/// A running LEAP deployment.
pub struct LeapSystem {
    config: SystemConfig,
    sites: Sites,
    map: PartitionMap,
    initial_owner: StaticOwnerFn,
    /// Partitions shipped between sites.
    pub partitions_shipped: Counter,
}

impl LeapSystem {
    /// Builds and starts a LEAP deployment with the given initial
    /// partitioning (partitions materialize lazily at their initial owner).
    pub fn build(
        system: SystemConfig,
        catalog: Catalog,
        initial_owner: StaticOwnerFn,
        static_tables: Vec<TableId>,
        executor: Arc<dyn ProcExecutor>,
        rpc_workers: usize,
    ) -> Arc<Self> {
        let sites = Sites::start(
            &system,
            catalog,
            static_tables,
            &executor,
            rpc_workers,
            false,
            &initial_owner,
        );
        Arc::new(LeapSystem {
            config: system,
            sites,
            map: PartitionMap::new(),
            initial_owner,
            partitions_shipped: Counter::new(),
        })
    }

    /// The simulated network (traffic accounting).
    pub fn network(&self) -> &Arc<Network> {
        &self.sites.network
    }

    /// The data sites.
    pub fn sites(&self) -> &[Arc<DataSite>] {
        &self.sites.all
    }

    /// Loads a row at its initial owner, registering ownership.
    pub fn load_row(
        &self,
        key: dynamast_common::ids::Key,
        row: dynamast_common::Row,
    ) -> Result<()> {
        let Some((partition, owner)) = self.sites.load_row(key, row, false, &self.initial_owner)?
        else {
            return Ok(());
        };
        self.sites.all[owner.as_usize()]
            .ownership()
            .grant(partition);
        let entries = self.map.entries_for(&[partition]);
        let mut guards = self.map.lock_exclusive(&entries);
        entries[0].set_master(&mut guards[0], owner);
        Ok(())
    }

    /// Localizes every touched partition to the client's execution site,
    /// then runs `body` with the partition locks held.
    ///
    /// LEAP executes a transaction at the node that receives it and ships
    /// the data *to* that node — it has no placement strategy. Clients are
    /// statically assigned home nodes, so two clients on different nodes
    /// whose access sets overlap ship the same partitions back and forth on
    /// every alternation ("LEAP ... continually transfers data between
    /// sites", §VI-B2).
    fn localized<T>(
        &self,
        dest: SiteId,
        proc: &ProcCall,
        body: impl FnOnce(SiteId) -> Result<T>,
    ) -> Result<(T, Duration)> {
        // Static tables are replicated everywhere and never localized.
        let partitions = proc.partitions(&self.sites.catalog, |table| {
            self.sites.static_tables.contains(&table)
        })?;
        if partitions.is_empty() {
            // A transaction over static replicated tables only: execute at
            // the destination without localization.
            let out = body(dest)?;
            return Ok((out, Duration::ZERO));
        }
        let entries = self.map.entries_for(&partitions);
        let mut guards = self.map.lock_exclusive(&entries);
        let t_localize = Instant::now();

        // Group foreign partitions by current owner and ship them over.
        let mut by_owner: HashMap<Option<SiteId>, Vec<usize>> = HashMap::new();
        for (i, guard) in guards.iter().enumerate() {
            if guard.master != Some(dest) {
                by_owner.entry(guard.master).or_default().push(i);
            }
        }
        for (owner, indexes) in by_owner {
            let parts: Vec<PartitionId> = indexes.iter().map(|&i| partitions[i]).collect();
            let records = match owner {
                None => Vec::new(), // brand-new partitions: nothing to ship
                Some(owner) => {
                    let req = SiteRequest::LeapRelease {
                        partitions: parts.clone(),
                    };
                    let reply = self.sites.network.rpc(
                        EndpointId::Site(owner.raw()),
                        TrafficCategory::DataShip,
                        Bytes::from(encode_to_vec(&req)),
                    )?;
                    match expect_ok(&reply)? {
                        SiteResponse::LeapReleased { records } => records,
                        _ => return Err(DynaError::Internal("unexpected leap release response")),
                    }
                }
            };
            let grant = SiteRequest::LeapGrant {
                partitions: parts.clone(),
                records,
            };
            let reply = self.sites.network.rpc(
                EndpointId::Site(dest.raw()),
                TrafficCategory::DataShip,
                Bytes::from(encode_to_vec(&grant)),
            )?;
            match expect_ok(&reply)? {
                SiteResponse::LeapGranted => {}
                _ => return Err(DynaError::Internal("unexpected leap grant response")),
            }
            for i in indexes {
                entries[i].set_master(&mut guards[i], dest);
                self.partitions_shipped.inc();
            }
        }
        let localize_time = t_localize.elapsed();
        let out = body(dest)?;
        drop(guards);
        Ok((out, localize_time))
    }
}

impl ReplicatedSystem for LeapSystem {
    fn name(&self) -> &'static str {
        "leap"
    }

    fn update(&self, session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome> {
        let t0 = Instant::now();
        // Client → LEAP transaction manager round trip (localization
        // decisions are not free; DynaMast pays the same hop to its
        // selector).
        self.sites.network.charge_one_way(
            TrafficCategory::ClientSelector,
            32 + proc.write_set.len() * 12,
        );
        let txn_id = dynamast_common::trace::next_trace_id();
        let min_vv = dynamast_common::VersionVector::zero(self.config.num_sites);
        let home = SiteId::new((session.id.raw() % self.config.num_sites as u64) as usize);
        let ((result, timings), localize) = self.localized(home, proc, |dest| {
            let mut session_ref = session.clone();
            let out = exec_update_at(
                &self.sites.network,
                dest,
                txn_id,
                &mut session_ref,
                &min_vv,
                proc,
                true,
            )?;
            session.cvv = session_ref.cvv;
            Ok(out)
        })?;
        Ok(TxnOutcome {
            result,
            breakdown: Breakdown::from_parts(Duration::ZERO, localize, timings, t0.elapsed()),
        })
    }

    fn read(&self, session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome> {
        let t0 = Instant::now();
        self.sites.network.charge_one_way(
            TrafficCategory::ClientSelector,
            32 + proc.read_keys.len() * 12,
        );
        let txn_id = dynamast_common::trace::next_trace_id();
        let home = SiteId::new((session.id.raw() % self.config.num_sites as u64) as usize);
        let ((result, timings), localize) = self.localized(home, proc, |dest| {
            let mut session_ref = session.clone();
            let out = exec_read_at(
                &self.sites.network,
                dest,
                txn_id,
                &mut session_ref,
                proc,
                ReadMode::Latest,
            )?;
            session.cvv = session_ref.cvv;
            Ok(out)
        })?;
        Ok(TxnOutcome {
            result,
            breakdown: Breakdown::from_parts(Duration::ZERO, localize, timings, t0.elapsed()),
        })
    }

    fn stats(&self) -> SystemStats {
        SystemStats {
            remaster_ops: self.partitions_shipped.get(),
            partitions_moved: self.partitions_shipped.get(),
            masters_per_site: self.map.masters_per_site(self.config.num_sites),
            ..self.sites.stats()
        }
    }
}
