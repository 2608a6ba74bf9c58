//! Statically partitioned comparators: multi-master and partition-store.
//!
//! Both assign every partition a fixed owner (the paper gives them the best
//! static partitioning Schism found: range partitioning for YCSB,
//! by-warehouse for TPC-C — encoded here in the owner function supplied by
//! the workload), and both commit update transactions with client-
//! coordinated two-phase commit: the client fetches its reads from the
//! owning sites, executes the transaction logic, then runs a prepare round
//! (participants lock and validate read versions) and a decide round. This
//! is what gives these architectures the paper's costs:
//!
//! * **additional round trips** — even a fully local single-site update
//!   pays read-fetch + prepare + decide (§VI-B1: "partition-store performs
//!   poorly ... due to additional round-trips during transaction
//!   processing");
//! * **the uncertainty window** — participants hold write locks between
//!   prepare and decide, blocking concurrent transactions ("the
//!   requirements of the uncertain phase during distributed transaction
//!   processing force blocking — even for single-row transactions",
//!   Appendix F);
//! * **stragglers** — partition-store's multi-partition reads fan out to
//!   every owning site and complete at the slowest response (§VI-B2).
//!
//! They differ in replication: **multi-master** lazily maintains replicas,
//! so read-only transactions execute at any single site and update-phase
//! reads are served by one (possibly lagging — prepare-time validation
//! catches conflicts) replica; **partition-store** has none, so every read
//! goes to the partition's owner.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::client_coord::{fetch, two_phase_commit, ClientCtx, FetchPlan};
use crate::sites::Sites;
use dynamast_replication::record::WriteEntry;

use dynamast_common::ids::SiteId;
use dynamast_common::{Result, SystemConfig};
use dynamast_network::Network;
use dynamast_site::data_site::{DataSite, StaticOwnerFn};
use dynamast_site::proc::{ProcCall, ProcExecutor, ReadMode, ScanRange};
use dynamast_site::system::{
    exec_read_at, Breakdown, ClientSession, ReplicatedSystem, SystemStats, TxnOutcome,
};
use dynamast_storage::Catalog;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which static architecture to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StaticKind {
    /// Lazy replication + 2PC; reads at any replica.
    MultiMaster,
    /// No replication; 2PC; remote reads.
    PartitionStore,
}

impl StaticKind {
    fn name(self) -> &'static str {
        match self {
            StaticKind::MultiMaster => "multi-master",
            StaticKind::PartitionStore => "partition-store",
        }
    }

    fn replicate(self) -> bool {
        matches!(self, StaticKind::MultiMaster)
    }
}

/// A running multi-master or partition-store deployment.
pub struct StaticSystem {
    kind: StaticKind,
    config: SystemConfig,
    sites: Sites,
    owner: StaticOwnerFn,
    executor: Arc<dyn ProcExecutor>,
    rng: Mutex<SmallRng>,
    txn_counter: AtomicU64,
}

impl StaticSystem {
    /// Builds and starts a deployment with the given fixed partitioning.
    pub fn build(
        kind: StaticKind,
        system: SystemConfig,
        catalog: Catalog,
        owner: StaticOwnerFn,
        static_tables: Vec<dynamast_common::ids::TableId>,
        executor: Arc<dyn ProcExecutor>,
        rpc_workers: usize,
    ) -> Arc<Self> {
        let sites = Sites::start(
            &system,
            catalog,
            static_tables,
            &executor,
            rpc_workers,
            kind.replicate(),
            &owner,
        );
        Arc::new(StaticSystem {
            kind,
            sites,
            owner,
            executor,
            rng: Mutex::new(SmallRng::seed_from_u64(system.seed ^ 0x0057_A71C)),
            txn_counter: AtomicU64::new(1),
            config: system,
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

    /// Loads one row into the owning site (and all replicas under
    /// multi-master).
    pub fn load_row(
        &self,
        key: dynamast_common::ids::Key,
        row: dynamast_common::Row,
    ) -> Result<()> {
        self.sites
            .load_row(key, row, self.kind.replicate(), &self.owner)
            .map(drop)
    }

    fn owner_of_key(&self, key: dynamast_common::ids::Key) -> Result<SiteId> {
        Ok((self.owner)(self.sites.catalog.partition_of(key)?))
    }

    /// Builds per-site fetch plans for everything a transaction reads
    /// (declared reads plus write-set keys for read-modify-writes).
    ///
    /// Partition-store fetches each key/range from its owner; multi-master
    /// fetches everything from one replica (static tables are served
    /// locally either way).
    fn fetch_plans(&self, proc: &ProcCall) -> Result<Vec<(SiteId, FetchPlan)>> {
        let mut plans: BTreeMap<SiteId, FetchPlan> = BTreeMap::new();
        let single_site = match self.kind {
            StaticKind::MultiMaster => Some(SiteId::new(
                self.rng.lock().gen_range(0..self.config.num_sites),
            )),
            StaticKind::PartitionStore => None,
        };
        for key in proc.write_set.iter().chain(&proc.read_keys) {
            let site = match single_site {
                Some(site) => site,
                None => self.owner_of_key(*key)?,
            };
            plans.entry(site).or_default().keys.push(*key);
        }
        for range in &proc.read_ranges {
            match single_site {
                Some(site) => plans.entry(site).or_default().ranges.push(*range),
                None => {
                    // Split by owner; contiguous same-owner subranges merge.
                    let schema = self.sites.catalog.table(range.table)?;
                    let psize = schema.partition_size;
                    let mut cursor = range.start;
                    while cursor < range.end {
                        let sub_end = (((cursor / psize) + 1) * psize).min(range.end);
                        let owner =
                            self.owner_of_key(dynamast_common::ids::Key::new(range.table, cursor))?;
                        let ranges = &mut plans.entry(owner).or_default().ranges;
                        match ranges.last_mut() {
                            Some(last) if last.table == range.table && last.end == cursor => {
                                last.end = sub_end
                            }
                            _ => ranges.push(ScanRange {
                                table: range.table,
                                start: cursor,
                                end: sub_end,
                            }),
                        }
                        cursor = sub_end;
                    }
                }
            }
        }
        Ok(plans.into_iter().collect())
    }
}

impl ReplicatedSystem for StaticSystem {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn update(&self, session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome> {
        let t0 = Instant::now();
        let trace_id = dynamast_common::trace::next_trace_id();
        let mut attempt = 0u32;
        loop {
            // 1. Fetch phase (parallel per site; stragglers bound latency).
            let fetched = fetch(&self.sites.network, self.fetch_plans(proc)?)?;
            // 2. Execute locally over the fetched rows.
            let t_exec0 = Instant::now();
            let mut ctx = ClientCtx::new(fetched, proc.write_set.clone());
            let result = self.executor.execute(&mut ctx, proc)?;
            let (writes, read_stamps) = ctx.into_writes();
            let exec_time = t_exec0.elapsed();
            if let Some(rec) = self.sites.network.recorder() {
                use dynamast_common::trace::{TraceKind, TracePayload, TraceSite};
                rec.record(
                    trace_id,
                    TraceSite::None,
                    TraceKind::TxnExecute,
                    TracePayload::Span {
                        us: exec_time.as_micros() as u64,
                        vv_wait_us: 0,
                    },
                );
            }
            // 3. Two-phase commit (prepare + decide, even for one fragment).
            let t_commit0 = Instant::now();
            let mut groups: BTreeMap<SiteId, Vec<WriteEntry>> = BTreeMap::new();
            for (key, row) in writes {
                groups
                    .entry(self.owner_of_key(key)?)
                    .or_default()
                    .push(WriteEntry { key, row });
            }
            let txn_id = (u64::from(self.config.num_sites as u32) << 48)
                | self.txn_counter.fetch_add(1, Ordering::Relaxed);
            match two_phase_commit(&self.sites.network, trace_id, txn_id, groups, &read_stamps)? {
                Some(commit_vv) => {
                    session.observe(&commit_vv);
                    let commit_time = t_commit0.elapsed();
                    let mut breakdown = Breakdown::from_parts(
                        Duration::ZERO,
                        Duration::ZERO,
                        dynamast_site::messages::ExecTimings {
                            begin_us: 0,
                            exec_us: exec_time.as_micros() as u32,
                            commit_us: commit_time.as_micros() as u32,
                        },
                        t0.elapsed(),
                    );
                    breakdown.execution = exec_time;
                    return Ok(TxnOutcome { result, breakdown });
                }
                None => {
                    attempt += 1;
                    if attempt >= 64 {
                        return Err(dynamast_common::DynaError::TxnAborted {
                            reason: "2pc retries exhausted",
                        });
                    }
                    thread::sleep(Duration::from_micros(
                        200 * u64::from(attempt) + (txn_id % 7) * 100,
                    ));
                }
            }
        }
    }

    fn read(&self, session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome> {
        let t0 = Instant::now();
        match self.kind {
            StaticKind::MultiMaster => {
                // Replicas make any site a valid snapshot reader.
                let site = SiteId::new(self.rng.lock().gen_range(0..self.config.num_sites));
                let txn_id = dynamast_common::trace::next_trace_id();
                let (result, timings) = exec_read_at(
                    &self.sites.network,
                    site,
                    txn_id,
                    session,
                    proc,
                    ReadMode::Snapshot,
                )?;
                Ok(TxnOutcome {
                    result,
                    breakdown: Breakdown::from_parts(
                        Duration::ZERO,
                        Duration::ZERO,
                        timings,
                        t0.elapsed(),
                    ),
                })
            }
            StaticKind::PartitionStore => {
                // Multi-site read-only transaction: the client fans out to
                // every owning site and completes at the slowest response.
                let fetched = fetch(&self.sites.network, self.fetch_plans(proc)?)?;
                let mut ctx = ClientCtx::new(fetched, Vec::new());
                let result = self.executor.execute(&mut ctx, proc)?;
                Ok(TxnOutcome {
                    result,
                    breakdown: Breakdown::from_parts(
                        Duration::ZERO,
                        Duration::ZERO,
                        dynamast_site::messages::ExecTimings::default(),
                        t0.elapsed(),
                    ),
                })
            }
        }
    }

    fn stats(&self) -> SystemStats {
        self.sites.stats()
    }
}
