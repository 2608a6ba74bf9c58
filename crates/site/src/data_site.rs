//! The data site: site manager + database + replication manager (§V-A).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use dynamast_common::codec::{encode_to_vec, Decode};
use dynamast_common::ids::{Key, PartitionId, SiteId};
use dynamast_common::trace::{FlightRecorder, TraceKind, TracePayload, TraceSite};
use dynamast_common::{DynaError, Result, Row, SystemConfig, VersionVector};
use dynamast_network::{wait_until, EndpointId, Network, RpcHandler, ServerHandle};
use dynamast_replication::checkpoint::{self, Checkpoint};
use dynamast_replication::record::{LogRecord, WriteEntry};
use dynamast_replication::{LogSet, Propagator, RefreshApplier, Wake};
use dynamast_storage::{Catalog, ImageRecord, LockGuard, ReadAt, Store, VersionStamp, Visit};

use crate::clock::SiteClock;
use crate::messages::{ExecTimings, RemoteError, SiteRequest, SiteResponse};
use crate::ownership::Ownership;
use crate::pipeline::{apply_refresh_batch_with, collect_all, CommitPipeline, Install};
use crate::proc::{LocalCtx, ProcCall, ProcExecutor, ReadMode};

/// Static owner lookup for statically partitioned systems (multi-master,
/// partition-store): partition → owning site.
pub type StaticOwnerFn = Arc<dyn Fn(PartitionId) -> SiteId + Send + Sync>;

/// Construction parameters for a [`DataSite`].
pub struct DataSiteConfig {
    /// This site's id.
    pub id: SiteId,
    /// Shared system configuration.
    pub system: SystemConfig,
    /// Subscribe to peer logs and apply refresh transactions (replicated
    /// systems: DynaMast, single-master, multi-master).
    pub replicate: bool,
    /// Partitions initially mastered here.
    pub initial_partitions: Vec<PartitionId>,
    /// Fixed owner lookup that a 2PC prepare checks its fragment against
    /// (multi-master / partition-store); `None` for dynamically mastered
    /// systems.
    pub static_owner: Option<StaticOwnerFn>,
    /// Static read-only tables replicated at every site even in otherwise
    /// unreplicated systems (the paper's partition-store "does not replicate
    /// data except for static read-only tables", e.g. TPC-C `item`).
    pub replicated_tables: Vec<dynamast_common::ids::TableId>,
    /// Partitions this site initially holds a copy of. `None` = full
    /// replication (the site hosts everything — the seed behavior and all
    /// baselines); `Some` enables the partial-replication machinery: the
    /// refresh subscription filter, hosted-read admission, and the
    /// AddReplica/DropReplica provisioning endpoints.
    pub hosted: Option<Vec<PartitionId>>,
    /// Shared counter of refresh-record writes the subscription filter
    /// dropped because this site hosts no copy of their partition
    /// (`refresh_records_skipped` in the metrics snapshot).
    pub refresh_skipped: Option<Arc<dynamast_common::metrics::Counter>>,
    /// Shared counter of freshness waits that parked because this site's
    /// svv did not yet cover the required vector (`site.freshness_parks`
    /// in the metrics snapshot).
    pub freshness_parks: Option<Arc<dynamast_common::metrics::Counter>>,
}

struct PreparedTxn {
    _locks: Vec<LockGuard>,
    writes: Vec<WriteEntry>,
}

/// Per-partition replica lifecycle at this site. A partition absent from
/// [`HostedState::map`] is not hosted: its refresh writes are stripped (the
/// subscription filter) and reads are rejected with `NotReplica`.
enum ReplicaState {
    /// `AddReplica` in progress: the snapshot + log catch-up install is
    /// running, and the filter diverts the partition's live refresh writes
    /// into this buffer instead of dropping or applying them. Each write
    /// carries its commit's version-vector component sum — a linear
    /// extension of causal dominance, so sorting by it reconstructs the
    /// per-key causal install order across origins (mastership hand-off
    /// totally orders same-key writes).
    Buffering(Vec<(u64, ImageRecord)>),
    /// Fully installed: refresh writes apply, reads are admitted.
    Hosted,
}

/// The partial-replication state machine guarding which partitions this
/// site holds. One mutex, taken briefly per refresh batch (the filter
/// pre-pass) and per provisioning operation — never held across a log
/// append, an svv wait, or a network call, so the refresh appliers of other
/// origins can always make progress (no cross-origin admission deadlock).
struct HostedState {
    map: HashMap<PartitionId, ReplicaState>,
    /// Highest origin sequence the subscription filter has seen, per
    /// origin. `AddReplica` snapshots this as its catch-up ceiling: every
    /// partition write at or below the frontier was either applied (hosted)
    /// or stripped (absent) before buffering began, so the catch-up range
    /// `(src_svv[o], frontier[o]]` plus the buffer is gap-free.
    frontier: Vec<u64>,
}

/// Bounded memory of settled 2PC decisions, so duplicated or retransmitted
/// `Decide` (and late duplicate `Prepare`) messages are answered
/// idempotently instead of erroring or re-staging locks.
#[derive(Default)]
struct DecidedCache {
    outcomes: HashMap<u64, (bool, VersionVector)>,
    order: VecDeque<u64>,
}

impl DecidedCache {
    const CAPACITY: usize = 4096;

    fn record(&mut self, txn_id: u64, committed: bool, vv: VersionVector) {
        if self.outcomes.insert(txn_id, (committed, vv)).is_none() {
            self.order.push_back(txn_id);
            if self.order.len() > Self::CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.outcomes.remove(&evicted);
                }
            }
        }
    }

    fn get(&self, txn_id: u64) -> Option<&(bool, VersionVector)> {
        self.outcomes.get(&txn_id)
    }
}

/// Bounded per-partition memory of remaster operations (one ledger for
/// releases, one for grants), so retransmitted Release/Grant RPCs
/// (at-least-once delivery) replay the recorded result instead of
/// re-revoking or re-granting.
///
/// Each partition keeps its last [`RemasterLedger::RETAIN`] settled epochs,
/// sorted ascending — memory is bounded by `partitions × RETAIN` no matter
/// how many remasters (or duplicate RPCs) occur, and the latest-epoch lookup
/// the lost-reply replay needs is O(1) instead of a scan over every settled
/// operation ever.
///
/// A move is *claimed* before its ownership changes and *settled* once its
/// record is visible (or *abandoned* if it failed). A duplicate arriving in
/// between waits for the settlement instead of racing it: otherwise a
/// duplicate Release that lost the revoke answered with the previous epoch's
/// vector, and two duplicate Grants each logged a record and answered with
/// different vectors.
#[derive(Default)]
struct RemasterLedger {
    state: parking_lot::Mutex<LedgerState>,
    settled: parking_lot::Condvar,
}

#[derive(Default)]
struct LedgerState {
    per_partition: HashMap<PartitionId, VecDeque<(u64, VersionVector)>>,
    in_flight: HashSet<(PartitionId, u64)>,
}

impl RemasterLedger {
    /// Epochs retained per partition. Duplicates arrive from selector RPC
    /// retries within one remaster (same epoch) or, across a selector
    /// failover, from the deposed selector's last few epochs — both stay
    /// well inside this window.
    const RETAIN: usize = 8;

    /// Claims the moves of one RPC. Per move: the recorded result if it has
    /// settled (replay it), or `None` — the caller now owns the move and must
    /// [`RemasterLedger::record`] or [`RemasterLedger::abandon`] it. Waits
    /// while another caller holds any of the moves, and then takes every
    /// claim at once, so no caller waits while holding a claim.
    fn claim(&self, moves: &[(PartitionId, u64)]) -> Vec<Option<VersionVector>> {
        let mut guard = self.state.lock();
        while moves.iter().any(|m| guard.in_flight.contains(m)) {
            self.settled.wait(&mut guard);
        }
        let state = &mut *guard;
        moves
            .iter()
            .map(|&(partition, epoch)| {
                let recorded = state.per_partition.get(&partition).and_then(|entries| {
                    entries
                        .iter()
                        .find(|(e, _)| *e == epoch)
                        .map(|(_, vv)| vv.clone())
                });
                if recorded.is_none() {
                    state.in_flight.insert((partition, epoch));
                }
                recorded
            })
            .collect()
    }

    /// The recorded result with the highest epoch for `partition` (the
    /// lost-reply replay: the newest settled operation answers for the
    /// retransmission).
    fn latest(&self, partition: PartitionId) -> Option<VersionVector> {
        self.state
            .lock()
            .per_partition
            .get(&partition)
            .and_then(|entries| entries.back().map(|(_, vv)| vv.clone()))
    }

    /// Settles a claimed move with its result, keeping the per-partition
    /// window sorted by epoch and bounded (a late retransmit of an old epoch
    /// must not displace newer entries, so eviction always drops the lowest
    /// epoch), and wakes the duplicates waiting on it.
    fn record(&self, partition: PartitionId, epoch: u64, vv: VersionVector) {
        let mut state = self.state.lock();
        state.in_flight.remove(&(partition, epoch));
        let entries = state.per_partition.entry(partition).or_default();
        if !entries.iter().any(|(e, _)| *e == epoch) {
            let pos = entries.partition_point(|(e, _)| *e < epoch);
            entries.insert(pos, (epoch, vv));
            while entries.len() > Self::RETAIN {
                entries.pop_front();
            }
        }
        drop(state);
        self.settled.notify_all();
    }

    /// Drops the claim of a move that failed; a waiting duplicate retries it.
    fn abandon(&self, partition: PartitionId, epoch: u64) {
        self.state.lock().in_flight.remove(&(partition, epoch));
        self.settled.notify_all();
    }

    /// Total retained entries across partitions (bounded-memory assertions).
    fn len(&self) -> usize {
        self.state
            .lock()
            .per_partition
            .values()
            .map(VecDeque::len)
            .sum()
    }
}

/// What [`DataSite::execute_at`] hands back: the snapshot finally used, the
/// procedure's result and its buffered writes.
type Executed = (VersionVector, Bytes, Vec<(Key, Row)>);

/// One data site.
pub struct DataSite {
    id: SiteId,
    store: Store,
    clock: Arc<SiteClock>,
    /// The single sequencing path for every durable state change at this
    /// site: local commits, 2PC decides, and remaster Release/Grant records
    /// all draw their sequence + log slot from [`CommitPipeline::begin`] and
    /// complete concurrently — installs and serialization run outside any
    /// global lock, with the clock's in-order publication and the log's
    /// group-commit watermark keeping visibility in commit order.
    pipeline: CommitPipeline,
    ownership: Arc<Ownership>,
    logs: LogSet,
    executor: Arc<dyn ProcExecutor>,
    network: Arc<Network>,
    static_owner: Option<StaticOwnerFn>,
    prepared: parking_lot::Mutex<HashMap<u64, PreparedTxn>>,
    decided: parking_lot::Mutex<DecidedCache>,
    /// Settled remaster operations with bounded per-partition retention; a
    /// retransmitted Release/Grant (at-least-once RPC) replays the recorded
    /// result instead of re-revoking or re-granting.
    released: RemasterLedger,
    granted: RemasterLedger,
    /// Selector fence watermark (§V-C failover): the highest selector
    /// generation this site has observed. Remaster RPCs carrying a lower
    /// generation come from a deposed selector and are rejected with
    /// [`DynaError::StaleSelector`], making dual mastership impossible.
    selector_generation: AtomicU64,
    /// Highest remaster epoch this site has participated in (release or
    /// grant). Persisted in checkpoints so recovery after log truncation
    /// still knows the epoch floor, and stamped onto audit-plane events.
    max_epoch_seen: AtomicU64,
    config: SystemConfig,
    /// Flight recorder shared by the deployment (cached from the network at
    /// construction so execution hot paths never touch the fabric lock).
    recorder: Option<Arc<FlightRecorder>>,
    replicate: bool,
    replicated_tables: std::collections::HashSet<dynamast_common::ids::TableId>,
    /// Partial-replication state (`None` = full replication: the site hosts
    /// every partition and the filter/admission machinery is inert).
    hosted: Option<parking_lot::Mutex<HostedState>>,
    /// Shared `refresh_records_skipped` counter (metrics registry).
    refresh_skipped: Option<Arc<dynamast_common::metrics::Counter>>,
    /// Committed update transactions (diagnostics).
    pub commits: dynamast_common::metrics::Counter,
    /// 2PC aborts observed as participant (diagnostics).
    pub aborts: dynamast_common::metrics::Counter,
}

/// Running servers for a site; dropping stops RPC service and propagation.
pub struct SiteRuntime {
    site: Arc<DataSite>,
    _server: ServerHandle,
    _propagator: Option<Propagator>,
}

impl SiteRuntime {
    /// The served site.
    pub fn site(&self) -> &Arc<DataSite> {
        &self.site
    }
}

impl Drop for SiteRuntime {
    fn drop(&mut self) {
        // Unblock any waiters (freshness waits) and fire pending refresh
        // wakes before the server handle joins its workers.
        self.site.clock.shut_down();
    }
}

impl DataSite {
    /// Creates a data site over shared logs and network.
    pub fn new(
        cfg: DataSiteConfig,
        catalog: Catalog,
        logs: LogSet,
        network: Arc<Network>,
        executor: Arc<dyn ProcExecutor>,
    ) -> Arc<Self> {
        let store = Store::new(catalog, cfg.system.mvcc_versions);
        let clock = SiteClock::new(cfg.id, cfg.system.num_sites);
        Self::build(cfg, store, clock, logs, network, executor)
    }

    /// Re-creates a crashed site from state replayed out of the durable
    /// logs (§V-C): the store and svv come from
    /// `dynamast_replication::recovery::replay`, the mastered set from
    /// the recovered grant/release history. Volatile state (prepared 2PC
    /// fragments, dedup caches) starts empty, exactly as a process restart
    /// would leave it.
    pub fn from_recovered(
        cfg: DataSiteConfig,
        store: Store,
        svv: VersionVector,
        logs: LogSet,
        network: Arc<Network>,
        executor: Arc<dyn ProcExecutor>,
    ) -> Arc<Self> {
        let clock = SiteClock::from_recovered(cfg.id, svv);
        Self::build(cfg, store, clock, logs, network, executor)
    }

    fn build(
        cfg: DataSiteConfig,
        store: Store,
        clock: SiteClock,
        logs: LogSet,
        network: Arc<Network>,
        executor: Arc<dyn ProcExecutor>,
    ) -> Arc<Self> {
        let recorder = network.recorder();
        let clock = Arc::new(clock.counting_parks(cfg.freshness_parks));
        let pipeline =
            CommitPipeline::new(cfg.id, Arc::clone(&clock), Arc::clone(logs.log(cfg.id)));
        let hosted = cfg.hosted.map(|parts| {
            parking_lot::Mutex::new(HostedState {
                map: parts
                    .into_iter()
                    .map(|p| (p, ReplicaState::Hosted))
                    .collect(),
                // Everything at or below the (possibly recovered) svv was
                // already settled locally — applied, stripped, or replayed —
                // so the filter's frontier starts at the clock, not at zero.
                frontier: clock.current().as_slice().to_vec(),
            })
        });
        Arc::new(DataSite {
            id: cfg.id,
            store,
            clock,
            pipeline,
            ownership: Arc::new(Ownership::new(cfg.initial_partitions)),
            logs,
            executor,
            network,
            static_owner: cfg.static_owner,
            prepared: parking_lot::Mutex::new(HashMap::new()),
            decided: parking_lot::Mutex::new(DecidedCache::default()),
            released: RemasterLedger::default(),
            granted: RemasterLedger::default(),
            selector_generation: AtomicU64::new(0),
            max_epoch_seen: AtomicU64::new(0),
            config: cfg.system,
            recorder,
            replicate: cfg.replicate,
            replicated_tables: cfg.replicated_tables.into_iter().collect(),
            hosted,
            refresh_skipped: cfg.refresh_skipped,
            commits: dynamast_common::metrics::Counter::new(),
            aborts: dynamast_common::metrics::Counter::new(),
        })
    }

    /// Registers the RPC endpoint and starts replication subscribers.
    pub fn start(self: &Arc<Self>, workers: usize) -> SiteRuntime {
        self.start_with_offsets(workers, vec![0; self.logs.num_sites()])
    }

    /// Like [`DataSite::start`], but resumes replication subscribers from
    /// the given per-origin log offsets (the replayed positions after
    /// recovery, so already-applied records are not re-fetched).
    pub fn start_with_offsets(self: &Arc<Self>, workers: usize, offsets: Vec<u64>) -> SiteRuntime {
        let handler: Arc<dyn RpcHandler> = Arc::new(SiteRpc {
            site: Arc::clone(self),
        });
        let server = self
            .network
            .serve(EndpointId::Site(self.id.raw()), handler, workers);
        let propagator = self.replicate.then(|| {
            Propagator::start(
                self.id,
                &self.logs,
                Arc::clone(self) as Arc<dyn RefreshApplier>,
                self.network.config(),
                Some(Arc::clone(&self.network)),
                Some(Arc::clone(self.network.stats())),
                offsets,
            )
        });
        SiteRuntime {
            site: Arc::clone(self),
            _server: server,
            _propagator: propagator,
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The storage engine (tests, recovery assertions, DB-size accounting).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The site clock.
    pub fn clock(&self) -> &SiteClock {
        &self.clock
    }

    /// The mastership table.
    pub fn ownership(&self) -> &Arc<Ownership> {
        &self.ownership
    }

    /// The shared network.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// The shared system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Records one site-side flight-recorder event. Untraced transactions
    /// (`txn_id == 0` — e.g. raw test RPCs) are skipped so they do not
    /// crowd the bounded ring.
    fn trace(&self, txn_id: u64, kind: TraceKind, payload: TracePayload) {
        if txn_id == 0 {
            return;
        }
        if let Some(rec) = &self.recorder {
            rec.record(txn_id, TraceSite::Site(self.id.raw()), kind, payload);
        }
    }

    /// Charges the simulated CPU cost of executing a stored procedure that
    /// touched `ops` rows. Waiting here holds one of the site's RPC handler
    /// slots — the data site's capacity is its `workers` slots, like the
    /// paper's 12-core machines — without burning host CPU.
    fn service_sleep(&self, ops: u64) {
        let cost = self.config.service_base + self.config.service_per_op * (ops as u32);
        if !cost.is_zero() {
            wait_until(Instant::now() + cost);
        }
    }

    fn partitions_of(&self, keys: &[Key]) -> Result<Vec<PartitionId>> {
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            out.push(self.store.catalog().partition_of(*key)?);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// `true` under full replication, or if the partition's copy is fully
    /// installed here (a mid-install `Buffering` copy does not count).
    pub fn hosts(&self, partition: PartitionId) -> bool {
        match &self.hosted {
            None => true,
            Some(h) => matches!(h.lock().map.get(&partition), Some(ReplicaState::Hosted)),
        }
    }

    /// The fully installed partitions, sorted — `None` under full
    /// replication. Mid-install (`Buffering`) copies are excluded: a
    /// checkpoint or reconciliation snapshot must never claim a copy that
    /// is not yet complete.
    pub fn hosted_partitions(&self) -> Option<Vec<PartitionId>> {
        self.hosted.as_ref().map(|h| {
            let mut parts: Vec<PartitionId> = h
                .lock()
                .map
                .iter()
                .filter(|(_, s)| matches!(s, ReplicaState::Hosted))
                .map(|(p, _)| *p)
                .collect();
            parts.sort_unstable();
            parts
        })
    }

    /// Directly marks `partition` as hosted (bulk-load seeding and test
    /// setup — before any traffic, so no protocol-mediated install is
    /// needed). No-op under full replication or when an install is already
    /// in flight.
    pub fn host_partition(&self, partition: PartitionId) {
        if let Some(h) = &self.hosted {
            h.lock()
                .map
                .entry(partition)
                .or_insert(ReplicaState::Hosted);
        }
    }

    /// Partial-replication admission (§IV-B): every partition the
    /// transaction declares — writes, point reads, and the partitions a
    /// range scan spans — must be fully hosted here, else the caller gets
    /// [`DynaError::NotReplica`] and the selector routes elsewhere (or
    /// provisions a copy first). Statically replicated tables are exempt:
    /// they exist at every site regardless of the replica map.
    fn check_hosted(&self, proc: &ProcCall) -> Result<()> {
        let Some(hosted) = &self.hosted else {
            return Ok(());
        };
        let partitions = proc.partitions(self.store.catalog(), |table| {
            self.replicated_tables.contains(&table)
        })?;
        let state = hosted.lock();
        for p in partitions {
            if !matches!(state.map.get(&p), Some(ReplicaState::Hosted)) {
                return Err(DynaError::NotReplica {
                    site: self.id,
                    partition: p,
                });
            }
        }
        Ok(())
    }

    /// Directly loads a row during workload population (bypasses the
    /// protocol; used only before a benchmark run starts, mirroring the
    /// paper's pre-loaded initial database).
    ///
    /// Every replica stamps loaded rows identically — `(site 0, seq 0)`,
    /// visible to every snapshot — so that version-stamp comparisons across
    /// replicas (2PC read validation) treat the copies as the same version.
    pub fn load_row(&self, key: Key, row: dynamast_common::Row) -> Result<()> {
        self.store
            .install(key, VersionStamp::new(SiteId::new(0), 0), row)
    }

    // ------------------------------------------------------------------
    // Single-site execution (DynaMast, single-master, LEAP local path)
    // ------------------------------------------------------------------

    /// Runs `proc` against the snapshot `begin`, and again on a fresher one
    /// for as long as a read came back empty from a version chain at
    /// capacity: chains are bounded (§V-A1), so a transaction that falls
    /// `mvcc_versions` commits behind on a hot row finds its version evicted
    /// — which must restart it, not hand it "no such row". Procedures only
    /// buffer their writes, so re-execution is free of side effects.
    fn execute_at(
        &self,
        mut begin: VersionVector,
        mode: ReadMode,
        proc: &ProcCall,
        write_set: &[Key],
    ) -> Result<Executed> {
        loop {
            let mut ctx = LocalCtx::new(&self.store, &begin, mode, write_set);
            let result = self.executor.execute(&mut ctx, proc);
            if ctx.snapshot_too_old() {
                thread::yield_now();
                begin = self.clock.wait_dominates(&begin)?;
                continue;
            }
            self.service_sleep(ctx.ops());
            let writes = ctx.into_writes();
            return Ok((begin, result?, writes));
        }
    }

    /// Executes and locally commits an update transaction (§III-B step 3).
    pub fn run_update(
        self: &Arc<Self>,
        txn_id: u64,
        min_vv: &VersionVector,
        proc: &ProcCall,
        check_mastery: bool,
    ) -> Result<(Bytes, VersionVector, ExecTimings)> {
        let t0 = Instant::now();
        self.check_hosted(proc)?;
        let write_partitions = self.partitions_of(&proc.write_set)?;
        let _writer_guard =
            self.ownership
                .register_writer(self.id, &write_partitions, check_mastery)?;
        let locks = self.store.lock_write_set(&proc.write_set);
        // Begin timestamp is taken after lock acquisition (Appendix A,
        // Case 1 relies on this). Unreplicated systems (LEAP,
        // partition-store) cannot satisfy cross-site freshness waits — no
        // refresh stream exists — and do not need to: ownership transfer /
        // 2PC moves the data itself, so latest-read is already session
        // consistent there.
        let t_locked = Instant::now();
        let (begin, mode) = if self.replicate {
            // First-committer-wins: a local commit releases its row locks
            // when its log slot is filled, but its sequence publishes only
            // once every earlier slot is filled too (`commit_local`), so the
            // newest version of a row locked here may not be in the svv
            // yet. The locks make that version stable; the snapshot must
            // cover it, or this transaction would compute its write from
            // the value underneath and silently undo the other one.
            let mut floor = min_vv.clone();
            for key in &proc.write_set {
                if let Ok(Visit::Hit(newest)) = self.store.visit(*key, ReadAt::Latest, |_, s| s) {
                    if floor.get(newest.origin) < newest.sequence {
                        floor.set(newest.origin, newest.sequence);
                    }
                }
            }
            (self.clock.wait_dominates(&floor)?, ReadMode::Snapshot)
        } else {
            (self.clock.current(), ReadMode::Latest)
        };
        let t_begin = Instant::now();
        self.trace(
            txn_id,
            TraceKind::TxnBegin,
            TracePayload::Span {
                us: (t_begin - t0).as_micros() as u64,
                vv_wait_us: (t_begin - t_locked).as_micros() as u64,
            },
        );
        let (begin, result, writes) = self.execute_at(begin, mode, proc, &proc.write_set)?;
        let writes = writes
            .into_iter()
            .map(|(key, row)| WriteEntry::new(key, row))
            .collect();
        let t_exec = Instant::now();
        self.trace(
            txn_id,
            TraceKind::TxnExecute,
            TracePayload::Span {
                us: (t_exec - t_begin).as_micros() as u64,
                vv_wait_us: 0,
            },
        );
        let commit_vv = self.commit_local(txn_id, &begin, writes)?;
        drop(locks);
        let t_commit = Instant::now();
        self.commits.inc();
        self.trace(
            txn_id,
            TraceKind::TxnCommit,
            TracePayload::Commit {
                origin: self.id.raw(),
                sequence: commit_vv.get(self.id),
                us: (t_commit - t_exec).as_micros() as u64,
            },
        );
        Ok((
            result,
            commit_vv,
            ExecTimings {
                begin_us: (t_begin - t0).as_micros() as u32,
                exec_us: (t_exec - t_begin).as_micros() as u32,
                commit_us: (t_commit - t_exec).as_micros() as u32,
            },
        ))
    }

    /// Installs buffered writes as a local commit through the commit
    /// pipeline: a tiny sequencing section (sequence + reserved log slot),
    /// then record serialization and version installs outside any global
    /// lock — concurrent with other committers — then the in-order
    /// publication (group-committed log fill + svv advance). Readers can
    /// never observe the sequence before the versions are readable, and the
    /// commit record goes to the durable log for propagation and redo
    /// (§V-A2).
    fn commit_local(
        &self,
        txn_id: u64,
        begin: &VersionVector,
        writes: Vec<WriteEntry>,
    ) -> Result<VersionVector> {
        // Validate before entering the pipeline: between begin() and
        // commit() the path must be infallible, or the abandoned ticket
        // would wedge the site's commit order.
        for w in &writes {
            self.store.catalog().table(w.key.table)?;
        }
        // The guard backstops the infallible contract: if anything below
        // panics (a poisoned executor, an injected crash point), the slot is
        // tombstoned on unwind instead of wedging the commit order.
        let guard = self.pipeline.begin_guarded();
        let ticket = guard.ticket();
        let stamp = VersionStamp::new(self.id, ticket.seq);
        let mut tvv = begin.clone();
        tvv.set(self.id, ticket.seq);
        let commit_vv = tvv.clone();
        let record = LogRecord::Commit {
            origin: self.id,
            tvv,
            writes,
        };
        // Serialize while the record still borrows the rows, then take the
        // rows back and move them into the version chains: each row is
        // encoded once and moved once, never cloned.
        let encoded = Bytes::from(encode_to_vec(&record));
        let LogRecord::Commit { writes, .. } = record else {
            unreachable!("constructed above")
        };
        let audit = self.recorder.as_deref().filter(|rec| rec.audit_enabled());
        let audit_values = audit.is_some_and(|rec| rec.audit_values());
        let mut effects = audit.map(|_| {
            (
                dynamast_common::audit::EffectBatch::with_capacity(writes.len()),
                self.selector_generation.load(Ordering::Relaxed),
                self.max_epoch_seen.load(Ordering::Relaxed),
            )
        });
        for w in writes {
            if let Some((batch, generation, epoch)) = effects.as_mut() {
                // The row write locks are still held, so the latest version
                // is exactly the one this install replaces — its stamp is
                // the audit plane's lost-update parent. Signatures are only
                // hashed when the conservation checker will consume them.
                let prev = self
                    .store
                    .visit(w.key, ReadAt::Latest, |row, s| {
                        (
                            if audit_values {
                                dynamast_common::audit::value_signature(row)
                            } else {
                                0
                            },
                            s.origin.raw(),
                            s.sequence,
                        )
                    })
                    .ok()
                    .and_then(Visit::hit);
                batch.write_effect(
                    txn_id,
                    self.id.raw(),
                    self.store
                        .catalog()
                        .partition_of(w.key)
                        .map(|p| p.raw())
                        .unwrap_or(u64::MAX),
                    w.key.table.raw(),
                    w.key.record,
                    prev,
                    if audit_values {
                        dynamast_common::audit::value_signature(&w.row)
                    } else {
                        0
                    },
                    self.id.raw(),
                    ticket.seq,
                    *generation,
                    *epoch,
                    false,
                );
            }
            self.store
                .install(w.key, stamp, w.row)
                .expect("tables validated before pipeline begin");
        }
        if let (Some(rec), Some((mut batch, _, _))) = (audit, effects) {
            batch.flush(rec);
        }
        self.pipeline.commit_encoded(guard.defuse(), encoded);
        // The transaction vector is the client's session vector; publication
        // of `svv[self] = seq` rides the group commit (the fill that closed
        // the log gap), so the committer itself never parks for it.
        Ok(commit_vv)
    }

    /// Executes a read-only transaction (§IV-B: runs at any replica, or at
    /// owners under latest-read mode for the unreplicated systems).
    pub fn run_read(
        self: &Arc<Self>,
        txn_id: u64,
        min_vv: &VersionVector,
        proc: &ProcCall,
        mode: ReadMode,
    ) -> Result<(Bytes, VersionVector, ExecTimings)> {
        let t0 = Instant::now();
        self.check_hosted(proc)?;
        let begin = match mode {
            ReadMode::Snapshot => self.clock.wait_dominates(min_vv)?,
            ReadMode::Latest => self.clock.current(),
        };
        let t_begin = Instant::now();
        self.trace(
            txn_id,
            TraceKind::TxnBegin,
            TracePayload::Span {
                us: (t_begin - t0).as_micros() as u64,
                vv_wait_us: (t_begin - t0).as_micros() as u64,
            },
        );
        let (begin, result, _) = self.execute_at(begin, mode, proc, &[])?;
        let t_exec = Instant::now();
        self.trace(
            txn_id,
            TraceKind::TxnExecute,
            TracePayload::Span {
                us: (t_exec - t_begin).as_micros() as u64,
                vv_wait_us: 0,
            },
        );
        Ok((
            result,
            begin,
            ExecTimings {
                begin_us: (t_begin - t0).as_micros() as u32,
                exec_us: (t_exec - t_begin).as_micros() as u32,
                commit_us: 0,
            },
        ))
    }

    // ------------------------------------------------------------------
    // Dynamic mastering protocol (§III-B) and selector fencing (§V-C)
    // ------------------------------------------------------------------

    /// Admits a remaster RPC's fencing token: raises the site's watermark to
    /// `generation` if higher, and rejects the request if a newer selector
    /// has already fenced this site. The `fetch_max` makes the watermark
    /// monotone under concurrent remasters and fences.
    pub fn check_selector_generation(&self, generation: u64) -> Result<()> {
        let prev = self
            .selector_generation
            .fetch_max(generation, Ordering::AcqRel);
        if generation < prev {
            return Err(DynaError::StaleSelector {
                observed: generation,
                current: prev,
            });
        }
        Ok(())
    }

    /// Installs a selector fence and returns the reconciliation snapshot a
    /// promoting standby needs: the site's svv and the partitions its live
    /// ownership table currently masters (draining sentinels excluded — a
    /// partition mid-release is no longer a positive mastership claim).
    pub fn fence_selector(&self, generation: u64) -> Result<(VersionVector, Vec<PartitionId>)> {
        self.check_selector_generation(generation)?;
        let mastered = self
            .ownership
            .mastered_partitions()
            .into_iter()
            .filter(|p| p.raw() & (1 << 63) == 0)
            .collect();
        Ok((self.clock.current(), mastered))
    }

    /// Builds this site's durable checkpoint file at the current svv cut:
    /// the cut vector, the per-origin log offsets it corresponds to (equal
    /// to the cut by the slot = sequence invariant), the live mastered set
    /// (draining sentinels excluded), and the store image of every version
    /// visible at the cut, encoded into the file as the store walk visits
    /// it (no image is collected first).
    ///
    /// The site's own log is forced durable through the cut *after* the cut
    /// is taken (sync covers everything published, which includes the cut;
    /// a no-op when the log is already durable that far), so the checkpoint
    /// never claims a sequence the disk does not hold — restart would
    /// otherwise re-allocate sequences the checkpoint already accounted
    /// for. Other origins' dimensions are safe without an extra
    /// sync: under `fsync=group|always` a record is synced in the same
    /// gap-closing fill that publishes it, so any sequence in this site's
    /// svv is already durable at its origin.
    ///
    /// The mastered set is read after the cut and may differ from it by
    /// in-flight remasters; recovery reconciles by replaying the own-log
    /// suffix's Release/Grant records as idempotent set removals/insertions.
    ///
    /// The image is the whole store at the cut, so under partial
    /// replication it also holds the rows of a copy that was mid-install
    /// (`Buffering`) at the cut, which the hosted set excludes; restore
    /// keeps only the hosted partitions' rows.
    pub fn build_checkpoint(&self, counter: u64) -> Result<checkpoint::Writer> {
        let cut = self.clock.current();
        self.logs.log(self.id).sync_for_checkpoint()?;
        let mastered: Vec<PartitionId> = self
            .ownership
            .mastered_partitions()
            .into_iter()
            .filter(|p| p.raw() & (1 << 63) == 0)
            .collect();
        let mut file = checkpoint::Writer::new(Checkpoint {
            counter,
            site: self.id,
            offsets: cut.as_slice().to_vec(),
            svv: cut.clone(),
            mastered,
            epoch: self.max_epoch_seen.load(Ordering::Acquire),
            hosted: self.hosted_partitions(),
            image: checkpoint::Image::default(),
        });
        self.store
            .visit_image(ReadAt::Begin(&cut), None, |key, stamp, row| {
                file.record(key, stamp, row)
            })?;
        Ok(file)
    }

    /// Seeds the fence watermark on a freshly (re)built site, so a restarted
    /// site does not accept remasters from selectors deposed before its
    /// crash. Monotone: never lowers an already-observed generation.
    pub fn install_selector_generation(&self, generation: u64) {
        self.selector_generation
            .fetch_max(generation, Ordering::AcqRel);
    }

    /// The highest selector generation this site has observed.
    pub fn selector_generation(&self) -> u64 {
        self.selector_generation.load(Ordering::Acquire)
    }

    /// Seeds the remaster-epoch watermark on a freshly (re)built site (from
    /// a checkpoint or replayed logs). Monotone, like
    /// [`DataSite::install_selector_generation`].
    pub fn install_remaster_epoch(&self, epoch: u64) {
        self.max_epoch_seen.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Releases mastership of each `(partition, epoch)` — the moves of one
    /// `Release` RPC: waits for the partition's in-flight writers, logs the
    /// release (recovery, §V-C) and returns, per move, the svv at the
    /// release point.
    ///
    /// Each partition gets its own drain, its own Release log record
    /// (per-origin in-order replication admission is preserved) and its own
    /// ledger entry, and a failed move leaves the others alone — but the
    /// records are filled together and the site waits for visibility *once*
    /// (see `log_moves`), so k moves cost one publication — on a
    /// durable log one group fsync — and one move costs what it always did.
    ///
    /// Idempotent per `(partition, epoch)`: a retransmitted release (lost
    /// reply under fault injection) replays the recorded `rel_vv` instead of
    /// failing the unmastered-revoke check; one that races the original
    /// waits for the original's result.
    pub fn release_moves(&self, moves: &[(PartitionId, u64)]) -> Vec<Result<VersionVector>> {
        let admitted = moves
            .iter()
            .zip(self.released.claim(moves))
            .map(|(&(partition, epoch), recorded)| {
                if recorded.is_some() {
                    return Ok(recorded);
                }
                if let Err(e) = self.ownership.revoke_and_drain(partition) {
                    self.released.abandon(partition, epoch);
                    // The selector lost the reply and retries under a
                    // *fresh* epoch (each routing attempt allocates one); it
                    // only sends Release to the site its exclusively-locked
                    // map names as master, so reaching here unmastered means
                    // the earlier release executed: replay the latest one
                    // recorded.
                    return self.released.latest(partition).map(Some).ok_or(e);
                }
                Ok(None)
            })
            .collect();
        self.log_moves(false, moves.to_vec(), admitted)
    }

    /// Takes mastership of each `(partition, epoch)` once this site has
    /// caught up to its releaser's `rel_vv` — the moves of one `Grant` RPC,
    /// logged and answered like [`DataSite::release_moves`].
    ///
    /// Idempotent per `(partition, epoch)`: a duplicated grant, racing or
    /// late, returns the recorded `grant_vv` without appending a second
    /// Grant record.
    pub fn grant_moves(
        &self,
        grants: &[(PartitionId, u64, VersionVector)],
    ) -> Vec<Result<VersionVector>> {
        let keys: Vec<_> = grants.iter().map(|(p, epoch, _)| (*p, *epoch)).collect();
        let admitted = grants
            .iter()
            .zip(self.granted.claim(&keys))
            .map(|((partition, epoch, rel_vv), recorded)| {
                if recorded.is_some() {
                    return Ok(recorded);
                }
                self.admit_grant(*partition, rel_vv)
                    .inspect_err(|_| self.granted.abandon(*partition, *epoch))
                    .map(|()| None)
            })
            .collect();
        self.log_moves(true, keys, admitted)
    }

    /// Takes ownership of one claimed grant once this site may master it.
    fn admit_grant(&self, partition: PartitionId, rel_vv: &VersionVector) -> Result<()> {
        // Master-hosts invariant (partial replication): a site may only be
        // granted mastership of a partition it fully hosts — the selector
        // installs a copy first (create-then-grant) when the Eq. 8 choice
        // lands on a non-replica.
        if let Some(hosted) = &self.hosted {
            if !matches!(
                hosted.lock().map.get(&partition),
                Some(ReplicaState::Hosted)
            ) {
                return Err(DynaError::NotReplica {
                    site: self.id,
                    partition,
                });
            }
        }
        self.clock.wait_dominates(rel_vv)?;
        self.ownership.grant(partition);
        Ok(())
    }

    /// The shared tail of a remaster RPC. `admitted[i]` is an error, a
    /// result replayed from the ledger, or `None` for a move whose ownership
    /// change is done and still has to be logged. Those get one Release or
    /// Grant record each, filled together, and one wait until the last of
    /// them is visible — the returned vector is the remaster handoff point,
    /// so it must cover the records themselves — and are then ledgered and
    /// audited one by one.
    fn log_moves(
        &self,
        granted: bool,
        keys: Vec<(PartitionId, u64)>,
        admitted: Vec<Result<Option<VersionVector>>>,
    ) -> Vec<Result<VersionVector>> {
        let tickets: Vec<_> = admitted
            .iter()
            .map(|a| matches!(a, Ok(None)).then(|| self.pipeline.begin()))
            .collect();
        // Encoded before the fill, which holds the log lock.
        let fills: Vec<_> = keys
            .iter()
            .zip(&tickets)
            .filter_map(|(&(partition, epoch), ticket)| {
                let ticket = (*ticket)?;
                let (origin, sequence) = (self.id, ticket.seq);
                let record = if granted {
                    LogRecord::Grant {
                        origin,
                        sequence,
                        partition,
                        epoch,
                    }
                } else {
                    LogRecord::Release {
                        origin,
                        sequence,
                        partition,
                        epoch,
                    }
                };
                Some((ticket, Bytes::from(encode_to_vec(&record))))
            })
            .collect();
        self.pipeline.commit_all(fills);
        let last = tickets.iter().flatten().map(|ticket| ticket.seq).max();
        let visible = last.map(|seq| self.clock.wait_published(seq));
        let ledger = if granted {
            &self.granted
        } else {
            &self.released
        };
        keys.into_iter()
            .zip(admitted)
            .zip(tickets)
            .map(|(((partition, epoch), admitted), ticket)| {
                if let Some(replayed) = admitted? {
                    return Ok(replayed);
                }
                let seq = ticket.expect("an admitted move was logged").seq;
                let vv = visible
                    .clone()
                    .expect("a logged move waited")
                    .inspect_err(|_| ledger.abandon(partition, epoch))?;
                ledger.record(partition, epoch, vv.clone());
                self.max_epoch_seen.fetch_max(epoch, Ordering::AcqRel);
                if let Some(rec) = self.recorder.as_deref().filter(|r| r.audit_enabled()) {
                    dynamast_common::audit::emit_ownership(
                        rec,
                        self.id.raw(),
                        partition.raw(),
                        seq,
                        epoch,
                        granted,
                    );
                }
                Ok(vv)
            })
            .collect()
    }

    /// Retained remaster-ledger entries `(released, granted)` — exposed so
    /// tests can assert the idempotency state stays bounded under duplicate
    /// RPC hammering.
    pub fn remaster_ledger_sizes(&self) -> (usize, usize) {
        (self.released.len(), self.granted.len())
    }

    // ------------------------------------------------------------------
    // 2PC participant (multi-master / partition-store)
    // ------------------------------------------------------------------

    /// 2PC phase one: validate ownership, try-lock the fragment's write set
    /// and stage the writes. A lock conflict votes **no** immediately —
    /// blocking here could deadlock with a concurrent transaction preparing
    /// in the opposite site order; the coordinator aborts and retries with
    /// backoff instead.
    pub fn prepare(
        &self,
        txn_id: u64,
        writes: Vec<WriteEntry>,
        expected: &[crate::messages::ExpectedVersion],
    ) -> Result<bool> {
        // Duplicate-delivery idempotency: a second copy of a Prepare must
        // not deadlock on its own staged locks, and a copy arriving after
        // the decision must not re-stage (its locks would leak).
        if let Some((committed, _)) = self.decided.lock().get(txn_id) {
            return Ok(*committed);
        }
        if self.prepared.lock().contains_key(&txn_id) {
            return Ok(true);
        }
        let keys: Vec<Key> = writes.iter().map(|w| w.key).collect();
        let partitions = self.partitions_of(&keys)?;
        for p in &partitions {
            // Statically partitioned systems (multi-master, partition-store)
            // validate against the fixed assignment — which also covers
            // partitions created after startup (e.g. TPC-C order growth);
            // dynamically mastered deployments use the live ownership table.
            let owned = match &self.static_owner {
                Some(owner) => owner(*p) == self.id,
                None => self.ownership.is_mastered(*p),
            };
            if !owned {
                return Ok(false);
            }
        }
        let mut sorted = keys;
        sorted.sort_unstable();
        sorted.dedup();
        let mut locks = Vec::with_capacity(sorted.len());
        for key in sorted {
            match self.store.locks().try_acquire(key) {
                Some(guard) => locks.push(guard),
                None => return Ok(false), // conflict: vote no, locks drop
            }
        }
        // First-committer-wins validation: the versions the coordinator
        // read for its read-modify-writes must still be current now that
        // the locks are held; otherwise a concurrent transaction committed
        // in between and blindly installing would lose its update.
        for exp in expected {
            let current = self.store.read_latest(exp.key)?.map(|(_, stamp)| stamp);
            if current != exp.stamp {
                return Ok(false);
            }
        }
        self.prepared.lock().insert(
            txn_id,
            PreparedTxn {
                _locks: locks,
                writes,
            },
        );
        Ok(true)
    }

    /// 2PC phase two. Idempotent: a duplicated or retransmitted decision
    /// replays the recorded outcome instead of committing twice (or
    /// erroring on the already-consumed staged fragment).
    pub fn decide(&self, txn_id: u64, commit: bool) -> Result<VersionVector> {
        if let Some((decided_commit, vv)) = self.decided.lock().get(txn_id) {
            // A coordinator never reverses its decision, so a retransmission
            // that disagrees with the recorded outcome is a protocol error.
            if *decided_commit != commit {
                return Err(DynaError::Internal("conflicting decision for txn"));
            }
            return Ok(vv.clone());
        }
        let staged = self.prepared.lock().remove(&txn_id);
        let vv = match (staged, commit) {
            (Some(txn), true) => {
                let begin = self.clock.current();
                let vv = self.commit_local(txn_id, &begin, txn.writes)?;
                self.commits.inc();
                vv
            }
            (Some(_), false) => {
                self.aborts.inc();
                self.clock.current()
            }
            (None, false) => self.clock.current(), // abort is idempotent
            (None, true) => {
                // A racing duplicate may have consumed the staged fragment
                // and be about to record its outcome; re-check before
                // declaring the commit unprepared.
                if let Some((true, vv)) = self.decided.lock().get(txn_id) {
                    return Ok(vv.clone());
                }
                return Err(DynaError::Internal("commit for unprepared txn"));
            }
        };
        self.decided.lock().record(txn_id, commit, vv.clone());
        Ok(vv)
    }

    // ------------------------------------------------------------------
    // Remote reads (partition-store) and LEAP data shipping
    // ------------------------------------------------------------------

    /// Serves point and range reads to a remote coordinator
    /// (latest-committed, as the unreplicated systems use).
    #[allow(clippy::type_complexity)]
    pub fn remote_read(
        &self,
        keys: &[Key],
        ranges: &[crate::proc::ScanRange],
    ) -> Result<(
        Vec<(Key, Option<(dynamast_common::Row, VersionStamp)>)>,
        Vec<Vec<(u64, dynamast_common::Row)>>,
    )> {
        let mut key_rows = Vec::with_capacity(keys.len());
        for key in keys {
            key_rows.push((*key, self.store.read_latest(*key)?));
        }
        let mut scans = Vec::with_capacity(ranges.len());
        let mut scanned = 0u64;
        for range in ranges {
            let mut rows = Vec::new();
            self.store.visit_range(
                range.table,
                range.start..range.end,
                ReadAt::Latest,
                |record, row, _| rows.push((record, row.clone())),
            )?;
            scanned += range.end.saturating_sub(range.start);
            scans.push(rows);
        }
        self.service_sleep(keys.len() as u64 + scanned);
        Ok((key_rows, scans))
    }

    /// LEAP release: gives up ownership of partitions and ships their
    /// records (data moves with mastership — the expensive transfer the
    /// paper contrasts with DynaMast's metadata-only protocol).
    pub fn leap_release(&self, partitions: &[PartitionId]) -> Result<Vec<ImageRecord>> {
        for &p in partitions {
            self.ownership.revoke_and_drain(p)?;
        }
        self.store.image(ReadAt::Latest, Some(partitions))
    }

    /// LEAP grant: installs shipped records and takes ownership — neither
    /// unless the whole image installs.
    pub fn leap_grant(&self, partitions: &[PartitionId], records: Vec<ImageRecord>) -> Result<()> {
        self.store
            .install_batch(records.into_iter().map(Into::into).collect())?;
        for &p in partitions {
            self.ownership.grant(p);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Replica provisioning (partial replication)
    // ------------------------------------------------------------------

    /// Serves a partition copy to a provisioning peer: the current svv cut
    /// plus every version of the partition visible at that cut. The cut is
    /// taken *before* the dump, so every shipped stamp is at or below the
    /// cut per origin and the receiver's log catch-up range starts exactly
    /// where the image ends.
    pub fn replica_snapshot(
        &self,
        partition: PartitionId,
    ) -> Result<(Vec<ImageRecord>, VersionVector)> {
        if !self.hosts(partition) {
            return Err(DynaError::NotReplica {
                site: self.id,
                partition,
            });
        }
        let cut = self.clock.current();
        let records = self.store.image(ReadAt::Begin(&cut), Some(&[partition]))?;
        Ok((records, cut))
    }

    /// Installs a copy of `partition` at this site (LEAP-style data
    /// shipping): snapshot image + durable-log catch-up + live-buffer
    /// drain, with the subscription filter diverting concurrent refresh
    /// writes into the buffer so no write is lost or duplicated.
    ///
    /// Every partition write lands in exactly one of three disjoint ranges
    /// per origin `o`: `seq ≤ src_svv[o]` is in the snapshot image;
    /// `src_svv[o] < seq ≤ F[o]` (the filter frontier when buffering began)
    /// is read back from the shared durable logs; `seq > F[o]` was diverted
    /// into the buffer (per-origin delivery is in order). Catch-up and
    /// buffer are installed together sorted by tvv component sum — a linear
    /// extension of the same-key causal order, since single-master
    /// serialization makes a later same-key write's tvv dominate the
    /// earlier one's componentwise — so version chains end up in causal
    /// install order even across origins.
    pub fn add_replica(
        &self,
        partition: PartitionId,
        records: Vec<ImageRecord>,
        src_svv: &VersionVector,
    ) -> Result<VersionVector> {
        let Some(hosted) = &self.hosted else {
            // Full replication hosts everything already; idempotent success.
            return Ok(self.clock.current());
        };
        // Phase 1: announce the install; from here the filter diverts this
        // partition's refresh writes into the buffer. The frontier snapshot
        // is the catch-up ceiling.
        let frontier = {
            let mut state = hosted.lock();
            match state.map.get(&partition) {
                Some(ReplicaState::Hosted) => return Ok(self.clock.current()),
                Some(ReplicaState::Buffering(_)) => {
                    return Err(DynaError::Internal("replica install already in progress"))
                }
                None => {}
            }
            state
                .map
                .insert(partition, ReplicaState::Buffering(Vec::new()));
            state.frontier.clone()
        };
        let install = || -> Result<()> {
            // Phase 2: install the snapshot image (the source's visible cut
            // at `src_svv`).
            self.store
                .install_batch(records.into_iter().map(Into::into).collect())?;
            // Phase 3: collect the durable-log suffix the filter stripped
            // while the partition was absent — sequences in
            // `(src_svv[o], frontier[o]]` per origin (slot s holds
            // sequence s + 1), read in one run per origin up to its
            // published end.
            let mut pending: Vec<(u64, ImageRecord)> = Vec::new();
            for (origin_idx, &ceiling) in frontier.iter().enumerate() {
                let origin = SiteId::new(origin_idx);
                let log = self.logs.log(origin);
                let (records, _) = log.read_range(src_svv.get(origin), Some(ceiling))?;
                for record in records {
                    let LogRecord::Commit {
                        origin,
                        tvv,
                        writes,
                    } = record
                    else {
                        continue;
                    };
                    let stamp = VersionStamp::new(origin, tvv.get(origin));
                    let sum: u64 = tvv.as_slice().iter().sum();
                    for WriteEntry { key, row } in writes {
                        if self.store.catalog().partition_of(key)? == partition {
                            pending.push((sum, ImageRecord { key, stamp, row }));
                        }
                    }
                }
            }
            // Phase 4: drain the live buffer and flip to Hosted atomically
            // with respect to the filter. The installs run under the hosted
            // mutex — the filter never holds row locks, so there is no lock
            // inversion, and releasing the mutex before installing would let
            // newer refresh writes land in the version chains *before*
            // older buffered ones (chain reads scan newest-last).
            let mut state = hosted.lock();
            match state.map.get_mut(&partition) {
                Some(ReplicaState::Buffering(buf)) => {
                    let buffered = std::mem::take(buf);
                    pending.extend(
                        buffered
                            .into_iter()
                            .filter(|(_, w)| w.stamp.sequence > src_svv.get(w.stamp.origin)),
                    );
                    pending.sort_by_key(|(sum, _)| *sum);
                    self.store
                        .install_batch(pending.into_iter().map(|(_, w)| w.into()).collect())?;
                    state.map.insert(partition, ReplicaState::Hosted);
                    Ok(())
                }
                _ => Err(DynaError::Internal("replica install state lost")),
            }
        };
        if let Err(e) = install() {
            // Roll back to "not hosted": drop the half-built copy so a
            // retry starts from a clean slate and reads keep rejecting.
            hosted.lock().map.remove(&partition);
            let _ = self.store.purge_partition(partition);
            return Err(e);
        }
        // Phase 5: serve reads only once the local svv covers the snapshot
        // cut, and re-baseline the audit plane — the installed copies are
        // new state at this site, exactly like a restart image.
        self.clock.wait_dominates(src_svv)?;
        if let Some(rec) = &self.recorder {
            dynamast_common::audit::emit_site_restart(rec, self.id.raw());
        }
        Ok(self.clock.current())
    }

    /// Drops this site's copy of `partition`, purging its rows and
    /// returning `(rows, bytes)` freed. Refuses on the current master (the
    /// master must host its data) and under full replication; idempotent if
    /// the copy is already gone. The selector removes this site from the
    /// replica map *before* issuing the RPC — no new reads route here — and
    /// the floor check lives selector-side where the global copy count is
    /// known.
    pub fn drop_replica(&self, partition: PartitionId) -> Result<(u64, u64)> {
        let Some(hosted) = &self.hosted else {
            return Err(DynaError::Internal(
                "cannot drop a replica under full replication",
            ));
        };
        if self.ownership.is_mastered(partition) {
            return Err(DynaError::Internal("refusing to drop the master's copy"));
        }
        let mut state = hosted.lock();
        match state.map.get(&partition) {
            None => Ok((0, 0)),
            Some(ReplicaState::Buffering(_)) => {
                Err(DynaError::Internal("replica install in progress"))
            }
            Some(ReplicaState::Hosted) => {
                state.map.remove(&partition);
                // Purge under the mutex: a concurrent re-install (phase 1)
                // must not start copying before the old rows are gone.
                let (rows, bytes) = self.store.purge_partition(partition)?;
                Ok((rows as u64, bytes))
            }
        }
    }

    /// Chooses an admissible run's installs: the subscription filter under
    /// partial replication, then the audit plane's refresh-side
    /// `WriteEffect` for each version about to install.
    fn collect_refresh(&self, run: &[LogRecord], installs: &mut Vec<Install>) {
        let first = installs.len();
        match &self.hosted {
            Some(hosted) => self.filter_refresh(hosted, run, installs),
            None => collect_all(run, installs),
        }
        let Some(rec) = self.recorder.as_deref().filter(|r| r.audit_enabled()) else {
            return;
        };
        let audit_values = rec.audit_values();
        let generation = self.selector_generation.load(Ordering::Relaxed);
        let epoch = self.max_epoch_seen.load(Ordering::Relaxed);
        // Chunked batching: one clock read + ring acquisition per
        // EFFECT_CHUNK installs instead of per install, without holding the
        // ring across an arbitrarily long refresh run.
        const EFFECT_CHUNK: usize = 64;
        let mut batch = dynamast_common::audit::EffectBatch::with_capacity(EFFECT_CHUNK);
        for (key, stamp, row) in &installs[first..] {
            batch.write_effect(
                0,
                self.id.raw(),
                self.store
                    .catalog()
                    .partition_of(*key)
                    .map(|p| p.raw())
                    .unwrap_or(u64::MAX),
                key.table.raw(),
                key.record,
                None,
                if audit_values {
                    dynamast_common::audit::value_signature(row)
                } else {
                    0
                },
                stamp.origin.raw(),
                stamp.sequence,
                generation,
                epoch,
                true,
            );
            if batch.len() >= EFFECT_CHUNK {
                batch.flush(rec);
            }
        }
        batch.flush(rec);
    }

    /// The subscription filter (partial replication): one mutex hold per
    /// admissible run, deciding per write without touching the shared
    /// records. Writes to hosted partitions (and replicated tables) install;
    /// writes to unhosted partitions are stripped — the record itself still
    /// applies and advances the svv, because Eq. 1 admission is per-origin
    /// and gap-free, so dropping whole records would wedge the site —
    /// writes to partitions mid-install are diverted into the install
    /// buffer, and the per-origin frontier advances for every record kind so
    /// a concurrent [`DataSite::add_replica`] knows exactly which prefix the
    /// filter already settled.
    fn filter_refresh(
        &self,
        hosted: &parking_lot::Mutex<HostedState>,
        run: &[LogRecord],
        installs: &mut Vec<Install>,
    ) {
        // Declared to the audit plane after the lock drops: a stripped
        // write that is neither installed nor declared would (rightly)
        // read as a missing install to the completeness checker.
        let audit = self.recorder.as_deref().filter(|r| r.audit_enabled());
        let mut skips: Vec<(Key, SiteId, u64, u64)> = Vec::new();
        let mut skipped = 0u64;
        let mut state = hosted.lock();
        for record in run {
            if let LogRecord::Commit {
                origin,
                tvv,
                writes,
            } = record
            {
                let (origin, seq) = (*origin, tvv.get(*origin));
                let stamp = VersionStamp::new(origin, seq);
                let sum: u64 = tvv.as_slice().iter().sum();
                for w in writes {
                    let install = self.replicated_tables.contains(&w.key.table)
                        || match self.store.catalog().partition_of(w.key) {
                            Err(_) => true,
                            Ok(p) => match state.map.get_mut(&p) {
                                Some(ReplicaState::Hosted) => true,
                                Some(ReplicaState::Buffering(buf)) => {
                                    buf.push((
                                        sum,
                                        ImageRecord {
                                            key: w.key,
                                            stamp,
                                            row: w.row.clone(),
                                        },
                                    ));
                                    false
                                }
                                None => {
                                    skipped += 1;
                                    if audit.is_some() {
                                        skips.push((w.key, origin, seq, p.raw()));
                                    }
                                    false
                                }
                            },
                        };
                    if install {
                        installs.push((w.key, stamp, w.row.clone()));
                    }
                }
            }
            let f = &mut state.frontier[record.origin().as_usize()];
            *f = (*f).max(record.sequence());
        }
        drop(state);
        if skipped > 0 {
            if let Some(counter) = &self.refresh_skipped {
                counter.add(skipped);
            }
        }
        if let Some(rec) = audit {
            if !skips.is_empty() {
                let mut batch = dynamast_common::audit::EffectBatch::with_capacity(skips.len());
                for (key, origin, seq, partition) in skips {
                    batch.refresh_skip(
                        self.id.raw(),
                        partition,
                        key.table.raw(),
                        key.record,
                        origin.raw(),
                        seq,
                    );
                }
                batch.flush(rec);
            }
        }
    }
}

impl RefreshApplier for DataSite {
    fn apply_batch(&self, records: &[LogRecord], wake: &Wake) -> Result<usize> {
        let mut collect =
            |run: &[LogRecord], installs: &mut Vec<Install>| self.collect_refresh(run, installs);
        apply_refresh_batch_with(
            &self.clock,
            &self.store,
            records,
            Some(wake),
            Some(&mut collect),
        )
    }
}

struct SiteRpc {
    site: Arc<DataSite>,
}

impl RpcHandler for SiteRpc {
    fn handle(&self, payload: Bytes) -> Bytes {
        let response = self.dispatch(payload);
        Bytes::from(encode_to_vec(&response))
    }
}

impl SiteRpc {
    fn dispatch(&self, payload: Bytes) -> SiteResponse {
        let mut slice = payload;
        let request = match SiteRequest::decode(&mut slice) {
            Ok(req) => req,
            Err(_) => {
                return SiteResponse::Error {
                    error: RemoteError::Internal,
                }
            }
        };
        match self.execute(request) {
            Ok(resp) => resp,
            Err(err) => SiteResponse::Error { error: err.into() },
        }
    }

    fn execute(&self, request: SiteRequest) -> Result<SiteResponse> {
        let site = &self.site;
        match request {
            SiteRequest::ExecUpdate {
                txn_id,
                min_vv,
                proc,
                check_mastery,
            } => {
                let (result, commit_vv, timings) =
                    site.run_update(txn_id, &min_vv, &proc, check_mastery)?;
                Ok(SiteResponse::Executed {
                    result,
                    commit_vv,
                    timings,
                })
            }
            SiteRequest::ExecRead {
                txn_id,
                min_vv,
                proc,
                mode,
            } => {
                let (result, site_vv, timings) = site.run_read(txn_id, &min_vv, &proc, mode)?;
                Ok(SiteResponse::ReadDone {
                    result,
                    site_vv,
                    timings,
                })
            }
            SiteRequest::Release { moves, generation } => {
                site.check_selector_generation(generation)?;
                Ok(SiteResponse::Released {
                    results: remote_results(site.release_moves(&moves)),
                })
            }
            SiteRequest::Grant { grants, generation } => {
                site.check_selector_generation(generation)?;
                Ok(SiteResponse::Granted {
                    results: remote_results(site.grant_moves(&grants)),
                })
            }
            SiteRequest::Prepare {
                txn_id,
                writes,
                expected,
            } => Ok(SiteResponse::Voted {
                yes: site.prepare(txn_id, writes, &expected)?,
            }),
            SiteRequest::Decide { txn_id, commit } => Ok(SiteResponse::Decided {
                site_vv: site.decide(txn_id, commit)?,
            }),
            SiteRequest::RemoteRead { keys, ranges } => {
                let (keys, scans) = site.remote_read(&keys, &ranges)?;
                Ok(SiteResponse::Rows { keys, scans })
            }
            SiteRequest::LeapRelease { partitions } => Ok(SiteResponse::LeapReleased {
                records: site.leap_release(&partitions)?,
            }),
            SiteRequest::LeapGrant {
                partitions,
                records,
            } => {
                site.leap_grant(&partitions, records)?;
                Ok(SiteResponse::LeapGranted)
            }
            SiteRequest::GetVv => Ok(SiteResponse::Vv {
                svv: site.clock.current(),
            }),
            SiteRequest::FenceSelector { generation } => {
                let (svv, mastered) = site.fence_selector(generation)?;
                Ok(SiteResponse::Fenced { svv, mastered })
            }
            SiteRequest::ReplicaSnapshot { partition } => {
                let (records, src_svv) = site.replica_snapshot(partition)?;
                Ok(SiteResponse::ReplicaSnapshotted { records, src_svv })
            }
            SiteRequest::AddReplica {
                partition,
                records,
                src_svv,
                generation,
            } => {
                site.check_selector_generation(generation)?;
                Ok(SiteResponse::ReplicaAdded {
                    svv: site.add_replica(partition, records, &src_svv)?,
                })
            }
            SiteRequest::DropReplica {
                partition,
                generation,
            } => {
                site.check_selector_generation(generation)?;
                let (purged_rows, purged_bytes) = site.drop_replica(partition)?;
                Ok(SiteResponse::ReplicaDropped {
                    purged_rows,
                    purged_bytes,
                })
            }
        }
    }
}

/// Per-move remaster outcomes in their wire form (the error keeps its kind).
fn remote_results(
    results: Vec<Result<VersionVector>>,
) -> Vec<std::result::Result<VersionVector, RemoteError>> {
    results
        .into_iter()
        .map(|result| result.map_err(RemoteError::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{write_call, TABLE};
    use dynamast_common::config::NetworkConfig;
    use dynamast_common::Value;
    use std::time::Duration;

    /// Adds one to the `u64` in every write-set row; returns the `u64` of
    /// every read key (0 for a missing row).
    struct Increment;

    impl ProcExecutor for Increment {
        fn execute(&self, ctx: &mut dyn crate::proc::TxnCtx, call: &ProcCall) -> Result<Bytes> {
            fn value_of(ctx: &mut dyn crate::proc::TxnCtx, key: Key) -> Result<u64> {
                match ctx.read(key)? {
                    Some(row) => row.cell(0).as_u64(),
                    None => Ok(0),
                }
            }
            let mut out = Vec::new();
            for key in &call.read_keys {
                out.extend_from_slice(&value_of(ctx, *key)?.to_be_bytes());
            }
            for key in &call.write_set {
                let old = value_of(ctx, *key)?;
                ctx.write(*key, Row::new(vec![Value::U64(old + 1)]))?;
            }
            Ok(Bytes::from(out))
        }
    }

    fn increment_site() -> Arc<DataSite> {
        let mut catalog = Catalog::new();
        catalog.add_table("t", 1, 100);
        DataSite::new(
            DataSiteConfig {
                id: SiteId::new(0),
                system: SystemConfig::new(1)
                    .with_instant_network()
                    .with_instant_service(),
                replicate: true,
                initial_partitions: Vec::new(),
                static_owner: None,
                replicated_tables: Vec::new(),
                hosted: None,
                refresh_skipped: None,
                freshness_parks: None,
            },
            catalog,
            LogSet::new(1),
            Network::new(NetworkConfig::instant(), 1),
            Arc::new(Increment),
        )
    }

    /// Regression (torn / time-travelling reads): a transaction whose
    /// snapshot has fallen `mvcc_versions` commits behind on a row used to
    /// read "no such row" because the version it should see was evicted.
    #[test]
    fn stale_snapshot_is_retried_instead_of_reading_an_evicted_row_as_absent() {
        let site = increment_site();
        let key = Key::new(TABLE, 5);
        site.load_row(key, Row::new(vec![Value::U64(0)])).unwrap();
        let stale = site.clock.current();
        let zero = VersionVector::zero(1);
        let commits = site.config.mvcc_versions as u64 + 1;
        let mut last = zero.clone();
        for txn in 0..commits {
            (_, last, _) = site
                .run_update(txn, &zero, &write_call(&[5]), false)
                .unwrap();
        }
        site.clock.wait_dominates(&last).unwrap();
        let read = ProcCall {
            read_keys: vec![key],
            ..write_call(&[])
        };
        let (begin, result, _) = site
            .execute_at(stale, ReadMode::Snapshot, &read, &[])
            .unwrap();
        assert!(begin.dominates(&last), "re-executed on a fresh snapshot");
        assert_eq!(&result[..], &commits.to_be_bytes());
    }

    /// Regression (lost update): a commit unlocks its rows as soon as its
    /// own log slot is filled, but its sequence stays unpublished while an
    /// earlier slot is open. The next writer of the same row used to cut
    /// its snapshot below that version, read the value underneath and
    /// overwrite the increment. Here the earlier slot is held open by hand,
    /// so the window is as wide as the test likes.
    #[test]
    fn update_waits_for_the_unpublished_version_it_overwrites() {
        let site = increment_site();
        let key = Key::new(TABLE, 5);
        site.load_row(key, Row::new(vec![Value::U64(0)])).unwrap();
        let zero = VersionVector::zero(1);
        let call = write_call(&[5]);

        let predecessor = site.pipeline.begin();
        let (_, first_vv, _) = site.run_update(1, &zero, &call, false).unwrap();
        assert!(
            site.clock.current().get(site.id) < first_vv.get(site.id),
            "the first increment is committed but not yet published"
        );
        let second = {
            let site = Arc::clone(&site);
            let call = call.clone();
            thread::spawn(move || {
                let zero = VersionVector::zero(1);
                site.run_update(2, &zero, &call, false).unwrap()
            })
        };
        // Let the second increment reach its begin; it must park there.
        thread::sleep(Duration::from_millis(50));
        assert!(
            !second.is_finished(),
            "began below the row's newest version"
        );
        site.pipeline.abort(predecessor);
        let (_, second_vv, _) = second.join().unwrap();
        let begin = site.clock.wait_dominates(&second_vv).unwrap();
        assert_eq!(
            site.store.read(key, &begin).unwrap(),
            Some(Row::new(vec![Value::U64(2)])),
            "both increments survive"
        );
    }
}
