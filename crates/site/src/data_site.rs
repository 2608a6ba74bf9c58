//! The data site: site manager + database + replication manager (§V-A).

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use dynamast_common::audit::{value_signature, EffectBatch};
use dynamast_common::codec::{encode_to_vec, Decode};
use dynamast_common::ids::{Key, PartitionId, SiteId};
use dynamast_common::trace::{FlightRecorder, TraceKind, TracePayload, TraceSite};
use dynamast_common::{DynaError, Result, Row, SystemConfig, VersionVector};
use dynamast_network::{wait_until, EndpointId, Network, RpcHandler, ServerHandle};
use dynamast_replication::checkpoint::{self, Checkpoint};
use dynamast_replication::record::{LogRecord, WriteEntry};
use dynamast_replication::{LogSet, Propagator, RefreshApplier, Wake};
use dynamast_storage::{Catalog, ReadAt, Store, VersionStamp, Visit};

use crate::clock::SiteClock;
use crate::hosting::{self, HostedCopies, Hosting, HostingState};
use crate::messages::{ExecTimings, RemoteError, SiteRequest, SiteResponse};
use crate::ownership::Ownership;
use crate::participant::{Participant, ParticipantState};
use crate::pipeline::{apply_refresh_batch_with, collect_all, CommitPipeline, Install};
use crate::proc::{LocalCtx, ProcCall, ProcExecutor, ReadMode};
use crate::remaster::{Remaster, RemasterState};

/// Static owner lookup for statically placed systems (multi-master,
/// partition-store, LEAP's initial placement): partition → owning site.
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
    /// Fixed owner lookup a 2PC prepare checks its fragment against
    /// (multi-master, partition-store, LEAP's initial placement). `Some`
    /// gives the site its [`Participant`] role; `None` for dynamically
    /// mastered systems.
    pub static_owner: Option<StaticOwnerFn>,
    /// The copies this site initially holds under partial replication.
    /// `Some` gives the site its [`Hosting`] role: the refresh subscription
    /// filter, hosted-read admission, and the AddReplica/DropReplica
    /// provisioning endpoints. `None` = full replication (the site hosts
    /// everything — the seed behavior and all baselines).
    pub hosted: Option<HostedCopies>,
    /// Shared counter of freshness waits that parked because this site's
    /// svv did not yet cover the required vector (`site.freshness_parks`
    /// in the metrics snapshot).
    pub freshness_parks: Option<Arc<dynamast_common::metrics::Counter>>,
}

/// What [`DataSite::execute_at`] hands back: the snapshot finally used, the
/// procedure's result and its buffered writes.
type Executed = (VersionVector, Bytes, Vec<(Key, Row)>);

/// One data site: the core every architecture runs (begin, execute,
/// commit, refresh apply, checkpoint, RPC dispatch) and the roles only some
/// of them need, each reached through its accessor.
pub struct DataSite {
    pub(crate) id: SiteId,
    pub(crate) store: Store,
    pub(crate) clock: Arc<SiteClock>,
    /// The single sequencing path for every durable state change at this
    /// site: local commits, 2PC decides, and remaster Release/Grant records
    /// all draw their sequence + log slot from [`CommitPipeline::begin`] and
    /// complete concurrently — installs and serialization run outside any
    /// global lock, with the clock's in-order publication and the log's
    /// group-commit watermark keeping visibility in commit order.
    pub(crate) pipeline: CommitPipeline,
    pub(crate) ownership: Arc<Ownership>,
    pub(crate) logs: LogSet,
    executor: Arc<dyn ProcExecutor>,
    network: Arc<Network>,
    config: SystemConfig,
    /// Flight recorder shared by the deployment (cached from the network at
    /// construction so execution hot paths never touch the fabric lock).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    replicate: bool,
    remaster: RemasterState,
    participant: Option<ParticipantState>,
    hosting: Option<HostingState>,
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
        let svv = VersionVector::zero(cfg.system.num_sites);
        Self::from_recovered(cfg, store, svv, logs, network, executor)
    }

    /// Re-creates a crashed site from state replayed out of the durable
    /// logs (§V-C): the store and svv come from
    /// [`crate::pipeline::replay`], the mastered set from
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
        let hosting = cfg.hosted.map(|copies| HostingState::new(copies, &svv));
        let clock = SiteClock::from_recovered(cfg.id, svv).counting_parks(cfg.freshness_parks);
        let clock = Arc::new(clock);
        let pipeline =
            CommitPipeline::new(cfg.id, Arc::clone(&clock), Arc::clone(logs.log(cfg.id)));
        Arc::new(DataSite {
            recorder: network.recorder(),
            id: cfg.id,
            store,
            clock,
            pipeline,
            ownership: Arc::new(Ownership::new(cfg.initial_partitions)),
            logs,
            executor,
            network,
            config: cfg.system,
            replicate: cfg.replicate,
            remaster: RemasterState::default(),
            participant: cfg.static_owner.map(ParticipantState::new),
            hosting,
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
        let server = self.network.serve(
            EndpointId::Site(self.id.raw()),
            Arc::clone(self) as Arc<dyn RpcHandler>,
            workers,
        );
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

    /// The remaster role: release, grant and the selector fence.
    pub fn remaster(&self) -> Remaster<'_> {
        Remaster {
            site: self,
            state: &self.remaster,
        }
    }

    /// The 2PC participant / LEAP shipper role; `None` unless the site was
    /// built with a static owner.
    pub fn participant(&self) -> Option<Participant<'_>> {
        self.participant
            .as_ref()
            .map(|state| Participant { site: self, state })
    }

    /// The partial-replication role; `None` under full replication, where
    /// the site hosts every partition.
    pub fn hosting(&self) -> Option<Hosting<'_>> {
        self.hosting
            .as_ref()
            .map(|state| Hosting { site: self, state })
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
    pub(crate) fn service_sleep(&self, ops: u64) {
        let cost = self.config.service_base + self.config.service_per_op * (ops as u32);
        if !cost.is_zero() {
            wait_until(Instant::now() + cost);
        }
    }

    pub(crate) fn partitions_of(&self, keys: &[Key]) -> Result<Vec<PartitionId>> {
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            out.push(self.store.catalog().partition_of(*key)?);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
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
        &self,
        txn_id: u64,
        min_vv: &VersionVector,
        proc: &ProcCall,
        check_mastery: bool,
    ) -> Result<(Bytes, VersionVector, ExecTimings)> {
        let t0 = Instant::now();
        if let Some(hosting) = self.hosting() {
            hosting.admit(proc)?;
        }
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
    /// pipeline: a reserved slot of the site's own log, which is the
    /// commit's sequence, then record serialization and version installs
    /// outside any global lock — concurrent with other committers — then
    /// the in-order publication (group-committed log fill + svv advance).
    /// Readers can never observe the sequence before the versions are
    /// readable, and the commit record goes to the durable log for
    /// propagation and redo (§V-A2).
    pub(crate) fn commit_local(
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
        // The ticket backstops the infallible contract: if anything below
        // panics (a poisoned executor, an injected crash point), dropping it
        // on unwind tombstones the slot instead of wedging the commit order.
        let ticket = self.pipeline.begin();
        let seq = ticket.seq();
        let stamp = VersionStamp::new(self.id, seq);
        let mut tvv = begin.clone();
        tvv.set(self.id, seq);
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
        let signature = audit_signature(audit);
        let mut effects = audit.map(|_| {
            let remaster = self.remaster();
            (
                EffectBatch::with_capacity(writes.len()),
                remaster.selector_generation(),
                remaster.remaster_epoch(),
            )
        });
        for w in writes {
            if let Some((batch, generation, epoch)) = effects.as_mut() {
                // The row write locks are still held, so the latest version
                // is exactly the one this install replaces — its stamp is
                // the audit plane's lost-update parent.
                let prev = self
                    .store
                    .visit(w.key, ReadAt::Latest, |row, s| {
                        (signature(row), s.origin.raw(), s.sequence)
                    })
                    .ok()
                    .and_then(Visit::hit);
                batch.write_effect(
                    txn_id,
                    self.id.raw(),
                    self.audit_partition(w.key),
                    w.key.table.raw(),
                    w.key.record,
                    prev,
                    signature(&w.row),
                    self.id.raw(),
                    seq,
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
        self.pipeline.commit_encoded(ticket, encoded);
        // The transaction vector is the client's session vector; publication
        // of `svv[self] = seq` rides the group commit (the fill that closed
        // the log gap), so the committer itself never parks for it.
        Ok(commit_vv)
    }

    /// Executes a read-only transaction (§IV-B: runs at any replica, or at
    /// owners under latest-read mode for the unreplicated systems).
    pub fn run_read(
        &self,
        txn_id: u64,
        min_vv: &VersionVector,
        proc: &ProcCall,
        mode: ReadMode,
    ) -> Result<(Bytes, VersionVector, ExecTimings)> {
        let t0 = Instant::now();
        if let Some(hosting) = self.hosting() {
            hosting.admit(proc)?;
        }
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

    /// Builds this site's durable checkpoint file at the current svv cut:
    /// the cut vector, the per-origin log offsets it corresponds to (equal
    /// to the cut by the slot = sequence invariant), the live mastered set,
    /// and the store image of every version
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
        let mut file = checkpoint::Writer::new(Checkpoint {
            counter,
            site: self.id,
            offsets: cut.as_slice().to_vec(),
            svv: cut.clone(),
            mastered: self.ownership.mastered_partitions(),
            epoch: self.remaster().remaster_epoch(),
            hosted: self.hosting().map(|hosting| hosting.partitions()),
            image: checkpoint::Image::default(),
        });
        self.store
            .visit_image(ReadAt::Begin(&cut), None, |key, stamp, row| {
                file.record(key, stamp, row)
            })?;
        Ok(file)
    }

    /// The partition the audit plane files `key` under (`u64::MAX`: none).
    fn audit_partition(&self, key: Key) -> u64 {
        self.store
            .catalog()
            .partition_of(key)
            .map_or(u64::MAX, |p| p.raw())
    }

    /// Chooses an admissible run's installs: the subscription filter under
    /// partial replication, then the audit plane's refresh-side
    /// `WriteEffect` for each version about to install.
    fn collect_refresh(&self, run: &[LogRecord], installs: &mut Vec<Install>) {
        let first = installs.len();
        match self.hosting() {
            Some(hosting) => hosting.filter(run, installs),
            None => collect_all(run, installs),
        }
        let Some(rec) = self.recorder.as_deref().filter(|r| r.audit_enabled()) else {
            return;
        };
        let signature = audit_signature(Some(rec));
        let remaster = self.remaster();
        let (generation, epoch) = (remaster.selector_generation(), remaster.remaster_epoch());
        // Chunked batching: one clock read + ring acquisition per
        // EFFECT_CHUNK installs instead of per install, without holding the
        // ring across an arbitrarily long refresh run.
        const EFFECT_CHUNK: usize = 64;
        let mut batch = EffectBatch::with_capacity(EFFECT_CHUNK);
        for (key, stamp, row) in &installs[first..] {
            batch.write_effect(
                0,
                self.id.raw(),
                self.audit_partition(*key),
                key.table.raw(),
                key.record,
                None,
                signature(row),
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

/// The RPC dispatch: each request goes to the core or to the role that
/// serves it.
impl RpcHandler for DataSite {
    fn handle(&self, mut payload: Bytes) -> Bytes {
        let response = match SiteRequest::decode(&mut payload) {
            Ok(request) => self
                .serve(request)
                .unwrap_or_else(|err| SiteResponse::Error { error: err.into() }),
            Err(_) => SiteResponse::Error {
                error: RemoteError::Internal,
            },
        };
        Bytes::from(encode_to_vec(&response))
    }
}

impl DataSite {
    fn serve(&self, request: SiteRequest) -> Result<SiteResponse> {
        match request {
            SiteRequest::ExecUpdate {
                txn_id,
                min_vv,
                proc,
                check_mastery,
            } => {
                let (result, commit_vv, timings) =
                    self.run_update(txn_id, &min_vv, &proc, check_mastery)?;
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
                let (result, site_vv, timings) = self.run_read(txn_id, &min_vv, &proc, mode)?;
                Ok(SiteResponse::ReadDone {
                    result,
                    site_vv,
                    timings,
                })
            }
            SiteRequest::Release { moves, generation } => {
                let remaster = self.remaster();
                remaster.check_selector_generation(generation)?;
                Ok(SiteResponse::Released {
                    results: remote_results(remaster.release_moves(&moves)),
                })
            }
            SiteRequest::Grant { grants, generation } => {
                let remaster = self.remaster();
                remaster.check_selector_generation(generation)?;
                Ok(SiteResponse::Granted {
                    results: remote_results(remaster.grant_moves(&grants)),
                })
            }
            SiteRequest::Prepare {
                txn_id,
                writes,
                expected,
            } => Ok(SiteResponse::Voted {
                yes: participant(self)?.prepare(txn_id, writes, &expected)?,
            }),
            SiteRequest::Decide { txn_id, commit } => Ok(SiteResponse::Decided {
                site_vv: participant(self)?.decide(txn_id, commit)?,
            }),
            SiteRequest::RemoteRead { keys, ranges } => {
                let (keys, scans) = participant(self)?.remote_read(&keys, &ranges)?;
                Ok(SiteResponse::Rows { keys, scans })
            }
            SiteRequest::LeapRelease { partitions } => Ok(SiteResponse::LeapReleased {
                records: participant(self)?.leap_release(&partitions)?,
            }),
            SiteRequest::LeapGrant {
                partitions,
                records,
            } => {
                participant(self)?.leap_grant(&partitions, records)?;
                Ok(SiteResponse::LeapGranted)
            }
            SiteRequest::GetVv => Ok(SiteResponse::Vv {
                svv: self.clock.current(),
            }),
            SiteRequest::FenceSelector { generation } => {
                let (svv, mastered) = self.remaster().fence_selector(generation)?;
                Ok(SiteResponse::Fenced { svv, mastered })
            }
            SiteRequest::ReplicaSnapshot { partition } => {
                let (records, src_svv) = hosting::replica_snapshot(self, partition)?;
                Ok(SiteResponse::ReplicaSnapshotted { records, src_svv })
            }
            SiteRequest::AddReplica {
                partition,
                records,
                src_svv,
                generation,
            } => {
                self.remaster().check_selector_generation(generation)?;
                // Full replication hosts everything already: idempotent
                // success.
                let svv = match self.hosting() {
                    Some(hosting) => hosting.add_replica(partition, records, &src_svv)?,
                    None => self.clock.current(),
                };
                Ok(SiteResponse::ReplicaAdded { svv })
            }
            SiteRequest::DropReplica {
                partition,
                generation,
            } => {
                self.remaster().check_selector_generation(generation)?;
                let (purged_rows, purged_bytes) = self
                    .hosting()
                    .ok_or(DynaError::Internal(
                        "cannot drop a replica under full replication",
                    ))?
                    .drop_replica(partition)?;
                Ok(SiteResponse::ReplicaDropped {
                    purged_rows,
                    purged_bytes,
                })
            }
        }
    }
}

/// A row's audit value signature: hashed only when the recorder's
/// conservation checker will consume it, else 0.
fn audit_signature(audit: Option<&FlightRecorder>) -> impl Fn(&Row) -> i64 {
    let values = audit.is_some_and(|rec| rec.audit_values());
    move |row| if values { value_signature(row) } else { 0 }
}

/// The participant role a 2PC or LEAP request needs.
fn participant(site: &DataSite) -> Result<Participant<'_>> {
    site.participant()
        .ok_or(DynaError::Internal("not a 2PC participant"))
}

/// Per-move remaster outcomes in their wire form (the error keeps its kind).
fn remote_results(
    results: Vec<Result<VersionVector>>,
) -> Vec<std::result::Result<VersionVector, RemoteError>> {
    results.into_iter().map(|r| r.map_err(Into::into)).collect()
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
                hosted: None,
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
        drop(predecessor);
        let (_, second_vv, _) = second.join().unwrap();
        let begin = site.clock.wait_dominates(&second_vv).unwrap();
        assert_eq!(
            site.store.read(key, &begin).unwrap(),
            Some(Row::new(vec![Value::U64(2)])),
            "both increments survive"
        );
    }
}
