//! The site selector (§III-B, §IV, §V-B).
//!
//! Write routing follows §V-B exactly: look up the master of each write-set
//! partition under shared locks; if one site masters everything, route there;
//! otherwise upgrade to exclusive locks, pick a destination with the strategy
//! model, and remaster via parallel release/grant RPCs (Algorithm 1 — each
//! partition's grant is issued immediately after its release completes, and
//! partitions proceed in parallel). The element-wise max of the grant
//! responses becomes the transaction's minimum begin version.
//!
//! Read routing (§IV-B) picks a random site whose estimated svv satisfies
//! the client's session vector, spreading load while minimizing blocking.
//! The svv estimates come from release/grant responses plus a lightweight
//! periodic probe (`GetVv`), standing in for whatever heartbeat the paper's
//! implementation used. The estimates live in a lock-free
//! [`FreshnessCache`](crate::freshness::FreshnessCache) and the read-routing
//! RNG is thread-local, so routing threads share no locks on this path.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{ClientId, Key, PartitionId, SiteId};
use dynamast_common::metrics::{Counter, LatencyHistogram};
use dynamast_common::trace::{
    next_trace_id, CandidateScore, FlightRecorder, TraceKind, TracePayload, TraceSite,
};
use dynamast_common::{DynaError, Result, SystemConfig, VersionVector};
use dynamast_network::{CrashPoint, CrashSwitch, EndpointId, Network, TrafficCategory};
use dynamast_site::messages::{expect_ok, SiteRequest, SiteResponse};
use dynamast_storage::Catalog;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::freshness::FreshnessCache;
use crate::partition_map::PartitionMap;
use crate::replica_map::ReplicaMap;
use crate::stats::{AccessStats, StatsConfig};
use crate::strategy::{confirm_group_destination, CoAccess, ScoreInputs};

/// Imbalance probe (epoch batching only): a sole-master fast-path group is
/// considered for a deferred move when its master's tracked load exceeds
/// `REBALANCE_FACTOR ×` the mean site load, once at least
/// `REBALANCE_MIN_TOTAL` writes have been attributed overall. Both reads are
/// relaxed-atomic approximations — the flush re-scores under exclusive locks
/// before anything actually moves.
const REBALANCE_FACTOR: f64 = 1.5;
const REBALANCE_MIN_TOTAL: f64 = 64.0;

/// Replica-provisioning planner thresholds (partial replication only): a
/// partition hotter than `PROVISION_HOT_FACTOR ×` the mean partition load
/// gains one copy per pass (widening toward all sites); one colder than
/// `PROVISION_COLD_FACTOR ×` the mean sheds its most expensive copy
/// (shrinking toward the floor). At most `PROVISION_MAX_OPS` installs/drops
/// per pass bound the background data-shipping burst, and nothing moves until
/// `PROVISION_MIN_TOTAL` accesses have been attributed overall.
const PROVISION_HOT_FACTOR: f64 = 2.0;
const PROVISION_COLD_FACTOR: f64 = 0.5;
const PROVISION_MIN_TOTAL: f64 = 64.0;
const PROVISION_MAX_OPS: usize = 4;

/// Eq. 8 has-copy feature weight: a candidate already holding every write-set
/// partition is credited this fraction of the score spread, because granting
/// there needs no copy install (data shipping) first.
const HAS_COPY_BONUS: f64 = 0.1;

/// How the selector places masters.
pub enum SelectorMode {
    /// The paper's adaptive strategies (Eqs. 2–8).
    Adaptive,
    /// Fixed placement function; never moves mastership. Used to express
    /// the single-master baseline (everything pinned to one site) inside
    /// the DynaMast framework, exactly as the paper's evaluation does.
    Pinned(Arc<dyn Fn(PartitionId) -> SiteId + Send + Sync>),
}

impl Clone for SelectorMode {
    fn clone(&self) -> Self {
        match self {
            SelectorMode::Adaptive => SelectorMode::Adaptive,
            SelectorMode::Pinned(pin) => SelectorMode::Pinned(Arc::clone(pin)),
        }
    }
}

/// Failover-related construction parameters for a [`SiteSelector`].
///
/// The defaults describe a first-generation selector with nothing to inherit;
/// a promoting standby (§V-C) passes the successor generation, the epoch
/// floor recovered from the durable logs, and the conservative session floor
/// rebuilt from fenced site svvs.
#[derive(Clone, Default)]
pub struct SelectorInit {
    /// Fencing token stamped on every remaster RPC this selector sends.
    pub generation: u64,
    /// Remaster epochs start above this value (a promoted selector must not
    /// reuse epochs its predecessor already burned — the sites' idempotency
    /// caches key on them).
    pub epoch_floor: u64,
    /// Conservative client-session reconstruction: element-wise max of the
    /// svvs collected while fencing. Merged into every routing decision's
    /// `min_vv` and into read-routing freshness checks, so a client whose
    /// pre-failover session state is unknown still reads its own writes.
    pub session_floor: Option<VersionVector>,
    /// Deterministic kill switch for crash-point injection tests.
    pub crash_switch: Option<Arc<CrashSwitch>>,
    /// Replica map inherited from a predecessor selector (§V-C promotion).
    /// The map is selector metadata about durable site state — copies
    /// survive a selector crash — so a promoting standby carries it over
    /// instead of rebuilding from the lazy defaults.
    pub replica_map: Option<Arc<ReplicaMap>>,
}

/// Outcome of routing one update transaction.
#[derive(Clone, Debug)]
pub struct RouteDecision {
    /// Site that will execute the transaction.
    pub site: SiteId,
    /// Minimum begin version (element-wise max of grant responses; zero if
    /// no remastering happened).
    pub min_vv: VersionVector,
    /// Time spent locking and looking up master locations (Fig. 7 "lookup").
    pub lookup: Duration,
    /// Time spent deciding and remastering (Fig. 7 "routing").
    pub routing: Duration,
    /// Whether any partition moved.
    pub remastered: bool,
}

/// One queued ownership move: where the partition should go and how many
/// transactions have been routed to its *current* master while it waited.
struct PendingMove {
    /// Destination decided at enqueue time (re-scored as a group at flush).
    /// May equal the current master — such entries are sticky "scored,
    /// stay put" markers that stop the imbalance probe from re-scoring the
    /// same group on every route; the flush discards them.
    dest: SiteId,
    /// Fast-path routes that executed at the old master since enqueue.
    deferrals: u32,
}

/// The epoch-batched pending-move queue (guarded by one mutex; touched only
/// when `remaster_batching` is enabled, and never while partition-map locks
/// are held — flushing acquires map locks *after* draining this).
#[derive(Default)]
struct EpochQueue {
    moves: HashMap<PartitionId, PendingMove>,
    /// When the first move of the open epoch was queued (time trigger).
    started: Option<Instant>,
}

/// The site selector.
pub struct SiteSelector {
    config: SystemConfig,
    mode: SelectorMode,
    catalog: Catalog,
    map: PartitionMap,
    stats: AccessStats,
    network: Arc<Network>,
    freshness: FreshnessCache,
    epoch: AtomicU64,
    /// This selector's fencing generation (see [`SelectorInit::generation`]).
    generation: u64,
    /// Post-failover session floor (see [`SelectorInit::session_floor`]).
    session_floor: Option<VersionVector>,
    /// Armed crash-point switch, if any (tests only).
    crash_switch: Option<Arc<CrashSwitch>>,
    /// Seed for the per-thread read-routing RNGs.
    rng_seed: u64,
    /// Flight recorder shared by the deployment (cached from the network at
    /// construction so the routing hot path never touches the fabric lock).
    recorder: Option<Arc<FlightRecorder>>,
    /// Transactions that required remastering (at least one release).
    pub remaster_ops: Arc<Counter>,
    /// Individual partitions whose mastership moved between sites.
    pub partitions_moved: Arc<Counter>,
    /// First-touch placements (no release involved; the paper's DynaMast
    /// starts unplaced, so early transactions *place* rather than remaster).
    pub placements: Arc<Counter>,
    /// Pending epoch-batched moves (empty unless `remaster_batching`).
    pending: Mutex<EpochQueue>,
    /// Single-flight guard: one epoch flush at a time, late callers skip.
    flush_in_progress: AtomicBool,
    /// Release/grant-class RPCs sent (inline, batched, and back-grants) —
    /// the denominator of the batching round-trip-reduction claim.
    pub remaster_rpcs: Arc<Counter>,
    /// Round trips avoided by coalescing queued moves into batch RPCs:
    /// `2 × moves − batch RPCs` accumulated per flush.
    pub remaster_rpcs_saved: Arc<Counter>,
    /// Partitions carried per batch RPC (bucketed via the latency histogram
    /// machinery; one "microsecond" = one partition).
    pub remaster_batch_size: Arc<LatencyHistogram>,
    /// Which sites hold a copy of each partition (a degenerate all-sites map
    /// under full replication).
    replica_map: Arc<ReplicaMap>,
    /// Serializes copy installs and drops across routing/planner threads —
    /// a site rejects a second concurrent install of the same partition, so
    /// contenders wait here instead of failing.
    provision_lock: Mutex<()>,
    /// Replica copies installed (planner widening, create-then-grant, and
    /// NotReplica repair).
    pub replica_adds: Arc<Counter>,
    /// Replica copies dropped by the provisioning planner.
    pub replica_drops: Arc<Counter>,
    /// Update transactions routed, per site.
    routed: Vec<Counter>,
}

impl SiteSelector {
    /// Creates a first-generation selector.
    pub fn new(
        config: SystemConfig,
        catalog: Catalog,
        mode: SelectorMode,
        network: Arc<Network>,
    ) -> Arc<Self> {
        Self::with_init(config, catalog, mode, network, SelectorInit::default())
    }

    /// Creates a selector with explicit failover parameters (used by
    /// standby promotion and crash-injection tests).
    pub fn with_init(
        config: SystemConfig,
        catalog: Catalog,
        mode: SelectorMode,
        network: Arc<Network>,
        init: SelectorInit,
    ) -> Arc<Self> {
        let m = config.num_sites;
        let stats = AccessStats::new(stats_config(&config), m, config.seed ^ 0x5E1E_C70A);
        let recorder = network.recorder();
        let replica_map = init.replica_map.clone().unwrap_or_else(|| {
            Arc::new(ReplicaMap::new(
                m,
                config.replication.effective_floor(m),
                !config.replication.is_partial(),
            ))
        });
        Arc::new(SiteSelector {
            mode,
            catalog,
            map: PartitionMap::new(),
            stats,
            network,
            freshness: FreshnessCache::new(m),
            epoch: AtomicU64::new(init.epoch_floor),
            generation: init.generation,
            session_floor: init.session_floor,
            crash_switch: init.crash_switch,
            rng_seed: config.seed ^ 0x0EAD_0125,
            recorder,
            remaster_ops: Arc::new(Counter::new()),
            partitions_moved: Arc::new(Counter::new()),
            placements: Arc::new(Counter::new()),
            pending: Mutex::new(EpochQueue::default()),
            flush_in_progress: AtomicBool::new(false),
            remaster_rpcs: Arc::new(Counter::new()),
            remaster_rpcs_saved: Arc::new(Counter::new()),
            remaster_batch_size: Arc::new(LatencyHistogram::new()),
            replica_map,
            provision_lock: Mutex::new(()),
            replica_adds: Arc::new(Counter::new()),
            replica_drops: Arc::new(Counter::new()),
            routed: (0..m).map(|_| Counter::new()).collect(),
            config,
        })
    }

    /// The partition map (seeding, diagnostics, recovery).
    pub fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// The replica map: which sites hold a copy of each partition.
    pub fn replica_map(&self) -> &Arc<ReplicaMap> {
        &self.replica_map
    }

    /// This selector's fencing generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The placement mode (cloned so a standby can inherit it).
    pub fn mode(&self) -> SelectorMode {
        self.mode.clone()
    }

    /// Fails with [`DynaError::Network`] when the armed crash switch says
    /// the selector dies at `at` — and on every call once fired, freezing
    /// the crashed selector's protocol activity mid-remaster.
    fn crash_check(&self, at: CrashPoint) -> Result<()> {
        if self
            .crash_switch
            .as_ref()
            .is_some_and(|s| s.should_crash(at))
        {
            return Err(DynaError::Network("selector crashed"));
        }
        Ok(())
    }

    /// `true` once this selector's crash switch has fired.
    pub fn crashed(&self) -> bool {
        self.crash_switch.as_ref().is_some_and(|s| s.fired())
    }

    /// Merges the post-failover session floor into a routing decision's
    /// minimum begin version.
    fn with_session_floor(&self, mut vv: VersionVector) -> VersionVector {
        if let Some(floor) = &self.session_floor {
            vv.merge_max(floor);
        }
        vv
    }

    /// Records one selector-side flight-recorder event, if a recorder is
    /// attached to this deployment.
    #[inline]
    fn trace(&self, txn_id: u64, kind: TraceKind, payload: TracePayload) {
        if let Some(rec) = &self.recorder {
            rec.record(txn_id, TraceSite::Selector, kind, payload);
        }
    }

    /// Records a release/grant protocol step.
    fn trace_remaster(
        &self,
        txn_id: u64,
        kind: TraceKind,
        partition: PartitionId,
        from: SiteId,
        to: SiteId,
        epoch: u64,
    ) {
        self.trace(
            txn_id,
            kind,
            TracePayload::Remaster {
                partition: partition.raw(),
                from: from.raw(),
                to: to.raw(),
                epoch,
            },
        );
    }

    /// The statistics tracker.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Update transactions routed per site.
    pub fn routed_per_site(&self) -> Vec<u64> {
        self.routed.iter().map(Counter::get).collect()
    }

    /// Merges a freshness observation into the svv cache (lock-free).
    pub fn observe_site_vv(&self, site: SiteId, vv: &VersionVector) {
        self.freshness.observe(site, vv);
    }

    /// Starts a background thread probing every site's svv at `interval`.
    pub fn start_vv_probe(self: &Arc<Self>, interval: Duration) -> ProbeHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let selector = Arc::clone(self);
        let stop2 = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("selector-vv-probe".into())
            .spawn(move || {
                // Probe waits are bounded: a crashed or partitioned site
                // must not wedge the probe loop (and with it the freshness
                // cache for every *other* site).
                let patience = selector.network.config().retry.attempt_timeout;
                while !stop2.load(Ordering::Relaxed) {
                    for i in 0..selector.config.num_sites {
                        let req = Bytes::from(encode_to_vec(&SiteRequest::GetVv));
                        let reply = selector
                            .network
                            .rpc_async(
                                EndpointId::Site(i as u32),
                                TrafficCategory::ClientSelector,
                                req,
                            )
                            .and_then(|pending| pending.wait_timeout(patience));
                        if let Ok(reply) = reply {
                            if let Ok(SiteResponse::Vv { svv }) = expect_ok(&reply) {
                                selector.observe_site_vv(SiteId::new(i), &svv);
                            }
                        }
                    }
                    // The probe doubles as the epoch clock: an idle workload
                    // must not strand a queued move past `epoch_interval`.
                    if selector.config.remaster_batching {
                        let _ = selector.flush_epoch_if_due();
                    }
                    // Replica provisioning rides the same cadence: between
                    // probe rounds the planner widens hot partitions and
                    // shrinks cold ones back toward the floor.
                    if selector.replica_map.is_partial() {
                        selector.provision_now();
                    }
                    thread::sleep(interval);
                }
            })
            .expect("spawn vv probe");
        ProbeHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// Routes an update transaction, remastering if necessary (Algorithm 1).
    /// Allocates a fresh trace id; callers that correlate routing with
    /// execution use [`SiteSelector::route_update_traced`].
    pub fn route_update(
        &self,
        client: ClientId,
        cvv: &VersionVector,
        write_set: &[Key],
    ) -> Result<RouteDecision> {
        self.route_update_traced(next_trace_id(), client, cvv, write_set)
    }

    /// Routes an update transaction under an externally allocated trace id,
    /// so the flight-recorder events it emits (route, remaster decision,
    /// release/grant steps) join the same causal timeline as the data site's
    /// begin/execute/commit events.
    pub fn route_update_traced(
        &self,
        txn_id: u64,
        client: ClientId,
        cvv: &VersionVector,
        write_set: &[Key],
    ) -> Result<RouteDecision> {
        // A crashed selector does nothing more — not even fast-path routing.
        if self.crashed() {
            return Err(DynaError::Network("selector crashed"));
        }
        let t0 = Instant::now();
        let mut partitions = Vec::with_capacity(write_set.len());
        for key in write_set {
            partitions.push(self.catalog.partition_of(*key)?);
        }
        partitions.sort_unstable();
        partitions.dedup();
        if partitions.is_empty() {
            return Err(DynaError::Internal("update with empty write set"));
        }
        let entries = self.map.entries_for(&partitions);

        // Fast path: shared locks; one master for everything → route there.
        {
            let guards = self.map.lock_shared(&entries);
            let masters: Vec<Option<SiteId>> = guards.iter().map(|g| g.master).collect();
            if let Some(site) = sole_master(&masters) {
                drop(guards);
                let lookup = t0.elapsed();
                self.stats
                    .record_write_set(client, Instant::now(), &partitions, &masters);
                // Epoch batching: the group stays where it is for now; the
                // tick may queue a move for the epoch boundary, and only a
                // blown wait budget forces the flush (and a re-route) here.
                let site = if self.config.remaster_batching {
                    self.epoch_tick(txn_id, cvv, &partitions, site)?
                } else {
                    site
                };
                self.routed[site.as_usize()].inc();
                self.trace(
                    txn_id,
                    TraceKind::Route,
                    TracePayload::Route {
                        dest: site.raw(),
                        partitions: partitions.len() as u32,
                        fast_path: true,
                        remastered: false,
                    },
                );
                return Ok(RouteDecision {
                    site,
                    min_vv: self.with_session_floor(VersionVector::zero(self.config.num_sites)),
                    lookup,
                    routing: Duration::ZERO,
                    remastered: false,
                });
            }
        }

        // Slow path: exclusive locks (prevents concurrent remastering of any
        // of these partitions), re-check, then decide and remaster.
        let mut guards = self.map.lock_exclusive(&entries);
        let masters: Vec<Option<SiteId>> = guards.iter().map(|g| g.master).collect();
        let lookup = t0.elapsed();
        let t_route = Instant::now();
        if let Some(site) = sole_master(&masters) {
            drop(guards);
            self.stats
                .record_write_set(client, Instant::now(), &partitions, &masters);
            self.routed[site.as_usize()].inc();
            self.trace(
                txn_id,
                TraceKind::Route,
                TracePayload::Route {
                    dest: site.raw(),
                    partitions: partitions.len() as u32,
                    fast_path: false,
                    remastered: false,
                },
            );
            return Ok(RouteDecision {
                site,
                min_vv: self.with_session_floor(VersionVector::zero(self.config.num_sites)),
                lookup,
                routing: t_route.elapsed(),
                remastered: false,
            });
        }

        // Record the access before scoring so frequencies include this
        // transaction, then choose the destination.
        self.stats
            .record_write_set(client, Instant::now(), &partitions, &masters);
        let dest = match &self.mode {
            SelectorMode::Pinned(pin) => {
                let dest = pin(partitions[0]);
                if partitions.iter().any(|p| pin(*p) != dest) {
                    return Err(DynaError::Internal(
                        "pinned selector cannot split a write set",
                    ));
                }
                dest
            }
            SelectorMode::Adaptive => self.decide_destination(txn_id, &partitions, &masters, cvv),
        };

        // Create-then-grant (partial replication): a grant can only land on
        // a site that holds a copy, so ship any missing copies to `dest`
        // before the release/grant protocol below. Runs inside the exclusive
        // map window the remaster RPCs already occupy, so no concurrent
        // route re-decides these partitions mid-install.
        if self.replica_map.is_partial() {
            for (i, master) in masters.iter().enumerate() {
                if *master != Some(dest) {
                    self.ensure_replica(dest, partitions[i])?;
                }
            }
        }

        // Remaster every partition not already mastered at `dest`
        // (Algorithm 1): parallel releases; each grant fires as soon as its
        // release returns.
        let mut out_vv = VersionVector::zero(self.config.num_sites);
        let mut moved = 0u64;
        let mut placed = 0u64;
        // Create-then-grant moves whose releaser's copy should retire once
        // mastership lands (frozen replica sets: the copy budget is pinned,
        // so a copy *follows* the master instead of widening the set).
        let mut follow: Vec<(PartitionId, SiteId)> = Vec::new();
        let mut pending_releases = Vec::new();
        // (write-set index, epoch, grant request, in-flight reply, releaser).
        let mut pending_grants: Vec<(usize, u64, SiteRequest, Result<_>, Option<SiteId>)> =
            Vec::new();
        for (i, master) in masters.iter().enumerate() {
            match master {
                Some(m) if *m == dest => {}
                Some(m) => {
                    self.crash_check(CrashPoint::BeforeReleaseSend)?;
                    let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
                    let req = SiteRequest::Release {
                        partition: partitions[i],
                        epoch,
                        generation: self.generation,
                    };
                    self.remaster_rpcs.inc();
                    let pending = self.network.rpc_async(
                        EndpointId::Site(m.raw()),
                        TrafficCategory::Remaster,
                        Bytes::from(encode_to_vec(&req)),
                    );
                    self.trace_remaster(
                        txn_id,
                        TraceKind::ReleaseSend,
                        partitions[i],
                        *m,
                        dest,
                        epoch,
                    );
                    if self.config.sequential_remastering {
                        // Ablation: complete this partition's release AND
                        // grant before touching the next partition.
                        let rel_vv = match expect_ok(&self.settle(*m, &req, pending)?)? {
                            SiteResponse::Released { rel_vv } => rel_vv,
                            _ => return Err(DynaError::Internal("unexpected release response")),
                        };
                        self.trace_remaster(
                            txn_id,
                            TraceKind::ReleaseAck,
                            partitions[i],
                            *m,
                            dest,
                            epoch,
                        );
                        self.crash_check(CrashPoint::AfterReleaseAck)?;
                        self.observe_site_vv(*m, &rel_vv);
                        self.crash_check(CrashPoint::BeforeGrantSend)?;
                        let grant = SiteRequest::Grant {
                            partition: partitions[i],
                            epoch,
                            rel_vv,
                            generation: self.generation,
                        };
                        self.remaster_rpcs.inc();
                        let sent = self.network.rpc_async(
                            EndpointId::Site(dest.raw()),
                            TrafficCategory::Remaster,
                            Bytes::from(encode_to_vec(&grant)),
                        );
                        self.trace_remaster(
                            txn_id,
                            TraceKind::GrantSend,
                            partitions[i],
                            *m,
                            dest,
                            epoch,
                        );
                        self.crash_check(CrashPoint::AfterGrantSend)?;
                        let reply = match self.settle(dest, &grant, sent) {
                            Ok(reply) => reply,
                            Err(e) => {
                                self.back_grant(Some(*m), &grant);
                                return Err(e);
                            }
                        };
                        let grant_vv = match expect_ok(&reply)? {
                            SiteResponse::Granted { grant_vv } => grant_vv,
                            _ => return Err(DynaError::Internal("unexpected grant response")),
                        };
                        self.trace_remaster(
                            txn_id,
                            TraceKind::GrantAck,
                            partitions[i],
                            *m,
                            dest,
                            epoch,
                        );
                        out_vv.merge_max(&grant_vv);
                        entries[i].set_master(&mut guards[i], dest);
                        self.stats.on_remaster(partitions[i], dest);
                        self.drop_pending(partitions[i]);
                        follow.push((partitions[i], *m));
                        moved += 1;
                        continue;
                    }
                    pending_releases.push((i, *m, epoch, req, pending));
                }
                None => {
                    // First placement: no release necessary; grant directly.
                    self.crash_check(CrashPoint::BeforeGrantSend)?;
                    let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
                    let grant = SiteRequest::Grant {
                        partition: partitions[i],
                        epoch,
                        rel_vv: VersionVector::zero(self.config.num_sites),
                        generation: self.generation,
                    };
                    self.remaster_rpcs.inc();
                    let pending = self.network.rpc_async(
                        EndpointId::Site(dest.raw()),
                        TrafficCategory::Remaster,
                        Bytes::from(encode_to_vec(&grant)),
                    );
                    // First placements have no releaser; `from == to` marks
                    // a placement grant on the trace.
                    self.trace_remaster(
                        txn_id,
                        TraceKind::GrantSend,
                        partitions[i],
                        dest,
                        dest,
                        epoch,
                    );
                    self.crash_check(CrashPoint::AfterGrantSend)?;
                    placed += 1;
                    pending_grants.push((i, epoch, grant, pending, None));
                }
            }
        }
        for (i, releaser, epoch, req, pending) in pending_releases {
            let rel_vv = match expect_ok(&self.settle(releaser, &req, pending)?)? {
                SiteResponse::Released { rel_vv } => rel_vv,
                _ => return Err(DynaError::Internal("unexpected release response")),
            };
            self.trace_remaster(
                txn_id,
                TraceKind::ReleaseAck,
                partitions[i],
                releaser,
                dest,
                epoch,
            );
            self.crash_check(CrashPoint::AfterReleaseAck)?;
            self.observe_site_vv(releaser, &rel_vv);
            self.crash_check(CrashPoint::BeforeGrantSend)?;
            let grant = SiteRequest::Grant {
                partition: partitions[i],
                epoch,
                rel_vv,
                generation: self.generation,
            };
            self.remaster_rpcs.inc();
            let pending = self.network.rpc_async(
                EndpointId::Site(dest.raw()),
                TrafficCategory::Remaster,
                Bytes::from(encode_to_vec(&grant)),
            );
            self.trace_remaster(
                txn_id,
                TraceKind::GrantSend,
                partitions[i],
                releaser,
                dest,
                epoch,
            );
            self.crash_check(CrashPoint::AfterGrantSend)?;
            pending_grants.push((i, epoch, grant, pending, Some(releaser)));
        }
        // Settle every in-flight grant even once one has failed: each may
        // still have taken effect at `dest`, and an unsettled failure must
        // be backed out (below) so its partition is not orphaned.
        let mut first_err: Option<DynaError> = None;
        for (i, epoch, grant, pending, releaser) in pending_grants {
            let settled =
                self.settle(dest, &grant, pending)
                    .and_then(|reply| match expect_ok(&reply)? {
                        SiteResponse::Granted { grant_vv } => Ok(grant_vv),
                        _ => Err(DynaError::Internal("unexpected grant response")),
                    });
            match settled {
                Ok(grant_vv) => {
                    self.trace_remaster(
                        txn_id,
                        TraceKind::GrantAck,
                        partitions[i],
                        releaser.unwrap_or(dest),
                        dest,
                        epoch,
                    );
                    out_vv.merge_max(&grant_vv);
                    entries[i].set_master(&mut guards[i], dest);
                    self.stats.on_remaster(partitions[i], dest);
                    self.drop_pending(partitions[i]);
                    if let Some(releaser) = releaser {
                        follow.push((partitions[i], releaser));
                    }
                    moved += 1;
                }
                Err(e) => {
                    // `dest` is unreachable. Re-grant the released partition
                    // back to its releaser (idempotent; best-effort — if it
                    // also fails, the next routing attempt's release replays
                    // the recorded rel_vv and re-grants elsewhere). The map
                    // keeps naming the releaser, matching recovery's
                    // rebuild policy for a release without a matching grant.
                    self.back_grant(releaser, &grant);
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // First-touch placements are not remasterings: nothing released.
        moved = moved.saturating_sub(placed);
        self.placements.add(placed);
        self.observe_site_vv(dest, &out_vv);
        drop(guards);
        self.retire_followed(&follow);

        if moved > 0 {
            self.remaster_ops.inc();
            self.partitions_moved.add(moved);
        }
        self.routed[dest.as_usize()].inc();
        self.crash_check(CrashPoint::BeforeClientReply)?;
        self.trace(
            txn_id,
            TraceKind::Route,
            TracePayload::Route {
                dest: dest.raw(),
                partitions: partitions.len() as u32,
                fast_path: false,
                remastered: moved > 0,
            },
        );
        Ok(RouteDecision {
            site: dest,
            min_vv: self.with_session_floor(out_vv),
            lookup,
            routing: t_route.elapsed(),
            remastered: moved > 0,
        })
    }

    /// Settles a remaster RPC: rides the already-sent async request first;
    /// a lost request or reply falls back to full retransmission under the
    /// network's retry policy. Safe because release and grant are
    /// idempotent per `(partition, epoch)` at the data sites.
    fn settle(
        &self,
        to: SiteId,
        req: &SiteRequest,
        pending: Result<dynamast_network::PendingReply>,
    ) -> Result<Bytes> {
        let retry = self.network.config().retry;
        match pending.and_then(|p| p.wait_timeout(retry.attempt_timeout)) {
            Ok(reply) => Ok(reply),
            Err(DynaError::Timeout { .. } | DynaError::Network(_)) => self.network.rpc_with_retry(
                &retry,
                None,
                EndpointId::Site(to.raw()),
                TrafficCategory::Remaster,
                Bytes::from(encode_to_vec(req)),
            ),
            Err(e) => Err(e),
        }
    }

    /// Best-effort re-grant of a released partition back to its releaser
    /// after the intended grantee proved unreachable.
    fn back_grant(&self, releaser: Option<SiteId>, grant: &SiteRequest) {
        let Some(back_to) = releaser else { return };
        self.remaster_rpcs.inc();
        let _ = self.network.rpc_with_retry(
            &self.network.config().retry,
            None,
            EndpointId::Site(back_to.raw()),
            TrafficCategory::Remaster,
            Bytes::from(encode_to_vec(grant)),
        );
    }

    // ---- Adaptive replica provisioning (partial replication) ----

    /// Guarantees `dest` holds a copy of `partition`, shipping one from an
    /// existing replica if the map says it is missing. No-op under full
    /// replication. This is the create-then-grant building block: Eq. 8 may
    /// choose a destination with no copy, in which case the copy is created
    /// first and the grant proceeds as usual.
    pub fn ensure_replica(&self, dest: SiteId, partition: PartitionId) -> Result<()> {
        if !self.replica_map.is_partial() || self.replica_map.hosts(partition, dest) {
            return Ok(());
        }
        self.install_replica(dest, partition)
    }

    /// Unconditionally (re-)ships a copy of `partition` to `dest`, even when
    /// the map already claims one exists. The NotReplica repair path: the
    /// site is authoritative about what it hosts, so a rejection from a site
    /// the map believes is a replica (e.g. after an unclean restart whose
    /// checkpoint predated the copy) is healed by installing again —
    /// idempotent at the site if the copy does exist.
    pub fn repair_replica(&self, dest: SiteId, partition: PartitionId) -> Result<()> {
        if !self.replica_map.is_partial() {
            return Ok(());
        }
        self.install_replica(dest, partition)
    }

    /// LEAP-style copy install: snapshot RPC against a serving replica, then
    /// an `AddReplica` RPC shipping the snapshot plus its cut svv to `dest`,
    /// which catches the partition up from its own logs and refresh buffer
    /// before marking it hosted. Serialized under the provisioning lock.
    ///
    /// When no reachable site actually serves the partition — every mapped
    /// replica answers NotReplica, which happens for partitions born after
    /// seeding (nobody ever loaded rows) — falls back to an empty snapshot at
    /// svv zero: the destination then replays the partition's entire history
    /// from its retained logs, which is complete because records are only
    /// truncated once every site (including `dest`) has consumed them.
    fn install_replica(&self, dest: SiteId, partition: PartitionId) -> Result<()> {
        let _serial = self.provision_lock.lock();
        let retry = self.network.config().retry;
        let snap_req = Bytes::from(encode_to_vec(&SiteRequest::ReplicaSnapshot { partition }));
        let mut snapshot: Option<(Vec<_>, VersionVector)> = None;
        let mut unreachable_source = false;
        for src in self.replica_map.replicas(partition) {
            if src == dest || !self.network.site_reachable(src.raw()) {
                unreachable_source |= src != dest;
                continue;
            }
            let reply = self.network.rpc_with_retry(
                &retry,
                None,
                EndpointId::Site(src.raw()),
                TrafficCategory::DataShip,
                snap_req.clone(),
            );
            match reply.and_then(|r| match expect_ok(&r)? {
                SiteResponse::ReplicaSnapshotted { records, src_svv } => Ok((records, src_svv)),
                _ => Err(DynaError::Internal("unexpected replica snapshot response")),
            }) {
                Ok(cut) => {
                    snapshot = Some(cut);
                    break;
                }
                Err(DynaError::NotReplica { .. }) => continue,
                Err(_) => unreachable_source = true,
            }
        }
        let (records, src_svv) = match snapshot {
            Some(cut) => cut,
            // A copy may exist only on an unreachable site: do NOT fall back
            // to log replay (its rows could predate log truncation floors).
            None if unreachable_source => {
                return Err(DynaError::Network("no reachable replica to copy from"))
            }
            None => (Vec::new(), VersionVector::zero(self.config.num_sites)),
        };
        let add = SiteRequest::AddReplica {
            partition,
            records,
            src_svv,
            generation: self.generation,
        };
        let reply = self.network.rpc_with_retry(
            &retry,
            None,
            EndpointId::Site(dest.raw()),
            TrafficCategory::DataShip,
            Bytes::from(encode_to_vec(&add)),
        )?;
        match expect_ok(&reply)? {
            SiteResponse::ReplicaAdded { svv } => {
                self.observe_site_vv(dest, &svv);
                self.replica_map.add(partition, dest);
                self.replica_adds.inc();
                Ok(())
            }
            _ => Err(DynaError::Internal("unexpected add-replica response")),
        }
    }

    /// Drops `site`'s copy of `partition` (planner shrink). The map bit is
    /// cleared first — no new reads route there while the RPC is in flight —
    /// then the fenced `DropReplica` executes; a refusal (the site was just
    /// granted mastership, or is unreachable with its copy intact) restores
    /// the bit. Returns whether the copy was actually dropped.
    fn retire_replica(&self, site: SiteId, partition: PartitionId) -> bool {
        let _serial = self.provision_lock.lock();
        if self
            .map
            .entries_for_existing(partition)
            .and_then(|e| e.master_relaxed())
            == Some(site)
        {
            return false;
        }
        if !self.replica_map.remove(partition, site) {
            return false; // already at the replication floor
        }
        let req = SiteRequest::DropReplica {
            partition,
            generation: self.generation,
        };
        let reply = self.network.rpc_with_retry(
            &self.network.config().retry,
            None,
            EndpointId::Site(site.raw()),
            TrafficCategory::DataShip,
            Bytes::from(encode_to_vec(&req)),
        );
        match reply.and_then(|r| match expect_ok(&r)? {
            SiteResponse::ReplicaDropped { .. } => Ok(()),
            _ => Err(DynaError::Internal("unexpected drop-replica response")),
        }) {
            Ok(()) => {
                self.replica_drops.inc();
                true
            }
            Err(_) => {
                self.replica_map.add(partition, site);
                false
            }
        }
    }

    /// With frozen replica sets, a create-then-grant *moves* the copy rather
    /// than widening the set: once mastership has landed at the grantee, the
    /// releaser's copy is retired so the copy budget stays pinned at the
    /// floor deployment the operator asked for. Under adaptive provisioning
    /// this is a no-op — the planner owns shrink decisions and widening after
    /// a grant is exactly the Eq. 8 has-copy signal working as intended.
    /// `retire_replica` refuses masters and floor breaches, so a partition
    /// whose grantee already hosted a copy (count unchanged) is left alone.
    fn retire_followed(&self, follow: &[(PartitionId, SiteId)]) {
        if follow.is_empty() || !self.replica_map.is_partial() || self.config.replica_provisioning {
            return;
        }
        let floor = self.replica_map.floor();
        for &(partition, old_master) in follow {
            // Converge the touched partition all the way back to its floor
            // set, not just by the one copy this grant added: a prior grant
            // whose retire was refused (or whose install was orphaned by a
            // failed grant) left surplus copies that would otherwise linger
            // forever in frozen mode. Old master first, then any other
            // non-master surplus; stop when a pass sheds nothing.
            let mut victims = vec![old_master];
            victims.extend(
                self.replica_map
                    .replicas(partition)
                    .into_iter()
                    .filter(|&s| s != old_master),
            );
            for victim in victims {
                if self.replica_map.replicas(partition).len() <= floor {
                    break;
                }
                self.retire_replica(victim, partition);
            }
        }
    }

    /// One pass of the adaptive replica-provisioning planner: re-uses the
    /// access tracker's per-partition load features (the same features Eq. 8
    /// consumes) to widen hot partitions toward all sites and shrink cold
    /// ones back toward the floor. Runs on the svv-probe cadence; public so
    /// tests and benches can force a pass deterministically. Returns the
    /// number of copy installs/drops performed.
    pub fn provision_now(&self) -> usize {
        if !self.replica_map.is_partial() || !self.config.replica_provisioning {
            return 0;
        }
        let m = self.config.num_sites;
        let mut partitions: Vec<PartitionId> =
            self.map.placements().into_iter().map(|(p, _)| p).collect();
        partitions.extend(self.replica_map.tracked().into_iter().map(|(p, _)| p));
        partitions.sort_unstable();
        partitions.dedup();
        if partitions.is_empty() {
            return 0;
        }
        let (snaps, site_load) = self.stats.snapshot(&partitions);
        let total: f64 = snaps.iter().map(|s| s.load).sum();
        if total < PROVISION_MIN_TOTAL {
            return 0;
        }
        let mean = total / partitions.len() as f64;
        let mut ops = 0usize;
        for (i, &p) in partitions.iter().enumerate() {
            if ops >= PROVISION_MAX_OPS {
                break;
            }
            let load = snaps[i].load;
            let replicas = self.replica_map.replicas(p);
            if load > PROVISION_HOT_FACTOR * mean && replicas.len() < m {
                // Widen: one copy per pass, at the least-loaded reachable
                // site that lacks one.
                let dest = (0..m)
                    .filter(|&s| {
                        !replicas.contains(&SiteId::new(s)) && self.network.site_reachable(s as u32)
                    })
                    .min_by(|&a, &b| site_load[a].total_cmp(&site_load[b]));
                if let Some(d) = dest {
                    if self.ensure_replica(SiteId::new(d), p).is_ok() {
                        ops += 1;
                    }
                }
            } else if load < PROVISION_COLD_FACTOR * mean
                && replicas.len() > self.replica_map.floor()
            {
                // Shrink: drop the copy on the most loaded site (the master
                // and the floor are refused inside `retire_replica`, so the
                // sort order just expresses preference).
                let mut victims = replicas;
                victims.sort_by(|a, b| site_load[b.as_usize()].total_cmp(&site_load[a.as_usize()]));
                if victims.into_iter().any(|v| self.retire_replica(v, p)) {
                    ops += 1;
                }
            }
        }
        ops
    }

    // ---- Epoch-batched group remastering ----

    /// Number of moves currently queued for the next epoch boundary
    /// (tests and diagnostics; counts sticky "stay put" markers too).
    pub fn pending_moves(&self) -> usize {
        self.pending.lock().moves.len()
    }

    /// Forgets a queued move after an inline remaster superseded it.
    fn drop_pending(&self, partition: PartitionId) {
        if self.config.remaster_batching {
            self.pending.lock().moves.remove(&partition);
        }
    }

    /// Per-route bookkeeping on the sole-master fast path when epoch
    /// batching is on. Never stalls the transaction: the group keeps
    /// executing at `master` (the no-stall guarantee), and only a blown
    /// wait budget forces the epoch to flush early — in which case the
    /// group's post-flush master is returned for re-routing.
    fn epoch_tick(
        &self,
        txn_id: u64,
        cvv: &VersionVector,
        partitions: &[PartitionId],
        master: SiteId,
    ) -> Result<SiteId> {
        let budget = self.config.remaster_wait_budget;
        let (force_flush, unqueued) = {
            let mut q = self.pending.lock();
            let mut force = false;
            let mut unqueued: Vec<PartitionId> = Vec::new();
            for p in partitions {
                match q.moves.get_mut(p) {
                    Some(pm) => {
                        pm.deferrals += 1;
                        if pm.deferrals > budget {
                            if pm.dest != master {
                                force = true;
                            } else {
                                // A "stay put" verdict expires after a
                                // budget's worth of routes: the load picture
                                // that justified it may have shifted.
                                q.moves.remove(p);
                            }
                        }
                    }
                    None => unqueued.push(*p),
                }
            }
            (force, unqueued)
        };
        // Imbalance probe: a cheap relaxed read of the per-site load
        // attribution; full Eq. 8 scoring runs only when this master looks
        // overloaded. Partitions are scored individually — moving a whole
        // co-hot set wholesale never improves balance, spreading it does —
        // and every verdict is cached in the queue (a "stay put" included)
        // so each partition is scored once per epoch, not once per route.
        if !force_flush && !unqueued.is_empty() {
            let load = self.stats.approx_site_load();
            let total: f64 = load.iter().sum();
            let mean = total / load.len().max(1) as f64;
            if total >= REBALANCE_MIN_TOTAL && load[master.as_usize()] > REBALANCE_FACTOR * mean {
                for p in &unqueued {
                    let (dest, cands) = self.score_candidates(&[*p], &[Some(master)], cvv);
                    if dest != master {
                        // Decision explainability for deferred moves: epoch 0
                        // marks "queued, epoch not yet assigned"; the flush
                        // emits the final epoch-stamped decision.
                        self.trace(
                            txn_id,
                            TraceKind::RemasterDecision,
                            TracePayload::Decision {
                                chosen: dest.raw(),
                                partitions: 1,
                                epoch: 0,
                                candidates: Arc::new(cands),
                            },
                        );
                    }
                    let mut q = self.pending.lock();
                    if q.started.is_none() {
                        q.started = Some(Instant::now());
                    }
                    q.moves
                        .entry(*p)
                        .or_insert(PendingMove { dest, deferrals: 0 });
                }
            }
        }
        let boundary = {
            let q = self.pending.lock();
            q.moves.len() >= self.config.epoch_max_moves.max(1)
                || (self.config.epoch_interval > Duration::ZERO
                    && q.started
                        .is_some_and(|t| t.elapsed() >= self.config.epoch_interval))
        };
        if force_flush || boundary {
            self.flush_epoch_traced(txn_id)?;
            if force_flush {
                // The waiting group just moved (or a concurrent flush beat
                // us to it) — route wherever the map says it lives now.
                let entries = self.map.entries_for(partitions);
                let guards = self.map.lock_shared(&entries);
                let masters: Vec<Option<SiteId>> = guards.iter().map(|g| g.master).collect();
                return Ok(sole_master(&masters).unwrap_or(master));
            }
        }
        Ok(master)
    }

    /// Flushes the open epoch now: drains the pending queue, re-scores each
    /// destination group under exclusive map locks, and executes the moves
    /// as coalesced per-site-pair `BatchRelease`/`BatchGrant` RPCs. Public
    /// so benches and tests can force epoch boundaries; routing calls it
    /// when the epoch's move count, age, or a wait budget trips it.
    pub fn flush_epoch(&self) -> Result<()> {
        self.flush_epoch_traced(next_trace_id())
    }

    /// Time-trigger check used by the background svv probe: flushes once
    /// the open epoch is older than `epoch_interval`. No-op otherwise.
    pub fn flush_epoch_if_due(&self) -> Result<()> {
        if self.config.epoch_interval == Duration::ZERO {
            return Ok(());
        }
        let due = self
            .pending
            .lock()
            .started
            .is_some_and(|t| t.elapsed() >= self.config.epoch_interval);
        if due {
            self.flush_epoch()
        } else {
            Ok(())
        }
    }

    fn flush_epoch_traced(&self, txn_id: u64) -> Result<()> {
        if !self.config.remaster_batching {
            return Ok(());
        }
        if self.flush_in_progress.swap(true, Ordering::AcqRel) {
            return Ok(()); // another thread's flush is already draining
        }
        struct Unflag<'a>(&'a AtomicBool);
        impl Drop for Unflag<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _unflag = Unflag(&self.flush_in_progress);
        let mut drained: Vec<PartitionId> = {
            let mut q = self.pending.lock();
            q.started = None;
            q.moves.drain().map(|(p, _)| p).collect()
        };
        if drained.is_empty() {
            return Ok(());
        }
        // Ascending partition order: the map's deadlock-avoidance locking
        // discipline, and a deterministic plan for a deterministic queue.
        drained.sort_unstable();
        drained.dedup();
        self.flush_moves(txn_id, &drained)
    }

    /// Plans one epoch flush — greedy per-partition Eq. 8 assignment over a
    /// single shared stats snapshot — and executes it as coalesced batch
    /// RPCs, one `BatchRelease` + `BatchGrant` per (source, destination)
    /// site pair. Planning runs under *shared* map locks only, and each
    /// pair's exclusive window covers just its own two round trips: the
    /// router is never stalled for the whole flush, only for the sub-batch
    /// whose partitions it actually touches.
    fn flush_moves(&self, txn_id: u64, partitions: &[PartitionId]) -> Result<()> {
        let m = self.config.num_sites;
        let masters: Vec<Option<SiteId>> = {
            let entries = self.map.entries_for(partitions);
            let guards = self.map.lock_shared(&entries);
            guards.iter().map(|g| g.master).collect()
        };
        let plan = self.plan_flush(txn_id, partitions, &masters);
        let mut by_pair: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        for (i, mm) in masters.iter().enumerate() {
            if let (Some(src), Some(dst)) = (mm, plan[i]) {
                if *src != dst {
                    by_pair.entry((src.raw(), dst.raw())).or_default().push(i);
                }
            }
        }
        if by_pair.is_empty() {
            return Ok(());
        }
        let retry = self.network.config().retry;
        let mut attempted = 0u64;
        let mut batch_rpcs = 0u64;
        let mut moved = 0u64;
        let mut follow: Vec<(PartitionId, SiteId)> = Vec::new();
        for ((src_raw, dst_raw), idxs) in &by_pair {
            let src = SiteId::new(*src_raw as usize);
            let dst = SiteId::new(*dst_raw as usize);
            // A crash here tears the batch: earlier pairs are already moved
            // with this one untouched — exactly the torn state the standby's
            // release-without-grant repair must mend.
            self.crash_check(CrashPoint::MidBatchRelease)?;
            // Exclusive locks for this pair only. `idxs` ascends and pairs
            // never share a partition, so the map's ascending-order locking
            // discipline holds within and across pairs.
            let pair_parts: Vec<PartitionId> = idxs.iter().map(|&i| partitions[i]).collect();
            let entries = self.map.entries_for(&pair_parts);
            let mut guards = self.map.lock_exclusive(&entries);
            // Re-verify under the exclusive lock: an inline co-location may
            // have superseded the plan while no lock was held. Under partial
            // replication the destination must also hold a copy before its
            // grant — moves whose install fails stay put for a later epoch.
            let live: Vec<usize> = (0..idxs.len())
                .filter(|&k| guards[k].master == Some(src))
                .filter(|&k| self.ensure_replica(dst, pair_parts[k]).is_ok())
                .collect();
            if live.is_empty() {
                continue;
            }
            let mut epochs = vec![0u64; idxs.len()];
            let moves: Vec<(PartitionId, u64)> = live
                .iter()
                .map(|&k| {
                    let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
                    epochs[k] = epoch;
                    self.trace_remaster(
                        txn_id,
                        TraceKind::ReleaseSend,
                        pair_parts[k],
                        src,
                        dst,
                        epoch,
                    );
                    (pair_parts[k], epoch)
                })
                .collect();
            attempted += moves.len() as u64;
            let req = SiteRequest::BatchRelease {
                moves,
                generation: self.generation,
            };
            self.remaster_rpcs.inc();
            batch_rpcs += 1;
            self.remaster_batch_size
                .record(Duration::from_micros(live.len() as u64));
            let reply = self.network.rpc_with_retry(
                &retry,
                None,
                EndpointId::Site(src.raw()),
                TrafficCategory::Remaster,
                Bytes::from(encode_to_vec(&req)),
            );
            let results = match reply.and_then(|r| match expect_ok(&r)? {
                SiteResponse::BatchReleased { results } => Ok(results),
                _ => Err(DynaError::Internal("unexpected batch release response")),
            }) {
                Ok(results) => results,
                // Unreachable or fenced: nothing released at this source;
                // its partitions stay put for a later epoch.
                Err(_) => continue,
            };
            let mut rel_vvs: Vec<Option<VersionVector>> = vec![None; idxs.len()];
            let mut src_vv = VersionVector::zero(m);
            for (&k, rel) in live.iter().zip(results) {
                if let Some(rel_vv) = rel {
                    self.trace_remaster(
                        txn_id,
                        TraceKind::ReleaseAck,
                        pair_parts[k],
                        src,
                        dst,
                        epochs[k],
                    );
                    src_vv.merge_max(&rel_vv);
                    rel_vvs[k] = Some(rel_vv);
                }
            }
            self.observe_site_vv(src, &src_vv);
            let granted: Vec<usize> = live
                .iter()
                .copied()
                .filter(|&k| rel_vvs[k].is_some())
                .collect();
            if granted.is_empty() {
                continue;
            }
            let single_grant = |k: usize| SiteRequest::Grant {
                partition: pair_parts[k],
                epoch: epochs[k],
                rel_vv: rel_vvs[k].clone().expect("granted only when released"),
                generation: self.generation,
            };
            // A crash here leaves this pair's partitions released with no
            // grant sent — the other torn-batch shape recovery must mend.
            self.crash_check(CrashPoint::MidBatchGrant)?;
            let grants: Vec<(PartitionId, u64, VersionVector)> = granted
                .iter()
                .map(|&k| {
                    self.trace_remaster(
                        txn_id,
                        TraceKind::GrantSend,
                        pair_parts[k],
                        src,
                        dst,
                        epochs[k],
                    );
                    (
                        pair_parts[k],
                        epochs[k],
                        rel_vvs[k].clone().expect("granted only when released"),
                    )
                })
                .collect();
            let req = SiteRequest::BatchGrant {
                grants,
                generation: self.generation,
            };
            self.remaster_rpcs.inc();
            batch_rpcs += 1;
            self.remaster_batch_size
                .record(Duration::from_micros(granted.len() as u64));
            let reply = self.network.rpc_with_retry(
                &retry,
                None,
                EndpointId::Site(dst.raw()),
                TrafficCategory::Remaster,
                Bytes::from(encode_to_vec(&req)),
            );
            let results = match reply.and_then(|r| match expect_ok(&r)? {
                SiteResponse::BatchGranted { results } => Ok(results),
                _ => Err(DynaError::Internal("unexpected batch grant response")),
            }) {
                Ok(results) => results,
                Err(_) => {
                    // Destination unreachable: back out this pair's
                    // releases so no partition is left masterless (the
                    // inline path's policy).
                    for &k in &granted {
                        self.back_grant(Some(src), &single_grant(k));
                    }
                    continue;
                }
            };
            let mut merged = VersionVector::zero(m);
            for (&k, outcome) in granted.iter().zip(results) {
                match outcome {
                    Some(grant_vv) => {
                        self.trace_remaster(
                            txn_id,
                            TraceKind::GrantAck,
                            pair_parts[k],
                            src,
                            dst,
                            epochs[k],
                        );
                        merged.merge_max(&grant_vv);
                        entries[k].set_master(&mut guards[k], dst);
                        self.stats.on_remaster(pair_parts[k], dst);
                        follow.push((pair_parts[k], src));
                        moved += 1;
                    }
                    None => self.back_grant(Some(src), &single_grant(k)),
                }
            }
            self.observe_site_vv(dst, &merged);
        }
        self.retire_followed(&follow);
        if moved > 0 {
            self.remaster_ops.inc();
            self.partitions_moved.add(moved);
        }
        // The batching claim made concrete: the inline path would have paid
        // one release plus one grant round trip per attempted move.
        let inline_cost = 2 * attempted;
        if inline_cost > batch_rpcs {
            self.remaster_rpcs_saved.add(inline_cost - batch_rpcs);
        }
        Ok(())
    }

    /// The flush planner: greedy per-partition Eq. 8 assignment, heaviest
    /// partition first, over ONE shared stats snapshot and freshness read —
    /// the per-candidate feature inputs are computed once for the whole
    /// queued set rather than once per routed transaction. A working copy
    /// of the site-load vector absorbs each assignment before the next
    /// partition is scored, so a flash-crowd hot set *spreads* across
    /// underloaded sites instead of ping-ponging wholesale; already-assigned
    /// partners count at their new homes for the localization terms.
    fn plan_flush(
        &self,
        txn_id: u64,
        partitions: &[PartitionId],
        masters: &[Option<SiteId>],
    ) -> Vec<Option<SiteId>> {
        let m = self.config.num_sites;
        let (snaps, mut working_load) = self.stats.snapshot(partitions);
        let site_vvs = self.freshness.all();
        let unreachable: Vec<bool> = (0..m)
            .map(|i| !self.network.site_reachable(i as u32))
            .collect();
        let cvv = VersionVector::zero(m);
        let mut order: Vec<usize> = (0..partitions.len())
            .filter(|&i| masters[i].is_some())
            .collect();
        order.sort_by(|&a, &b| {
            snaps[b]
                .load
                .total_cmp(&snaps[a].load)
                .then(partitions[a].cmp(&partitions[b]))
        });
        let mut plan: Vec<Option<SiteId>> = vec![None; partitions.len()];
        let mut assigned: HashMap<PartitionId, SiteId> = HashMap::new();
        for &i in &order {
            let placed = [(partitions[i], masters[i])];
            let load = [snaps[i].load];
            let to_coaccess = |partners: &[(PartitionId, f64)]| -> Vec<CoAccess> {
                partners
                    .iter()
                    .map(|(partner, probability)| CoAccess {
                        partner: *partner,
                        probability: *probability,
                        partner_master: assigned.get(partner).copied().or_else(|| {
                            self.map
                                .entries_for_existing(*partner)
                                .and_then(|e| e.master_relaxed())
                        }),
                        in_write_set: false,
                    })
                    .collect()
            };
            let intra = vec![to_coaccess(&snaps[i].intra.partners)];
            let inter = vec![to_coaccess(&snaps[i].inter.partners)];
            let (dest, cands) = confirm_group_destination(
                &ScoreInputs {
                    num_sites: m,
                    weights: &self.config.weights,
                    partitions: &placed,
                    partition_load: &load,
                    site_load: &working_load,
                    intra: &intra,
                    inter: &inter,
                    site_vvs: &site_vvs,
                    cvv: &cvv,
                },
                &unreachable,
            );
            let src = masters[i].expect("order holds only mastered partitions");
            working_load[src.as_usize()] -= snaps[i].load;
            working_load[dest.as_usize()] += snaps[i].load;
            assigned.insert(partitions[i], dest);
            plan[i] = Some(dest);
            if dest != src {
                // The epoch-stamped final decision for this move (its
                // release allocates the next remaster epoch).
                self.trace(
                    txn_id,
                    TraceKind::RemasterDecision,
                    TracePayload::Decision {
                        chosen: dest.raw(),
                        partitions: 1,
                        epoch: self.epoch.load(Ordering::Relaxed) + 1,
                        candidates: Arc::new(cands),
                    },
                );
            }
        }
        plan
    }

    /// Strategy evaluation (Eq. 8) over all candidate sites, recording a
    /// [`TraceKind::RemasterDecision`] event with every candidate's feature
    /// scores.
    fn decide_destination(
        &self,
        txn_id: u64,
        partitions: &[PartitionId],
        masters: &[Option<SiteId>],
        cvv: &VersionVector,
    ) -> SiteId {
        let (dest, cands) = self.score_candidates(partitions, masters, cvv);
        // Decision explainability: the full per-candidate feature breakdown
        // (Eq. 8's four terms) behind this choice, on the flight recorder.
        self.trace(
            txn_id,
            TraceKind::RemasterDecision,
            TracePayload::Decision {
                chosen: dest.raw(),
                partitions: partitions.len() as u32,
                epoch: self.epoch.load(Ordering::Relaxed) + 1,
                candidates: Arc::new(cands),
            },
        );
        dest
    }

    /// Shared Eq. 8 evaluation for both inline decisions and epoch-flush
    /// group re-scoring: builds the feature inputs once for the partition
    /// set and delegates to the strategy's group scorer with the current
    /// reachability mask.
    fn score_candidates(
        &self,
        partitions: &[PartitionId],
        masters: &[Option<SiteId>],
        cvv: &VersionVector,
    ) -> (SiteId, Vec<CandidateScore>) {
        let (snaps, site_load) = self.stats.snapshot(partitions);
        let placed: Vec<(PartitionId, Option<SiteId>)> = partitions
            .iter()
            .zip(masters)
            .map(|(p, m)| (*p, *m))
            .collect();
        let partition_load: Vec<f64> = snaps.iter().map(|s| s.load).collect();
        let to_coaccess = |partners: &[(PartitionId, f64)]| -> Vec<CoAccess> {
            partners
                .iter()
                .map(|(partner, probability)| {
                    let in_write_set = partitions.binary_search(partner).is_ok();
                    let partner_master = if in_write_set {
                        None // filled by `in_write_set` handling in scoring
                    } else {
                        self.map
                            .entries_for_existing(*partner)
                            .and_then(|e| e.master_relaxed())
                    };
                    CoAccess {
                        partner: *partner,
                        probability: *probability,
                        partner_master,
                        in_write_set,
                    }
                })
                .collect()
        };
        let intra: Vec<Vec<CoAccess>> = snaps
            .iter()
            .map(|s| to_coaccess(&s.intra.partners))
            .collect();
        let inter: Vec<Vec<CoAccess>> = snaps
            .iter()
            .map(|s| to_coaccess(&s.inter.partners))
            .collect();
        let site_vvs = self.freshness.all();
        // Never remaster TOWARD an unreachable site: a grant to a crashed
        // endpoint would strand the partition until the site recovers. (If
        // every site is unreachable the unmasked argmax stands; the RPCs
        // fail and the client backs off either way — the group scorer
        // ignores an all-masked mask for exactly this reason.)
        let unreachable: Vec<bool> = (0..self.config.num_sites)
            .map(|i| !self.network.site_reachable(i as u32))
            .collect();
        let (mut dest, mut cands) = confirm_group_destination(
            &ScoreInputs {
                num_sites: self.config.num_sites,
                weights: &self.config.weights,
                partitions: &placed,
                partition_load: &partition_load,
                site_load: &site_load,
                intra: &intra,
                inter: &inter,
                site_vvs: &site_vvs,
                cvv,
            },
            &unreachable,
        );
        // Eq. 8 extension under partial replication: credit candidates that
        // already hold every write-set partition — granting there skips the
        // copy install — then re-take the argmax over the adjusted totals.
        // Folded into `total` post-hoc because `CandidateScore`'s per-term
        // fields are the paper's four and are wire-encoded on the recorder.
        if self.replica_map.is_partial() {
            let spread = cands
                .iter()
                .map(|c| c.total.abs())
                .fold(0.0f64, f64::max)
                .max(1.0);
            for c in cands.iter_mut() {
                let s = SiteId::new(c.site as usize);
                if partitions.iter().all(|p| self.replica_map.hosts(*p, s)) {
                    c.total += HAS_COPY_BONUS * spread;
                }
            }
            let any_reachable = cands.iter().any(|c| c.reachable);
            let mut best = f64::NEG_INFINITY;
            for c in &cands {
                if any_reachable && !c.reachable {
                    continue;
                }
                if c.total > best {
                    best = c.total;
                    dest = SiteId::new(c.site as usize);
                }
            }
        }
        (dest, cands)
    }

    /// Routes a read-only transaction (§IV-B): a random *reachable* site
    /// satisfying the client's freshness requirement; if the cache says none
    /// does, any random reachable site (the site-side freshness wait still
    /// guarantees SSSI); if every site looks down, any random site — its
    /// RPC fails fast and the client backs off.
    ///
    /// Allocates a fresh trace id; callers that correlate routing with
    /// execution use [`SiteSelector::route_read_traced`].
    pub fn route_read(&self, cvv: &VersionVector) -> SiteId {
        self.route_read_traced(next_trace_id(), cvv)
    }

    /// Read routing under an externally allocated trace id (see
    /// [`SiteSelector::route_update_traced`]). Considers every site a
    /// candidate — correct under full replication; partial-replication
    /// callers that know the read set use
    /// [`SiteSelector::route_read_partitions_traced`].
    pub fn route_read_traced(&self, txn_id: u64, cvv: &VersionVector) -> SiteId {
        self.route_read_partitions_traced(txn_id, cvv, &[])
    }

    /// Bit-set of sites hosting every partition in `partitions` (all sites
    /// under full replication or for an empty set). An empty intersection
    /// falls back to the site(s) hosting the *most* of the read set — the
    /// site-side NotReplica rejection is the authoritative guard, and its
    /// repair path installs the missing copies, so best-cover routing keeps
    /// those installs to the minimum (and at a deterministic site, so a
    /// repeated range scan converges instead of sprinkling copies around).
    fn read_mask(&self, partitions: &[PartitionId]) -> u64 {
        let all = if self.config.num_sites >= 64 {
            u64::MAX
        } else {
            (1u64 << self.config.num_sites) - 1
        };
        if !self.replica_map.is_partial() || partitions.is_empty() {
            return all;
        }
        let mask = partitions
            .iter()
            .fold(all, |acc, p| acc & self.replica_map.mask(*p));
        if mask != 0 {
            return mask;
        }
        let masks: Vec<u64> = partitions
            .iter()
            .map(|p| self.replica_map.mask(*p))
            .collect();
        let mut best = 0usize;
        let mut best_mask = 0u64;
        for i in 0..self.config.num_sites {
            let bit = 1u64 << i;
            let cover = masks.iter().filter(|m| *m & bit != 0).count();
            match cover.cmp(&best) {
                std::cmp::Ordering::Greater => {
                    best = cover;
                    best_mask = bit;
                }
                std::cmp::Ordering::Equal => best_mask |= bit,
                std::cmp::Ordering::Less => {}
            }
        }
        if best_mask == 0 {
            all
        } else {
            best_mask
        }
    }

    /// Read routing restricted to sites hosting the read set's partitions
    /// (partial replication). Candidate tiers: hosting ∧ reachable ∧ fresh,
    /// then hosting ∧ reachable, then hosting — mirroring the reachable/
    /// fresh fallback of the full-replication path.
    pub fn route_read_partitions_traced(
        &self,
        txn_id: u64,
        cvv: &VersionVector,
        partitions: &[PartitionId],
    ) -> SiteId {
        // Post-failover, raise the client's requirement to the session
        // floor: a client whose pre-crash session state the promoted
        // selector never saw must still be routed to a sufficiently fresh
        // replica. (Allocates only while a floor is installed.)
        let floored;
        let cvv = match &self.session_floor {
            Some(floor) => {
                floored = cvv.max_with(floor);
                &floored
            }
            None => cvv,
        };
        // Allocation-free two-pass pick: count the candidates, then find
        // the chosen one. Freshness estimates are monotone but
        // *reachability is not* (a site can crash between the passes), so
        // the second pass falls back to the last candidate it saw if the
        // chosen index no longer resolves.
        let num_sites = self.config.num_sites;
        let mask = self.read_mask(partitions);
        let pass = |tier: u8, i: usize| -> bool {
            if mask & (1u64 << i) == 0 {
                return false;
            }
            match tier {
                0 => {
                    self.network.site_reachable(i as u32)
                        && self.freshness.dominates(SiteId::new(i), cvv)
                }
                1 => self.network.site_reachable(i as u32),
                _ => true,
            }
        };
        let mut tier = 2u8;
        let mut count = 0;
        for t in 0..3u8 {
            count = (0..num_sites).filter(|&i| pass(t, i)).count();
            if count > 0 {
                tier = t;
                break;
            }
        }
        let pick = with_thread_rng(self.rng_seed, |rng| {
            if count == 0 {
                return rng.gen_range(0..num_sites);
            }
            let nth = rng.gen_range(0..count);
            let mut seen = 0;
            let mut last = None;
            for i in 0..num_sites {
                if pass(tier, i) {
                    if seen == nth {
                        return i;
                    }
                    seen += 1;
                    last = Some(i);
                }
            }
            last.unwrap_or_else(|| rng.gen_range(0..num_sites))
        });
        self.trace(
            txn_id,
            TraceKind::Route,
            TracePayload::Route {
                dest: pick as u32,
                partitions: 0,
                fast_path: true,
                remastered: false,
            },
        );
        SiteId::new(pick)
    }
}

/// Runs `f` with this thread's routing RNG, creating it on first use (or
/// when a selector with a different seed routes on this thread). Each
/// thread's stream is seeded from the selector seed and a process-wide
/// thread salt: deterministic for a single routing thread, uncorrelated
/// across threads, and never contended.
fn with_thread_rng<T>(seed: u64, f: impl FnOnce(&mut SmallRng) -> T) -> T {
    use std::cell::RefCell;
    thread_local! {
        static ROUTE_RNG: RefCell<Option<(u64, SmallRng)>> = const { RefCell::new(None) };
    }
    static THREAD_SALT: AtomicU64 = AtomicU64::new(0);
    ROUTE_RNG.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.as_ref().is_none_or(|(s, _)| *s != seed) {
            let salt = THREAD_SALT.fetch_add(1, Ordering::Relaxed);
            *slot = Some((
                seed,
                SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ));
        }
        let (_, rng) = slot.as_mut().expect("rng initialized above");
        f(rng)
    })
}

/// The statistics a selector with this configuration keeps. Eq. 8 never
/// reads Eq. 7's statistics when their weight is zero (`score_sites_detailed`
/// skips the term), so then the Δt window is not tracked at all.
fn stats_config(config: &SystemConfig) -> StatsConfig {
    StatsConfig {
        sample_rate: config.sample_rate,
        history_capacity: config.history_capacity,
        inter_window: if config.weights.inter_txn == 0.0 {
            Duration::ZERO
        } else {
            config.inter_txn_window
        },
        max_partners: config.max_coaccess_partners,
    }
}

fn sole_master(masters: &[Option<SiteId>]) -> Option<SiteId> {
    let first = masters.first().copied().flatten()?;
    masters.iter().all(|m| *m == Some(first)).then_some(first)
}

/// Handle for the background svv probe; stops and joins on drop.
pub struct ProbeHandle {
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Drop for ProbeHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::config::NetworkConfig;
    use dynamast_common::StrategyWeights;

    const SITES: usize = 4;

    fn selector(weights: StrategyWeights) -> Arc<SiteSelector> {
        let mut catalog = Catalog::new();
        catalog.add_table("t", 1, 100);
        let config = SystemConfig::new(SITES)
            .with_instant_network()
            .with_weights(weights);
        let net = Network::new(NetworkConfig::instant(), 1);
        SiteSelector::new(config, catalog, SelectorMode::Adaptive, net)
    }

    fn pid(i: usize) -> PartitionId {
        PartitionId::new(i)
    }

    /// One client alternating between overlapping write sets inside Δt, the
    /// partitions mastered round-robin: every Eq. 8 feature has something
    /// to say.
    fn feed(selector: &SiteSelector) {
        let t0 = Instant::now();
        for i in 0..40 {
            let partitions = [pid(i % 5), pid(5 + i % 3)];
            let masters = partitions.map(|p| Some(SiteId::new(p.raw() as usize % SITES)));
            selector.map().seed(
                partitions
                    .iter()
                    .zip(&masters)
                    .map(|(p, m)| (*p, m.expect("mastered"))),
            );
            selector.stats().record_write_set(
                ClientId::new(1),
                t0 + Duration::from_millis(i as u64),
                &partitions,
                &masters,
            );
        }
    }

    fn inter_partners(selector: &SiteSelector) -> usize {
        let all: Vec<PartitionId> = (0..8).map(pid).collect();
        let (snaps, _) = selector.stats().snapshot(&all);
        snaps.iter().map(|s| s.inter.partners.len()).sum()
    }

    #[test]
    fn zero_weight_inter_feature_is_untracked_and_invisible_to_eq8() {
        let skipping = selector(StrategyWeights::ycsb());
        // The same selector, but with the Δt window tracked regardless.
        let mut tracking = selector(StrategyWeights::ycsb());
        let config = &skipping.config;
        Arc::get_mut(&mut tracking)
            .expect("a fresh selector is uniquely owned")
            .stats = AccessStats::new(
            StatsConfig {
                inter_window: config.inter_txn_window,
                ..stats_config(config)
            },
            SITES,
            config.seed,
        );
        feed(&skipping);
        feed(&tracking);
        assert_eq!(inter_partners(&skipping), 0);
        assert!(inter_partners(&tracking) > 0);

        let cvv = VersionVector::zero(SITES);
        for partitions in [vec![pid(0), pid(5)], vec![pid(1), pid(2), pid(6)]] {
            let masters: Vec<Option<SiteId>> = partitions
                .iter()
                .map(|p| Some(SiteId::new(p.raw() as usize % SITES)))
                .collect();
            let (dest_a, a) = skipping.score_candidates(&partitions, &masters, &cvv);
            let (dest_b, b) = tracking.score_candidates(&partitions, &masters, &cvv);
            assert_eq!(dest_a, dest_b);
            let bits = |cands: &[CandidateScore]| -> Vec<[u64; 5]> {
                cands
                    .iter()
                    .map(|c| [c.balance, c.delay, c.intra, c.inter, c.total].map(f64::to_bits))
                    .collect()
            };
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn nonzero_weight_inter_feature_is_tracked() {
        let tpcc = selector(StrategyWeights::tpcc());
        feed(&tpcc);
        assert!(inter_partners(&tpcc) > 0);
    }
}
