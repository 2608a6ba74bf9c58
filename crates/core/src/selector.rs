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

use std::collections::HashMap;
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

#[path = "provision.rs"]
mod provision;
#[path = "remaster.rs"]
mod remaster;

use self::remaster::EpochQueue;
use crate::freshness::FreshnessCache;
use crate::partition_map::PartitionMap;
use crate::replica_map::ReplicaMap;
use crate::stats::{AccessStats, StatsConfig};
use crate::strategy::{confirm_group_destination, CoAccess, ScoreInputs};

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
    /// Release/Grant RPCs sent, by every caller of the executor: routing,
    /// epoch flush, back-grants, the standby's repair grants.
    pub remaster_rpcs: Arc<Counter>,
    /// Round trips avoided by moves sharing an RPC, whoever sent it: every
    /// move a Release or Grant carried beyond its first.
    pub remaster_rpcs_saved: Arc<Counter>,
    /// Moves carried per Release/Grant RPC, vectors of one included
    /// (bucketed via the latency histogram machinery; one "microsecond" =
    /// one move).
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
        let no_remaster = |site, lookup, routing| RouteDecision {
            site,
            min_vv: VersionVector::zero(self.config.num_sites),
            lookup,
            routing,
            remastered: false,
        };

        // Fast path: shared locks; one master for everything → route there.
        let mut recorded = false;
        {
            let guards = self.map.lock_shared(&entries);
            let masters: Vec<Option<SiteId>> = guards.iter().map(|g| g.master).collect();
            if let Some(site) = sole_master(&masters) {
                drop(guards);
                let lookup = t0.elapsed();
                self.stats
                    .record_write_set(client, Instant::now(), &partitions, &masters);
                recorded = true;
                // Epoch batching: the group stays where it is for now; the
                // tick may queue a move for the epoch boundary, and only a
                // blown wait budget forces the flush (and a re-route) here.
                let site = if self.config.remaster_batching {
                    self.epoch_tick(txn_id, cvv, &partitions, site)?
                } else {
                    Some(site)
                };
                if let Some(site) = site {
                    let decision = no_remaster(site, lookup, Duration::ZERO);
                    return Ok(self.reply(txn_id, partitions.len(), true, decision));
                }
                // The forced flush split the group: co-locate it below.
            }
        }

        // Slow path: exclusive locks (prevents concurrent remastering of any
        // of these partitions), re-check, then decide and remaster.
        let mut guards = self.map.lock_exclusive(&entries);
        let masters: Vec<Option<SiteId>> = guards.iter().map(|g| g.master).collect();
        let lookup = t0.elapsed();
        let t_route = Instant::now();
        // Recorded before scoring, so frequencies include this transaction.
        if !recorded {
            self.stats
                .record_write_set(client, Instant::now(), &partitions, &masters);
        }
        if let Some(site) = sole_master(&masters) {
            drop(guards);
            let decision = no_remaster(site, lookup, t_route.elapsed());
            return Ok(self.reply(txn_id, partitions.len(), false, decision));
        }
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
        let moves: Vec<(usize, Option<SiteId>)> = masters
            .iter()
            .enumerate()
            .filter(|(_, master)| **master != Some(dest))
            .map(|(i, master)| (i, *master))
            .collect();
        // Create-then-grant (partial replication): a grant can only land on
        // a site that holds a copy, so ship any missing copies to `dest`
        // first. Runs inside the exclusive map window the remaster RPCs
        // occupy, so no concurrent route re-decides these partitions
        // mid-install.
        for &(i, _) in &moves {
            self.ensure_replica(dest, partitions[i])?;
        }
        let (min_vv, moved, failed) = self.execute_moves(
            txn_id,
            &partitions,
            &entries,
            &mut guards,
            &moves,
            dest,
            CrashPoint::BeforeGrantSend,
        )?;
        drop(guards);
        self.retire_followed(&moved);
        if !moved.is_empty() {
            self.remaster_ops.inc();
        }
        if let Some(e) = failed {
            return Err(e);
        }
        self.crash_check(CrashPoint::BeforeClientReply)?;
        let decision = RouteDecision {
            site: dest,
            min_vv,
            lookup,
            routing: t_route.elapsed(),
            remastered: !moved.is_empty(),
        };
        Ok(self.reply(txn_id, partitions.len(), false, decision))
    }

    /// Finishes a routing decision: counts it, puts it on the flight
    /// recorder and raises its begin version to the session floor.
    fn reply(
        &self,
        txn_id: u64,
        partitions: usize,
        fast_path: bool,
        mut decision: RouteDecision,
    ) -> RouteDecision {
        self.routed[decision.site.as_usize()].inc();
        self.trace(
            txn_id,
            TraceKind::Route,
            TracePayload::Route {
                dest: decision.site.raw(),
                partitions: partitions as u32,
                fast_path,
                remastered: decision.remastered,
            },
        );
        decision.min_vv = self.with_session_floor(decision.min_vv);
        decision
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

    /// Eq. 8 evaluation of one partition set, for slow-path decisions and
    /// the epoch tick's per-partition verdicts: builds the feature inputs
    /// once and delegates to the strategy's group scorer with the current
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
        let unassigned = HashMap::new();
        let intra: Vec<Vec<CoAccess>> = snaps
            .iter()
            .map(|s| self.coaccess(&s.intra.partners, partitions, &unassigned))
            .collect();
        let inter: Vec<Vec<CoAccess>> = snaps
            .iter()
            .map(|s| self.coaccess(&s.inter.partners, partitions, &unassigned))
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

    /// Co-access partners as Eq. 8 inputs. A partner inside the (sorted)
    /// `write_set` moves with it, so scoring fills in its master; any other
    /// sits where `assigned` (an epoch flush's plan so far) or else the map
    /// says.
    fn coaccess(
        &self,
        partners: &[(PartitionId, f64)],
        write_set: &[PartitionId],
        assigned: &HashMap<PartitionId, SiteId>,
    ) -> Vec<CoAccess> {
        partners
            .iter()
            .map(|(partner, probability)| {
                let in_write_set = write_set.binary_search(partner).is_ok();
                let partner_master = if in_write_set {
                    None
                } else {
                    assigned.get(partner).copied().or_else(|| {
                        self.map
                            .entries_for_existing(*partner)
                            .and_then(|e| e.master_relaxed())
                    })
                };
                CoAccess {
                    partner: *partner,
                    probability: *probability,
                    partner_master,
                    in_write_set,
                }
            })
            .collect()
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
