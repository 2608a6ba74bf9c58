//! The assembled DynaMast system (§V).
//!
//! [`DynaMastSystem`] wires together `m` data sites (each with the in-memory
//! MVCC store and a replication manager subscribed to every peer log), the
//! durable log set, the simulated network, and the site selector. It
//! implements the [`ReplicatedSystem`] client API used by the benchmark
//! harness.
//!
//! The same assembly expresses the **single-master** baseline: seed every
//! partition at the master site and pin the selector
//! ([`SelectorMode::Pinned`]) — update transactions then always route to the
//! master while reads spread over the replicas, exactly the paper's
//! single-master comparator (§VI-A1).

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::metrics::{JsonMetric, MetricsRegistry};
use dynamast_common::trace::next_trace_id;
use dynamast_common::{DynaError, FlightRecorder, Result, SystemConfig, VersionVector};
use dynamast_network::{CrashSwitch, EndpointId, Network, TrafficCategory};
use dynamast_replication::checkpoint;
use dynamast_replication::LogSet;
use dynamast_site::data_site::{DataSite, DataSiteConfig, SiteRuntime};
use dynamast_site::messages::{expect_ok, SiteRequest, SiteResponse};
use dynamast_site::proc::{ProcCall, ProcExecutor, ReadMode};
use dynamast_site::system::{
    exec_read_at, exec_update_at, Breakdown, ClientSession, ReplicatedSystem, SystemStats,
    TxnOutcome,
};
use dynamast_storage::Catalog;

use crate::recovery::{recover_selector_map, recover_site, RecoveredSite};
use crate::selector::{ProbeHandle, SelectorInit, SelectorMode, SiteSelector};

/// Estimated wire size of a `begin_transaction` routing request (write-set
/// keys plus header); used to charge the client→selector hop.
fn route_request_size(proc: &ProcCall) -> usize {
    32 + proc.write_set.len() * 12
}

/// Per-site checkpoint directory under the durable-log root (siblings of the
/// `site-<i>` segment directories).
fn checkpoint_dir(root: &Path, site: usize) -> PathBuf {
    root.join(format!("ckpt-site-{site}"))
}

/// The placement map and the epoch floor, which every recovery derives
/// together: [`recover_selector_map`] over the retained logs and the sites'
/// `claims`, with the highest retained remaster epoch maxed against the
/// checkpoints' persisted `watermarks`. The floor must clear every epoch
/// ever issued — re-issuing one after its Release/Grant records were
/// truncated would collide with the sites' `(partition, epoch)` idempotency
/// ledgers and misattribute audit-plane events.
fn recover_placement(
    logs: &LogSet,
    initial_placements: &[(PartitionId, SiteId)],
    claims: &[(SiteId, Vec<PartitionId>)],
    watermarks: impl IntoIterator<Item = u64>,
) -> Result<(HashMap<PartitionId, SiteId>, u64)> {
    let (map, retained) = recover_selector_map(logs, initial_placements, claims)?;
    Ok((map, watermarks.into_iter().fold(retained, u64::max)))
}

/// Every Nth checkpoint per site is a full (self-contained) image; those in
/// between are incremental over the last full, carrying only partitions
/// dirtied since that base. The periodic full rebase bounds the incremental
/// chain recovery has to resolve.
const FULL_CHECKPOINT_PERIOD: u64 = 4;

/// Snapshot-time gauge: resident store bytes per live site plus their total
/// (the partial-replication footprint claim). Holds the system weakly so the
/// registry never keeps a dropped deployment alive.
struct ResidentBytesGauge {
    system: std::sync::Weak<DynaMastSystem>,
}

impl JsonMetric for ResidentBytesGauge {
    fn metric_json(&self) -> String {
        let Some(sys) = self.system.upgrade() else {
            return "{\"total_bytes\":0,\"per_site\":[]}".to_string();
        };
        let per: Vec<u64> = sys
            .sites
            .read()
            .iter()
            .map(|s| s.store().resident_bytes())
            .collect();
        let total: u64 = per.iter().sum();
        let per: Vec<String> = per.iter().map(u64::to_string).collect();
        format!(
            "{{\"total_bytes\":{total},\"per_site\":[{}]}}",
            per.join(",")
        )
    }
}

/// Snapshot-time gauge: replica-count census over every tracked partition —
/// how many sit at the floor, between floor and all sites, and at all sites.
struct ReplicaCensusGauge {
    system: std::sync::Weak<DynaMastSystem>,
}

impl JsonMetric for ReplicaCensusGauge {
    fn metric_json(&self) -> String {
        let Some(sys) = self.system.upgrade() else {
            return "{\"at_floor\":0,\"partial\":0,\"at_all\":0,\"tracked\":0}".to_string();
        };
        let selector = sys.selector.read().clone();
        let rmap = selector.replica_map();
        let mut partitions: Vec<PartitionId> = selector
            .map()
            .placements()
            .into_iter()
            .map(|(p, _)| p)
            .collect();
        partitions.extend(rmap.tracked().into_iter().map(|(p, _)| p));
        partitions.sort_unstable();
        partitions.dedup();
        let (at_floor, partial, at_all) = rmap.census(&partitions);
        format!(
            "{{\"at_floor\":{at_floor},\"partial\":{partial},\"at_all\":{at_all},\"tracked\":{}}}",
            partitions.len()
        )
    }
}

/// (Re-)binds the live selector's counters into the registry. Called at
/// build and again on standby promotion, when a *new* selector instance
/// (with fresh counters) replaces the crashed one.
fn register_selector_metrics(metrics: &MetricsRegistry, selector: &SiteSelector) {
    metrics.register_counter("selector.remaster_ops", Arc::clone(&selector.remaster_ops));
    metrics.register_counter(
        "selector.partitions_moved",
        Arc::clone(&selector.partitions_moved),
    );
    metrics.register_counter("selector.placements", Arc::clone(&selector.placements));
    metrics.register_counter(
        "selector.remaster_rpcs",
        Arc::clone(&selector.remaster_rpcs),
    );
    metrics.register_counter(
        "selector.remaster_rpcs_saved",
        Arc::clone(&selector.remaster_rpcs_saved),
    );
    metrics.register_histogram(
        "selector.remaster_batch_size",
        Arc::clone(&selector.remaster_batch_size),
    );
    metrics.register_counter("replica_adds", Arc::clone(&selector.replica_adds));
    metrics.register_counter("replica_drops", Arc::clone(&selector.replica_drops));
}

/// Pre-creates the audit-plane counters so every metrics snapshot satisfies
/// the pinned schema even when no auditor is armed; [`DynaMastSystem::arm_auditor`]
/// rebinds them to the live sink's counters.
fn register_audit_metrics(metrics: &MetricsRegistry) {
    let _ = metrics.counter("audit_events");
    let _ = metrics.counter("audit_violations");
    let _ = metrics.counter("audit_ring_wraps");
}

/// Construction parameters.
pub struct DynaMastConfig {
    /// Shared system configuration.
    pub system: SystemConfig,
    /// Table catalog.
    pub catalog: Catalog,
    /// Initial mastership assignments (empty = fully unplaced, the paper's
    /// default for DynaMast; the Fig. 5b experiment seeds a manual range
    /// placement; single-master seeds everything at site 0).
    pub initial_placements: Vec<(PartitionId, SiteId)>,
    /// Adaptive strategies or pinned placement.
    pub mode: SelectorMode,
    /// svv probe interval for the read-routing freshness cache.
    pub probe_interval: Duration,
    /// RPC worker threads per site.
    pub rpc_workers: usize,
    /// Deterministic selector kill switch (crash-point injection tests).
    pub crash_switch: Option<Arc<CrashSwitch>>,
}

impl DynaMastConfig {
    /// Adaptive DynaMast with no initial placement.
    pub fn adaptive(system: SystemConfig, catalog: Catalog) -> Self {
        DynaMastConfig {
            system,
            catalog,
            initial_placements: Vec::new(),
            mode: SelectorMode::Adaptive,
            probe_interval: Duration::from_millis(20),
            rpc_workers: 24,
            crash_switch: None,
        }
    }
}

/// A running DynaMast deployment.
pub struct DynaMastSystem {
    name: &'static str,
    config: SystemConfig,
    network: Arc<Network>,
    logs: LogSet,
    /// Live sites; a slot is swapped for a freshly recovered instance on
    /// [`DynaMastSystem::restart_site`].
    sites: RwLock<Vec<Arc<DataSite>>>,
    /// The live selector; swapped for a promoted standby on
    /// [`DynaMastSystem::promote_standby`].
    selector: RwLock<Arc<SiteSelector>>,
    /// Set between [`DynaMastSystem::crash_selector`] and promotion: the
    /// client paths fail fast (retryably) instead of talking to the corpse.
    selector_down: AtomicBool,
    /// Always-on flight recorder; shared with every component through the
    /// network fabric's attach point.
    recorder: Arc<FlightRecorder>,
    /// Unified metrics registry: selector counters, per-architecture
    /// timings, and the fabric's traffic matrix under named handles.
    metrics: Arc<MetricsRegistry>,
    // Retained so a crashed site/selector can be rebuilt.
    catalog: Catalog,
    mode: SelectorMode,
    probe_interval: Duration,
    executor: Arc<dyn ProcExecutor>,
    initial_placements: Vec<(PartitionId, SiteId)>,
    rpc_workers: usize,
    /// The initial bulk load (the recovery checkpoint): log replay starts
    /// from an empty store, so rows that were loaded but never rewritten
    /// must be restored from this image on restart.
    base_image: Mutex<Vec<(dynamast_common::ids::Key, dynamast_common::Row)>>,
    /// Last durable-checkpoint counter issued per site (0 = never
    /// checkpointed); [`DynaMastSystem::checkpoint_site`] increments before
    /// use so counters stay strictly monotone across restarts.
    ckpt_counters: Mutex<Vec<u64>>,
    /// Per-site offsets of the *previous* checkpoint, used as the truncation
    /// floors: floors lag one checkpoint behind so a corrupt newest file can
    /// always fall back to its still-fully-covered predecessor.
    last_ckpt_offsets: Mutex<Vec<Option<Vec<u64>>>>,
    // Drop order matters: stop the probe before the site runtimes.
    probe: Mutex<Option<ProbeHandle>>,
    runtimes: Mutex<Vec<Option<SiteRuntime>>>,
}

impl DynaMastSystem {
    /// Builds and starts a deployment.
    pub fn build(cfg: DynaMastConfig, executor: Arc<dyn ProcExecutor>) -> Arc<Self> {
        Self::build_named("dynamast", cfg, executor)
    }

    /// Builds with an explicit report name (the single-master baseline
    /// reuses this assembly under a different name).
    pub fn build_named(
        name: &'static str,
        cfg: DynaMastConfig,
        executor: Arc<dyn ProcExecutor>,
    ) -> Arc<Self> {
        let m = cfg.system.num_sites;
        // With a configured log directory the redo logs live on disk
        // (segmented, CRC-checked — see `dynamast_replication::segment`).
        // `build` assumes a fresh deployment; restarting an existing one
        // from its disk state is `DynaMastSystem::recover`.
        let logs = match &cfg.system.durability.log_dir {
            Some(root) => LogSet::open_persistent(
                m,
                root,
                cfg.system.durability.segment_bytes,
                cfg.system.durability.fsync,
            )
            .expect("open persistent log set"),
            None => LogSet::new(m),
        };
        let partial = cfg.system.replication.is_partial();
        let placements = cfg.initial_placements.clone();
        Self::assemble(name, cfg, executor, logs, placements, 0, |sys, id| {
            let initial: Vec<PartitionId> = sys
                .initial_placements
                .iter()
                .filter(|(_, s)| *s == id)
                .map(|(p, _)| *p)
                .collect();
            // Seeded masters hold their partitions (the master-hosts
            // invariant), over and above the lazy default replica set.
            if partial {
                let selector = sys.selector.read();
                for p in &initial {
                    selector.replica_map().add(*p, id);
                }
            }
            let site = DataSite::new(
                DataSiteConfig {
                    id,
                    system: sys.config.clone(),
                    replicate: true,
                    // Partial replication: a site starts hosting only its
                    // seeded masterships; `load_row` marks the default
                    // hosts of each populated partition, and everything
                    // else arrives through the AddReplica protocol.
                    hosted: partial.then(|| initial.clone()),
                    initial_partitions: initial,
                    static_owner: None,
                    replicated_tables: Vec::new(),
                    refresh_skipped: Some(sys.metrics.counter("refresh_records_skipped")),
                },
                sys.catalog.clone(),
                sys.logs.clone(),
                Arc::clone(&sys.network),
                Arc::clone(&sys.executor),
            );
            let runtime = site.start(sys.rpc_workers);
            (site, runtime)
        })
    }

    /// Restarts a whole deployment from disk alone: the segmented logs and
    /// per-site checkpoints under the configured log directory (§V-C,
    /// process-kill recovery). Nothing from a prior in-memory instance is
    /// consulted — this is the path a crash-killed process takes on reboot.
    ///
    /// Each site is rebuilt by [`crate::recovery::recover_site`] (checkpoint
    /// image + retained-suffix replay) and brought up exactly as
    /// [`DynaMastSystem::restart_site`] brings one up; the placement map and
    /// the selector's epoch floor come from [`recover_placement`] over every
    /// site's reconstructed claims and watermark. Rows bulk-loaded but never
    /// checkpointed are *not* recoverable (the load image is not logged) —
    /// checkpoint once after population.
    pub fn recover(cfg: DynaMastConfig, executor: Arc<dyn ProcExecutor>) -> Result<Arc<Self>> {
        Self::recover_named("dynamast", cfg, executor)
    }

    /// [`DynaMastSystem::recover`] with an explicit report name.
    pub fn recover_named(
        name: &'static str,
        cfg: DynaMastConfig,
        executor: Arc<dyn ProcExecutor>,
    ) -> Result<Arc<Self>> {
        let m = cfg.system.num_sites;
        let root = cfg
            .system
            .durability
            .log_dir
            .clone()
            .ok_or(DynaError::Internal(
                "recover requires a configured durable log directory",
            ))?;
        let logs = LogSet::open_persistent(
            m,
            &root,
            cfg.system.durability.segment_bytes,
            cfg.system.durability.fsync,
        )?;
        let mut per_site = Vec::with_capacity(m);
        let mut last_offsets = Vec::with_capacity(m);
        for i in 0..m {
            let ckpt = checkpoint::load_latest(&checkpoint_dir(&root, i))?;
            last_offsets.push(ckpt.as_ref().map(|c| c.offsets.clone()));
            per_site.push(recover_site(
                SiteId::new(i),
                &logs,
                ckpt,
                cfg.catalog.clone(),
                cfg.system.mvcc_versions,
            )?);
        }
        let claims: Vec<(SiteId, Vec<PartitionId>)> = per_site
            .iter()
            .enumerate()
            .map(|(i, s)| (SiteId::new(i), s.claims.clone()))
            .collect();
        let (map, epoch_floor) = recover_placement(
            &logs,
            &cfg.initial_placements,
            &claims,
            per_site.iter().map(|s| s.epoch),
        )?;
        let counters = per_site.iter().map(|s| s.last_checkpoint).collect();
        let placements = map.iter().map(|(p, s)| (*p, *s)).collect();
        let mut per_site = per_site.into_iter();
        let sys = Self::assemble(
            name,
            cfg,
            executor,
            logs,
            placements,
            epoch_floor,
            |sys, id| {
                let recovered = per_site.next().expect("one recovered state per site");
                sys.bring_up_site(id, recovered, &map, epoch_floor)
            },
        );
        *sys.ckpt_counters.lock() = counters;
        *sys.last_ckpt_offsets.lock() = last_offsets;
        Ok(sys)
    }

    /// The assembly `build_named` and `recover_named` share: the fabric and
    /// its recorder, the metrics registry, a selector seeded with
    /// `placements` and allocating epochs above `epoch_floor`, the system
    /// itself, then one `start_site` call per site and the svv probe.
    fn assemble(
        name: &'static str,
        cfg: DynaMastConfig,
        executor: Arc<dyn ProcExecutor>,
        logs: LogSet,
        placements: Vec<(PartitionId, SiteId)>,
        epoch_floor: u64,
        mut start_site: impl FnMut(&Self, SiteId) -> (Arc<DataSite>, SiteRuntime),
    ) -> Arc<Self> {
        let m = cfg.system.num_sites;
        let network = Network::new(cfg.system.network, cfg.system.seed);
        // Attach the recorder before any component construction: sites, the
        // selector, and the replication subscribers each cache the handle at
        // build time and would otherwise run untraced.
        let recorder = FlightRecorder::from_env();
        network.set_recorder(Some(Arc::clone(&recorder)));
        let metrics = Arc::new(MetricsRegistry::new());
        let selector = SiteSelector::with_init(
            cfg.system.clone(),
            cfg.catalog.clone(),
            cfg.mode.clone(),
            Arc::clone(&network),
            SelectorInit {
                epoch_floor,
                crash_switch: cfg.crash_switch,
                ..SelectorInit::default()
            },
        );
        selector.map().seed(placements);
        metrics.register_traffic("network", Arc::clone(network.stats()) as _);
        register_selector_metrics(&metrics, &selector);
        register_audit_metrics(&metrics);
        let sys = Arc::new(DynaMastSystem {
            name,
            config: cfg.system,
            network,
            logs,
            sites: RwLock::new(Vec::with_capacity(m)),
            selector: RwLock::new(selector),
            selector_down: AtomicBool::new(false),
            recorder,
            metrics,
            catalog: cfg.catalog,
            mode: cfg.mode,
            probe_interval: cfg.probe_interval,
            executor,
            initial_placements: cfg.initial_placements,
            rpc_workers: cfg.rpc_workers,
            base_image: Mutex::new(Vec::new()),
            ckpt_counters: Mutex::new(vec![0; m]),
            last_ckpt_offsets: Mutex::new(vec![None; m]),
            probe: Mutex::new(None),
            runtimes: Mutex::new(Vec::with_capacity(m)),
        });
        for i in 0..m {
            let (site, runtime) = start_site(&sys, SiteId::new(i));
            sys.sites.write().push(site);
            sys.runtimes.lock().push(Some(runtime));
        }
        if sys.probe_interval > Duration::ZERO {
            let probe = sys.selector.read().start_vv_probe(sys.probe_interval);
            *sys.probe.lock() = Some(probe);
        }
        // Snapshot-time partial-replication gauges (resident store bytes,
        // replica census). Weak handles avoid a registry ↔ system cycle.
        let resident = ResidentBytesGauge {
            system: Arc::downgrade(&sys),
        };
        let census = ReplicaCensusGauge {
            system: Arc::downgrade(&sys),
        };
        sys.metrics
            .register_traffic("store_resident_bytes", Arc::new(resident));
        sys.metrics
            .register_traffic("replica_census", Arc::new(census));
        sys
    }

    /// Brings one recovered site up against the live selector — the steps
    /// [`DynaMastSystem::restart_site`] and every site of
    /// [`DynaMastSystem::recover`] share. The caller publishes the returned
    /// site and runtime.
    fn bring_up_site(
        &self,
        id: SiteId,
        recovered: RecoveredSite,
        map: &HashMap<PartitionId, SiteId>,
        epoch_floor: u64,
    ) -> (Arc<DataSite>, SiteRuntime) {
        // Map-derived (not raw-claims) mastership closes the orphan window:
        // a partition released but never re-granted reverts to the
        // releasing site.
        let mut mastered: Vec<PartitionId> = map
            .iter()
            .filter(|&(_, s)| *s == id)
            .map(|(p, _)| *p)
            .collect();
        mastered.sort();
        let site = DataSite::from_recovered(
            DataSiteConfig {
                id,
                system: self.config.clone(),
                replicate: true,
                initial_partitions: mastered,
                static_owner: None,
                replicated_tables: Vec::new(),
                // The checkpoint's hosted set is the site's post-restart
                // hosting truth (copies installed after the cut were never
                // checkpointed). `None` — no checkpoint, or full
                // replication — means the rebuilt store holds everything.
                hosted: recovered.hosted,
                refresh_skipped: Some(self.metrics.counter("refresh_records_skipped")),
            },
            recovered.state.store,
            recovered.state.svv,
            self.logs.clone(),
            Arc::clone(&self.network),
            Arc::clone(&self.executor),
        );
        let selector = self.selector.read();
        // The site lost its volatile watermarks; re-arm them so a selector
        // deposed before the crash stays fenced out and no remaster epoch
        // the site already saw is accepted again.
        site.install_selector_generation(selector.generation());
        site.install_remaster_epoch(epoch_floor);
        // Seed the freshness cache so the first reads route sensibly before
        // the probe's next round trip, and reconcile the replica map with
        // what actually survived: copies installed after the checkpoint cut
        // are gone, so stale map rows must not route reads here. Masters
        // whose copy was lost heal lazily through NotReplica repair on the
        // first touch.
        selector.observe_site_vv(id, &site.clock().current());
        if self.config.replication.is_partial() {
            if let Some(hosted) = site.hosted_partitions() {
                selector.replica_map().reconcile_site(id, &hosted);
            }
        }
        let runtime = site.start_with_offsets(self.rpc_workers, recovered.state.offsets);
        (site, runtime)
    }

    /// The simulated network (traffic accounting).
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// The always-on flight recorder (causal transaction timelines).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The unified metrics registry (JSON snapshot export).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Arms the streaming invariant auditor over this system's flight
    /// recorder and re-points the `audit_*` counters in the metrics
    /// registry at the sink's live counters. The sink polls the recorder
    /// rings until [`dynamast_common::audit::AuditSink::finish`] is called.
    pub fn arm_auditor(
        &self,
        config: dynamast_common::audit::AuditConfig,
    ) -> Arc<dynamast_common::audit::AuditSink> {
        let sink = dynamast_common::audit::AuditSink::arm(Arc::clone(&self.recorder), config);
        self.metrics
            .register_counter("audit_events", sink.events_counter());
        self.metrics
            .register_counter("audit_violations", sink.violations_counter());
        self.metrics
            .register_counter("audit_ring_wraps", sink.ring_wraps_counter());
        sink
    }

    /// The durable logs (recovery tests).
    pub fn logs(&self) -> &LogSet {
        &self.logs
    }

    /// Writes one site's durable checkpoint (svv cut + store image +
    /// per-origin offsets + mastered set) and advances the log truncation
    /// floors. Requires a configured durable log directory.
    ///
    /// Floors lag one checkpoint behind: writing checkpoint *N* lowers the
    /// site's floors to checkpoint *N−1*'s offsets, so even if *N* is later
    /// unreadable, recovery's fallback to *N−1* still finds every record it
    /// needs retained. A segment is physically deleted only once **every**
    /// site's floor (and hence every subscriber cursor, which is always
    /// ahead of the site's own checkpoint) has passed it.
    pub fn checkpoint_site(&self, site: usize) -> Result<()> {
        let Some(root) = self.config.durability.log_dir.clone() else {
            return Err(DynaError::Internal(
                "checkpoint requires a configured durable log directory",
            ));
        };
        let (counter, base_counter) = {
            let mut counters = self.ckpt_counters.lock();
            counters[site] += 1;
            let counter = counters[site];
            // Full rebase on the first checkpoint of each period; the rest
            // of the period ships incrementals over that full (only
            // partitions dirtied since its cut).
            let base = if (counter - 1).is_multiple_of(FULL_CHECKPOINT_PERIOD) {
                0
            } else {
                counter - ((counter - 1) % FULL_CHECKPOINT_PERIOD)
            };
            (counter, base)
        };
        let ckpt = self.sites.read()[site].build_checkpoint(counter, base_counter)?;
        checkpoint::write(&checkpoint_dir(&root, site), &ckpt)?;
        let prev = self.last_ckpt_offsets.lock()[site].replace(ckpt.offsets.clone());
        if let Some(prev) = prev {
            for (origin, &floor) in prev.iter().enumerate() {
                self.logs
                    .log(SiteId::new(origin))
                    .record_consumer_floor(site, floor)?;
            }
        }
        Ok(())
    }

    /// Checkpoints every site in turn (the periodic checkpoint driver; also
    /// the "first checkpoint after bulk load" a durable deployment needs
    /// before rows loaded-but-never-rewritten are recoverable).
    pub fn checkpoint_all(&self) -> Result<()> {
        for site in 0..self.config.num_sites {
            self.checkpoint_site(site)?;
        }
        Ok(())
    }

    /// Snapshot of the live data sites. A crashed-then-restarted site is a
    /// *new* [`DataSite`] instance, so callers needing post-restart state
    /// must re-take the snapshot.
    pub fn sites(&self) -> Vec<Arc<DataSite>> {
        self.sites.read().clone()
    }

    /// Crashes a site: its RPC server, replication subscribers, and all
    /// volatile state (prepared 2PC fragments, caches, counters) are gone,
    /// exactly as a process kill. Durable logs survive.
    pub fn crash_site(&self, site: usize) {
        // Drop the runtime outside the lock: ServerHandle joins its worker
        // threads, which may be mid-RPC.
        let runtime = self.runtimes.lock()[site].take();
        drop(runtime);
    }

    /// Restarts a crashed site (§V-C) from its latest checkpoint, if the
    /// deployment is durable and wrote one, plus the retained logs: replays
    /// the suffix into the store, resumes replication from the replayed
    /// offsets, and re-derives the mastership set from the grant/release
    /// history reconciled with the ownership claims — the site's own,
    /// reconstructed, and the other sites' tables — exactly as fenced live
    /// tables reconcile it on selector promotion.
    pub fn restart_site(&self, site: usize) -> Result<()> {
        let id = SiteId::new(site);
        // A volatile deployment is simply one with no checkpoint (and no
        // truncation, so the replay from offset zero finds every record).
        let ckpt = match &self.config.durability.log_dir {
            Some(root) => checkpoint::load_latest(&checkpoint_dir(root, site))?,
            None => None,
        };
        let recovered = recover_site(
            id,
            &self.logs,
            ckpt,
            self.catalog.clone(),
            self.config.mvcc_versions,
        )?;
        // This site's reconstructed claims reconcile the retained history
        // together with the other sites' ownership tables (a crashed one's
        // is as its crash left it). Once segments are truncated, another
        // site's Grant may be gone while this site's matching Release is
        // still retained, and only the grantee's positive claim keeps that
        // partition from reverting here. Conversely, a Grant this site
        // logged just before it crashed never reached the selector, which
        // back-granted the partition to its releaser: the other site's table
        // is the later fact, and this site's claim is an orphan.
        let others: Vec<(SiteId, Vec<PartitionId>)> = self
            .sites
            .read()
            .iter()
            .filter(|s| s.id() != id)
            .map(|s| (s.id(), s.ownership().mastered_partitions()))
            .collect();
        let taken: HashSet<PartitionId> = others.iter().flat_map(|(_, m)| m.clone()).collect();
        let own = recovered.claims.iter().copied();
        let mut claims = vec![(id, own.filter(|p| !taken.contains(p)).collect())];
        claims.extend(others);
        let (map, epoch_floor) = recover_placement(
            &self.logs,
            &self.initial_placements,
            &claims,
            [recovered.epoch],
        )?;
        // Restore the bulk-load image beneath the replayed log: version
        // chains are read newest-from-tail, so the base row goes in only
        // where neither the checkpoint nor a logged write ever touched the
        // record (any replayed version supersedes the load image).
        {
            let image = self.base_image.lock();
            let hosted: Option<HashSet<PartitionId>> = recovered
                .hosted
                .as_ref()
                .map(|h| h.iter().copied().collect());
            let store = &recovered.state.store;
            for (key, row) in image.iter() {
                // Under partial replication only hosted partitions get their
                // base rows back — foreign rows would inflate the footprint
                // and leak through later copy installs.
                if let Some(h) = &hosted {
                    if !h.contains(&self.catalog.partition_of(*key)?) {
                        continue;
                    }
                }
                if !store.contains(*key)? {
                    store.install(
                        *key,
                        dynamast_storage::VersionStamp::new(SiteId::new(0), 0),
                        row.clone(),
                    )?;
                }
            }
        }
        // The rebuilt store was populated by direct log replay, which never
        // passes the audited install hooks. Mark the restart before any
        // live events resume so the audit plane re-baselines this site
        // instead of reading the replay window as missing installs.
        dynamast_common::audit::emit_site_restart(&self.recorder, site as u32);
        let (fresh, runtime) = self.bring_up_site(id, recovered, &map, epoch_floor);
        self.sites.write()[site] = fresh;
        self.runtimes.lock()[site] = Some(runtime);
        Ok(())
    }

    /// The live site selector. After [`DynaMastSystem::promote_standby`]
    /// this is a *new* [`SiteSelector`] instance; callers holding an old
    /// `Arc` hold the deposed (fenced-out) selector.
    pub fn selector(&self) -> Arc<SiteSelector> {
        self.selector.read().clone()
    }

    /// Kills the selector process: its svv probe stops, and the client
    /// paths fail retryably until a standby is promoted. Returns the dead
    /// selector's handle so tests can exercise the zombie (a deposed
    /// selector whose queued remaster RPCs fire after promotion and must be
    /// fenced out by the data sites).
    pub fn crash_selector(&self) -> Arc<SiteSelector> {
        self.probe.lock().take();
        self.selector_down.store(true, Ordering::Release);
        self.selector.read().clone()
    }

    /// Promotes a warm standby to replace a crashed selector (§V-C).
    ///
    /// The standby:
    /// 1. **Fences** every reachable site at `generation + 1`, collecting
    ///    each site's svv and live ownership table in the same RPC. From
    ///    this instant the sites reject the deposed selector's remaster
    ///    messages with [`DynaError::StaleSelector`], so no repair below can
    ///    race a zombie grant.
    /// 2. **Rebuilds the partition map** from the durable grant/release
    ///    logs reconciled against the live tables
    ///    ([`crate::recovery::recover_selector_map`]).
    /// 3. **Repairs half-completed remasters**: a partition whose
    ///    log-derived owner is live but does not claim it in its table was
    ///    caught in the release-without-grant window — the standby re-grants
    ///    it to that owner at a fresh epoch through the grant half of its
    ///    own release/grant executor (the live selector's back-grant), with
    ///    `rel_vv` = the owner's own fenced svv so the dominance wait is
    ///    trivially satisfied.
    /// 4. **Rebuilds the freshness cache** from the fenced svvs and raises
    ///    the new selector's session floor to their element-wise max, so a
    ///    client whose session vector died with the old selector still
    ///    reads its own writes (SSSI holds across failover).
    ///
    /// Epochs are allocated strictly above anything in the logs so the new
    /// selector never collides with its predecessor in the sites'
    /// per-`(partition, epoch)` idempotency caches.
    pub fn promote_standby(&self) -> Result<()> {
        let old_generation = self.selector.read().generation();
        let new_generation = old_generation + 1;
        let retry = self.network.config().retry;
        let fence = Bytes::from(encode_to_vec(&SiteRequest::FenceSelector {
            generation: new_generation,
        }));

        // 1. Fence + snapshot. A site that cannot be reached is treated as
        // crashed: it cannot accept zombie grants either, and it re-learns
        // the generation on restart (`restart_site`).
        let mut fenced: Vec<(SiteId, VersionVector, Vec<PartitionId>)> = Vec::new();
        for i in 0..self.config.num_sites {
            let reply = self.network.rpc_with_retry(
                &retry,
                None,
                EndpointId::Site(i as u32),
                TrafficCategory::Remaster,
                fence.clone(),
            );
            match reply.and_then(|bytes| expect_ok(&bytes)) {
                Ok(SiteResponse::Fenced { svv, mastered }) => {
                    fenced.push((SiteId::new(i), svv, mastered));
                }
                Ok(_) => return Err(DynaError::Internal("unexpected fence response")),
                Err(DynaError::Timeout { .. } | DynaError::Network(_)) => continue,
                Err(e) => return Err(e),
            }
        }

        // 2. Log-derived map, reconciled against the live tables.
        let live_tables: Vec<(SiteId, Vec<PartitionId>)> = fenced
            .iter()
            .map(|(site, _, mastered)| (*site, mastered.clone()))
            .collect();
        // The checkpoints' persisted watermarks cover epochs whose records
        // were truncated away; the fenced sites are live, so their on-disk
        // checkpoints are the only place those watermarks can be read.
        let mut watermarks = Vec::new();
        if let Some(root) = &self.config.durability.log_dir {
            for i in 0..self.config.num_sites {
                if let Some(ckpt) = checkpoint::load_latest(&checkpoint_dir(root, i))? {
                    watermarks.push(ckpt.epoch);
                }
            }
        }
        let (map, next_epoch) = recover_placement(
            &self.logs,
            &self.initial_placements,
            &live_tables,
            watermarks,
        )?;

        // 3. Conservative session floor: element-wise max of the fenced
        // svvs. Every version any client could have observed through the
        // old selector is ≤ some site's svv, so routing every post-failover
        // transaction at or above this floor preserves SSSI.
        let mut floor = VersionVector::zero(self.config.num_sites);
        for (_, svv, _) in &fenced {
            floor.merge_max(svv);
        }
        let standby = SiteSelector::with_init(
            self.config.clone(),
            self.catalog.clone(),
            self.mode.clone(),
            Arc::clone(&self.network),
            SelectorInit {
                generation: new_generation,
                epoch_floor: next_epoch,
                session_floor: Some(floor),
                crash_switch: None,
                // The replica map describes durable site state (copies
                // survive a selector crash); the standby inherits it rather
                // than rebuilding from the lazy defaults.
                replica_map: Some(Arc::clone(self.selector.read().replica_map())),
            },
        );

        // 4. Repair release-without-grant windows: the map names a live
        // owner whose table does not claim the partition. The standby
        // grants those back through its own executor, one RPC per owner, at
        // fresh epochs, with `rel_vv` = the owner's own fenced svv. Sorted
        // so the epoch assignment is deterministic.
        for (owner, svv, mastered) in &fenced {
            let claimed: HashSet<&PartitionId> = mastered.iter().collect();
            let mut orphans: Vec<PartitionId> = map
                .iter()
                .filter(|(p, named)| *named == owner && !claimed.contains(p))
                .map(|(p, _)| *p)
                .collect();
            if orphans.is_empty() {
                continue;
            }
            orphans.sort_unstable();
            let grants = orphans
                .into_iter()
                .map(|p| (p, standby.next_epoch(), svv.clone()))
                .collect();
            for repaired in standby.regrant(*owner, grants) {
                repaired?;
            }
        }
        standby.map().seed(map);
        for (site, svv, _) in &fenced {
            standby.observe_site_vv(*site, svv);
        }

        let probe = (self.probe_interval > Duration::ZERO)
            .then(|| standby.start_vv_probe(self.probe_interval));
        register_selector_metrics(&self.metrics, &standby);
        *self.selector.write() = standby;
        *self.probe.lock() = probe;
        self.selector_down.store(false, Ordering::Release);
        Ok(())
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Loads one row into every replica (initial database population; the
    /// paper pre-loads OLTPBench data before measuring). Under partial
    /// replication the row goes only to the partition's default hosts (plus
    /// its seeded master, if any), which also marks those partitions hosted.
    pub fn load_row(
        &self,
        key: dynamast_common::ids::Key,
        row: dynamast_common::Row,
    ) -> Result<()> {
        let sites = self.sites.read();
        if self.config.replication.is_partial() {
            let partition = self.catalog.partition_of(key)?;
            let floor = self
                .config
                .replication
                .effective_floor(self.config.num_sites);
            let mut hosts = crate::replica_map::ReplicaMap::default_hosts(
                self.config.num_sites,
                floor,
                partition,
            );
            if let Some((_, seeded)) = self
                .initial_placements
                .iter()
                .find(|(p, _)| *p == partition)
            {
                if !hosts.contains(seeded) {
                    hosts.push(*seeded);
                }
            }
            let selector = self.selector.read();
            for s in hosts {
                let site = &sites[s.as_usize()];
                site.host_partition(partition);
                site.load_row(key, row.clone())?;
                selector.replica_map().add(partition, s);
            }
        } else {
            for site in sites.iter() {
                site.load_row(key, row.clone())?;
            }
        }
        drop(sites);
        self.base_image.lock().push((key, row));
        Ok(())
    }

    /// Every partition a call's declared read set touches (point reads and
    /// range spans). Mirrors the site-side hosting admission check so read
    /// routing under partial replication targets a site that can actually
    /// serve the snapshot.
    fn read_partitions(&self, proc: &ProcCall) -> Vec<PartitionId> {
        if !self.config.replication.is_partial() {
            return Vec::new();
        }
        let mut parts = Vec::new();
        for key in proc.read_keys.iter().chain(&proc.write_set) {
            if let Ok(p) = self.catalog.partition_of(*key) {
                parts.push(p);
            }
        }
        for range in &proc.read_ranges {
            if range.end <= range.start {
                continue;
            }
            if let Ok(schema) = self.catalog.table(range.table) {
                let first = range.start / schema.partition_size;
                let last = (range.end - 1) / schema.partition_size;
                for index in first..=last {
                    parts.push(dynamast_common::ids::partition_id(range.table, index));
                }
            }
        }
        parts.sort_unstable();
        parts.dedup();
        parts
    }

    /// Stops the probe and site runtimes (also happens on drop).
    pub fn shutdown(&self) {
        self.probe.lock().take();
        // Drain under the lock, join worker threads outside it.
        let drained: Vec<_> = self.runtimes.lock().iter_mut().map(Option::take).collect();
        drop(drained);
    }
}

impl ReplicatedSystem for DynaMastSystem {
    fn name(&self) -> &'static str {
        self.name
    }

    fn update(&self, session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome> {
        let t0 = Instant::now();
        // One trace id for the whole client transaction: resubmissions show
        // up as additional Route events on the same timeline.
        let txn_id = next_trace_id();
        // Retry loop: between routing and execution another transaction may
        // remaster a partition away; the site rejects with NotMaster and the
        // client re-routes (same resubmission rule as Appendix I).
        let mut last_err = DynaError::Internal("unreachable: no routing attempts");
        for attempt in 0..16u32 {
            // Back off between resubmissions: under an instant network a hot
            // partition's mastership can ping-pong faster than the re-route /
            // re-exec cycle, and lockstep retries lose that race repeatedly.
            // A real resubmitting client pays at least a client↔selector RTT
            // here anyway.
            if attempt > 0 {
                std::thread::sleep(Duration::from_micros(u64::from(attempt) * 50));
            }
            // Between selector crash and standby promotion there is no one
            // to route; fail the attempt retryably so a concurrent
            // promotion un-wedges the resubmission loop.
            if self.selector_down.load(Ordering::Acquire) {
                last_err = DynaError::Network("selector unavailable (awaiting promotion)");
                continue;
            }
            // Re-read per attempt: a promotion may have swapped the
            // selector since the last one.
            let selector = self.selector.read().clone();
            // begin_transaction request to the selector (charged hop).
            self.network
                .charge_one_way(TrafficCategory::ClientSelector, route_request_size(proc));
            // Transport faults during routing or remastering (a crashed
            // master, exhausted retries, a mid-protocol selector crash) are
            // retryable: the next attempt routes around the unreachable
            // site — or through the promoted standby. StaleSelector means
            // this routing raced a promotion; the retry picks up the new
            // selector.
            let decision = match selector.route_update_traced(
                txn_id,
                session.id,
                &session.cvv,
                &proc.write_set,
            ) {
                Ok(d) => d,
                Err(
                    err @ (DynaError::Timeout { .. }
                    | DynaError::Network(_)
                    | DynaError::StaleSelector { .. }),
                ) => {
                    last_err = err;
                    continue;
                }
                Err(DynaError::NotReplica { site, partition }) => {
                    // A grant landed on a site whose copy was dropped (or
                    // lost across a restart) after the selector's replica
                    // map said otherwise. Reinstall the copy and re-route.
                    let _ = selector.repair_replica(site, partition);
                    last_err = DynaError::NotReplica { site, partition };
                    continue;
                }
                Err(other) => return Err(other),
            };
            // Routing response back to the client.
            self.network.charge_one_way(
                TrafficCategory::ClientSelector,
                16 + self.config.num_sites * 8,
            );
            match exec_update_at(
                &self.network,
                decision.site,
                txn_id,
                session,
                &decision.min_vv,
                proc,
                true,
            ) {
                Ok((result, timings)) => {
                    return Ok(TxnOutcome {
                        result,
                        breakdown: Breakdown::from_parts(
                            decision.lookup,
                            decision.routing,
                            timings,
                            t0.elapsed(),
                        ),
                    });
                }
                Err(
                    err @ (DynaError::NotMaster { .. }
                    | DynaError::Timeout { .. }
                    | DynaError::Network(_)),
                ) => {
                    // NotMaster: mastership moved between routing and
                    // execution — re-route. Timeout/Network: the routed
                    // site died mid-transaction; execution is at-least-once
                    // under faults (see `dynamast_site::system`), so
                    // resubmission is the client's recovery path here too.
                    last_err = err;
                    continue;
                }
                Err(DynaError::NotReplica { site, partition }) => {
                    // The site is master of the write set but lost this
                    // read-set copy (restart from a checkpoint that did not
                    // host it). Reinstall and resubmit.
                    let _ = selector.repair_replica(site, partition);
                    last_err = DynaError::NotReplica { site, partition };
                    continue;
                }
                Err(other) => return Err(other),
            }
        }
        Err(last_err)
    }

    fn read(&self, session: &mut ClientSession, proc: &ProcCall) -> Result<TxnOutcome> {
        let t0 = Instant::now();
        let txn_id = next_trace_id();
        let mut last_err = DynaError::Internal("unreachable: no read attempts");
        // Partitions the read touches; under partial replication the
        // selector only considers sites hosting all of them.
        let read_parts = self.read_partitions(proc);
        // A site crashing under the read is recoverable: re-route (the
        // selector skips unreachable sites) and run on a replica. Reads are
        // idempotent, so the resubmission needs no further care.
        for attempt in 0..4u32 {
            if attempt > 0 {
                std::thread::sleep(Duration::from_micros(u64::from(attempt) * 50));
            }
            if self.selector_down.load(Ordering::Acquire) {
                last_err = DynaError::Network("selector unavailable (awaiting promotion)");
                continue;
            }
            let selector = self.selector.read().clone();
            self.network
                .charge_one_way(TrafficCategory::ClientSelector, 32);
            let (site, lookup) = {
                let start = Instant::now();
                let site = selector.route_read_partitions_traced(txn_id, &session.cvv, &read_parts);
                (site, start.elapsed())
            };
            self.network
                .charge_one_way(TrafficCategory::ClientSelector, 16);
            match exec_read_at(
                &self.network,
                site,
                txn_id,
                session,
                proc,
                ReadMode::Snapshot,
            ) {
                Ok((result, timings)) => {
                    return Ok(TxnOutcome {
                        result,
                        breakdown: Breakdown::from_parts(
                            lookup,
                            Duration::ZERO,
                            timings,
                            t0.elapsed(),
                        ),
                    });
                }
                Err(err @ (DynaError::Timeout { .. } | DynaError::Network(_))) => {
                    last_err = err;
                }
                Err(DynaError::NotReplica { site, partition }) => {
                    // The replica map routed us to a site that no longer
                    // holds a touched partition (dropped or lost across a
                    // restart). Repair the copy and retry; the next route
                    // can also fall back to another replica.
                    let _ = selector.repair_replica(site, partition);
                    last_err = DynaError::NotReplica { site, partition };
                }
                Err(other) => return Err(other),
            }
        }
        Err(last_err)
    }

    fn stats(&self) -> SystemStats {
        let sites = self.sites.read();
        let selector = self.selector.read();
        SystemStats {
            committed_updates: sites.iter().map(|s| s.commits.get()).sum(),
            aborts: sites.iter().map(|s| s.aborts.get()).sum(),
            remaster_ops: selector.remaster_ops.get(),
            partitions_moved: selector.partitions_moved.get(),
            masters_per_site: selector.map().masters_per_site(self.config.num_sites),
            updates_routed_per_site: selector.routed_per_site(),
            resident_bytes: sites.iter().map(|s| s.store().resident_bytes()).sum(),
        }
    }
}

impl Drop for DynaMastSystem {
    fn drop(&mut self) {
        self.shutdown();
    }
}
