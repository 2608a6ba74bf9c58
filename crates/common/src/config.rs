//! System-wide configuration.
//!
//! [`SystemConfig`] collects the knobs the paper mentions: number of data
//! sites, number of retained record versions (four, §V-A1), partition
//! granularity (YCSB uses 100-key partitions, Appendix C), the site-selector
//! strategy weights (Eq. 8, Appendix H), statistics sampling, and the
//! simulated-network latency model that stands in for the paper's 10GbE +
//! Thrift deployment.

use std::time::Duration;

/// Weights of the site selector's linear remastering model (paper Eq. 8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrategyWeights {
    /// `w_balance`: weight of the write-load-balance factor (Eqs. 2–4).
    pub balance: f64,
    /// `w_delay`: weight of the refresh-delay estimate (Eq. 5). Applied
    /// negatively — a lagging destination is penalised.
    pub delay: f64,
    /// `w_intra_txn`: weight of intra-transaction co-access localization
    /// (Eq. 6).
    pub intra_txn: f64,
    /// `w_inter_txn`: weight of inter-transaction co-access localization
    /// (Eq. 7).
    pub inter_txn: f64,
}

impl StrategyWeights {
    /// Appendix H weights for YCSB: balance dominates, intra-transaction
    /// correlations second, inter-transaction correlations off (already
    /// captured by intra for range-correlated partitions).
    ///
    /// Calibration note: the paper uses `w_balance = 10⁶` against its own
    /// (unspecified-scale) balance-distance function. This implementation's
    /// distance is the squared L2 deviation from the uniform write
    /// distribution, whose per-decision deltas are far smaller, so the same
    /// *priority order* — balance decisive when the system is imbalanced,
    /// co-location decisive near balance — needs a proportionally smaller
    /// weight. 10⁴ preserves that hierarchy; 10⁶ here would let balance
    /// noise override co-location and ping-pong overlapping neighbourhoods.
    pub fn ycsb() -> Self {
        StrategyWeights {
            balance: 10_000.0,
            delay: 0.5,
            intra_txn: 3.0,
            inter_txn: 0.0,
        }
    }

    /// Appendix H weights for SmallBank: as YCSB but with `w_balance`
    /// lowered drastically — short transactions place little load, so
    /// access patterns matter comparatively more, and crucially the hot
    /// account set must be allowed to *clump* at one site instead of being
    /// sheared apart by balance on every transfer. (Recalibrated to this
    /// implementation's balance-distance scale; see
    /// [`StrategyWeights::ycsb`].)
    pub fn smallbank() -> Self {
        StrategyWeights {
            balance: 50.0,
            delay: 0.5,
            intra_txn: 3.0,
            inter_txn: 0.0,
        }
    }

    /// Appendix H weights for TPC-C: co-access localization near the
    /// ~90% single-warehouse probability, with a small non-zero balance
    /// term "which ensures that the system considers load balance".
    /// (Balance recalibrated to this implementation's distance scale: with
    /// the paper's 0.01 the balance force would be numerically zero here,
    /// every cold-start placement would tie-break to site 0, and DynaMast
    /// would degenerate into single-master; see [`StrategyWeights::ycsb`].)
    pub fn tpcc() -> Self {
        StrategyWeights {
            balance: 500.0,
            delay: 0.05,
            intra_txn: 0.88,
            inter_txn: 0.88,
        }
    }

    /// Scales one weight, for the Figure 5a sensitivity sweeps.
    #[must_use]
    pub fn with_scaled(mut self, which: WeightKind, factor: f64) -> Self {
        match which {
            WeightKind::Balance => self.balance *= factor,
            WeightKind::Delay => self.delay *= factor,
            WeightKind::IntraTxn => self.intra_txn *= factor,
            WeightKind::InterTxn => self.inter_txn *= factor,
        }
        self
    }

    /// Zeroes one weight (removing its feature from the model), for the
    /// Figure 5a ablations.
    #[must_use]
    pub fn without(mut self, which: WeightKind) -> Self {
        match which {
            WeightKind::Balance => self.balance = 0.0,
            WeightKind::Delay => self.delay = 0.0,
            WeightKind::IntraTxn => self.intra_txn = 0.0,
            WeightKind::InterTxn => self.inter_txn = 0.0,
        }
        self
    }
}

/// Names the four hyperparameters for sweeps and ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightKind {
    /// `w_balance`.
    Balance,
    /// `w_delay`.
    Delay,
    /// `w_intra_txn`.
    IntraTxn,
    /// `w_inter_txn`.
    InterTxn,
}

/// Deadline and retry policy for RPCs issued over the simulated network.
///
/// Faults (message drops, partitions, crashed endpoints) surface to callers
/// as `DynaError::Timeout` / `DynaError::Network`; a resilient caller retries
/// with capped exponential backoff and seeded jitter until either the
/// per-call attempt budget or the overall deadline is exhausted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Deadline for a single attempt's reply.
    pub attempt_timeout: Duration,
    /// Maximum number of attempts (≥ 1); the first send counts as one.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubled each retry.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Overall deadline across all attempts and backoffs.
    pub deadline: Duration,
}

impl RetryPolicy {
    /// Default policy: generous enough to ride out delay spikes and a site
    /// restart, tight enough that chaos tests finish under their watchdog.
    pub fn standard() -> Self {
        RetryPolicy {
            attempt_timeout: Duration::from_millis(500),
            max_attempts: 6,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(50),
            deadline: Duration::from_secs(10),
        }
    }

    /// A single attempt with a bounded wait: fail fast, no retransmission.
    pub fn one_shot(attempt_timeout: Duration) -> Self {
        RetryPolicy {
            attempt_timeout,
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: attempt_timeout,
        }
    }
}

/// Simulated network latency model.
///
/// The paper runs on a 10Gbit/s LAN; network time is >40% of transaction
/// latency (Fig. 7). We charge each message a constant one-way delay plus a
/// per-byte cost, with optional uniform jitter. Setting everything to zero
/// yields an instantaneous network for unit tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Constant one-way delay per message.
    pub one_way_delay: Duration,
    /// Additional delay per KiB of payload (bandwidth term).
    pub delay_per_kib: Duration,
    /// Uniform jitter added in `[0, jitter]`.
    pub jitter: Duration,
    /// Deadline/retry policy applied by resilient RPC callers.
    pub retry: RetryPolicy,
}

impl NetworkConfig {
    /// Zero-latency network for unit and protocol tests.
    pub fn instant() -> Self {
        NetworkConfig {
            one_way_delay: Duration::ZERO,
            delay_per_kib: Duration::ZERO,
            jitter: Duration::ZERO,
            retry: RetryPolicy::standard(),
        }
    }

    /// LAN-like latency used by the benchmark harness: 100µs one way
    /// (~typical same-rack RTT of 200µs), 1µs per KiB (~1GB/s effective),
    /// 20µs jitter.
    pub fn lan() -> Self {
        NetworkConfig {
            one_way_delay: Duration::from_micros(100),
            delay_per_kib: Duration::from_micros(1),
            jitter: Duration::from_micros(20),
            retry: RetryPolicy::standard(),
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Total one-way delay for a payload of `bytes` (before jitter).
    pub fn delay_for(&self, bytes: usize) -> Duration {
        self.one_way_delay + self.delay_per_kib * (bytes as u32 / 1024)
    }
}

/// How widely each partition is replicated across the data sites.
///
/// The paper's deployment is fully replicated (every site stores every
/// partition, §V-A); partial replication keeps a per-partition subset of
/// sites as copy holders, bounded below by a floor so remastering and
/// fail-over always have a second copy to fall back on. Full replication is
/// the degenerate configuration where the replica set of every partition is
/// all sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Every site stores every partition (the seed behavior).
    Full,
    /// Each partition is stored at a dynamic subset of sites, never fewer
    /// than `floor` copies (and always including the current master).
    Partial {
        /// Minimum number of copies per partition (≥ 2 so the master is
        /// never the sole holder).
        floor: usize,
    },
}

impl ReplicationMode {
    /// Whether this mode replicates only a subset of sites per partition.
    pub fn is_partial(&self) -> bool {
        matches!(self, ReplicationMode::Partial { .. })
    }

    /// The effective replica floor under `num_sites` sites: the configured
    /// floor clamped to `[2, num_sites]` (full replication floors at all
    /// sites).
    pub fn effective_floor(&self, num_sites: usize) -> usize {
        match self {
            ReplicationMode::Full => num_sites,
            ReplicationMode::Partial { floor } => (*floor).clamp(2, num_sites.max(1)),
        }
    }
}

/// When the durable log's segment writer calls `fsync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncMode {
    /// Every committer waits until its own record is on disk before its
    /// commit acknowledges. Strongest guarantee; serializes commit
    /// acknowledgment behind the gap-closing writer's fsync.
    Always,
    /// One `fsync` per group-committed run: the gap-closing fill that
    /// publishes a contiguous run syncs the whole run in one call, and
    /// committers whose record rides someone else's run acknowledge without
    /// waiting. Durability lags commit acknowledgment by at most one run.
    Group,
    /// Segments are written but never explicitly synced; durability is
    /// whatever the OS page cache survives. Benchmarks use this to isolate
    /// the protocol cost from the disk.
    Off,
}

/// Durable-log configuration. With `log_dir = None` (the default) logs are
/// purely in-memory — the seed behavior, and what every benchmark that
/// measures protocol cost uses.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory for per-site segment/checkpoint directories
    /// (`<log_dir>/site-<id>/`). `None` keeps logs in memory only.
    pub log_dir: Option<std::path::PathBuf>,
    /// When to `fsync` appended segments.
    pub fsync: FsyncMode,
    /// Rotate to a new segment file once the current one exceeds this many
    /// bytes of frames (header excluded).
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// In-memory logs (the default).
    pub fn volatile() -> Self {
        DurabilityConfig {
            log_dir: None,
            fsync: FsyncMode::Off,
            segment_bytes: 4 << 20,
        }
    }
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self::volatile()
    }
}

/// Top-level system configuration shared by all five evaluated systems.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of data sites (`m`).
    pub num_sites: usize,
    /// Retained versions per record (default 4, §V-A1).
    pub mvcc_versions: usize,
    /// Keys per partition for key-range partitioned tables (YCSB uses 100).
    pub partition_size: u64,
    /// Site-selector strategy weights (Eq. 8).
    pub weights: StrategyWeights,
    /// Simulated network latency.
    pub network: NetworkConfig,
    /// Site-selector statistics: fraction of write sets sampled into the
    /// transaction history queue (§V-B). 1.0 samples everything.
    pub sample_rate: f64,
    /// Site-selector statistics: capacity of the per-system history queue;
    /// the oldest sample is expired (its counts decremented) on overflow.
    pub history_capacity: usize,
    /// Δt window for inter-transaction co-access correlation (Eq. 7).
    pub inter_txn_window: Duration,
    /// Upper bound on distinct co-access counter partners tracked per
    /// partition (keeps the statistics tables bounded under adversarial
    /// workloads).
    pub max_coaccess_partners: usize,
    /// Ablation switch: perform release/grant operations one source site at
    /// a time instead of in parallel. The paper's Algorithm 1 parallelizes
    /// them ("parallel execution of release and grant operations greatly
    /// speed up remastering"); enabling this quantifies that claim.
    pub sequential_remastering: bool,
    /// The epoch policy (off by default): the sole-master fast path may
    /// queue a rebalancing move, route the transaction to the current
    /// master, and execute the queue at the epoch boundary — one `Release`
    /// and one `Grant` per (source, destination) site pair. A write set
    /// split across masters is co-located at once either way.
    pub remaster_batching: bool,
    /// Epoch boundary by count: the pending-move queue flushes once it
    /// holds this many distinct partitions.
    pub epoch_max_moves: usize,
    /// Epoch boundary by time: the queue also flushes once this much time
    /// has passed since the first move was queued. `Duration::ZERO`
    /// disables the time trigger (count-only epochs — what deterministic
    /// replay tests need, since flush timing then depends only on the
    /// route sequence).
    pub epoch_interval: Duration,
    /// No-stall guarantee: how many transactions may route to the *old*
    /// master of a queued partition before the selector gives up on the
    /// epoch and flushes it on the routing path.
    pub remaster_wait_budget: u32,
    /// Fixed simulated CPU cost per stored-procedure execution (parsing,
    /// plan dispatch). Occupies an RPC worker, modelling the paper's
    /// 12-core data-site machines; ~45% of transaction latency is
    /// execution in Fig. 7.
    pub service_base: Duration,
    /// Additional simulated CPU cost per row read, scanned, or written.
    pub service_per_op: Duration,
    /// Seed for all deterministic randomness (workloads, jitter).
    pub seed: u64,
    /// Durable-log settings (in-memory by default).
    pub durability: DurabilityConfig,
    /// Replica-set policy: full replication (default) or a dynamic
    /// per-partition subset with a copy floor.
    pub replication: ReplicationMode,
    /// Whether the adaptive replica-provisioning planner runs under partial
    /// replication (default). Off pins every replica set at its floor
    /// assignment — copies still move for correctness (create-then-grant,
    /// NotReplica repair), but the planner never widens hot partitions or
    /// sheds cold ones. Benchmarks use this to measure the floor deployment
    /// itself, operators to pin replica sets during maintenance.
    pub replica_provisioning: bool,
}

impl SystemConfig {
    /// A small default configuration: 4 sites, LAN network, YCSB weights.
    pub fn new(num_sites: usize) -> Self {
        SystemConfig {
            num_sites,
            mvcc_versions: 4,
            partition_size: 100,
            weights: StrategyWeights::ycsb(),
            network: NetworkConfig::lan(),
            sample_rate: 1.0,
            history_capacity: 4096,
            inter_txn_window: Duration::from_millis(100),
            max_coaccess_partners: 64,
            sequential_remastering: false,
            remaster_batching: false,
            epoch_max_moves: 32,
            epoch_interval: Duration::ZERO,
            remaster_wait_budget: 64,
            service_base: Duration::from_micros(800),
            service_per_op: Duration::from_micros(2),
            seed: 0x000D_A11A_5EED,
            durability: DurabilityConfig::volatile(),
            replication: ReplicationMode::Full,
            replica_provisioning: true,
        }
    }

    /// Same configuration with an instantaneous network (for tests).
    #[must_use]
    pub fn with_instant_network(mut self) -> Self {
        self.network = NetworkConfig::instant();
        self
    }

    /// Zero simulated CPU cost (protocol tests that should run instantly).
    #[must_use]
    pub fn with_instant_service(mut self) -> Self {
        self.service_base = Duration::ZERO;
        self.service_per_op = Duration::ZERO;
        self
    }

    /// Replaces the strategy weights.
    #[must_use]
    pub fn with_weights(mut self, weights: StrategyWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Puts the redo logs on disk under `log_dir` with the given fsync mode
    /// (segment size stays at the [`DurabilityConfig::volatile`] default).
    #[must_use]
    pub fn with_durability(mut self, log_dir: std::path::PathBuf, fsync: FsyncMode) -> Self {
        self.durability.log_dir = Some(log_dir);
        self.durability.fsync = fsync;
        self
    }

    /// Replaces the segment rotation threshold (crash-sim tests use tiny
    /// segments so rotation and truncation are exercised in short runs).
    #[must_use]
    pub fn with_segment_bytes(mut self, segment_bytes: u64) -> Self {
        self.durability.segment_bytes = segment_bytes;
        self
    }

    /// Switches to partial replication with the given per-partition copy
    /// floor (clamped to at least 2 at build time so fail-over always has a
    /// survivor copy).
    #[must_use]
    pub fn with_partial_replication(mut self, floor: usize) -> Self {
        self.replication = ReplicationMode::Partial { floor };
        self
    }

    /// Pins every replica set at its floor assignment: the provisioning
    /// planner never widens or sheds, only correctness-driven copy moves
    /// (create-then-grant, repair) happen.
    #[must_use]
    pub fn with_frozen_replica_sets(mut self) -> Self {
        self.replica_provisioning = false;
        self
    }

    /// Enables epoch-batched group remastering with a count-triggered
    /// epoch boundary (`epoch_interval` stays as configured; the default
    /// `Duration::ZERO` keeps epochs count-only and replay-deterministic).
    #[must_use]
    pub fn with_epoch_batching(mut self, max_moves: usize, wait_budget: u32) -> Self {
        self.remaster_batching = true;
        self.epoch_max_moves = max_moves;
        self.remaster_wait_budget = wait_budget;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appendix_h_presets_match_paper() {
        let y = StrategyWeights::ycsb();
        // Recalibrated for this implementation's balance-distance scale (see
        // the ycsb() docs); the paper's value is 10⁶ on its own scale.
        assert_eq!(y.balance, 10_000.0);
        assert_eq!(y.intra_txn, 3.0);
        assert_eq!(y.inter_txn, 0.0);
        assert_eq!(y.delay, 0.5);
        let t = StrategyWeights::tpcc();
        assert_eq!(t.intra_txn, t.inter_txn);
        // Balance weights are recalibrated per workload to this
        // implementation's distance scale; YCSB's balance force is the
        // strongest, as in the paper.
        let y = StrategyWeights::ycsb();
        let s = StrategyWeights::smallbank();
        assert!(y.balance > s.balance && y.balance > t.balance);
        assert!(s.balance > 0.0 && t.balance > 0.0);
    }

    #[test]
    fn weight_sweep_helpers_scale_and_zero() {
        let w = StrategyWeights::ycsb().with_scaled(WeightKind::Balance, 0.01);
        assert_eq!(w.balance, 100.0);
        let w = w.without(WeightKind::IntraTxn);
        assert_eq!(w.intra_txn, 0.0);
        assert_eq!(w.delay, 0.5);
    }

    #[test]
    fn network_delay_scales_with_payload() {
        let net = NetworkConfig {
            one_way_delay: Duration::from_micros(100),
            delay_per_kib: Duration::from_micros(10),
            jitter: Duration::ZERO,
            retry: RetryPolicy::standard(),
        };
        assert_eq!(net.delay_for(100), Duration::from_micros(100));
        assert_eq!(net.delay_for(4096), Duration::from_micros(140));
        assert_eq!(NetworkConfig::instant().delay_for(1 << 20), Duration::ZERO);
    }

    #[test]
    fn config_builders_compose() {
        let cfg = SystemConfig::new(8)
            .with_instant_network()
            .with_weights(StrategyWeights::tpcc())
            .with_seed(7);
        assert_eq!(cfg.num_sites, 8);
        assert_eq!(cfg.network, NetworkConfig::instant());
        assert_eq!(cfg.weights, StrategyWeights::tpcc());
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.mvcc_versions, 4);
    }

    #[test]
    fn replication_mode_defaults_to_full_and_clamps_floor() {
        let cfg = SystemConfig::new(4);
        assert_eq!(cfg.replication, ReplicationMode::Full);
        assert!(!cfg.replication.is_partial());
        assert_eq!(cfg.replication.effective_floor(4), 4);
        let cfg = cfg.with_partial_replication(2);
        assert!(cfg.replication.is_partial());
        assert_eq!(cfg.replication.effective_floor(4), 2);
        // Floors clamp into [2, num_sites].
        assert_eq!(ReplicationMode::Partial { floor: 0 }.effective_floor(4), 2);
        assert_eq!(ReplicationMode::Partial { floor: 9 }.effective_floor(4), 4);
    }

    #[test]
    fn epoch_batching_builder_sets_knobs() {
        let cfg = SystemConfig::new(3);
        assert!(!cfg.remaster_batching);
        let cfg = cfg.with_epoch_batching(8, 16);
        assert!(cfg.remaster_batching);
        assert_eq!(cfg.epoch_max_moves, 8);
        assert_eq!(cfg.remaster_wait_budget, 16);
        assert_eq!(cfg.epoch_interval, Duration::ZERO);
    }
}
