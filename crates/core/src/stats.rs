//! Workload access statistics (§V-B).
//!
//! The selector "builds and maintains statistics such as data item access
//! frequency and data item co-access likelihood [...] by adaptively sampling
//! transaction write sets and recording sampled transactions, and each
//! transaction executed within a time window Δt of it — submitted by the
//! same client — in a transaction history queue. [...] DynaMast expires
//! samples from the transaction history queue by decrementing any associated
//! access counts to adapt to changing workloads."
//!
//! [`AccessStats`] implements exactly that: per-partition write counts (and
//! the per-site aggregate the balance feature needs), intra-transaction
//! co-access counts, inter-transaction co-access counts within a
//! configurable Δt window per client, and a bounded history queue whose
//! evicted samples decrement every count they contributed.
//!
//! # Concurrency model
//!
//! One mutex guards all of it (DESIGN.md §7). A record bumps its counts,
//! appends its sample and expires whatever passed the history capacity
//! before it unlocks, so every read sees exact counts and expiry happens at
//! the record that overflows the queue, as in the paper. The work under the
//! lock stays proportional to what is counted:
//!
//! * **Client Δt windows.** Each client's in-window write sets are kept as
//!   a *multiset* (partition → occurrences), maintained incrementally as
//!   sets are appended and expire, so Eq. 7's pairing costs one bump *by
//!   that multiplicity* per distinct in-window partition instead of one
//!   bump per earlier occurrence — count-for-count the same tables at
//!   `O(distinct in-window partitions × |ws|)` rather than
//!   `O(rate · Δt · |ws|²)`. Sets expire from one FIFO shared by all
//!   clients, so a client that never returns is forgotten by the next
//!   record after Δt. A zero `inter_window` tracks no inter-transaction
//!   feature (the selector passes it when Eq. 8's `inter_txn` weight is 0).
//! * **One probe per pair.** Maps use the integer `IntMap` hasher. Pairs
//!   travel in runs that share their `from` side, so recording and expiring
//!   look a `from` partition's `PartStats` up once per run and probe its
//!   partner table once per pair (≈ 15 ns a pair on TPC-C write sets,
//!   2-vCPU x86-64 VM; DESIGN.md §7).
//! * **The tracker's master is authoritative.** A router reads masters
//!   under shared partition-map locks and records after dropping them, so
//!   a remaster can land in between. [`AccessStats::on_remaster`] runs
//!   under the exclusive map lock, before any route can read the new
//!   master, so a record adopts its master only for a partition the
//!   tracker has none for; otherwise a late record would pull the
//!   partition back to its old site and leak per-site load.
//! * **Sampling** draws from one seeded RNG under the lock. Rates `0.0`
//!   and `1.0` short-circuit without touching it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use dynamast_common::hash::IntMap;
use dynamast_common::ids::{ClientId, PartitionId, SiteId};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Co-access partners of one partition with conditional probabilities,
/// produced for the strategy model.
#[derive(Clone, Debug, Default)]
pub struct PartnerProbs {
    /// `(partner, P(partner | partition))` pairs.
    pub partners: Vec<(PartitionId, f64)>,
}

/// Scoring snapshot for one write-set partition.
#[derive(Clone, Debug, Default)]
pub struct PartitionSnapshot {
    /// Write-frequency count of the partition.
    pub load: f64,
    /// Intra-transaction co-access probabilities (Eq. 6's `P(d2|d1)`).
    pub intra: PartnerProbs,
    /// Inter-transaction co-access probabilities (Eq. 7's
    /// `P(d2|d1; T ≤ Δt)`).
    pub inter: PartnerProbs,
}

#[derive(Default)]
struct PartStats {
    count: u64,
    master: Option<SiteId>,
    intra: IntMap<PartitionId, u64>,
    inter: IntMap<PartitionId, u64>,
}

struct Sample {
    partitions: Vec<PartitionId>,
    /// `(from, to)`, in runs that share a `from`.
    intra_pairs: Vec<(PartitionId, PartitionId)>,
    /// `(from, to, weight)`, in runs that share a `from`: the pair was
    /// bumped by `weight`, the number of times `from` occurred in the
    /// client's Δt window.
    inter_pairs: Vec<(PartitionId, PartitionId, u64)>,
}

/// Configuration for [`AccessStats`].
#[derive(Clone, Copy, Debug)]
pub struct StatsConfig {
    /// Fraction of write sets sampled.
    pub sample_rate: f64,
    /// History queue capacity; overflow expires the oldest sample.
    pub history_capacity: usize,
    /// Δt window for inter-transaction correlation. Zero: the
    /// inter-transaction feature is not tracked.
    pub inter_window: Duration,
    /// Maximum distinct co-access partners tracked per partition.
    pub max_partners: usize,
}

/// The per-client Δt windows.
#[derive(Default)]
struct ClientWindows {
    /// `(time, client, set length)` of every in-window write set in append
    /// order. Shared by all clients, so expiry needs no visit from the
    /// set's own client.
    sets: VecDeque<(Instant, ClientId, usize)>,
    /// The partitions of those sets, flattened in the same order.
    members: VecDeque<PartitionId>,
    /// Per client: partition → occurrences among its in-window sets.
    per_client: IntMap<ClientId, IntMap<PartitionId, u64>>,
}

impl ClientWindows {
    /// Expires sets older than `window`, pairs every distinct in-window
    /// partition of `client` with the new write set — `(p_old, p_new,
    /// occurrences of p_old)`, one run per `p_old` — then appends the new
    /// set. The window edge is exact for callers whose `now` never runs
    /// backwards.
    fn advance(
        &mut self,
        client: ClientId,
        now: Instant,
        partitions: &[PartitionId],
        window: Duration,
    ) -> Vec<(PartitionId, PartitionId, u64)> {
        while let Some(&(t, owner, len)) = self.sets.front() {
            if now.duration_since(t) <= window {
                break;
            }
            self.sets.pop_front();
            let counts = self
                .per_client
                .get_mut(&owner)
                .expect("a queued set is counted in its client's window");
            for p in self.members.drain(..len) {
                let c = counts
                    .get_mut(&p)
                    .expect("a queued set's partitions are counted");
                *c -= 1;
                if *c == 0 {
                    counts.remove(&p);
                }
            }
            if counts.is_empty() {
                self.per_client.remove(&owner);
            }
        }
        let counts = self.per_client.entry(client).or_default();
        let mut pairs = Vec::with_capacity(counts.len() * partitions.len());
        for (&p_old, &occurrences) in counts.iter() {
            for &p_new in partitions {
                if p_old != p_new {
                    pairs.push((p_old, p_new, occurrences));
                }
            }
        }
        self.sets.push_back((now, client, partitions.len()));
        for &p in partitions {
            self.members.push_back(p);
            *counts.entry(p).or_insert(0) += 1;
        }
        pairs
    }
}

/// Everything the tracker counts, under its one lock.
struct Inner {
    rng: SmallRng,
    parts: IntMap<PartitionId, PartStats>,
    site_load: Vec<u64>,
    windows: ClientWindows,
    history: VecDeque<Sample>,
}

impl Inner {
    /// Decrements every count a retired sample contributed; a pair run
    /// costs one `PartStats` lookup.
    fn expire(&mut self, sample: &Sample) {
        for p in &sample.partitions {
            if let Some(stats) = self.parts.get_mut(p) {
                stats.count = stats.count.saturating_sub(1);
                if let Some(m) = stats.master {
                    let load = &mut self.site_load[m.as_usize()];
                    *load = load.saturating_sub(1);
                }
            }
        }
        for run in sample.intra_pairs.chunk_by(|a, b| a.0 == b.0) {
            if let Some(stats) = self.parts.get_mut(&run[0].0) {
                for (_, to) in run {
                    decrement_partner(&mut stats.intra, to, 1);
                }
            }
        }
        for run in sample.inter_pairs.chunk_by(|a, b| a.0 == b.0) {
            if let Some(stats) = self.parts.get_mut(&run[0].0) {
                for (_, to, weight) in run {
                    decrement_partner(&mut stats.inter, to, *weight);
                }
            }
        }
    }
}

/// The selector's statistics tracker.
pub struct AccessStats {
    config: StatsConfig,
    inner: Mutex<Inner>,
}

impl AccessStats {
    /// Creates a tracker.
    pub fn new(config: StatsConfig, num_sites: usize, seed: u64) -> Self {
        AccessStats {
            config,
            inner: Mutex::new(Inner {
                rng: SmallRng::seed_from_u64(seed),
                parts: IntMap::default(),
                site_load: vec![0; num_sites],
                windows: ClientWindows::default(),
                history: VecDeque::with_capacity(config.history_capacity + 1),
            }),
        }
    }

    /// Records one routed write set. `masters[i]` is the master of
    /// `partitions[i]` in the selector's view at routing time; it is
    /// adopted only for a partition the tracker knows no master of (see
    /// the module doc).
    pub fn record_write_set(
        &self,
        client: ClientId,
        now: Instant,
        partitions: &[PartitionId],
        masters: &[Option<SiteId>],
    ) {
        debug_assert_eq!(partitions.len(), masters.len());
        let rate = self.config.sample_rate;
        if rate <= 0.0 {
            return;
        }
        let max_partners = self.config.max_partners;
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if rate < 1.0 && !inner.rng.gen_bool(rate) {
            return;
        }

        // The client's write sets within Δt predict this one.
        let window = self.config.inter_window;
        let candidates = if window.is_zero() {
            Vec::new()
        } else {
            inner.windows.advance(client, now, partitions, window)
        };
        let n = partitions.len();
        let mut intra_pairs = Vec::with_capacity(n * n.saturating_sub(1));
        let mut inter_pairs = Vec::with_capacity(candidates.len());
        // Pairs are keyed by their `from` side and arrive in runs of one
        // `from`: one lookup per run, then keep the admitted pairs.
        for run in candidates.chunk_by(|a, b| a.0 == b.0) {
            let table = &mut inner.parts.entry(run[0].0).or_default().inter;
            inter_pairs.extend(
                run.iter()
                    .copied()
                    .filter(|&(_, to, weight)| bump_partner(table, to, weight, max_partners)),
            );
        }
        for (&p1, master) in partitions.iter().zip(masters) {
            let stats = inner.parts.entry(p1).or_default();
            stats.count += 1;
            if stats.master.is_none() {
                stats.master = *master;
            }
            if let Some(m) = stats.master {
                inner.site_load[m.as_usize()] += 1;
            }
            for &p2 in partitions {
                if p1 != p2 && bump_partner(&mut stats.intra, p2, 1, max_partners) {
                    intra_pairs.push((p1, p2));
                }
            }
        }
        inner.history.push_back(Sample {
            partitions: partitions.to_vec(),
            intra_pairs,
            inter_pairs,
        });
        while inner.history.len() > self.config.history_capacity {
            let old = inner.history.pop_front().expect("history is over capacity");
            inner.expire(&old);
        }
    }

    /// Moves a partition's counted load to its new master. Callers hold
    /// the partition's exclusive map lock, so no route has read `to` yet.
    pub fn on_remaster(&self, partition: PartitionId, to: SiteId) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let stats = inner.parts.entry(partition).or_default();
        if let Some(old) = stats.master.replace(to) {
            let load = &mut inner.site_load[old.as_usize()];
            *load = load.saturating_sub(stats.count);
        }
        inner.site_load[to.as_usize()] += stats.count;
    }

    /// Scoring snapshot for the write-set partitions plus the per-site load
    /// aggregate.
    pub fn snapshot(&self, partitions: &[PartitionId]) -> (Vec<PartitionSnapshot>, Vec<f64>) {
        let inner = self.inner.lock();
        let snaps = partitions
            .iter()
            .map(|p| match inner.parts.get(p) {
                None => PartitionSnapshot::default(),
                Some(stats) => PartitionSnapshot {
                    load: stats.count as f64,
                    intra: probs(&stats.intra, stats.count),
                    inter: probs(&stats.inter, stats.count),
                },
            })
            .collect();
        let load = inner.site_load.iter().map(|&c| c as f64).collect();
        (snaps, load)
    }

    /// The per-site load aggregate alone (the epoch batcher's imbalance
    /// probe).
    pub fn site_load(&self) -> Vec<f64> {
        let inner = self.inner.lock();
        inner.site_load.iter().map(|&c| c as f64).collect()
    }

    /// The tracked write count of one partition (tests/diagnostics).
    pub fn partition_count(&self, partition: PartitionId) -> u64 {
        let inner = self.inner.lock();
        inner.parts.get(&partition).map_or(0, |s| s.count)
    }

    /// Current history-queue length (tests/diagnostics).
    pub fn history_len(&self) -> usize {
        self.inner.lock().history.len()
    }
}

fn decrement_partner(table: &mut IntMap<PartitionId, u64>, to: &PartitionId, by: u64) {
    if let Some(c) = table.get_mut(to) {
        *c = c.saturating_sub(by);
        if *c == 0 {
            table.remove(to);
        }
    }
}

fn probs(counts: &IntMap<PartitionId, u64>, total: u64) -> PartnerProbs {
    if total == 0 {
        return PartnerProbs::default();
    }
    let mut partners: Vec<(PartitionId, f64)> = counts
        .iter()
        .filter(|(_, &c)| c > 0)
        .map(|(p, &c)| (*p, c as f64 / total as f64))
        .collect();
    // Eqs. 6–7 sum over this list in order; hash order would make the last
    // bit of a score depend on the table's hasher seed.
    partners.sort_unstable_by_key(|(p, _)| *p);
    PartnerProbs { partners }
}

/// Adds `by` to a co-access partner count; returns whether it was counted
/// (partner-table capacity permitting). One probe for a tracked partner; a
/// new one is inserted only while the table has room.
fn bump_partner(
    table: &mut IntMap<PartitionId, u64>,
    to: PartitionId,
    by: u64,
    max_partners: usize,
) -> bool {
    if let Some(count) = table.get_mut(&to) {
        *count += by;
        true
    } else if table.len() < max_partners {
        table.insert(to, by);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> StatsConfig {
        StatsConfig {
            sample_rate: 1.0,
            history_capacity: 100,
            inter_window: Duration::from_millis(100),
            max_partners: 8,
        }
    }

    fn pid(i: usize) -> PartitionId {
        PartitionId::new(i)
    }

    fn client(i: usize) -> ClientId {
        ClientId::new(i)
    }

    #[test]
    fn write_counts_accumulate_per_partition_and_site() {
        let stats = AccessStats::new(config(), 2, 1);
        let s0 = Some(SiteId::new(0));
        let now = Instant::now();
        stats.record_write_set(client(1), now, &[pid(1), pid(2)], &[s0, s0]);
        stats.record_write_set(client(1), now, &[pid(1)], &[s0]);
        assert_eq!(stats.partition_count(pid(1)), 2);
        let (_, load) = stats.snapshot(&[pid(1)]);
        assert_eq!(load, vec![3.0, 0.0]);
    }

    #[test]
    fn intra_coaccess_probabilities_are_conditional() {
        let stats = AccessStats::new(config(), 2, 1);
        let m = Some(SiteId::new(0));
        let now = Instant::now();
        stats.record_write_set(client(1), now, &[pid(1), pid(2)], &[m, m]);
        stats.record_write_set(client(1), now, &[pid(1)], &[m]);
        let (snaps, _) = stats.snapshot(&[pid(1)]);
        // pid(2) co-accessed in 1 of pid(1)'s 2 accesses.
        let partners = &snaps[0].intra.partners;
        assert_eq!(partners.len(), 1);
        assert_eq!(partners[0], (pid(2), 0.5));
    }

    #[test]
    fn inter_coaccess_links_consecutive_client_txns_within_window() {
        let stats = AccessStats::new(config(), 2, 1);
        let m = Some(SiteId::new(0));
        let t0 = Instant::now();
        stats.record_write_set(client(1), t0, &[pid(1)], &[m]);
        stats.record_write_set(client(1), t0 + Duration::from_millis(10), &[pid(2)], &[m]);
        let (snaps, _) = stats.snapshot(&[pid(1)]);
        assert_eq!(snaps[0].inter.partners, vec![(pid(2), 1.0)]);
        // A different client's transaction does not link.
        stats.record_write_set(client(2), t0 + Duration::from_millis(20), &[pid(3)], &[m]);
        let (snaps, _) = stats.snapshot(&[pid(2)]);
        assert!(snaps[0].inter.partners.is_empty());
    }

    #[test]
    fn inter_coaccess_ignores_txns_outside_window() {
        let stats = AccessStats::new(config(), 2, 1);
        let m = Some(SiteId::new(0));
        let t0 = Instant::now();
        stats.record_write_set(client(1), t0, &[pid(1)], &[m]);
        stats.record_write_set(client(1), t0 + Duration::from_secs(10), &[pid(2)], &[m]);
        let (snaps, _) = stats.snapshot(&[pid(1)]);
        assert!(snaps[0].inter.partners.is_empty());
    }

    #[test]
    fn history_expiry_decrements_counts() {
        let mut cfg = config();
        cfg.history_capacity = 2;
        let stats = AccessStats::new(cfg, 2, 1);
        let m = Some(SiteId::new(0));
        let now = Instant::now();
        for _ in 0..5 {
            stats.record_write_set(client(1), now, &[pid(1), pid(2)], &[m, m]);
        }
        assert_eq!(stats.history_len(), 2);
        // Only two samples retained → counts reflect those two.
        assert_eq!(stats.partition_count(pid(1)), 2);
        let (_, load) = stats.snapshot(&[]);
        assert_eq!(load[0], 4.0);
    }

    #[test]
    fn remaster_moves_load_between_sites() {
        let stats = AccessStats::new(config(), 2, 1);
        let m0 = Some(SiteId::new(0));
        let now = Instant::now();
        stats.record_write_set(client(1), now, &[pid(1)], &[m0]);
        stats.record_write_set(client(1), now, &[pid(1)], &[m0]);
        stats.on_remaster(pid(1), SiteId::new(1));
        let (_, load) = stats.snapshot(&[]);
        assert_eq!(load, vec![0.0, 2.0]);
    }

    #[test]
    fn partner_table_is_bounded() {
        let mut cfg = config();
        cfg.max_partners = 2;
        let stats = AccessStats::new(cfg, 1, 1);
        let m = Some(SiteId::new(0));
        let now = Instant::now();
        stats.record_write_set(
            client(1),
            now,
            &[pid(1), pid(2), pid(3), pid(4)],
            &[m, m, m, m],
        );
        let (snaps, _) = stats.snapshot(&[pid(1)]);
        assert_eq!(snaps[0].intra.partners.len(), 2);
    }

    #[test]
    fn zero_sample_rate_records_nothing() {
        let mut cfg = config();
        cfg.sample_rate = 0.0;
        let stats = AccessStats::new(cfg, 1, 1);
        stats.record_write_set(
            client(1),
            Instant::now(),
            &[pid(1)],
            &[Some(SiteId::new(0))],
        );
        assert_eq!(stats.partition_count(pid(1)), 0);
    }

    #[test]
    fn inter_pairs_bump_by_window_multiplicity_and_expire_by_it() {
        let mut cfg = config();
        cfg.history_capacity = 3;
        let stats = AccessStats::new(cfg, 1, 1);
        let m = Some(SiteId::new(0));
        let t0 = Instant::now();
        // pid(1) occurs twice in the client's window when pid(2) arrives.
        stats.record_write_set(client(1), t0, &[pid(1)], &[m]);
        stats.record_write_set(client(1), t0, &[pid(1)], &[m]);
        stats.record_write_set(client(1), t0, &[pid(2)], &[m]);
        let (snaps, _) = stats.snapshot(&[pid(1)]);
        assert_eq!(snaps[0].load, 2.0);
        assert_eq!(snaps[0].inter.partners, vec![(pid(2), 1.0)]); // 2 of 2
                                                                  // Far outside Δt another client adds no pairs; capacity 3 expires the
                                                                  // first sample, which never contributed to the (1 → 2) pair.
        let later = t0 + Duration::from_secs(10);
        stats.record_write_set(client(2), later, &[pid(1)], &[m]);
        let (snaps, _) = stats.snapshot(&[pid(1)]);
        assert_eq!(snaps[0].load, 2.0);
        assert_eq!(snaps[0].inter.partners, vec![(pid(2), 1.0)]);
        // Expiring the pid(2) sample takes its weight-2 bump back in one
        // step while pid(1) itself is still counted.
        stats.record_write_set(client(3), later, &[pid(3)], &[m]);
        stats.record_write_set(client(4), later, &[pid(3)], &[m]);
        let (snaps, _) = stats.snapshot(&[pid(1)]);
        assert_eq!(snaps[0].load, 1.0);
        assert!(snaps[0].inter.partners.is_empty());
    }

    #[test]
    fn zero_window_tracks_no_inter_feature() {
        let mut cfg = config();
        cfg.inter_window = Duration::ZERO;
        let stats = AccessStats::new(cfg, 1, 1);
        let m = Some(SiteId::new(0));
        let now = Instant::now();
        stats.record_write_set(client(1), now, &[pid(1), pid(2)], &[m, m]);
        stats.record_write_set(client(1), now, &[pid(3)], &[m]);
        let (snaps, _) = stats.snapshot(&[pid(1)]);
        assert_eq!(snaps[0].intra.partners, vec![(pid(2), 1.0)]);
        assert!(snaps[0].inter.partners.is_empty());
        assert!(stats.inner.lock().windows.per_client.is_empty());
    }

    /// Regression: the per-client window map kept one stale set per client
    /// id forever. Sets now expire from one FIFO shared by all clients, so
    /// clients that never return are forgotten by the next record after Δt.
    #[test]
    fn one_shot_clients_are_forgotten_after_the_window() {
        let stats = AccessStats::new(config(), 1, 1);
        let m = Some(SiteId::new(0));
        let t0 = Instant::now();
        for c in 0..10_000 {
            stats.record_write_set(client(c), t0, &[pid(c % 7), pid(7)], &[m, m]);
        }
        let tracked = || stats.inner.lock().windows.per_client.len();
        assert_eq!(tracked(), 10_000);
        // One later record sweeps the window.
        let later = t0 + Duration::from_millis(250);
        stats.record_write_set(client(10_000), later, &[pid(1)], &[m]);
        assert_eq!(tracked(), 1);
        {
            let inner = stats.inner.lock();
            assert_eq!(inner.windows.sets.len(), 1);
            assert_eq!(inner.windows.members.len(), 1);
        }
        // And the sweeper goes the same way once its own Δt has passed.
        let much_later = later + Duration::from_millis(250);
        let mut inner = stats.inner.lock();
        let windows = &mut inner.windows;
        windows.advance(client(0), much_later, &[], Duration::from_millis(100));
        assert_eq!(
            windows.per_client.len(),
            1,
            "only the empty probe set remains"
        );
        assert!(windows.members.is_empty());
    }

    /// Regression: a router reads masters under shared map locks and
    /// records after dropping them. A record carrying the master from
    /// before a remaster used to pull the partition back to its old site,
    /// and expiry then decremented the new one, so per-site load leaked.
    #[test]
    fn a_stale_master_in_a_record_does_not_leak_site_load() {
        let mut cfg = config();
        cfg.history_capacity = 4;
        let stats = AccessStats::new(cfg, 2, 1);
        let (s0, s1) = (Some(SiteId::new(0)), Some(SiteId::new(1)));
        let now = Instant::now();
        stats.record_write_set(client(1), now, &[pid(1)], &[s0]);
        stats.record_write_set(client(1), now, &[pid(1)], &[s0]);
        stats.on_remaster(pid(1), SiteId::new(1));
        // Routed before the move, recorded after it.
        stats.record_write_set(client(1), now, &[pid(1)], &[s0]);
        stats.record_write_set(client(1), now, &[pid(1)], &[s1]);
        assert_eq!(stats.site_load(), vec![0.0, 4.0]);
        // Four records of another partition expire all of pid(1)'s.
        for _ in 0..4 {
            stats.record_write_set(client(2), now, &[pid(2)], &[s0]);
        }
        assert_eq!(stats.partition_count(pid(1)), 0);
        assert_eq!(stats.history_len(), 4);
        assert_eq!(stats.site_load(), vec![4.0, 0.0]);
    }

    /// The same race with threads: routers read a master under a shared
    /// lock, drop it and record, while a mover remasters under the
    /// exclusive lock and tells the tracker before releasing it. Per-site
    /// load must end equal to each partition's count at its final master.
    #[test]
    fn racing_remasters_keep_site_load_equal_to_counts_at_current_masters() {
        use parking_lot::RwLock;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;

        const SITES: usize = 3;
        const PARTS: usize = 8;
        const ROUTERS: usize = 3;
        let mut cfg = config();
        cfg.history_capacity = 64;
        cfg.inter_window = Duration::ZERO;
        let stats = AccessStats::new(cfg, SITES, 1);
        let map = RwLock::new(
            (0..PARTS)
                .map(|p| SiteId::new(p % SITES))
                .collect::<Vec<_>>(),
        );
        let done = AtomicBool::new(false);
        let start = Barrier::new(ROUTERS + 1);
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for r in 0..ROUTERS {
                let (stats, map, done, start) = (&stats, &map, &done, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut i = r;
                    while !done.load(Ordering::Relaxed) {
                        let p = i % PARTS;
                        let master = map.read()[p];
                        // The gap between dropping the map lock and
                        // recording, where a remaster can land.
                        std::thread::yield_now();
                        stats.record_write_set(client(r), t0, &[pid(p)], &[Some(master)]);
                        i += 1;
                    }
                });
            }
            start.wait();
            let mut rng = SmallRng::seed_from_u64(9);
            for _ in 0..20_000 {
                let p = rng.gen_range(0..PARTS);
                {
                    let mut masters = map.write();
                    masters[p] = SiteId::new((masters[p].as_usize() + 1) % SITES);
                    stats.on_remaster(pid(p), masters[p]);
                }
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
        });
        let masters = map.read();
        let mut want = vec![0.0; SITES];
        for (p, m) in masters.iter().enumerate() {
            want[m.as_usize()] += stats.partition_count(pid(p)) as f64;
        }
        assert_eq!(stats.site_load(), want);
    }

    /// At a rate strictly between 0 and 1 the one seeded RNG decides which
    /// records are sampled: the same seed and records give the same
    /// tracker, and the retained fraction is the rate.
    #[test]
    fn fractional_sample_rate_is_seeded_and_keeps_that_fraction() {
        const RECORDS: usize = 10_000;
        let mut cfg = config();
        cfg.sample_rate = 0.3;
        cfg.history_capacity = RECORDS;
        let trackers = [AccessStats::new(cfg, 2, 5), AccessStats::new(cfg, 2, 5)];
        let m = Some(SiteId::new(0));
        let now = Instant::now();
        for stats in &trackers {
            for i in 0..RECORDS {
                stats.record_write_set(client(1), now, &[pid(i % 16)], &[m]);
            }
        }
        let all: Vec<PartitionId> = (0..16).map(pid).collect();
        let counts = |stats: &AccessStats| -> Vec<u64> {
            all.iter().map(|&p| stats.partition_count(p)).collect()
        };
        assert_eq!(trackers[0].history_len(), trackers[1].history_len());
        assert_eq!(counts(&trackers[0]), counts(&trackers[1]));
        assert_eq!(trackers[0].site_load(), trackers[1].site_load());
        let kept = trackers[0].history_len() as f64 / RECORDS as f64;
        assert!((kept - 0.3).abs() <= 0.03, "kept {kept}");
        assert_eq!(
            counts(&trackers[0]).iter().sum::<u64>() as usize,
            trackers[0].history_len()
        );
    }

    /// Satellite #3: hammer `record_write_set` from 8 threads over
    /// overlapping write sets and check the merged counts equal a
    /// sequential replay of the same records. At `sample_rate = 1.0` with
    /// capacity bounds that never bind, every operation commutes, so the
    /// tracker must converge to the single-threaded ground truth.
    #[test]
    fn concurrent_records_merge_to_sequential_ground_truth() {
        use std::sync::Arc;

        const THREADS: usize = 8;
        const RECORDS_PER_THREAD: usize = 200;
        const POOL: usize = 32;

        let cfg = StatsConfig {
            sample_rate: 1.0,
            // Large enough that nothing expires and nothing truncates, so
            // the merged state is order-independent.
            history_capacity: THREADS * RECORDS_PER_THREAD + 1,
            inter_window: Duration::from_secs(60),
            max_partners: POOL,
        };
        let num_sites = 3;
        let t0 = Instant::now();

        // Overlapping write sets: thread t's i-th record touches four
        // partitions spread over a shared pool, each mastered by a fixed
        // site derived from the partition id.
        let record = |t: usize, i: usize| -> (Vec<PartitionId>, Vec<Option<SiteId>>) {
            let parts: Vec<PartitionId> = (0..4)
                .map(|k| pid((t * 7 + i * 13 + k * 5) % POOL))
                .collect();
            let mut parts = parts;
            parts.sort_unstable();
            parts.dedup();
            let masters = parts
                .iter()
                .map(|p| Some(SiteId::new((p.raw() % num_sites as u64) as usize)))
                .collect();
            (parts, masters)
        };

        let concurrent = Arc::new(AccessStats::new(cfg, num_sites, 42));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let stats = Arc::clone(&concurrent);
                scope.spawn(move || {
                    for i in 0..RECORDS_PER_THREAD {
                        let (parts, masters) = record(t, i);
                        // One client per thread keeps the inter-transaction
                        // pair stream deterministic per thread.
                        stats.record_write_set(client(t), t0, &parts, &masters);
                    }
                });
            }
        });

        let sequential = AccessStats::new(cfg, num_sites, 42);
        for t in 0..THREADS {
            for i in 0..RECORDS_PER_THREAD {
                let (parts, masters) = record(t, i);
                sequential.record_write_set(client(t), t0, &parts, &masters);
            }
        }

        let all: Vec<PartitionId> = (0..POOL).map(pid).collect();
        let (got_snaps, got_load) = concurrent.snapshot(&all);
        let (want_snaps, want_load) = sequential.snapshot(&all);
        assert_eq!(got_load, want_load);
        assert_eq!(concurrent.history_len(), sequential.history_len());
        for (p, (got, want)) in all.iter().zip(got_snaps.iter().zip(&want_snaps)) {
            assert_eq!(got.load, want.load, "count diverged for {p:?}");
            let sorted = |probs: &PartnerProbs| {
                let mut v = probs.partners.clone();
                v.sort_by_key(|(p, _)| *p);
                v
            };
            assert_eq!(
                sorted(&got.intra),
                sorted(&want.intra),
                "intra diverged for {p:?}"
            );
            assert_eq!(
                sorted(&got.inter),
                sorted(&want.inter),
                "inter diverged for {p:?}"
            );
        }
    }
}
