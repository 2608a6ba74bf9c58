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
//! Every router thread calls [`AccessStats::record_write_set`] on the
//! selector hot path, so the tracker is lock-striped rather than guarded by
//! one mutex (see DESIGN.md, "Selector concurrency model"):
//!
//! * **Partition shards.** Per-partition state (write counts and co-access
//!   partner tables) lives in [`SHARD_COUNT`] shards keyed by a Fibonacci
//!   hash of the partition id. A co-access pair `(from, to)` is stored with
//!   `from`, so recording touches one shard at a time — shard locks never
//!   nest and the lock order is trivially acyclic.
//! * **Per-site load counters** are plain atomics (`fetch_add` on record,
//!   saturating CAS decrement on expiry/remaster).
//! * **Client Δt windows.** Each client's in-window write sets are kept as
//!   a *multiset* (partition → occurrences), maintained incrementally as
//!   sets are appended and expire, so Eq. 7's pairing costs one bump *by
//!   that multiplicity* per distinct in-window partition instead of one
//!   bump per earlier occurrence — count-for-count the same tables at
//!   `O(distinct in-window partitions × |ws|)` rather than
//!   `O(rate · Δt · |ws|²)`. The windows are striped by client id; one
//!   stripe lock covers a record's prune-pair-append, and sets expire from
//!   a stripe-wide FIFO so a client that never returns is forgotten by its
//!   stripe neighbours' next record. A zero `inter_window` means the
//!   inter-transaction feature is not tracked at all (the selector passes
//!   it when Eq. 8's `inter_txn` weight is zero and the numbers would never
//!   be read).
//! * **One probe per pair.** Maps keyed by partition or client id use the
//!   integer `IntMap` hasher, not SipHash. Pairs travel in runs that share
//!   their `from` side, so recording and expiring look a `from`
//!   partition's `PartStats` up once per run and probe its partner table
//!   once per pair. On TPC-C write sets (≈ 490 pairs a record) that is
//!   ≈ 15 ns a pair, down from ≈ 57 ns with three SipHash lookups each
//!   (2-vCPU x86-64 VM; DESIGN.md §7).
//! * **Epoch-style history flush.** The hot path appends the sample to its
//!   home shard's pending buffer; history-queue maintenance (FIFO ordering
//!   and expiry decrements) runs in batched flushes — opportunistic
//!   (`try_lock`) once enough samples are pending, forced (blocking) by
//!   every read. Counts are therefore bumped eagerly and decremented
//!   lazily; any read observes exact post-expiry values because it flushes
//!   first. Samples carry a global admission sequence number and flushes
//!   sort by it, so expiry is exactly FIFO for sequential use; under
//!   concurrent recording a not-yet-parked earlier sample can be overtaken,
//!   which only reorders *which* sample's counts drop first — the retained
//!   total is unchanged.
//! * **Sampling RNGs** are per-shard (seeded from the tracker seed and the
//!   shard index), so sampling at rates in `(0, 1)` stays deterministic per
//!   shard but draws no global lock. Rates `0.0` and `1.0` short-circuit
//!   without touching an RNG.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dynamast_common::hash::IntMap;
use dynamast_common::ids::{ClientId, PartitionId, SiteId};
use parking_lot::{Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of partition-state shards. Power of two; 32 shards keep the
/// per-shard collision probability low for typical router thread counts
/// (≤ 16) without bloating the struct.
const SHARD_COUNT: usize = 32;

/// Number of client-recency stripes (power of two).
const CLIENT_STRIPES: usize = 16;

/// Pending samples across all shards that trigger an opportunistic
/// (non-blocking) history flush from the record path.
const FLUSH_PENDING_THRESHOLD: usize = 256;

/// Backlog at which the record path flushes *blocking* instead. Opportunistic
/// flushing alone is unbounded when the flushing thread is starved of CPU
/// (oversubscribed cores): every other recorder's `try_lock` skips while the
/// backlog grows. Backpressure at 64× the opportunistic threshold caps both
/// the memory held in pending buffers and the size of any single drain.
const FLUSH_BACKPRESSURE_CAP: usize = 64 * FLUSH_PENDING_THRESHOLD;

fn shard_of(partition: PartitionId) -> usize {
    // Fibonacci hashing: multiply by 2^64/φ and keep the top bits.
    (partition.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_COUNT.trailing_zeros()))
        as usize
}

fn stripe_of(client: ClientId) -> usize {
    (client.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CLIENT_STRIPES.trailing_zeros()))
        as usize
}

/// Decrements an atomic counter without wrapping below zero.
fn saturating_dec(counter: &AtomicU64, amount: u64) {
    let mut current = counter.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_sub(amount);
        match counter.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

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
    /// Global admission order, assigned at record time so flushes can
    /// restore FIFO across shards.
    seq: u64,
    partitions: Vec<PartitionId>,
    /// `(from, to)`, in runs that share a `from`.
    intra_pairs: Vec<(PartitionId, PartitionId)>,
    /// `(from, to, weight)`, in runs that share a `from`: the pair was
    /// bumped by `weight`, the number of times `from` occurred in the
    /// client's Δt window.
    inter_pairs: Vec<(PartitionId, PartitionId, u64)>,
}

/// One lock-striped shard of partition state plus its pending sample buffer
/// and sampling RNG.
struct Shard {
    rng: SmallRng,
    parts: IntMap<PartitionId, PartStats>,
    pending: Vec<Sample>,
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

/// One stripe of the per-client Δt windows.
#[derive(Default)]
struct ClientStripe {
    /// `(time, client, set length)` of every in-window write set in append
    /// order. Stripe-wide rather than per client, so expiry needs no visit
    /// from the set's own client.
    sets: VecDeque<(Instant, ClientId, usize)>,
    /// The partitions of those sets, flattened in the same order.
    members: VecDeque<PartitionId>,
    /// Per client: partition → occurrences among its in-window sets.
    windows: IntMap<ClientId, IntMap<PartitionId, u64>>,
}

impl ClientStripe {
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
                .windows
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
                self.windows.remove(&owner);
            }
        }
        let counts = self.windows.entry(client).or_default();
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

/// Holds at most one shard lock while a record walks its partitions, so
/// consecutive partitions of one shard share an acquisition and shard locks
/// still never nest.
struct ShardCursor<'a> {
    shards: &'a [Mutex<Shard>],
    held: Option<(usize, MutexGuard<'a, Shard>)>,
}

impl ShardCursor<'_> {
    fn at(&mut self, index: usize) -> &mut Shard {
        if self.held.as_ref().map(|(held, _)| *held) != Some(index) {
            // Release before acquiring.
            self.held = None;
        }
        let shards = self.shards;
        &mut self
            .held
            .get_or_insert_with(|| (index, shards[index].lock()))
            .1
    }
}

/// The selector's statistics tracker.
pub struct AccessStats {
    config: StatsConfig,
    shards: Vec<Mutex<Shard>>,
    site_load: Vec<AtomicU64>,
    recent: Vec<Mutex<ClientStripe>>,
    history: Mutex<VecDeque<Sample>>,
    pending_total: AtomicUsize,
    next_seq: AtomicU64,
}

impl AccessStats {
    /// Creates a tracker.
    pub fn new(config: StatsConfig, num_sites: usize, seed: u64) -> Self {
        AccessStats {
            config,
            shards: (0..SHARD_COUNT)
                .map(|i| {
                    Mutex::new(Shard {
                        rng: SmallRng::seed_from_u64(seed.wrapping_add(i as u64)),
                        parts: IntMap::default(),
                        pending: Vec::new(),
                    })
                })
                .collect(),
            site_load: (0..num_sites).map(|_| AtomicU64::new(0)).collect(),
            recent: (0..CLIENT_STRIPES)
                .map(|_| Mutex::new(ClientStripe::default()))
                .collect(),
            history: Mutex::new(VecDeque::with_capacity(config.history_capacity + 1)),
            pending_total: AtomicUsize::new(0),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Records one routed write set. `masters[i]` is the current master of
    /// `partitions[i]` (the selector's view at routing time).
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
        let home = shard_of(partitions.first().copied().unwrap_or(PartitionId::new(0)));
        if rate < 1.0 && !self.shards[home].lock().rng.gen_bool(rate) {
            return;
        }

        // The client's write sets within Δt predict this one; one stripe lock
        // covers the prune, the pairing, and the append.
        let window = self.config.inter_window;
        let candidates = if window.is_zero() {
            Vec::new()
        } else {
            self.recent[stripe_of(client)]
                .lock()
                .advance(client, now, partitions, window)
        };

        // Count the sample BEFORE parking it: a concurrent flusher subtracts
        // exactly the samples it drains, and every drained sample must
        // already be counted or the counter would underflow and wedge the
        // threshold check at "always flush".
        self.pending_total.fetch_add(1, Ordering::Relaxed);

        let max_partners = self.config.max_partners;
        // Allocate before any shard lock is taken; the critical sections
        // stay counter bumps and pushes.
        let n = partitions.len();
        let sample_partitions = partitions.to_vec();
        let mut intra_pairs = Vec::with_capacity(n * n.saturating_sub(1));
        let mut inter_pairs = Vec::with_capacity(candidates.len());
        let mut cursor = ShardCursor {
            shards: &self.shards,
            held: None,
        };
        // Pairs are keyed by their `from` side and arrive in runs of one
        // `from`: one lookup per run, then keep the admitted pairs.
        for run in candidates.chunk_by(|a, b| a.0 == b.0) {
            let from = run[0].0;
            let table = &mut cursor
                .at(shard_of(from))
                .parts
                .entry(from)
                .or_default()
                .inter;
            inter_pairs.extend(
                run.iter()
                    .copied()
                    .filter(|&(_, to, weight)| bump_partner(table, to, weight, max_partners)),
            );
        }
        // Write-set partitions last and in reverse, so the walk ends on the
        // home shard and the sample parks under the lock already held — one
        // acquisition in all for a write set that stays within one shard.
        for (&p1, master) in partitions.iter().zip(masters).rev() {
            let stats = cursor.at(shard_of(p1)).parts.entry(p1).or_default();
            stats.count += 1;
            stats.master = *master;
            if let Some(m) = master {
                self.site_load[m.as_usize()].fetch_add(1, Ordering::Relaxed);
            }
            for &p2 in partitions {
                if p1 != p2 && bump_partner(&mut stats.intra, p2, 1, max_partners) {
                    intra_pairs.push((p1, p2));
                }
            }
        }
        // Defer history maintenance: a batched flush applies FIFO expiry.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        cursor.at(home).pending.push(Sample {
            seq,
            partitions: sample_partitions,
            intra_pairs,
            inter_pairs,
        });
        drop(cursor);

        let pending = self.pending_total.load(Ordering::Relaxed);
        if pending >= FLUSH_BACKPRESSURE_CAP {
            self.flush();
        } else if pending >= FLUSH_PENDING_THRESHOLD {
            self.try_flush();
        }
    }

    /// The selector's view of a partition's master must move when the
    /// partition is remastered, so the per-site load aggregate stays
    /// consistent.
    pub fn on_remaster(&self, partition: PartitionId, to: SiteId) {
        let (count, old) = {
            let mut shard = self.shards[shard_of(partition)].lock();
            let Some(stats) = shard.parts.get_mut(&partition) else {
                return;
            };
            let old = stats.master;
            stats.master = Some(to);
            (stats.count, old)
        };
        if let Some(m) = old {
            saturating_dec(&self.site_load[m.as_usize()], count);
        }
        self.site_load[to.as_usize()].fetch_add(count, Ordering::Relaxed);
    }

    /// Scoring snapshot for the write-set partitions plus the per-site load
    /// aggregate.
    pub fn snapshot(&self, partitions: &[PartitionId]) -> (Vec<PartitionSnapshot>, Vec<f64>) {
        self.flush();
        let snaps = partitions
            .iter()
            .map(|p| {
                let shard = self.shards[shard_of(*p)].lock();
                match shard.parts.get(p) {
                    None => PartitionSnapshot::default(),
                    Some(stats) => PartitionSnapshot {
                        load: stats.count as f64,
                        intra: probs(&stats.intra, stats.count),
                        inter: probs(&stats.inter, stats.count),
                    },
                }
            })
            .collect();
        let load = self
            .site_load
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as f64)
            .collect();
        (snaps, load)
    }

    /// Cheap unflushed per-site load read for trigger heuristics (the epoch
    /// batcher's imbalance probe). Sampled writes still buffered in the
    /// history window are not included; callers needing exact figures use
    /// [`AccessStats::snapshot`].
    pub fn approx_site_load(&self) -> Vec<f64> {
        self.site_load
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as f64)
            .collect()
    }

    /// The tracked write count of one partition (tests/diagnostics).
    pub fn partition_count(&self, partition: PartitionId) -> u64 {
        self.flush();
        self.shards[shard_of(partition)]
            .lock()
            .parts
            .get(&partition)
            .map_or(0, |s| s.count)
    }

    /// Current history-queue length (tests/diagnostics).
    pub fn history_len(&self) -> usize {
        self.flush();
        self.history.lock().len()
    }

    /// Blocking flush: drains every shard's pending samples into the
    /// history queue and applies expiry. Reads call this so they observe
    /// exact post-expiry counts.
    fn flush(&self) {
        let mut history = self.history.lock();
        self.drain_into(&mut history);
    }

    /// Non-blocking flush for the record path; skips if another thread is
    /// already flushing (that thread will pick up these samples).
    fn try_flush(&self) {
        if let Some(mut history) = self.history.try_lock() {
            self.drain_into(&mut history);
        }
    }

    fn drain_into(&self, history: &mut VecDeque<Sample>) {
        let mut drained = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock();
            drained.append(&mut shard.pending);
        }
        if drained.is_empty() {
            return;
        }
        // Saturating: a racing recorder may have parked a sample between
        // our shard sweeps and its own (already-counted) increment, but the
        // counter must never wrap below zero.
        let n = drained.len();
        let _ = self
            .pending_total
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
        // Restore global admission order across shards so expiry stays
        // FIFO; exact whenever all earlier samples have been parked, which
        // sequential use and forced reads always guarantee.
        drained.sort_unstable_by_key(|s| s.seq);
        let mut expired = Vec::new();
        for sample in drained {
            history.push_back(sample);
            while history.len() > self.config.history_capacity {
                if let Some(old) = history.pop_front() {
                    expired.push(old);
                }
            }
        }
        self.expire_batch(&expired);
    }

    /// Decrements every count the retired samples contributed. Cold path:
    /// runs only inside flushes. Decrements are bucketed by shard so each
    /// shard is locked once per batch rather than once per sample — routing
    /// threads contend with at most one short lock hold per shard per flush
    /// — and a pair run costs one `PartStats` lookup.
    fn expire_batch(&self, expired: &[Sample]) {
        enum Dec<'a> {
            Count(PartitionId),
            Intra(&'a [(PartitionId, PartitionId)]),
            Inter(&'a [(PartitionId, PartitionId, u64)]),
        }
        // Decrements commute, so ordering within a shard is irrelevant.
        let mut buckets: Vec<Vec<Dec>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for sample in expired {
            for &p in &sample.partitions {
                buckets[shard_of(p)].push(Dec::Count(p));
            }
            for run in sample.intra_pairs.chunk_by(|a, b| a.0 == b.0) {
                buckets[shard_of(run[0].0)].push(Dec::Intra(run));
            }
            for run in sample.inter_pairs.chunk_by(|a, b| a.0 == b.0) {
                buckets[shard_of(run[0].0)].push(Dec::Inter(run));
            }
        }
        for (shard, decs) in self.shards.iter().zip(&buckets) {
            if decs.is_empty() {
                continue;
            }
            let mut shard = shard.lock();
            for dec in decs {
                match *dec {
                    Dec::Count(p) => {
                        if let Some(stats) = shard.parts.get_mut(&p) {
                            stats.count = stats.count.saturating_sub(1);
                            if let Some(m) = stats.master {
                                saturating_dec(&self.site_load[m.as_usize()], 1);
                            }
                        }
                    }
                    Dec::Intra(run) => {
                        if let Some(stats) = shard.parts.get_mut(&run[0].0) {
                            for (_, to) in run {
                                decrement_partner(&mut stats.intra, to, 1);
                            }
                        }
                    }
                    Dec::Inter(run) => {
                        if let Some(stats) = shard.parts.get_mut(&run[0].0) {
                            for (_, to, weight) in run {
                                decrement_partner(&mut stats.inter, to, *weight);
                            }
                        }
                    }
                }
            }
        }
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
        assert!(stats.recent.iter().all(|s| s.lock().windows.is_empty()));
    }

    /// Regression: the per-client window map kept one stale set per client
    /// id forever. Sets now expire from a stripe-wide FIFO, so clients that
    /// never return are forgotten by the next record that lands on their
    /// stripe after Δt.
    #[test]
    fn one_shot_clients_are_forgotten_after_the_window() {
        let stats = AccessStats::new(config(), 1, 1);
        let m = Some(SiteId::new(0));
        let t0 = Instant::now();
        for c in 0..10_000 {
            stats.record_write_set(client(c), t0, &[pid(c % 7), pid(7)], &[m, m]);
        }
        let tracked = || -> usize { stats.recent.iter().map(|s| s.lock().windows.len()).sum() };
        assert_eq!(tracked(), 10_000);
        // One later record per stripe sweeps the stripe.
        let later = t0 + Duration::from_millis(250);
        let mut swept = [false; CLIENT_STRIPES];
        let mut sweepers = 0;
        for c in 10_000.. {
            if swept.iter().all(|s| *s) {
                break;
            }
            if !std::mem::replace(&mut swept[stripe_of(client(c))], true) {
                stats.record_write_set(client(c), later, &[pid(1)], &[m]);
                sweepers += 1;
            }
        }
        assert_eq!(tracked(), sweepers);
        for stripe in &stats.recent {
            let stripe = stripe.lock();
            assert_eq!(stripe.sets.len(), 1);
            assert_eq!(stripe.members.len(), 1);
        }
        // And the sweepers go the same way once their own Δt has passed.
        let much_later = later + Duration::from_millis(250);
        for stripe in &stats.recent {
            let mut stripe = stripe.lock();
            stripe.advance(client(0), much_later, &[], Duration::from_millis(100));
            assert_eq!(stripe.windows.len(), 1, "only the empty probe set remains");
            assert!(stripe.members.is_empty());
        }
    }

    /// Satellite #3: hammer `record_write_set` from 8 threads over
    /// overlapping write sets and check the merged counts equal a
    /// sequential replay of the same records. At `sample_rate = 1.0` with
    /// capacity bounds that never bind, every operation commutes, so the
    /// sharded tracker must converge to the single-threaded ground truth.
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
