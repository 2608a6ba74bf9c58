//! Property-based tests for the site selector's strategy model and
//! statistics tracker.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use dynamast_common::ids::{partition_id, ClientId, PartitionId, SiteId, TableId};
use dynamast_common::{StrategyWeights, VersionVector};
use dynamast_core::stats::{AccessStats, StatsConfig};
use dynamast_core::strategy::{best_site, score_sites, CoAccess, ScoreInputs};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn weights_strategy() -> impl Strategy<Value = StrategyWeights> {
    (0.0..10_000.0f64, 0.0..2.0f64, 0.0..5.0f64, 0.0..5.0f64).prop_map(
        |(balance, delay, intra, inter)| StrategyWeights {
            balance,
            delay,
            intra_txn: intra,
            inter_txn: inter,
        },
    )
}

proptest! {
    /// Scoring is total: every candidate gets a finite score, and the argmax
    /// is a valid site.
    #[test]
    fn scores_are_finite_and_argmax_valid(
        weights in weights_strategy(),
        site_load in prop::collection::vec(0.0..1000.0f64, 4),
        partition_load in prop::collection::vec(0.0..50.0f64, 1..4),
        masters in prop::collection::vec(prop::option::of(0usize..4), 1..4),
    ) {
        let n = partition_load.len().min(masters.len());
        let partitions: Vec<(PartitionId, Option<SiteId>)> = (0..n)
            .map(|i| (PartitionId::new(i), masters[i].map(SiteId::new)))
            .collect();
        let partition_load = partition_load[..n].to_vec();
        let empty: Vec<Vec<CoAccess>> = vec![Vec::new(); n];
        let site_vvs: Vec<VersionVector> = (0..4).map(|_| VersionVector::zero(4)).collect();
        let cvv = VersionVector::zero(4);
        let scores = score_sites(&ScoreInputs {
            num_sites: 4,
            weights: &weights,
            partitions: &partitions,
            partition_load: &partition_load,
            site_load: &site_load,
            intra: &empty,
            inter: &empty,
            site_vvs: &site_vvs,
            cvv: &cvv,
        });
        prop_assert_eq!(scores.len(), 4);
        for s in &scores {
            prop_assert!(s.is_finite(), "non-finite score: {scores:?}");
        }
        prop_assert!(best_site(&scores).as_usize() < 4);
    }

    /// With only the balance feature active, the least-loaded site always
    /// wins for an unplaced partition.
    #[test]
    fn balance_only_picks_least_loaded(
        mut site_load in prop::collection::vec(1.0..1000.0f64, 4),
        load in 1.0..20.0f64,
    ) {
        // Make the minimum unique so the argmax is deterministic.
        let min_idx = site_load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        site_load[min_idx] *= 0.5;
        let weights = StrategyWeights {
            balance: 1.0,
            delay: 0.0,
            intra_txn: 0.0,
            inter_txn: 0.0,
        };
        let partitions = [(PartitionId::new(0), None)];
        let partition_load = [load];
        let empty: Vec<Vec<CoAccess>> = vec![Vec::new()];
        let site_vvs: Vec<VersionVector> = (0..4).map(|_| VersionVector::zero(4)).collect();
        let cvv = VersionVector::zero(4);
        let scores = score_sites(&ScoreInputs {
            num_sites: 4,
            weights: &weights,
            partitions: &partitions,
            partition_load: &partition_load,
            site_load: &site_load,
            intra: &empty,
            inter: &empty,
            site_vvs: &site_vvs,
            cvv: &cvv,
        });
        prop_assert_eq!(best_site(&scores).as_usize(), min_idx, "{:?} {:?}", scores, site_load);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The statistics tracker's counts never go negative and the history
    /// queue never exceeds its capacity, regardless of access pattern.
    #[test]
    fn stats_counts_stay_consistent(
        accesses in prop::collection::vec(
            (0u64..8, prop::collection::vec(0usize..12, 1..4)),
            1..200,
        ),
        capacity in 1usize..50,
    ) {
        let stats = AccessStats::new(
            StatsConfig {
                sample_rate: 1.0,
                history_capacity: capacity,
                inter_window: Duration::from_millis(50),
                max_partners: 4,
            },
            2,
            42,
        );
        let now = Instant::now();
        for (client, parts) in &accesses {
            let mut partitions: Vec<PartitionId> =
                parts.iter().map(|p| PartitionId::new(*p)).collect();
            partitions.sort_unstable();
            partitions.dedup();
            let masters = vec![Some(SiteId::new(0)); partitions.len()];
            stats.record_write_set(ClientId::new(*client as usize), now, &partitions, &masters);
        }
        prop_assert!(stats.history_len() <= capacity);
        // Total retained mass equals the sum over retained samples.
        let (_, site_load) = stats.snapshot(&[]);
        let retained: f64 = site_load.iter().sum();
        prop_assert!(retained >= 0.0);
        let max_possible: usize = accesses
            .iter()
            .rev()
            .take(capacity)
            .map(|(_, p)| {
                let mut q = p.clone();
                q.sort_unstable();
                q.dedup();
                q.len()
            })
            .sum();
        prop_assert!(retained as usize <= max_possible, "{retained} > {max_possible}");
    }
}

const MODEL_SITES: usize = 3;
const MODEL_PARTITIONS: usize = 10;

fn model_master(p: PartitionId) -> SiteId {
    SiteId::new(p.raw() as usize % MODEL_SITES)
}

type PartnerTables = HashMap<PartitionId, HashMap<PartitionId, u64>>;
type Pair = (PartitionId, PartitionId);

/// The model's partition → master map: `model_master` until a remaster op
/// moves a partition.
#[derive(Default)]
struct ModelMasters(HashMap<PartitionId, SiteId>);

impl ModelMasters {
    fn of(&self, p: PartitionId) -> SiteId {
        self.0.get(&p).copied().unwrap_or_else(|| model_master(p))
    }

    /// Moves `p` to `to` in the model and in the tracker, as the remaster
    /// executor does under the partition's exclusive lock.
    fn remaster(&mut self, stats: &AccessStats, p: PartitionId, to: SiteId) {
        self.0.insert(p, to);
        stats.on_remaster(p, to);
    }
}

/// Naive reference for `AccessStats`: pairs a write set with every earlier
/// in-window *occurrence* of the client's partitions, one bump each, and
/// expires the same way — the pairing the tracker did before it kept the
/// window as a multiset. Expiry follows the paper: the record that pushes
/// the history past capacity takes back what the oldest sample added.
#[derive(Default)]
struct NaiveStats {
    count: HashMap<PartitionId, u64>,
    intra: PartnerTables,
    inter: PartnerTables,
    recent: HashMap<u64, Vec<(Duration, Vec<PartitionId>)>>,
    history: VecDeque<(Vec<PartitionId>, Vec<Pair>, Vec<Pair>)>,
}

impl NaiveStats {
    fn bump(tables: &mut PartnerTables, (from, to): Pair, max_partners: usize) -> bool {
        let table = tables.entry(from).or_default();
        if table.len() >= max_partners && !table.contains_key(&to) {
            return false;
        }
        *table.entry(to).or_insert(0) += 1;
        true
    }

    fn record(&mut self, client: u64, at: Duration, parts: &[PartitionId], config: &StatsConfig) {
        let sets = self.recent.entry(client).or_default();
        let previous: Vec<PartitionId> = sets
            .iter()
            .filter(|(t, _)| at - *t <= config.inter_window)
            .flat_map(|(_, set)| set.iter().copied())
            .collect();
        sets.push((at, parts.to_vec()));
        for p in parts {
            *self.count.entry(*p).or_insert(0) += 1;
        }
        let (mut intra, mut inter) = (Vec::new(), Vec::new());
        for &p1 in parts {
            for &p2 in parts {
                if p1 != p2 && Self::bump(&mut self.intra, (p1, p2), config.max_partners) {
                    intra.push((p1, p2));
                }
            }
        }
        for &p_old in &previous {
            for &p_new in parts {
                if p_old != p_new
                    && Self::bump(&mut self.inter, (p_old, p_new), config.max_partners)
                {
                    inter.push((p_old, p_new));
                }
            }
        }
        self.history.push_back((parts.to_vec(), intra, inter));
        while self.history.len() > config.history_capacity {
            let (parts, intra, inter) = self.history.pop_front().expect("over capacity");
            for p in parts {
                *self.count.get_mut(&p).expect("counted") -= 1;
            }
            for (tables, pairs) in [(&mut self.intra, intra), (&mut self.inter, inter)] {
                for (from, to) in pairs {
                    let table = tables.get_mut(&from).expect("bumped");
                    let c = table.get_mut(&to).expect("bumped");
                    *c -= 1;
                    if *c == 0 {
                        table.remove(&to);
                    }
                }
            }
        }
    }

    fn probabilities(&self, tables: &PartnerTables, p: PartitionId) -> Vec<(PartitionId, f64)> {
        let total = self.count.get(&p).copied().unwrap_or(0);
        let mut out: Vec<(PartitionId, f64)> = match tables.get(&p) {
            Some(table) if total > 0 => table
                .iter()
                .map(|(to, c)| (*to, *c as f64 / total as f64))
                .collect(),
            _ => Vec::new(),
        };
        out.sort_by_key(|(to, _)| *to);
        out
    }

    /// Asserts the tracker matches the model over `all` partitions:
    /// loads, partner probabilities, history length, and per-site load
    /// equal to the counts grouped by the model's masters.
    fn check(
        &self,
        stats: &AccessStats,
        masters: &ModelMasters,
        all: &[PartitionId],
        op: usize,
    ) -> Result<(), TestCaseError> {
        let (snaps, site_load) = stats.snapshot(all);
        let mut want_load = vec![0.0; MODEL_SITES];
        for (p, snap) in all.iter().zip(&snaps) {
            let count = self.count.get(p).copied().unwrap_or(0);
            prop_assert_eq!(snap.load, count as f64, "load of {:?} after op {}", p, op);
            want_load[masters.of(*p).as_usize()] += count as f64;
            prop_assert_eq!(
                &snap.intra.partners,
                &self.probabilities(&self.intra, *p),
                "intra of {:?} after op {}",
                p,
                op
            );
            prop_assert_eq!(
                &snap.inter.partners,
                &self.probabilities(&self.inter, *p),
                "inter of {:?} after op {}",
                p,
                op
            );
        }
        prop_assert_eq!(&site_load, &want_load, "site load after op {}", op);
        prop_assert_eq!(stats.site_load(), want_load);
        prop_assert_eq!(stats.history_len(), self.history.len());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The multiset Δt window with multiplicity bumps is count-for-count the
    /// per-occurrence pairing: identical loads, intra and inter partner
    /// probabilities and per-site load at every read, across several
    /// clients, windows that expire mid-sequence, a history small enough to
    /// expire samples, partner tables small enough to saturate, and
    /// remasters between records.
    #[test]
    fn multiset_window_matches_per_occurrence_reference(
        ops in prop::collection::vec(
            (
                (0u64..4, 0u64..40),
                prop::collection::vec(0usize..MODEL_PARTITIONS, 1..5),
                any::<bool>(),
                (0u8..4, 0usize..MODEL_PARTITIONS, 0usize..MODEL_SITES),
            ),
            1..150,
        ),
        capacity in 1usize..30,
        max_partners in 1usize..4,
    ) {
        let config = StatsConfig {
            sample_rate: 1.0,
            history_capacity: capacity,
            inter_window: Duration::from_millis(50),
            max_partners,
        };
        let stats = AccessStats::new(config, MODEL_SITES, 7);
        let mut model = NaiveStats::default();
        let mut masters = ModelMasters::default();
        let all: Vec<PartitionId> = (0..MODEL_PARTITIONS).map(PartitionId::new).collect();
        let t0 = Instant::now();
        let mut at = Duration::ZERO;
        let last = ops.len() - 1;
        for (i, ((client, dt_ms), parts, read, (remaster, p, to))) in ops.iter().enumerate() {
            if *remaster == 0 {
                masters.remaster(&stats, PartitionId::new(*p), SiteId::new(*to));
            }
            at += Duration::from_millis(*dt_ms);
            // Sorted like a routed write set, but repeats are left in.
            let mut parts: Vec<PartitionId> = parts.iter().map(|p| PartitionId::new(*p)).collect();
            parts.sort_unstable();
            let routed: Vec<Option<SiteId>> = parts.iter().map(|p| Some(masters.of(*p))).collect();
            stats.record_write_set(ClientId::new(*client as usize), t0 + at, &parts, &routed);
            model.record(*client, at, &parts, &config);
            if *read || i == last {
                model.check(&stats, &masters, &all, i)?;
            }
        }
    }
}

const TPCC_TABLES: usize = 6;
const TPCC_INDEXES: u64 = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same reference at TPC-C's shape: packed `partition_id(table,
    /// index)` ids over six tables (72 partitions, so 64-wide partner tables
    /// saturate), sorted and deduplicated write sets of 5–20 partitions,
    /// and two to four clients that each put 20+ sets inside one 100 ms Δt
    /// window (≈ 1 ms between records), with windows expiring mid-sequence,
    /// a history small enough to expire samples, and remasters between
    /// records.
    #[test]
    fn multiset_window_matches_per_occurrence_reference_at_tpcc_shape(
        clients in 2u64..5,
        ops in prop::collection::vec(
            (
                (0u64..4, 0u64..3),
                prop::collection::btree_set((0usize..TPCC_TABLES, 0u64..TPCC_INDEXES), 5..21),
                0u8..8,
                (0u8..4, (0usize..TPCC_TABLES, 0u64..TPCC_INDEXES), 0usize..MODEL_SITES),
            ),
            60..140,
        ),
        capacity in 8usize..80,
        max_partners in 1usize..65,
    ) {
        let config = StatsConfig {
            sample_rate: 1.0,
            history_capacity: capacity,
            inter_window: Duration::from_millis(100),
            max_partners,
        };
        let stats = AccessStats::new(config, MODEL_SITES, 7);
        let mut model = NaiveStats::default();
        let mut masters = ModelMasters::default();
        let all: Vec<PartitionId> = (0..TPCC_TABLES)
            .flat_map(|t| (0..TPCC_INDEXES).map(move |i| partition_id(TableId::new(t), i)))
            .collect();
        let t0 = Instant::now();
        let mut at = Duration::ZERO;
        let last = ops.len() - 1;
        for (i, ((client, dt_ms), set, read, (remaster, (table, index), to))) in
            ops.iter().enumerate()
        {
            if *remaster == 0 {
                let p = partition_id(TableId::new(*table), *index);
                masters.remaster(&stats, p, SiteId::new(*to));
            }
            at += Duration::from_millis(*dt_ms);
            let client = client % clients;
            // A routed write set: sorted by packed id, no repeats.
            let parts: Vec<PartitionId> = set
                .iter()
                .map(|&(t, index)| partition_id(TableId::new(t), index))
                .collect();
            let routed: Vec<Option<SiteId>> = parts.iter().map(|p| Some(masters.of(*p))).collect();
            stats.record_write_set(ClientId::new(client as usize), t0 + at, &parts, &routed);
            model.record(client, at, &parts, &config);
            if *read == 0 || i == last {
                model.check(&stats, &masters, &all, i)?;
            }
        }
    }
}
