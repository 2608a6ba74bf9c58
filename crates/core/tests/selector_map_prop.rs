//! Property test (offline `proptest` shim): selector-map recovery over *any*
//! prefix of a remaster history — including prefixes cut mid-remaster,
//! between a sub-step's table update and its log append — yields a map in
//! which every partition has exactly one master and no live ownership table
//! is contradicted.
//!
//! The model mirrors the data sites' real write ordering: a site updates its
//! ownership table *before* appending the durable record, so each remaster
//! `p: a → b` is four sub-steps:
//!
//! 1. `a`'s table drops `p`
//! 2. `a`'s log appends `Release { p, epoch }`
//! 3. `b`'s table adds `p`
//! 4. `b`'s log appends `Grant { p, epoch }`
//!
//! A selector crash can truncate the history after any sub-step; promotion
//! recovers from exactly what remains (`recover_selector_map`).

use std::collections::{BTreeSet, HashMap};

use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_core::recovery::recover_selector_map;
use dynamast_replication::record::LogRecord;
use dynamast_replication::LogSet;
use proptest::prelude::*;

const NUM_SITES: usize = 3;
const NUM_PARTITIONS: usize = 6;

/// Replays `ops` up to the truncation point into (logs, live tables),
/// mirroring the sites' table-before-log write order.
struct Model {
    logs: LogSet,
    tables: Vec<BTreeSet<PartitionId>>,
    sequences: Vec<u64>,
    owners: HashMap<PartitionId, SiteId>,
}

impl Model {
    fn new(initial: &[(PartitionId, SiteId)]) -> Self {
        let mut tables = vec![BTreeSet::new(); NUM_SITES];
        for (p, s) in initial {
            tables[s.as_usize()].insert(*p);
        }
        Model {
            logs: LogSet::new(NUM_SITES),
            tables,
            sequences: vec![0; NUM_SITES],
            owners: initial.iter().copied().collect(),
        }
    }

    fn append(&mut self, site: SiteId, record: impl FnOnce(SiteId, u64) -> LogRecord) {
        self.sequences[site.as_usize()] += 1;
        let sequence = self.sequences[site.as_usize()];
        self.logs.log(site).append(&record(site, sequence));
    }

    /// Applies one remaster's sub-steps `0..steps` (steps ≤ 4).
    fn remaster(
        &mut self,
        partition: PartitionId,
        from: SiteId,
        to: SiteId,
        epoch: u64,
        steps: u8,
    ) {
        if steps >= 1 {
            self.tables[from.as_usize()].remove(&partition);
        }
        if steps >= 2 {
            self.append(from, |origin, sequence| LogRecord::Release {
                origin,
                sequence,
                partition,
                epoch,
            });
        }
        if steps >= 3 {
            self.tables[to.as_usize()].insert(partition);
        }
        if steps >= 4 {
            self.append(to, |origin, sequence| LogRecord::Grant {
                origin,
                sequence,
                partition,
                epoch,
            });
            self.owners.insert(partition, to);
        }
    }

    fn live_tables(&self) -> Vec<(SiteId, Vec<PartitionId>)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, set)| (SiteId::new(i), set.iter().copied().collect()))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_truncated_prefix_recovers_to_single_mastership(
        moves in prop::collection::vec((0usize..NUM_PARTITIONS, 1usize..NUM_SITES), 0..24),
        cut_raw in 0usize..10_000,
    ) {
        // Every partition starts placed (round-robin), as after a seed or a
        // completed recovery.
        let initial: Vec<(PartitionId, SiteId)> = (0..NUM_PARTITIONS)
            .map(|p| (PartitionId::new(p), SiteId::new(p % NUM_SITES)))
            .collect();
        let mut model = Model::new(&initial);

        // The cut lands after an arbitrary sub-step of an arbitrary move:
        // full moves before it, one possibly-truncated move at it, nothing
        // after.
        let total_steps = moves.len() * 4;
        let cut = cut_raw % (total_steps + 1);
        for (i, (p, hop)) in moves.iter().enumerate() {
            let done = cut.saturating_sub(i * 4).min(4) as u8;
            if done == 0 {
                break;
            }
            let partition = PartitionId::new(*p);
            let from = model.owners[&partition];
            // `hop` ∈ 1..NUM_SITES, so the target is always a *different*
            // site (a self-remaster is a no-op the selector never issues).
            let to = SiteId::new((from.as_usize() + hop) % NUM_SITES);
            let epoch = (i + 1) as u64;
            model.remaster(partition, from, to, epoch, done);
        }

        let live = model.live_tables();
        let map = recover_selector_map(&model.logs, &initial, &live);
        prop_assert!(map.is_ok(), "reconciliation failed: {:?}", map.err());
        let (map, _) = map.unwrap();

        // Every partition has exactly one master.
        for p in 0..NUM_PARTITIONS {
            let partition = PartitionId::new(p);
            prop_assert!(
                map.contains_key(&partition),
                "partition {partition:?} lost its master after truncated recovery"
            );
        }
        prop_assert_eq!(map.len(), NUM_PARTITIONS);

        // No live-table contradiction: a site that claims a partition is
        // the recovered master of it…
        for (site, mastered) in &live {
            for p in mastered {
                prop_assert_eq!(
                    map[p], *site,
                    "recovered map contradicts the live table of {:?}", site
                );
            }
        }
        // …and each partition has at most one live claimant to begin with.
        let mut claimed = BTreeSet::new();
        for (_, mastered) in &live {
            for p in mastered {
                prop_assert!(claimed.insert(*p), "dual live claim on {:?}", p);
            }
        }
    }
}
