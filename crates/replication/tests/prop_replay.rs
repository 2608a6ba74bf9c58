//! Property-based test: recovery replay of a randomly generated, causally
//! valid multi-site history reconstructs exactly the state obtained by
//! applying the same history online — in one shot from offset zero, and
//! equally when split at any admissible cut and resumed from the seed the
//! first half left (the checkpoint-plus-suffix shape), with or without a
//! hosted-partition filter.

use std::collections::HashSet;

use dynamast_common::ids::{Key, PartitionId, SiteId, TableId};
use dynamast_common::{Row, Value, VersionVector};
use dynamast_replication::record::{LogRecord, WriteEntry};
use dynamast_replication::recovery::{replay, ReplayedState};
use dynamast_replication::LogSet;
use dynamast_storage::{Catalog, Store, VersionStamp};
use proptest::prelude::*;

/// Keys 0..40 over partitions of 10 records: four partitions to host or not.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table("t", 1, 10);
    cat
}

fn empty_seed() -> ReplayedState {
    ReplayedState::empty(catalog(), usize::MAX >> 1, 3)
}

/// One generated step: which site commits, which keys it writes, and how
/// many pending remote records each site applies afterwards.
#[derive(Debug, Clone)]
struct Step {
    site: usize,
    keys: Vec<u64>,
    value: u64,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0usize..3,
            prop::collection::vec(0u64..40, 1..4),
            any::<u64>(),
        )
            .prop_map(|(site, mut keys, value)| {
                keys.sort_unstable();
                keys.dedup();
                Step { site, keys, value }
            }),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_reconstructs_online_state(
        history in steps(),
        cut_raw in 0usize..1_000,
        hosted_mask in 0u8..16,
    ) {
        let m = 3;
        let logs = LogSet::new(m);
        // Any prefix of a causally valid history is an admissible cut.
        let cut = cut_raw % history.len();
        let hosted: HashSet<PartitionId> = (0..4)
            .filter(|p| hosted_mask & (1 << p) != 0)
            .map(PartitionId::new)
            .collect();
        let mut prefix = None;
        // Online execution: a "reference" fully synchronized store. Each
        // commit's begin vector is the global svv (every dependency
        // visible), which is causally valid and maximally constraining for
        // the replayer.
        let reference = Store::new(catalog(), usize::MAX >> 1);
        let mut svv = VersionVector::zero(m);
        for (n, step) in history.iter().enumerate() {
            if n == cut {
                prefix = Some((
                    replay(&logs, empty_seed(), None).unwrap(),
                    replay(&logs, empty_seed(), Some(&hosted)).unwrap(),
                ));
            }
            let origin = SiteId::new(step.site);
            let seq = svv.get(origin) + 1;
            let mut tvv = svv.clone();
            tvv.set(origin, seq);
            let writes: Vec<WriteEntry> = step
                .keys
                .iter()
                .map(|k| WriteEntry {
                    key: Key::new(TableId::new(0), *k),
                    row: Row::new(vec![Value::U64(step.value)]),
                })
                .collect();
            for w in &writes {
                reference
                    .install(w.key, VersionStamp::new(origin, seq), w.row.clone())
                    .unwrap();
            }
            logs.log(origin).append(&LogRecord::Commit {
                origin,
                tvv,
                writes,
            });
            svv.set(origin, seq);
        }

        // Recovery replay from the logs alone.
        let replayed = replay(&logs, empty_seed(), None).unwrap();
        prop_assert_eq!(replayed.svv.clone(), svv.clone());
        for key in 0..40u64 {
            let k = Key::new(TableId::new(0), key);
            let expected = reference.read(k, &svv).unwrap();
            let got = replayed.store.read(k, &replayed.svv).unwrap();
            prop_assert_eq!(got, expected, "divergence at key {}", key);
        }
        // Version counts also agree (no duplicates, no losses).
        prop_assert_eq!(replayed.store.version_count(), reference.version_count());

        // Split replay: the state the prefix left, taken as the seed, rolled
        // through the rest equals the one-shot replay under the same filter.
        let one_shot_hosted = replay(&logs, empty_seed(), Some(&hosted)).unwrap();
        let (prefix_full, prefix_hosted) = prefix.expect("the cut lies inside the history");
        for (seed, filter, one_shot) in [
            (prefix_full, None, &replayed),
            (prefix_hosted, Some(&hosted), &one_shot_hosted),
        ] {
            let resumed = replay(&logs, seed, filter).unwrap();
            prop_assert_eq!(&resumed.svv, &one_shot.svv);
            prop_assert_eq!(&resumed.offsets, &one_shot.offsets);
            prop_assert_eq!(resumed.store.version_count(), one_shot.store.version_count());
            for key in 0..40u64 {
                let k = Key::new(TableId::new(0), key);
                prop_assert_eq!(
                    resumed.store.read(k, &resumed.svv).unwrap(),
                    one_shot.store.read(k, &one_shot.svv).unwrap(),
                    "split replay diverges at key {}", key
                );
            }
        }
    }
}
