//! Property-based tests for the MVCC storage engine: snapshot visibility,
//! version pruning, the block-sharded index against a model, and
//! lock-manager exclusion.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use dynamast_common::ids::{partition_id, Key, RecordId, SiteId, TableId};
use dynamast_common::{Row, Value, VersionVector};
use dynamast_storage::{Catalog, LockManager, ReadAt, Store, VersionStamp, Visit};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table("t", 1, 100);
    cat
}

fn row(v: u64) -> Row {
    Row::new(vec![Value::U64(v)])
}

const T: TableId = TableId::new(0);

/// One step of the index-against-model interleaving.
#[derive(Clone, Debug)]
enum Op {
    Install {
        record: RecordId,
        origin: usize,
    },
    /// One `Store::install_batch`; the batch names its first record twice.
    InstallBatch(Vec<(RecordId, usize)>),
    PurgePartition(u64),
    Point {
        record: RecordId,
        snap: [u64; 2],
    },
    Latest(RecordId),
    /// `snap: None` visits the latest versions.
    Range {
        start: RecordId,
        len: u64,
        snap: Option<[u64; 2]>,
    },
}

/// TPC-C keys its orders `district << 20 | order`: each district a short
/// dense run, with gaps between them wider than a block and than all 64
/// shards' worth of blocks.
const DISTRICT_SHIFT: u32 = 20;

/// Record ids clustered around block (32), partition (100) and
/// all-shards (64 × 32 = 2048) boundaries, so runs start and end mid-block
/// and ranges wrap the shard array, plus TPC-C-shaped sparse ids.
fn record_id() -> impl Strategy<Value = RecordId> {
    prop_oneof![
        0u64..70,
        90u64..135,
        2_030u64..2_120,
        4_090u64..4_200,
        (1u64..4, 0u64..40).prop_map(|(district, order)| district << DISTRICT_SHIFT | order),
    ]
}

fn snap() -> impl Strategy<Value = [u64; 2]> {
    (0u64..12, 0u64..12).prop_map(|(a, b)| [a, b])
}

fn op() -> impl Strategy<Value = Op> {
    let install =
        || (record_id(), 0usize..2).prop_map(|(record, origin)| Op::Install { record, origin });
    let batch = prop::collection::vec((record_id(), 0usize..2), 1..6).prop_map(|mut entries| {
        entries.push((entries[0].0, 1 - entries[0].1));
        Op::InstallBatch(entries)
    });
    let range = || {
        (
            prop_oneof![record_id(), 0u64..1],
            prop_oneof![0u64..140, 2_000u64..4_300, 0u64..4 << DISTRICT_SHIFT],
            prop::option::of(snap()),
        )
            .prop_map(|(start, len, snap)| Op::Range { start, len, snap })
    };
    // Repeats are weights: half the steps install, a quarter visit a range.
    prop_oneof![
        install(),
        install(),
        install(),
        batch,
        range(),
        range(),
        // Partitions 10 485 and 20 971 hold the first orders of districts
        // 1 and 2.
        prop_oneof![
            0u64..2,
            20u64..22,
            40u64..42,
            10_485u64..10_486,
            20_971u64..20_972
        ]
        .prop_map(Op::PurgePartition),
        (record_id(), snap()).prop_map(|(record, snap)| Op::Point { record, snap }),
        record_id().prop_map(Op::Latest),
    ]
}

/// A row whose payload size varies with `v`, so byte accounting is not a
/// version count in disguise.
fn sized_row(v: u64) -> Row {
    Row::new(vec![
        Value::U64(v),
        Value::Bytes(vec![v as u8; (v % 5) as usize]),
    ])
}

type Model = BTreeMap<RecordId, Vec<(VersionStamp, Row)>>;

fn model_choose<'m>(
    chain: &'m [(VersionStamp, Row)],
    snap: Option<&VersionVector>,
) -> Option<&'m (VersionStamp, Row)> {
    match snap {
        Some(begin) => chain
            .iter()
            .rev()
            .find(|(stamp, _)| stamp.visible_to(begin)),
        None => chain.last(),
    }
}

proptest! {
    /// Random interleavings of install / purge / point / latest / range
    /// against a `BTreeMap` model pruned to `max_versions`.
    #[test]
    fn index_agrees_with_an_ordered_model(
        ops in prop::collection::vec(op(), 1..80),
        max_versions in 1usize..4,
    ) {
        let store = Store::new(catalog(), max_versions);
        let mut model = Model::new();
        let mut seqs = [0u64; 2];
        let mut touched = BTreeSet::new();
        let mut model_install = |model: &mut Model, record, origin: usize, value| {
            seqs[origin] += 1;
            let stamp = VersionStamp::new(SiteId::new(origin), seqs[origin]);
            let row = sized_row(value);
            let chain = model.entry(record).or_default();
            chain.push((stamp, row.clone()));
            if chain.len() > max_versions {
                chain.remove(0);
            }
            (Key::new(T, record), stamp, row)
        };
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Install { record, origin } => {
                    touched.insert(record);
                    let (key, stamp, row) = model_install(&mut model, record, origin, step as u64);
                    store.install(key, stamp, row).unwrap();
                }
                Op::InstallBatch(entries) => {
                    let batch = entries
                        .iter()
                        .enumerate()
                        .map(|(i, &(record, origin))| {
                            touched.insert(record);
                            model_install(&mut model, record, origin, (step * 8 + i) as u64)
                        })
                        .collect();
                    store.install_batch(batch).unwrap();
                }
                Op::PurgePartition(index) => {
                    let doomed: Vec<RecordId> =
                        model.range(index * 100..(index + 1) * 100).map(|(r, _)| *r).collect();
                    let freed: usize = doomed
                        .iter()
                        .flat_map(|r| model.remove(r).unwrap())
                        .map(|(_, row)| row.payload_size())
                        .sum();
                    let purged = store.purge_partition(partition_id(T, index)).unwrap();
                    prop_assert_eq!(purged, (doomed.len(), freed as u64));
                }
                Op::Point { record, snap } => {
                    touched.insert(record);
                    let begin = VersionVector::from_counts(snap.to_vec());
                    let got = store
                        .visit(Key::new(T, record), ReadAt::Begin(&begin), |row, stamp| {
                            (stamp, row.clone())
                        })
                        .unwrap();
                    let want = match model.get(&record) {
                        None => Visit::Absent,
                        Some(chain) => match model_choose(chain, Some(&begin)) {
                            Some(version) => Visit::Hit(version.clone()),
                            None if chain.len() >= max_versions => Visit::Evicted,
                            None => Visit::Absent,
                        },
                    };
                    prop_assert_eq!(got, want);
                }
                Op::Latest(record) => {
                    touched.insert(record);
                    let got = store.read_latest(Key::new(T, record)).unwrap();
                    let want = model
                        .get(&record)
                        .and_then(|chain| chain.last())
                        .map(|(stamp, row)| (row.clone(), *stamp));
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(store.contains(Key::new(T, record)).unwrap(), want.is_some());
                }
                Op::Range { start, len, snap } => {
                    let begin = snap.map(|s| VersionVector::from_counts(s.to_vec()));
                    let at = begin.as_ref().map_or(ReadAt::Latest, ReadAt::Begin);
                    let mut got = Vec::new();
                    let evicted = store
                        .visit_range(T, start..start + len, at, |record, row, stamp| {
                            got.push((record, stamp, row.clone()))
                        })
                        .unwrap();
                    let mut want = Vec::new();
                    let mut want_evicted = false;
                    for (record, chain) in model.range(start..start + len) {
                        match model_choose(chain, begin.as_ref()) {
                            Some((stamp, row)) => want.push((*record, *stamp, row.clone())),
                            None => want_evicted |= chain.len() >= max_versions,
                        }
                    }
                    prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(evicted, want_evicted);
                    // The range visit is the point visit, record by record.
                    for (record, stamp, row) in got {
                        let point = store.visit(Key::new(T, record), at, |r, s| (s, r.clone()));
                        prop_assert_eq!(point.unwrap(), Visit::Hit((stamp, row)));
                    }
                }
            }
            let resident: usize = model
                .values()
                .flatten()
                .map(|(_, row)| row.payload_size())
                .sum();
            prop_assert_eq!(store.resident_bytes(), resident as u64);
            prop_assert_eq!(store.record_count(), model.len());
            prop_assert_eq!(store.version_count(), model.values().map(Vec::len).sum::<usize>());
            for &record in &touched {
                prop_assert_eq!(
                    store.contains(Key::new(T, record)).unwrap(),
                    model.contains_key(&record),
                    "record {}", record
                );
            }
        }
    }

    /// Install versions from multiple origins; every snapshot must read the
    /// newest version whose stamp it has observed, in install order.
    #[test]
    fn snapshot_reads_newest_visible_version(
        // (origin, value) pairs; sequence numbers are per-origin install order.
        installs in prop::collection::vec((0usize..3, any::<u64>()), 1..20),
        snap in prop::collection::vec(0u64..25, 3),
    ) {
        let store = Store::new(catalog(), usize::MAX >> 1);
        let key = Key::new(TableId::new(0), 7);
        let mut seqs = [0u64; 3];
        let mut expected: Option<u64> = None;
        let snapshot = VersionVector::from_counts(snap.clone());
        for (origin, value) in &installs {
            seqs[*origin] += 1;
            store
                .install(
                    key,
                    VersionStamp::new(SiteId::new(*origin), seqs[*origin]),
                    row(*value),
                )
                .unwrap();
            // Track what the snapshot should see: the LAST installed version
            // whose (origin, seq) is covered by the snapshot.
            if snap[*origin] >= seqs[*origin] {
                expected = Some(*value);
            }
        }
        let read = store.read(key, &snapshot).unwrap().map(|r| r.cell(0).as_u64().unwrap());
        prop_assert_eq!(read, expected);
    }

    /// Pruned chains retain exactly `max_versions` newest versions.
    #[test]
    fn pruning_keeps_newest_versions(
        count in 1usize..20,
        max_versions in 1usize..6,
    ) {
        let store = Store::new(catalog(), max_versions);
        let key = Key::new(TableId::new(0), 1);
        for seq in 1..=count as u64 {
            store
                .install(key, VersionStamp::new(SiteId::new(0), seq), row(seq))
                .unwrap();
        }
        prop_assert_eq!(store.version_count(), count.min(max_versions));
        // The latest version always survives.
        let (latest, stamp) = store.read_latest(key).unwrap().unwrap();
        prop_assert_eq!(latest.cell(0).as_u64().unwrap(), count as u64);
        prop_assert_eq!(stamp.sequence, count as u64);
    }

    /// Scans equal per-key point reads over the same snapshot.
    #[test]
    fn scan_agrees_with_point_reads(
        records in prop::collection::btree_set(0u64..50, 0..20),
        upto in 1u64..30,
    ) {
        let store = Store::new(catalog(), 4);
        for (i, record) in records.iter().enumerate() {
            store
                .install(
                    Key::new(TableId::new(0), *record),
                    VersionStamp::new(SiteId::new(0), i as u64 + 1),
                    row(*record),
                )
                .unwrap();
        }
        let snapshot = VersionVector::from_counts(vec![upto]);
        let scanned = store.scan(TableId::new(0), 0, 50, &snapshot).unwrap();
        let mut expected = Vec::new();
        for record in 0..50 {
            if let Some(r) = store.read(Key::new(TableId::new(0), record), &snapshot).unwrap() {
                expected.push((record, r));
            }
        }
        prop_assert_eq!(scanned, expected);
    }
}

/// Two writers install into a range while two scanners visit it at fixed
/// begin vectors: every row handed to a visitor is visible at its begin and
/// is the row that stamp installed, in ascending record order — and nobody
/// deadlocks on the per-block locks.
#[test]
fn concurrent_range_visits_see_only_visible_versions() {
    const RECORDS: u64 = 300;
    const INSTALLS: u64 = 4_000;
    let store = Store::new(catalog(), 4);
    for record in 0..RECORDS {
        let load = VersionStamp::new(SiteId::new(0), 0);
        store
            .install(Key::new(T, record), load, sized_row(0))
            .unwrap();
    }
    let start = Barrier::new(4);
    let writers_left = AtomicUsize::new(2);
    let value_of = |stamp: VersionStamp| stamp.sequence * 2 + stamp.origin.raw() as u64;
    std::thread::scope(|scope| {
        for origin in 0..2u64 {
            let (store, start, writers_left) = (&store, &start, &writers_left);
            scope.spawn(move || {
                start.wait();
                for seq in 1..=INSTALLS {
                    let stamp = VersionStamp::new(SiteId::new(origin as usize), seq);
                    let record = (seq * 7 + origin * 13) % RECORDS;
                    store
                        .install(Key::new(T, record), stamp, sized_row(value_of(stamp)))
                        .unwrap();
                }
                writers_left.fetch_sub(1, Ordering::SeqCst);
            });
        }
        for begin in [[INSTALLS / 2, 10], [0, INSTALLS]] {
            let (store, start, writers_left) = (&store, &start, &writers_left);
            scope.spawn(move || {
                let begin = VersionVector::from_counts(begin.to_vec());
                start.wait();
                loop {
                    // The pass that starts after the last install ends it.
                    let last_pass = writers_left.load(Ordering::SeqCst) == 0;
                    let mut previous = None;
                    store
                        .visit_range(
                            T,
                            3..RECORDS - 3,
                            ReadAt::Begin(&begin),
                            |record, row, stamp| {
                                assert!(stamp.visible_to(&begin), "{stamp:?} at {begin:?}");
                                let expected = if stamp.sequence == 0 {
                                    0
                                } else {
                                    value_of(stamp)
                                };
                                assert_eq!(row, &sized_row(expected));
                                assert!(previous.replace(record) < Some(record), "ascending");
                            },
                        )
                        .unwrap();
                    if last_pass {
                        break;
                    }
                }
            });
        }
    });
    assert_eq!(store.record_count(), RECORDS as usize);
    assert_eq!(store.version_count(), RECORDS as usize * 4);
}

/// Lock manager: racing writers on overlapping write sets serialize and all
/// complete (no deadlock, no lost exclusion).
#[test]
fn lock_manager_excludes_and_terminates() {
    let lm = Arc::new(LockManager::new());
    let counter = Arc::new(parking_lot::Mutex::new(0u64));
    let mut handles = Vec::new();
    for t in 0..6u64 {
        let lm = Arc::clone(&lm);
        let counter = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            for i in 0..40u64 {
                // Overlapping, permuted write sets.
                let keys: Vec<Key> = [(t + i) % 5, (t + i + 1) % 5, 7]
                    .iter()
                    .map(|k| Key::new(TableId::new(0), *k))
                    .collect();
                let _guards = lm.acquire_all(&keys);
                // Mutation under the common key 7's lock must be exclusive.
                let mut c = counter.lock();
                let v = *c;
                std::thread::yield_now();
                *c = v + 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*counter.lock(), 6 * 40);
}
