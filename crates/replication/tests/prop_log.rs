//! Property test: concurrent `reserve`/`fill`/`abort`/`append` interleavings
//! against a *persistent* [`DurableLog`] keep the published prefix gap-free
//! and offset-ordered — readers never observe a hole, an unfilled slot, or a
//! shrinking watermark — with every aborted reservation closed by a Noop
//! tombstone carrying exactly its slot's sequence. The log is then reopened
//! from disk and must recover the identical record list.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use dynamast_common::ids::{Key, SiteId, TableId};
use dynamast_common::{FsyncMode, Row, Value, VersionVector};
use dynamast_replication::log::DurableLog;
use dynamast_replication::record::{LogRecord, WriteEntry};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Reserve a slot, then fill it with a commit record.
    Fill,
    /// Reserve a slot, then abandon it (the wedged-committer path).
    Abort,
    /// One-step reserve + fill.
    Append,
}

/// What a completed op expects to find at its offset afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expected {
    Value(u64),
    Tombstone,
}

fn plans() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(
        prop::collection::vec(
            (0u8..4).prop_map(|b| match b {
                0 | 3 => Op::Fill,
                1 => Op::Abort,
                _ => Op::Append,
            }),
            1..20,
        ),
        2..4,
    )
}

fn commit_record(sequence: u64, value: u64) -> LogRecord {
    let mut tvv = VersionVector::zero(1);
    tvv.set(SiteId::new(0), sequence);
    LogRecord::Commit {
        origin: SiteId::new(0),
        tvv,
        writes: vec![WriteEntry::new(
            Key::new(TableId::new(0), value),
            Row::new(vec![Value::U64(value)]),
        )],
    }
}

fn value_of(record: &LogRecord) -> Option<u64> {
    match record {
        LogRecord::Commit { writes, .. } => Some(writes[0].key.record),
        _ => None,
    }
}

/// Unique scratch directory per proptest case.
fn case_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dynamast-prop-log-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn concurrent_interleavings_publish_a_gap_free_offset_ordered_prefix(plan in plans()) {
        let dir = case_dir();
        // Small segments so longer plans cross a rotation boundary.
        let log = DurableLog::open_persistent(
            SiteId::new(0), dir.clone(), 512, FsyncMode::Group, 1,
        ).unwrap();
        let total: u64 = plan.iter().map(|ops| ops.len() as u64).sum();
        let done = AtomicBool::new(false);

        // (offset, expectation) per completed op, collected per thread.
        let mut outcomes: Vec<(u64, Expected)> = Vec::new();
        let reader_checked = thread::scope(|scope| {
            let reader = scope.spawn(|| {
                // Concurrent reader: the visible prefix only ever grows, and
                // every published record decodes. Any gap or unfilled slot
                // would panic/err inside `read_from`.
                let mut last_len = 0usize;
                let mut max_seen = 0usize;
                while !done.load(Ordering::Acquire) {
                    let (records, _) = log.read_from(0).unwrap();
                    assert!(
                        records.len() >= last_len,
                        "visible prefix shrank: {} -> {}", last_len, records.len(),
                    );
                    last_len = records.len();
                    max_seen = max_seen.max(records.len());
                    thread::yield_now();
                }
                max_seen
            });
            let handles: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(t, ops)| {
                    let ops = ops.clone();
                    let log = &log;
                    scope.spawn(move || {
                        let mut local = Vec::with_capacity(ops.len());
                        for (i, op) in ops.into_iter().enumerate() {
                            let value = ((t as u64) << 32) | i as u64;
                            match op {
                                Op::Fill => {
                                    let ticket = log.reserve();
                                    if value.is_multiple_of(3) {
                                        thread::yield_now();
                                    }
                                    log.fill(ticket, &commit_record(ticket + 1, value));
                                    local.push((ticket, Expected::Value(value)));
                                }
                                Op::Abort => {
                                    let ticket = log.reserve();
                                    if value.is_multiple_of(2) {
                                        thread::yield_now();
                                    }
                                    log.abort(ticket);
                                    local.push((ticket, Expected::Tombstone));
                                }
                                Op::Append => {
                                    // Sequence unknowable in advance under
                                    // concurrency; identity rides the value.
                                    let offset = log.append(&commit_record(0, value));
                                    local.push((offset, Expected::Value(value)));
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                outcomes.extend(handle.join().unwrap());
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });

        // Every reservation closed: the full prefix is visible, in offset
        // order, with no leftover open slots.
        prop_assert_eq!(log.len(), total);
        prop_assert_eq!(log.reserved_len(), total);
        prop_assert!(reader_checked <= total as usize);

        // Offsets are a permutation of 0..total (no duplicates, no gaps).
        let mut offsets: Vec<u64> = outcomes.iter().map(|(o, _)| *o).collect();
        offsets.sort_unstable();
        prop_assert_eq!(offsets, (0..total).collect::<Vec<u64>>());

        // Each op finds exactly what it published; tombstones carry their
        // slot's sequence so downstream svv admission stays gap-free.
        let (published, _) = log.read_from(0).unwrap();
        for (offset, expected) in &outcomes {
            let record = published[*offset as usize].clone();
            match expected {
                Expected::Value(v) => {
                    prop_assert_eq!(value_of(&record), Some(*v), "offset {}", offset);
                }
                Expected::Tombstone => match record {
                    LogRecord::Noop { origin, sequence } => {
                        prop_assert_eq!(origin, SiteId::new(0));
                        prop_assert_eq!(sequence, offset + 1, "tombstone sequence");
                    }
                    other => prop_assert!(false, "expected Noop at {}, got {:?}", offset, other),
                },
            }
        }

        // Reopen from disk: group fsync ran on every published run, so the
        // recovered log holds the identical record list.
        let before: Vec<LogRecord> = log.read_from(0).unwrap().0;
        drop(log);
        let reopened = DurableLog::open_persistent(
            SiteId::new(0), dir.clone(), 512, FsyncMode::Group, 1,
        ).unwrap();
        prop_assert_eq!(reopened.len(), total);
        let after: Vec<LogRecord> = reopened.read_from(0).unwrap().0;
        prop_assert_eq!(before, after);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
