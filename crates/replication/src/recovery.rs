//! Redo-log recovery (paper §V-C).
//!
//! "Any data site recovers independently by initializing state from an
//! existing replica and replaying redo logs from the positions indicated by
//! the site version vector. [...] if any site manager or site selector fails,
//! on recovery it reconstructs the data item mastership state from the
//! sequence of release and grant operations in the redo logs."
//!
//! [`replay`] rolls a seeded state forward through the union of all logs. The
//! seed is a durable [`crate::checkpoint::Checkpoint`]'s store image, svv
//! cut and per-origin offsets — or, with no checkpoint, an empty store cut
//! at offset zero, the degenerate form of "initialize from a replica" — so
//! only the retained segment suffix replays, each record decoded once. The
//! returned svv and per-origin offsets let the caller resume propagation
//! exactly where replay stopped. [`scan_mastership`] recovers the
//! selector's partition→master map from grant/release records using their
//! per-partition epochs, and the highest epoch among them.
//!
//! These routines are honest about their inputs: replaying volatile logs
//! only survives in-process site crashes, while replaying persistently
//! opened logs (`LogSet::open_persistent`) is real §V-C recovery from a
//! dead process.

use std::collections::{HashMap, HashSet};

use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_storage::{Store, VersionStamp};

use crate::log::LogSet;
use crate::record::LogRecord;

/// A replay's seed and its outcome.
pub struct ReplayedState {
    /// The rebuilt storage engine.
    pub store: Store,
    /// The site version vector after replay.
    pub svv: VersionVector,
    /// Per-origin log offsets consumed; resuming propagation from these
    /// offsets continues exactly where replay stopped.
    pub offsets: Vec<u64>,
}

/// Rolls `seed` forward by replaying every log, from the seed's offsets, in
/// dependency order.
///
/// The scheduler round-robins over origins, applying each origin's next
/// record when the update application rule admits it (commit records) or
/// when it is next in the origin's commit order (grant/release records,
/// which carry no data dependencies of their own). Each origin's head is
/// read when it is reached, since the logs may still grow (a site restarts
/// while others commit), and kept decoded until it is admitted. `applied`
/// sees each record as it is applied. Errors if the logs are mutually
/// stuck, which indicates corruption, or if the seed was not cut for this
/// many sites.
///
/// Under partial replication only writes to partitions in `hosted` are
/// installed. Every record still advances the svv — a site that skips a
/// foreign partition's writes has still *seen* that commit for Eq. 1
/// admission purposes, exactly like the live refresh subscription filter.
/// `hosted = None` installs everything (full replication).
pub fn replay(
    logs: &LogSet,
    seed: ReplayedState,
    hosted: Option<&HashSet<PartitionId>>,
    mut applied: impl FnMut(&LogRecord),
) -> Result<ReplayedState> {
    let m = logs.num_sites();
    let ReplayedState {
        store,
        mut svv,
        mut offsets,
    } = seed;
    if svv.dims() != m || offsets.len() != m {
        return Err(DynaError::Internal(
            "replay seed does not match the log set's site count",
        ));
    }
    let mut heads: Vec<Option<LogRecord>> = (0..m).map(|_| None).collect();
    loop {
        let mut progressed = false;
        let mut exhausted = 0;
        for (origin_idx, head) in heads.iter_mut().enumerate() {
            if head.is_none() {
                *head = logs.log(SiteId::new(origin_idx)).get(offsets[origin_idx])?;
            }
            match head.take_if(|record| admissible(&svv, record)) {
                Some(record) => {
                    applied(&record);
                    apply(&store, &mut svv, record, hosted)?;
                    offsets[origin_idx] += 1;
                    progressed = true;
                }
                None => exhausted += usize::from(head.is_none()),
            }
        }
        if exhausted == m {
            return Ok(ReplayedState {
                store,
                svv,
                offsets,
            });
        }
        if !progressed {
            return Err(DynaError::Internal("log replay is stuck"));
        }
    }
}

fn admissible(svv: &VersionVector, record: &LogRecord) -> bool {
    match record {
        LogRecord::Commit { origin, tvv, .. } => svv.can_apply_refresh(tvv, *origin),
        // Grant/release records and tombstones carry no data dependencies:
        // each is admissible when next in its origin's commit order.
        _ => svv.get(record.origin()) + 1 == record.sequence(),
    }
}

fn apply(
    store: &Store,
    svv: &mut VersionVector,
    record: LogRecord,
    hosted: Option<&HashSet<PartitionId>>,
) -> Result<()> {
    let (origin, sequence) = (record.origin(), record.sequence());
    // Metadata (or tombstone) records install nothing but still occupy
    // their slot in the origin's commit order.
    if let LogRecord::Commit { writes, .. } = record {
        // The record is owned (decoded fresh from the log), so rows move
        // straight into the version chains without a copy.
        for w in writes {
            if let Some(hosted) = hosted {
                if !hosted.contains(&store.catalog().partition_of(w.key)?) {
                    continue;
                }
            }
            store.install(w.key, VersionStamp::new(origin, sequence), w.row)?;
        }
    }
    svv.set(origin, sequence);
    Ok(())
}

/// Reconstructs the partition→master map from grant/release records, and
/// reports the highest remastering epoch among them (0 when no remaster is
/// retained), in one pass over the logs.
///
/// For each partition, the record with the highest remastering epoch wins:
/// a grant names the new master directly; a *release* with the highest epoch
/// means the system crashed mid-remaster (released but never granted), and
/// mastership safely reverts to the releasing site — no other site was ever
/// granted it. Partitions that were never remastered are absent; the caller
/// overlays the initial placement.
///
/// Scans each log's *retained* suffix (from its truncated base), so it keeps
/// working after checkpoint-gated segment truncation. Moves whose entire
/// grant/release history was truncated are invisible here, and so are their
/// epochs; the caller must overlay the sites' checkpoint-reconstructed
/// ownership claims and epoch watermarks to recover them (see
/// `dynamast_core::recovery`).
pub fn scan_mastership(logs: &LogSet) -> Result<(HashMap<PartitionId, SiteId>, u64)> {
    let mut best: HashMap<PartitionId, (u64, SiteId)> = HashMap::new();
    let mut max_epoch = 0u64;
    for log in logs.logs() {
        let (records, _) = log.read_from(log.base())?;
        for record in records {
            let (partition, epoch, rank, master) = match record {
                LogRecord::Grant {
                    origin,
                    partition,
                    epoch,
                    ..
                } => (partition, epoch, epoch * 2 + 1, origin),
                LogRecord::Release {
                    origin,
                    partition,
                    epoch,
                    ..
                } => (partition, epoch, epoch * 2, origin),
                LogRecord::Commit { .. } | LogRecord::Noop { .. } => continue,
            };
            max_epoch = max_epoch.max(epoch);
            // Epochs are doubled so a grant outranks the release of the same
            // epoch (the pair shares an epoch; the grant is the later step).
            let entry = best.entry(partition).or_insert((0, master));
            if rank >= entry.0 {
                *entry = (rank, master);
            }
        }
    }
    let owners = best.into_iter().map(|(p, (_, site))| (p, site)).collect();
    Ok((owners, max_epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WriteEntry;
    use dynamast_common::ids::{Key, TableId};
    use dynamast_common::{Row, Value};
    use dynamast_storage::Catalog;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table("t", 1, 100);
        cat
    }

    fn key(r: u64) -> Key {
        Key::new(TableId::new(0), r)
    }

    fn row(v: u64) -> Row {
        Row::new(vec![Value::U64(v)])
    }

    fn commit(origin: usize, tvv: &[u64], writes: Vec<(u64, u64)>) -> LogRecord {
        LogRecord::Commit {
            origin: SiteId::new(origin),
            tvv: VersionVector::from_counts(tvv.to_vec()),
            writes: writes
                .into_iter()
                .map(|(k, v)| WriteEntry {
                    key: key(k),
                    row: row(v),
                })
                .collect(),
        }
    }

    fn release(origin: usize, sequence: u64, partition: usize, epoch: u64) -> LogRecord {
        LogRecord::Release {
            origin: SiteId::new(origin),
            sequence,
            partition: PartitionId::new(partition),
            epoch,
        }
    }

    fn grant(origin: usize, sequence: u64, partition: usize, epoch: u64) -> LogRecord {
        LogRecord::Grant {
            origin: SiteId::new(origin),
            sequence,
            partition: PartitionId::new(partition),
            epoch,
        }
    }

    /// An empty store cut at offset zero of `m` logs.
    fn empty(m: usize) -> ReplayedState {
        ReplayedState {
            store: Store::new(catalog(), 4),
            svv: VersionVector::zero(m),
            offsets: vec![0; m],
        }
    }

    fn from_zero(logs: &LogSet) -> Result<ReplayedState> {
        let seed = empty(logs.num_sites());
        replay(logs, seed, None, |_| {})
    }

    #[test]
    fn replay_orders_dependent_records_across_logs() {
        let logs = LogSet::new(2);
        // S0 commits k=1 (tvv [1,0]); S1 observes it then commits k=2
        // (tvv [1,1], begin included S0's update).
        logs.log(SiteId::new(0))
            .append(&commit(0, &[1, 0], vec![(1, 10)]));
        logs.log(SiteId::new(1))
            .append(&commit(1, &[1, 1], vec![(2, 20)]));
        let state = from_zero(&logs).unwrap();
        assert_eq!(state.svv.as_slice(), &[1, 1]);
        assert_eq!(state.offsets, vec![1, 1]);
        let snap = state.svv.clone();
        assert_eq!(state.store.read(key(1), &snap).unwrap().unwrap(), row(10));
        assert_eq!(state.store.read(key(2), &snap).unwrap().unwrap(), row(20));
    }

    #[test]
    fn replay_handles_interleaved_multi_site_history() {
        let logs = LogSet::new(3);
        logs.log(SiteId::new(0))
            .append(&commit(0, &[1, 0, 0], vec![(1, 1)]));
        logs.log(SiteId::new(2))
            .append(&commit(2, &[1, 0, 1], vec![(3, 3)]));
        logs.log(SiteId::new(0))
            .append(&commit(0, &[2, 0, 1], vec![(1, 2)]));
        logs.log(SiteId::new(1))
            .append(&commit(1, &[2, 1, 1], vec![(2, 2)]));
        let state = from_zero(&logs).unwrap();
        assert_eq!(state.svv.as_slice(), &[2, 1, 1]);
        let snap = state.svv.clone();
        // k=1 must reflect the SECOND commit from S0.
        assert_eq!(state.store.read(key(1), &snap).unwrap().unwrap(), row(2));
    }

    /// Stuck logs and a seed cut for another site count (a checkpoint from a
    /// differently sized deployment) are errors, not panics.
    #[test]
    fn replay_detects_stuck_logs_and_mis_sized_seeds() {
        let logs = LogSet::new(2);
        let refused = |outcome: Result<ReplayedState>, why: &'static str| match outcome {
            Err(err) => assert_eq!(err, DynaError::Internal(why)),
            Ok(_) => panic!("replay should report: {why}"),
        };
        let mis_sized = "replay seed does not match the log set's site count";
        refused(replay(&logs, empty(3), None, |_| {}), mis_sized);
        let mut seed = empty(2);
        seed.offsets.pop();
        refused(replay(&logs, seed, None, |_| {}), mis_sized);
        // Depends on svv[1] >= 5, which never arrives.
        logs.log(SiteId::new(0))
            .append(&commit(0, &[1, 5], vec![(1, 1)]));
        refused(from_zero(&logs), "log replay is stuck");
    }

    #[test]
    fn replay_counts_release_grant_in_svv() {
        let logs = LogSet::new(2);
        logs.log(SiteId::new(0)).append(&release(0, 1, 5, 1));
        logs.log(SiteId::new(1)).append(&grant(1, 1, 5, 1));
        let state = from_zero(&logs).unwrap();
        assert_eq!(state.svv.as_slice(), &[1, 1]);
    }

    /// Replay must advance svv over abort tombstones exactly like metadata
    /// records, or a crashed committer's Noop would wedge every later record
    /// from that origin.
    #[test]
    fn replay_advances_over_noop_tombstones() {
        let logs = LogSet::new(2);
        logs.log(SiteId::new(0))
            .append(&commit(0, &[1, 0], vec![(1, 10)]));
        logs.log(SiteId::new(0)).append(&LogRecord::Noop {
            origin: SiteId::new(0),
            sequence: 2,
        });
        logs.log(SiteId::new(0))
            .append(&commit(0, &[3, 0], vec![(1, 30)]));
        let state = from_zero(&logs).unwrap();
        assert_eq!(state.svv.as_slice(), &[3, 0]);
        let snap = state.svv.clone();
        assert_eq!(state.store.read(key(1), &snap).unwrap().unwrap(), row(30));
    }

    #[test]
    fn replay_resumes_past_a_seeded_prefix() {
        let logs = LogSet::new(2);
        logs.log(SiteId::new(0))
            .append(&commit(0, &[1, 0], vec![(1, 10)]));
        logs.log(SiteId::new(0))
            .append(&commit(0, &[2, 0], vec![(1, 20)]));
        // Seed state as if a checkpoint captured svv [1,0] with k1=10.
        let store = Store::new(catalog(), 4);
        store
            .install(key(1), VersionStamp::new(SiteId::new(0), 1), row(10))
            .unwrap();
        let seed = ReplayedState {
            store,
            svv: VersionVector::from_counts(vec![1, 0]),
            offsets: vec![1, 0],
        };
        let state = replay(&logs, seed, None, |_| {}).unwrap();
        assert_eq!(state.svv.as_slice(), &[2, 0]);
        assert_eq!(state.offsets, vec![2, 0]);
        let snap = state.svv.clone();
        assert_eq!(state.store.read(key(1), &snap).unwrap().unwrap(), row(20));
    }

    /// Hosted-filtered replay installs only hosted partitions' writes but
    /// still advances svv over foreign commits (otherwise replay would wedge
    /// on the first foreign record).
    #[test]
    fn hosted_replay_skips_foreign_partitions_but_advances_svv() {
        let logs = LogSet::new(2);
        // partition_size = 100: records 1..100 → partition 0, 150 → partition 1.
        logs.log(SiteId::new(0))
            .append(&commit(0, &[1, 0], vec![(1, 10), (150, 15)]));
        logs.log(SiteId::new(1))
            .append(&commit(1, &[1, 1], vec![(151, 20)]));
        let hosted: HashSet<PartitionId> = [PartitionId::new(0)].into_iter().collect();
        let seed = empty(2);
        let state = replay(&logs, seed, Some(&hosted), |_| {}).unwrap();
        assert_eq!(state.svv.as_slice(), &[1, 1]);
        let snap = state.svv.clone();
        assert_eq!(state.store.read(key(1), &snap).unwrap().unwrap(), row(10));
        assert_eq!(state.store.read(key(150), &snap).unwrap(), None);
        assert_eq!(state.store.read(key(151), &snap).unwrap(), None);
    }

    #[test]
    fn mastership_scan_takes_highest_epoch_grant() {
        let logs = LogSet::new(3);
        logs.log(SiteId::new(0)).append(&release(0, 1, 7, 1));
        logs.log(SiteId::new(1)).append(&grant(1, 1, 7, 1));
        logs.log(SiteId::new(1)).append(&release(1, 2, 7, 2));
        logs.log(SiteId::new(2)).append(&grant(2, 1, 7, 2));
        let (map, max_epoch) = scan_mastership(&logs).unwrap();
        assert_eq!(map[&PartitionId::new(7)], SiteId::new(2));
        assert_eq!(max_epoch, 2);
    }

    #[test]
    fn mastership_scan_reverts_unfinished_remaster_to_releaser() {
        let logs = LogSet::new(2);
        logs.log(SiteId::new(0)).append(&grant(0, 1, 3, 1));
        // Crash between release(epoch 2) and its grant.
        logs.log(SiteId::new(0)).append(&release(0, 2, 3, 2));
        let (map, max_epoch) = scan_mastership(&logs).unwrap();
        assert_eq!(map[&PartitionId::new(3)], SiteId::new(0));
        assert_eq!(max_epoch, 2);
    }

    #[test]
    fn mastership_scan_ignores_commits_and_unknown_partitions() {
        let logs = LogSet::new(2);
        logs.log(SiteId::new(0))
            .append(&commit(0, &[1, 0], vec![(1, 1)]));
        let (map, max_epoch) = scan_mastership(&logs).unwrap();
        assert!(map.is_empty());
        assert_eq!(max_epoch, 0);
    }
}
