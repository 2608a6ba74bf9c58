//! Mastership recovery from the redo logs (paper §V-C).
//!
//! "[...] if any site manager or site selector fails, on recovery it
//! reconstructs the data item mastership state from the sequence of release
//! and grant operations in the redo logs." [`scan_mastership`] recovers the
//! selector's partition→master map from grant/release records using their
//! per-partition epochs, and the highest epoch among them.
//!
//! Rolling a site's data forward through the logs ("replaying redo logs
//! from the positions indicated by the site version vector") is
//! `dynamast_site::pipeline::replay`: it applies each origin's retained
//! suffix through the same refresh applier — one implementation of the
//! update application rule — that live propagation uses.
//!
//! Scanning volatile logs only survives in-process crashes, while scanning
//! persistently opened logs (`LogSet::open_persistent`) is real §V-C
//! recovery from a dead process.

use std::collections::HashMap;

use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::Result;

use crate::log::LogSet;
use crate::record::LogRecord;

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
    use dynamast_common::{Row, Value, VersionVector};

    fn commit(origin: usize, tvv: &[u64], writes: Vec<(u64, u64)>) -> LogRecord {
        LogRecord::Commit {
            origin: SiteId::new(origin),
            tvv: VersionVector::from_counts(tvv.to_vec()),
            writes: writes
                .into_iter()
                .map(|(k, v)| WriteEntry {
                    key: Key::new(TableId::new(0), k),
                    row: Row::new(vec![Value::U64(v)]),
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
