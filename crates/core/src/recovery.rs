//! Selector and site recovery glue (paper §V-C).
//!
//! The heavy lifting — replaying the durable logs and reconstructing
//! mastership from grant/release records — lives in
//! `dynamast_replication::recovery`. This module overlays those primitives
//! with DynaMast-specific policy, once: [`recover_site`] brings a site's
//! state up from an optional checkpoint plus the retained log suffix, and
//! [`recover_selector_map`] merges the initial placement, the retained
//! remastering history and the sites' ownership claims into the placement
//! map. A volatile deployment is simply one with no checkpoint and nothing
//! truncated.

use std::collections::{HashMap, HashSet};

use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_replication::checkpoint::Checkpoint;
use dynamast_replication::record::LogRecord;
use dynamast_replication::recovery::{replay, scan_mastership, ReplayedState};
use dynamast_replication::LogSet;
use dynamast_storage::{Catalog, ImageRecord, Store};

/// Recovers the selector's full partition→master map — the initial placement
/// overlaid with every remastering the logs retain, reconciled against the
/// sites' ownership `claims` — and the highest remastering epoch the logs
/// retain (0 when none).
///
/// The claims are either fenced live tables (the promotion path, §V-C) or
/// the checkpoint-reconstructed claims of a restart ([`recover_site`]); with
/// none, the map is the logs' alone. The durable logs lag the tables by
/// construction: a site updates its ownership table *before* appending the
/// Release/Grant record, so a crash in that window leaves a live site
/// claiming a partition the logs do not (yet) award it. A single claimant
/// therefore wins over the log-derived owner — the site's positive claim is
/// the later fact. Two sites claiming the same partition is dual mastership,
/// which fencing makes impossible; seeing it means the tables are corrupt,
/// and reconciliation fails loudly rather than guessing.
///
/// A selector allocates epochs strictly above the returned one so it never
/// collides with its predecessor's in the sites' per-`(partition, epoch)`
/// idempotency caches. After checkpoint-gated segment truncation only the
/// retained suffix is visible, so callers max it with the checkpoints'
/// persisted watermarks ([`RecoveredSite::epoch`]); see DESIGN.md §13.
pub fn recover_selector_map(
    logs: &LogSet,
    initial_placements: &[(PartitionId, SiteId)],
    claims: &[(SiteId, Vec<PartitionId>)],
) -> Result<(HashMap<PartitionId, SiteId>, u64)> {
    let (remastered, max_epoch) = scan_mastership(logs)?;
    let mut map: HashMap<PartitionId, SiteId> = initial_placements.iter().copied().collect();
    map.extend(remastered);
    let mut claimants: HashMap<PartitionId, SiteId> = HashMap::new();
    // Sort by site id so iteration order (and any error raised) is
    // deterministic regardless of fencing reply order.
    let mut tables: Vec<&(SiteId, Vec<PartitionId>)> = claims.iter().collect();
    tables.sort_by_key(|(site, _)| *site);
    for (site, mastered) in tables {
        for p in mastered {
            if let Some(other) = claimants.insert(*p, *site) {
                if other != *site {
                    return Err(DynaError::Internal(
                        "two live sites claim mastership of one partition",
                    ));
                }
            }
            map.insert(*p, *site);
        }
    }
    Ok((map, max_epoch))
}

/// One site's state after checkpoint-seeded replay.
pub struct RecoveredSite {
    /// Storage, svv, and resume offsets: the checkpoint image overlaid with
    /// the replayed retained-log suffix.
    pub state: ReplayedState,
    /// The site's ownership-table claims, reconstructed as the checkpoint's
    /// mastered set rolled forward through the own-log grant/release suffix.
    /// Feed these to [`recover_selector_map`] to resolve the cluster-wide
    /// placement map.
    pub claims: Vec<PartitionId>,
    /// Counter of the checkpoint this recovery loaded (0 = none existed;
    /// the next checkpoint the site writes must use a larger counter).
    pub last_checkpoint: u64,
    /// Highest remaster epoch the site had observed: the checkpoint's
    /// persisted watermark maxed with the Release/Grant epochs in the
    /// replayed own-log suffix. Feeds the selector's `epoch_floor` so a
    /// recovery whose logs were truncated past the last remaster record
    /// cannot re-issue already-used epochs.
    pub epoch: u64,
    /// Partitions the site hosted a copy of at the checkpoint cut (`None` =
    /// full replication, or no checkpoint: the replay rebuilt everything).
    /// Copies installed *after* the cut are gone — their rows were never
    /// checkpointed — so this is the site's post-restart hosting truth; the
    /// selector reconciles its replica map against it.
    pub hosted: Option<Vec<PartitionId>>,
}

/// Checks the cut a recovery is about to seed from against the site and the
/// logs. A checkpoint is outside input read from disk: a mismatch must fail
/// the recovery rather than index out of bounds or silently skip records.
fn validate_checkpoint(ckpt: &Checkpoint, site: SiteId, logs: &LogSet) -> Result<()> {
    let m = logs.num_sites();
    if ckpt.site != site || site.as_usize() >= m {
        return Err(DynaError::Internal("checkpoint names another site"));
    }
    if ckpt.svv.dims() != m || ckpt.offsets.len() != m {
        return Err(DynaError::Internal(
            "checkpoint svv or offsets do not match the site count",
        ));
    }
    for (log, (&offset, &sequence)) in logs
        .logs()
        .iter()
        .zip(ckpt.offsets.iter().zip(ckpt.svv.as_slice()))
    {
        if offset != sequence {
            return Err(DynaError::Internal(
                "checkpoint offsets diverge from its svv",
            ));
        }
        // Below the base the suffix it needs was truncated; past the end it
        // references records the disk does not hold.
        if offset < log.base() || offset > log.len() {
            return Err(DynaError::Internal(
                "checkpoint offset lies outside the retained log",
            ));
        }
    }
    Ok(())
}

/// Rebuilds one site from its latest durable checkpoint, if any, plus the
/// retained log suffix (§V-C: "any data site recovers independently by
/// [...] replaying redo logs from the positions indicated by the site
/// version vector"): the store is seeded from the checkpoint image, replay
/// resumes from the checkpointed offsets, and the claims are the
/// checkpoint's mastered set rolled forward through the site's own retained
/// grant/release records (set insert/remove, so double-application across
/// the checkpoint boundary is harmless).
///
/// No checkpoint is the empty checkpoint — nothing installed, cut at offset
/// zero — which is safe because a site that never checkpointed never
/// advanced its truncation floors, so every log retains its full history.
/// Note the bulk-load image is *not* part of the logs: a deployment must
/// checkpoint at least once after the initial population, or rows that were
/// loaded but never rewritten are absent after a disk-only restart.
pub fn recover_site(
    site: SiteId,
    logs: &LogSet,
    ckpt: Option<Checkpoint>,
    catalog: Catalog,
    mvcc_versions: usize,
) -> Result<RecoveredSite> {
    let m = logs.num_sites();
    let ckpt = ckpt.unwrap_or_else(|| Checkpoint {
        counter: 0,
        site,
        svv: VersionVector::zero(m),
        offsets: vec![0; m],
        mastered: Vec::new(),
        epoch: 0,
        base_counter: 0,
        hosted: None,
        image: Vec::new(),
    });
    validate_checkpoint(&ckpt, site, logs)?;
    let Checkpoint {
        counter: last_checkpoint,
        svv,
        offsets,
        mastered,
        mut epoch,
        hosted,
        image,
        ..
    } = ckpt;
    let hosted_set: Option<HashSet<PartitionId>> =
        hosted.as_ref().map(|h| h.iter().copied().collect());
    let store = Store::new(catalog, mvcc_versions);
    // Under partial replication the merged image may carry stale entries of
    // partitions dropped between the incremental and its base; the hosted
    // set is the cut's truth, so filter. A record of an unknown table is
    // kept, so the batch refuses it.
    let hosts = |record: &ImageRecord| match &hosted_set {
        None => true,
        Some(hosted) => store
            .catalog()
            .partition_of(record.key)
            .map_or(true, |partition| hosted.contains(&partition)),
    };
    store.install_batch(image.into_iter().filter(hosts).map(Into::into).collect())?;
    let suffix_start = offsets[site.as_usize()];
    let seed = ReplayedState {
        store,
        svv,
        offsets,
    };
    let state = replay(logs, seed, hosted_set.as_ref())?;
    // Roll the own-log suffix over the checkpointed claims. The ownership
    // table applied these records in log order before each was appended, so
    // replaying them as set operations reconstructs the table exactly (up
    // to the usual one-record table-updated-but-unlogged crash window).
    let mut claims: HashSet<PartitionId> = mastered.into_iter().collect();
    let (records, _) = logs.log(site).read_from(suffix_start)?;
    for record in records {
        match record {
            LogRecord::Grant {
                partition,
                epoch: e,
                ..
            } => {
                claims.insert(partition);
                epoch = epoch.max(e);
            }
            LogRecord::Release {
                partition,
                epoch: e,
                ..
            } => {
                claims.remove(&partition);
                epoch = epoch.max(e);
            }
            LogRecord::Commit { .. } | LogRecord::Noop { .. } => {}
        }
    }
    let mut claims: Vec<PartitionId> = claims.into_iter().collect();
    claims.sort();
    Ok(RecoveredSite {
        state,
        claims,
        last_checkpoint,
        epoch,
        hosted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::ids::{Key, TableId};
    use dynamast_common::{FsyncMode, Row, Value};
    use dynamast_replication::record::WriteEntry;
    use dynamast_storage::VersionStamp;

    const S0: SiteId = SiteId::new(0);
    const S1: SiteId = SiteId::new(1);

    /// One table with `partition_size = 100`: record 7 → partition 0,
    /// record 150 → partition 1.
    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_table("t", 1, 100);
        catalog
    }

    fn key(record: u64) -> Key {
        Key::new(TableId::new(0), record)
    }

    fn row(v: u64) -> Row {
        Row::new(vec![Value::U64(v)])
    }

    fn vv(counts: &[u64]) -> VersionVector {
        VersionVector::from_counts(counts.to_vec())
    }

    fn release(origin: SiteId, sequence: u64, partition: PartitionId, epoch: u64) -> LogRecord {
        LogRecord::Release {
            origin,
            sequence,
            partition,
            epoch,
        }
    }

    fn grant(origin: SiteId, sequence: u64, partition: PartitionId, epoch: u64) -> LogRecord {
        LogRecord::Grant {
            origin,
            sequence,
            partition,
            epoch,
        }
    }

    fn commit(origin: SiteId, tvv: &[u64], writes: &[(Key, u64)]) -> LogRecord {
        LogRecord::Commit {
            origin,
            tvv: vv(tvv),
            writes: writes
                .iter()
                .map(|(key, v)| WriteEntry::new(*key, row(*v)))
                .collect(),
        }
    }

    /// A full checkpoint of `S0` cut at `offsets`, holding `image` rows
    /// stamped at the cut's own sequence.
    fn checkpoint(counter: u64, offsets: &[u64], image: &[(Key, u64)]) -> Checkpoint {
        Checkpoint {
            counter,
            site: S0,
            svv: vv(offsets),
            offsets: offsets.to_vec(),
            mastered: Vec::new(),
            epoch: 0,
            base_counter: 0,
            hosted: None,
            image: image
                .iter()
                .map(|(key, v)| ImageRecord {
                    key: *key,
                    stamp: VersionStamp::new(S0, offsets[0]),
                    row: row(*v),
                })
                .collect(),
        }
    }

    #[test]
    fn selector_map_overlays_history_on_initial_placement() {
        let logs = LogSet::new(2);
        let p1 = PartitionId::new(1);
        let p2 = PartitionId::new(2);
        logs.log(S1).append(&grant(S1, 1, p2, 1));
        let (map, _) = recover_selector_map(&logs, &[(p1, S0), (p2, S0)], &[]).unwrap();
        assert_eq!(map[&p1], S0); // untouched: initial placement
        assert_eq!(map[&p2], S1); // remastered per the log
    }

    #[test]
    fn reconciliation_prefers_the_live_sites_positive_claim() {
        // Log says S1 mastered p (grant epoch 1); but S2's live table claims
        // p — the grant-before-log-append crash window. The site wins.
        let logs = LogSet::new(3);
        let p = PartitionId::new(4);
        logs.log(S1).append(&grant(S1, 1, p, 1));
        let live = vec![(S1, vec![]), (SiteId::new(2), vec![p])];
        let (map, _) = recover_selector_map(&logs, &[(p, S0)], &live).unwrap();
        assert_eq!(map[&p], SiteId::new(2));
    }

    #[test]
    fn reconciliation_rejects_dual_live_claims() {
        let logs = LogSet::new(3);
        let p = PartitionId::new(4);
        let live = vec![(S0, vec![p]), (S1, vec![p])];
        let err = recover_selector_map(&logs, &[], &live).unwrap_err();
        assert_eq!(
            err,
            DynaError::Internal("two live sites claim mastership of one partition")
        );
    }

    #[test]
    fn retained_remaster_epoch_spans_all_logs() {
        let logs = LogSet::new(2);
        assert_eq!(recover_selector_map(&logs, &[], &[]).unwrap().1, 0);
        logs.log(S0).append(&release(S0, 1, PartitionId::new(1), 7));
        logs.log(S1).append(&grant(S1, 1, PartitionId::new(1), 9));
        assert_eq!(recover_selector_map(&logs, &[], &[]).unwrap().1, 9);
    }

    #[test]
    fn checkpointed_recovery_replays_suffix_and_rolls_claims() {
        let logs = LogSet::new(2);
        let p1 = PartitionId::new(1);
        let p2 = PartitionId::new(2);
        let log = logs.log(S0);
        log.append(&grant(S0, 1, p1, 1));
        log.append(&commit(S0, &[2, 0], &[(key(7), 1)]));
        // Everything past here is the post-checkpoint suffix.
        log.append(&commit(S0, &[3, 0], &[(key(7), 2)]));
        log.append(&release(S0, 4, p1, 2));
        log.append(&grant(S0, 5, p2, 3));

        let ckpt = Checkpoint {
            mastered: vec![p1],
            epoch: 3,
            ..checkpoint(9, &[2, 0], &[(key(7), 1)])
        };
        let recovered = recover_site(S0, &logs, Some(ckpt), catalog(), 4).unwrap();
        assert_eq!(recovered.last_checkpoint, 9);
        assert_eq!(recovered.state.svv, vv(&[5, 0]));
        assert_eq!(recovered.state.offsets, vec![5, 0]);
        // The suffix's newer write supersedes the checkpoint image.
        let snap = recovered.state.svv.clone();
        assert_eq!(
            recovered.state.store.read(key(7), &snap).unwrap(),
            Some(row(2))
        );
        // Claims: {p1} from the checkpoint, released in the suffix; p2
        // granted in the suffix.
        assert_eq!(recovered.claims, vec![p2]);
        assert_eq!(recovered.hosted, None);

        // No checkpoint: replay from zero converges on the same state.
        let fresh = recover_site(S0, &logs, None, catalog(), 4).unwrap();
        assert_eq!(fresh.last_checkpoint, 0);
        assert_eq!(fresh.state.svv, vv(&[5, 0]));
        assert_eq!(fresh.claims, vec![p2]);
    }

    /// Partial-replication restart: the checkpoint's hosted set filters both
    /// the image restore (stale dropped-partition entries in a merged
    /// incremental) and the suffix replay (foreign writes skipped, svv still
    /// advanced), and is surfaced for selector-side reconciliation.
    #[test]
    fn checkpointed_recovery_respects_the_hosted_set() {
        let logs = LogSet::new(2);
        let p0 = PartitionId::new(0);
        let (hosted_key, foreign_key) = (key(7), key(150));
        // Post-checkpoint suffix touches both partitions.
        logs.log(S0)
            .append(&commit(S0, &[1, 0], &[(hosted_key, 2), (foreign_key, 9)]));

        // The image's second entry is stale: its partition was dropped
        // before the cut.
        let ckpt = Checkpoint {
            mastered: vec![p0],
            hosted: Some(vec![p0]),
            ..checkpoint(3, &[0, 0], &[(hosted_key, 1), (foreign_key, 8)])
        };
        let recovered = recover_site(S0, &logs, Some(ckpt), catalog(), 4).unwrap();
        assert_eq!(recovered.hosted, Some(vec![p0]));
        assert_eq!(recovered.state.svv, vv(&[1, 0]));
        let snap = recovered.state.svv.clone();
        assert_eq!(
            recovered.state.store.read(hosted_key, &snap).unwrap(),
            Some(row(2))
        );
        assert_eq!(
            recovered.state.store.read(foreign_key, &snap).unwrap(),
            None
        );
    }

    #[test]
    fn recover_site_lists_only_its_partitions() {
        let logs = LogSet::new(2);
        let p = PartitionId::new(9);
        logs.log(S0).append(&grant(S0, 1, p, 1));
        // A site's mastered set is the reconciled map filtered to that site.
        let mastered = |site: SiteId| -> Vec<PartitionId> {
            let recovered = recover_site(site, &logs, None, catalog(), 4).unwrap();
            let (map, _) = recover_selector_map(&logs, &[], &[(site, recovered.claims)]).unwrap();
            map.into_iter()
                .filter(|(_, s)| *s == site)
                .map(|(p, _)| p)
                .collect()
        };
        assert_eq!(mastered(S0), vec![p]);
        assert!(mastered(S1).is_empty());
    }

    /// A checkpoint is input from disk: every way it can disagree with the
    /// site and logs it is loaded against is an error, never a panic.
    #[test]
    fn recover_site_rejects_a_checkpoint_that_does_not_fit() {
        // On-disk logs with tiny segments, so log 0 can be truncated: it
        // holds offsets base..30 with 0 < base <= 20; log 1 is empty.
        let dir = std::env::temp_dir().join(format!("dynamast-ckpt-fit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let logs = LogSet::open_persistent(2, &dir, 64, FsyncMode::Group).unwrap();
        for sequence in 1..=30 {
            logs.log(S0).append(&LogRecord::Noop {
                origin: S0,
                sequence,
            });
        }
        for consumer in 0..2 {
            logs.log(S0).record_consumer_floor(consumer, 20).unwrap();
        }
        assert!(logs.log(S0).base() > 0);

        let fits = checkpoint(1, &[25, 0], &[]);
        let recovered = recover_site(S0, &logs, Some(fits.clone()), catalog(), 4).unwrap();
        assert_eq!(recovered.state.offsets, vec![30, 0]);

        let other_site = "checkpoint names another site";
        let width = "checkpoint svv or offsets do not match the site count";
        let diverged = "checkpoint offsets diverge from its svv";
        let outside = "checkpoint offset lies outside the retained log";
        let cases = [
            (
                Some(Checkpoint {
                    site: S1,
                    ..fits.clone()
                }),
                other_site,
            ),
            (
                Some(Checkpoint {
                    svv: vv(&[25, 0, 0]),
                    ..fits.clone()
                }),
                width,
            ),
            (
                Some(Checkpoint {
                    offsets: vec![25],
                    ..fits.clone()
                }),
                width,
            ),
            (
                Some(Checkpoint {
                    offsets: vec![24, 0],
                    ..fits
                }),
                diverged,
            ),
            // The suffix the cut needs was truncated away.
            (Some(checkpoint(1, &[0, 0], &[])), outside),
            // The cut references records the disk does not hold.
            (Some(checkpoint(1, &[25, 1], &[])), outside),
            // No checkpoint at all over a truncated log.
            (None, outside),
        ];
        for (ckpt, expected) in cases {
            match recover_site(S0, &logs, ckpt, catalog(), 4) {
                Err(err) => assert_eq!(err, DynaError::Internal(expected)),
                Ok(_) => panic!("recovery should have been refused: {expected}"),
            }
        }
        drop(logs);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
