//! The hosting role of a data site: partial replication (§IV-B). A site has
//! it only under `ReplicationMode::Partial`; without it the site hosts every
//! partition.
//!
//! It owns the per-partition replica lifecycle (the hosted map and the
//! install buffers), the subscription filter's frontier, admission of
//! transactions to hosted partitions, the AddReplica / DropReplica /
//! ReplicaSnapshot provisioning endpoints, and the count of refresh writes
//! the filter skipped.

use std::collections::HashMap;
use std::sync::Arc;

use dynamast_common::audit::EffectBatch;
use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::metrics::Counter;
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_replication::record::{LogRecord, WriteEntry};
use dynamast_storage::{ImageRecord, ReadAt, VersionStamp};

use crate::data_site::DataSite;
use crate::pipeline::Install;
use crate::proc::ProcCall;

/// The copies a site starts with under partial replication; the
/// `DataSiteConfig` argument that gives a site its hosting role.
pub struct HostedCopies {
    /// Partitions this site initially holds a copy of.
    pub partitions: Vec<PartitionId>,
    /// Shared counter of refresh-record writes the subscription filter
    /// dropped because this site hosts no copy of their partition
    /// (`refresh_records_skipped` in the metrics snapshot).
    pub skipped: Arc<Counter>,
}

/// Per-partition replica lifecycle at this site. A partition absent from
/// [`Replicas::map`] is not hosted: its refresh writes are stripped (the
/// subscription filter) and reads are rejected with `NotReplica`.
enum ReplicaState {
    /// `AddReplica` in progress: the snapshot + log catch-up install is
    /// running, and the filter diverts the partition's live refresh writes
    /// into this buffer instead of dropping or applying them. Each write
    /// carries its commit's version-vector component sum — a linear
    /// extension of causal dominance, so sorting by it reconstructs the
    /// per-key causal install order across origins (mastership hand-off
    /// totally orders same-key writes).
    Buffering(Vec<(u64, ImageRecord)>),
    /// Fully installed: refresh writes apply, reads are admitted.
    Hosted,
}

/// The partial-replication state machine guarding which partitions this
/// site holds. One mutex, taken briefly per refresh batch (the filter
/// pre-pass) and per provisioning operation — never held across a log
/// append, an svv wait, or a network call, so the refresh appliers of other
/// origins can always make progress (no cross-origin admission deadlock).
struct Replicas {
    map: HashMap<PartitionId, ReplicaState>,
    /// Highest origin sequence the subscription filter has seen, per
    /// origin. `AddReplica` snapshots this as its catch-up ceiling: every
    /// partition write at or below the frontier was either applied (hosted)
    /// or stripped (absent) before buffering began, so the catch-up range
    /// `(src_svv[o], frontier[o]]` plus the buffer is gap-free.
    frontier: Vec<u64>,
}

/// What the hosting role keeps.
pub(crate) struct HostingState {
    replicas: parking_lot::Mutex<Replicas>,
    skipped: Arc<Counter>,
}

impl HostingState {
    /// Starts hosting `copies` at a site whose svv is `svv`.
    pub(crate) fn new(copies: HostedCopies, svv: &VersionVector) -> Self {
        HostingState {
            replicas: parking_lot::Mutex::new(Replicas {
                map: copies
                    .partitions
                    .into_iter()
                    .map(|p| (p, ReplicaState::Hosted))
                    .collect(),
                // Everything at or below the (possibly recovered) svv was
                // already settled locally — applied, stripped, or replayed —
                // so the filter's frontier starts at the clock, not at zero.
                frontier: svv.as_slice().to_vec(),
            }),
            skipped: copies.skipped,
        }
    }
}

/// A data site seen as a partial replica; from [`DataSite::hosting`].
pub struct Hosting<'a> {
    pub(crate) site: &'a DataSite,
    pub(crate) state: &'a HostingState,
}

impl Hosting<'_> {
    /// `true` if the partition's copy is fully installed here (a mid-install
    /// `Buffering` copy does not count).
    pub fn hosts(&self, partition: PartitionId) -> bool {
        matches!(
            self.state.replicas.lock().map.get(&partition),
            Some(ReplicaState::Hosted)
        )
    }

    /// The fully installed partitions, sorted. Mid-install (`Buffering`)
    /// copies are excluded: a checkpoint or reconciliation snapshot must
    /// never claim a copy that is not yet complete.
    pub fn partitions(&self) -> Vec<PartitionId> {
        let mut parts: Vec<PartitionId> = self
            .state
            .replicas
            .lock()
            .map
            .iter()
            .filter(|(_, s)| matches!(s, ReplicaState::Hosted))
            .map(|(p, _)| *p)
            .collect();
        parts.sort_unstable();
        parts
    }

    /// Directly marks `partition` as hosted (bulk-load seeding and test
    /// setup — before any traffic, so no protocol-mediated install is
    /// needed). No-op when an install is already in flight.
    pub fn host(&self, partition: PartitionId) {
        self.state
            .replicas
            .lock()
            .map
            .entry(partition)
            .or_insert(ReplicaState::Hosted);
    }

    /// Admission (§IV-B): every partition the transaction declares —
    /// writes, point reads, and the partitions a range scan spans — must be
    /// fully hosted here, else the caller gets [`DynaError::NotReplica`] and
    /// the selector routes elsewhere (or provisions a copy first).
    pub(crate) fn admit(&self, proc: &ProcCall) -> Result<()> {
        let partitions = proc.partitions(self.site.store.catalog(), |_| false)?;
        let replicas = self.state.replicas.lock();
        for p in partitions {
            if !matches!(replicas.map.get(&p), Some(ReplicaState::Hosted)) {
                return Err(DynaError::NotReplica {
                    site: self.site.id,
                    partition: p,
                });
            }
        }
        Ok(())
    }

    /// Installs a copy of `partition` at this site (LEAP-style data
    /// shipping): snapshot image + durable-log catch-up + live-buffer
    /// drain, with the subscription filter diverting concurrent refresh
    /// writes into the buffer so no write is lost or duplicated.
    ///
    /// Every partition write lands in exactly one of three disjoint ranges
    /// per origin `o`: `seq ≤ src_svv[o]` is in the snapshot image;
    /// `src_svv[o] < seq ≤ F[o]` (the filter frontier when buffering began)
    /// is read back from the shared durable logs; `seq > F[o]` was diverted
    /// into the buffer (per-origin delivery is in order). Catch-up and
    /// buffer are installed together sorted by tvv component sum — a linear
    /// extension of the same-key causal order, since single-master
    /// serialization makes a later same-key write's tvv dominate the
    /// earlier one's componentwise — so version chains end up in causal
    /// install order even across origins.
    pub fn add_replica(
        &self,
        partition: PartitionId,
        records: Vec<ImageRecord>,
        src_svv: &VersionVector,
    ) -> Result<VersionVector> {
        let site = self.site;
        let replicas = &self.state.replicas;
        // Phase 1: announce the install; from here the filter diverts this
        // partition's refresh writes into the buffer. The frontier snapshot
        // is the catch-up ceiling.
        let frontier = {
            let mut state = replicas.lock();
            match state.map.get(&partition) {
                Some(ReplicaState::Hosted) => return Ok(site.clock.current()),
                Some(ReplicaState::Buffering(_)) => {
                    return Err(DynaError::Internal("replica install already in progress"))
                }
                None => {}
            }
            state
                .map
                .insert(partition, ReplicaState::Buffering(Vec::new()));
            state.frontier.clone()
        };
        let install = || -> Result<()> {
            // Phase 2: install the snapshot image (the source's visible cut
            // at `src_svv`).
            site.store
                .install_batch(records.into_iter().map(Into::into).collect())?;
            // Phase 3: collect the durable-log suffix the filter stripped
            // while the partition was absent — sequences in
            // `(src_svv[o], frontier[o]]` per origin (slot s holds
            // sequence s + 1), read in one run per origin up to its
            // published end.
            let mut pending: Vec<(u64, ImageRecord)> = Vec::new();
            for (origin_idx, &ceiling) in frontier.iter().enumerate() {
                let origin = SiteId::new(origin_idx);
                let log = site.logs.log(origin);
                let (records, _) = log.read_range(src_svv.get(origin), Some(ceiling))?;
                for record in records {
                    let LogRecord::Commit {
                        origin,
                        tvv,
                        writes,
                    } = record
                    else {
                        continue;
                    };
                    let stamp = VersionStamp::new(origin, tvv.get(origin));
                    let sum: u64 = tvv.as_slice().iter().sum();
                    for WriteEntry { key, row } in writes {
                        if site.store.catalog().partition_of(key)? == partition {
                            pending.push((sum, ImageRecord { key, stamp, row }));
                        }
                    }
                }
            }
            // Phase 4: drain the live buffer and flip to Hosted atomically
            // with respect to the filter. The installs run under the hosted
            // mutex — the filter never holds row locks, so there is no lock
            // inversion, and releasing the mutex before installing would let
            // newer refresh writes land in the version chains *before*
            // older buffered ones (chain reads scan newest-last).
            let mut state = replicas.lock();
            match state.map.get_mut(&partition) {
                Some(ReplicaState::Buffering(buf)) => {
                    let buffered = std::mem::take(buf);
                    pending.extend(
                        buffered
                            .into_iter()
                            .filter(|(_, w)| w.stamp.sequence > src_svv.get(w.stamp.origin)),
                    );
                    pending.sort_by_key(|(sum, _)| *sum);
                    site.store
                        .install_batch(pending.into_iter().map(|(_, w)| w.into()).collect())?;
                    state.map.insert(partition, ReplicaState::Hosted);
                    Ok(())
                }
                _ => Err(DynaError::Internal("replica install state lost")),
            }
        };
        if let Err(e) = install() {
            // Roll back to "not hosted": drop the half-built copy so a
            // retry starts from a clean slate and reads keep rejecting.
            replicas.lock().map.remove(&partition);
            let _ = site.store.purge_partition(partition);
            return Err(e);
        }
        // Phase 5: serve reads only once the local svv covers the snapshot
        // cut, and re-baseline the audit plane — the installed copies are
        // new state at this site, exactly like a restart image.
        site.clock.wait_dominates(src_svv)?;
        if let Some(rec) = &site.recorder {
            dynamast_common::audit::emit_site_restart(rec, site.id.raw());
        }
        Ok(site.clock.current())
    }

    /// Drops this site's copy of `partition`, purging its rows and
    /// returning `(rows, bytes)` freed. Refuses on the current master (the
    /// master must host its data); idempotent if the copy is already gone.
    /// The selector removes this site from the replica map *before* issuing
    /// the RPC — no new reads route here — and the floor check lives
    /// selector-side where the global copy count is known.
    pub fn drop_replica(&self, partition: PartitionId) -> Result<(u64, u64)> {
        if self.site.ownership.is_mastered(partition) {
            return Err(DynaError::Internal("refusing to drop the master's copy"));
        }
        let mut state = self.state.replicas.lock();
        match state.map.get(&partition) {
            None => Ok((0, 0)),
            Some(ReplicaState::Buffering(_)) => {
                Err(DynaError::Internal("replica install in progress"))
            }
            Some(ReplicaState::Hosted) => {
                state.map.remove(&partition);
                // Purge under the mutex: a concurrent re-install (phase 1)
                // must not start copying before the old rows are gone.
                let (rows, bytes) = self.site.store.purge_partition(partition)?;
                Ok((rows as u64, bytes))
            }
        }
    }

    /// The subscription filter: one mutex hold per admissible run, deciding
    /// per write without touching the shared records. Writes to hosted
    /// partitions install; writes to unhosted partitions are stripped — the
    /// record itself still applies and advances the svv, because Eq. 1
    /// admission is per-origin and gap-free, so dropping whole records would
    /// wedge the site — writes to partitions mid-install are diverted into
    /// the install buffer, and the per-origin frontier advances for every
    /// record kind so a concurrent [`Hosting::add_replica`] knows exactly
    /// which prefix the filter already settled.
    pub(crate) fn filter(&self, run: &[LogRecord], installs: &mut Vec<Install>) {
        let site = self.site;
        // A stripped write that is neither installed nor declared would
        // (rightly) read as a missing install to the audit plane's
        // completeness checker; the declarations go out after the lock
        // drops.
        let audit = site.recorder.as_deref().filter(|r| r.audit_enabled());
        let mut skips = audit.map(|_| EffectBatch::default());
        let mut skipped = 0u64;
        let mut state = self.state.replicas.lock();
        for record in run {
            if let LogRecord::Commit {
                origin,
                tvv,
                writes,
            } = record
            {
                let (origin, seq) = (*origin, tvv.get(*origin));
                let stamp = VersionStamp::new(origin, seq);
                let sum: u64 = tvv.as_slice().iter().sum();
                for w in writes {
                    let install = match site.store.catalog().partition_of(w.key) {
                        Err(_) => true,
                        Ok(p) => match state.map.get_mut(&p) {
                            Some(ReplicaState::Hosted) => true,
                            Some(ReplicaState::Buffering(buf)) => {
                                buf.push((
                                    sum,
                                    ImageRecord {
                                        key: w.key,
                                        stamp,
                                        row: w.row.clone(),
                                    },
                                ));
                                false
                            }
                            None => {
                                skipped += 1;
                                if let Some(batch) = skips.as_mut() {
                                    batch.refresh_skip(
                                        site.id.raw(),
                                        p.raw(),
                                        w.key.table.raw(),
                                        w.key.record,
                                        origin.raw(),
                                        seq,
                                    );
                                }
                                false
                            }
                        },
                    };
                    if install {
                        installs.push((w.key, stamp, w.row.clone()));
                    }
                }
            }
            let f = &mut state.frontier[record.origin().as_usize()];
            *f = (*f).max(record.sequence());
        }
        drop(state);
        if skipped > 0 {
            self.state.skipped.add(skipped);
        }
        if let (Some(rec), Some(mut batch)) = (audit, skips) {
            batch.flush(rec);
        }
    }
}

/// Serves a partition copy to a provisioning peer: the current svv cut
/// plus every version of the partition visible at that cut. The cut is
/// taken *before* the dump, so every shipped stamp is at or below the cut
/// per origin and the receiver's log catch-up range starts exactly where
/// the image ends. A site without the hosting role hosts every partition.
pub(crate) fn replica_snapshot(
    site: &DataSite,
    partition: PartitionId,
) -> Result<(Vec<ImageRecord>, VersionVector)> {
    if site
        .hosting()
        .is_some_and(|hosting| !hosting.hosts(partition))
    {
        return Err(DynaError::NotReplica {
            site: site.id,
            partition,
        });
    }
    let cut = site.clock.current();
    let records = site.store.image(ReadAt::Begin(&cut), Some(&[partition]))?;
    Ok((records, cut))
}
