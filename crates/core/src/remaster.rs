//! Mastership transfer for the site selector: the **one** release/grant
//! executor (Algorithm 1, §III-B).
//!
//! [`SiteSelector::execute_moves`]: given exclusive map guards and a list of
//! moves to one destination, group the moves by source, send every source's
//! `Release` before waiting on any, fire each source's `Grant` the moment
//! its release settles, grant unplaced partitions directly, and apply one
//! failure rule per move. The routing slow path, the back-grant and the
//! standby's failover repair all move mastership through it; nothing else
//! builds a `Release` or `Grant`.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::trace::{TraceKind, TracePayload};
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_network::{CrashPoint, EndpointId, PendingReply, TrafficCategory};
use dynamast_site::messages::{expect_ok, SiteRequest, SiteResponse};
use parking_lot::RwLockWriteGuard;

use super::SiteSelector;
use crate::partition_map::{PartitionEntry, PartitionMeta};

/// Moves that landed, each with the releaser whose copy may now retire
/// (frozen replica sets: a copy *follows* the master).
type Moved = Vec<(PartitionId, SiteId)>;

impl SiteSelector {
    /// Allocates the next remaster epoch.
    pub(crate) fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Moves mastership of `moves` — `(index into partitions / entries /
    /// guards, current master or None if unplaced)` — to `dest`, under the
    /// exclusive map guards the caller holds (Algorithm 1).
    ///
    /// Moves are grouped by source. Every source's `Release` leaves before
    /// any is waited on; a source's `Grant` leaves as soon as its release
    /// settles; unplaced partitions have nothing to release and are granted
    /// at once. Each move then ends in exactly one of three states:
    ///
    /// * its release failed — it stays where the map says it is;
    /// * released, but the grant did not land — it is granted back to its
    ///   releaser (best effort: should that fail too, the map still names
    ///   the releaser, whose next `Release` replays the recorded `rel_vv`,
    ///   and recovery resolves a release without a grant the same way);
    /// * both landed — `set_master`, statistics.
    ///
    /// Returns the merged grant vector (the transaction's minimum begin
    /// version), the mastered partitions that moved with their releasers —
    /// for the caller to [`SiteSelector::retire_followed`] once it has let
    /// go of its guards — and the first per-move failure. `Err` means the
    /// selector crashed at a [`CrashPoint`]: a dead process backs nothing
    /// out.
    pub(super) fn execute_moves(
        &self,
        txn_id: u64,
        partitions: &[PartitionId],
        entries: &[Arc<PartitionEntry>],
        guards: &mut [RwLockWriteGuard<'_, PartitionMeta>],
        moves: &[(usize, Option<SiteId>)],
        dest: SiteId,
    ) -> Result<(VersionVector, Moved, Option<DynaError>)> {
        let mut by_source: BTreeMap<Option<SiteId>, Vec<usize>> = BTreeMap::new();
        for &(i, source) in moves {
            by_source.entry(source).or_default().push(i);
        }
        let sources: Vec<(Option<SiteId>, Vec<usize>)> = by_source.into_iter().collect();
        // The parallelism ablation (DESIGN §6): one source per round, so a
        // source's release and grant both settle before the next source
        // hears anything.
        let per_round = if self.config.sequential_remastering {
            1
        } else {
            sources.len().max(1)
        };
        // One recorder event per partition and protocol step (a placement
        // has no releaser: `from == to` marks it).
        let step = |kind: TraceKind, i: usize, from: Option<SiteId>, epoch: u64| {
            let payload = TracePayload::Remaster {
                partition: partitions[i].raw(),
                from: from.unwrap_or(dest).raw(),
                to: dest.raw(),
                epoch,
            };
            self.trace(txn_id, kind, payload);
        };
        let grant_dest = |releaser: Option<SiteId>, landed: Vec<(usize, u64, VersionVector)>| {
            self.crash_check(CrashPoint::BeforeGrantSend)?;
            let grants = landed
                .iter()
                .map(|(i, epoch, rel_vv)| (partitions[*i], *epoch, rel_vv.clone()))
                .collect();
            let (req, pending) = self.send_grant(dest, grants);
            for (i, epoch, _) in &landed {
                step(TraceKind::GrantSend, *i, releaser, *epoch);
            }
            self.crash_check(CrashPoint::AfterGrantSend)?;
            Ok::<_, DynaError>((releaser, landed, req, pending))
        };

        let mut grant_vv = VersionVector::zero(self.config.num_sites);
        let mut placed = 0u64;
        let mut first_err: Option<DynaError> = None;
        let mut moved = Moved::new();
        for round in sources.chunks(per_round) {
            let mut releases = Vec::new();
            let mut grants = Vec::new();
            for (source, idxs) in round {
                let sent: Vec<(usize, u64)> =
                    idxs.iter().map(|&i| (i, self.next_epoch())).collect();
                let Some(src) = *source else {
                    let zero = VersionVector::zero(self.config.num_sites);
                    let landed = sent.into_iter().map(|(i, e)| (i, e, zero.clone()));
                    grants.push(grant_dest(None, landed.collect())?);
                    continue;
                };
                self.crash_check(CrashPoint::BeforeReleaseSend)?;
                let req = SiteRequest::Release {
                    moves: sent.iter().map(|&(i, e)| (partitions[i], e)).collect(),
                    generation: self.generation,
                };
                let pending = self.send_remaster(src, &req, sent.len());
                for &(i, epoch) in &sent {
                    step(TraceKind::ReleaseSend, i, *source, epoch);
                }
                releases.push((src, sent, req, pending));
            }
            for (src, sent, req, pending) in releases {
                let results = self.settle_moves(src, &req, pending, sent.len());
                let mut src_vv = VersionVector::zero(self.config.num_sites);
                let mut landed = Vec::new();
                for ((i, epoch), result) in sent.into_iter().zip(results) {
                    match result {
                        Ok(rel_vv) => {
                            step(TraceKind::ReleaseAck, i, Some(src), epoch);
                            src_vv.merge_max(&rel_vv);
                            landed.push((i, epoch, rel_vv));
                        }
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                if !landed.is_empty() {
                    self.crash_check(CrashPoint::AfterReleaseAck)?;
                    self.observe_site_vv(src, &src_vv);
                    grants.push(grant_dest(Some(src), landed)?);
                }
            }
            // Every in-flight grant is settled even once one has failed:
            // each may still have taken effect at `dest`.
            for (releaser, landed, req, pending) in grants {
                let results = self.settle_moves(dest, &req, pending, landed.len());
                let mut back = Vec::new();
                for ((i, epoch, rel_vv), result) in landed.into_iter().zip(results) {
                    match result {
                        Ok(vv) => {
                            step(TraceKind::GrantAck, i, releaser, epoch);
                            grant_vv.merge_max(&vv);
                            entries[i].set_master(&mut guards[i], dest);
                            self.stats.on_remaster(partitions[i], dest);
                            match releaser {
                                Some(releaser) => moved.push((partitions[i], releaser)),
                                // First-touch placements are not
                                // remasterings: nothing released.
                                None => placed += 1,
                            }
                        }
                        Err(e) => {
                            first_err.get_or_insert(e);
                            back.push((partitions[i], epoch, rel_vv));
                        }
                    }
                }
                if let (Some(releaser), false) = (releaser, back.is_empty()) {
                    let _ = self.regrant(releaser, back);
                }
            }
        }
        self.placements.add(placed);
        self.partitions_moved.add(moved.len() as u64);
        self.observe_site_vv(dest, &grant_vv);
        Ok((grant_vv, moved, first_err))
    }

    /// The executor's grant half on its own, for partitions that sit
    /// released with no master: a move whose grant did not land goes back to
    /// its releaser under the epoch it was released at, and a promoting
    /// standby (§V-C) re-grants what its predecessor left in the
    /// release-without-grant window at fresh epochs.
    pub(crate) fn regrant(
        &self,
        to: SiteId,
        grants: Vec<(PartitionId, u64, VersionVector)>,
    ) -> Vec<Result<VersionVector>> {
        let moves = grants.len();
        let (req, pending) = self.send_grant(to, grants);
        self.settle_moves(to, &req, pending, moves)
    }

    /// Builds and sends one `Grant` RPC.
    fn send_grant(
        &self,
        to: SiteId,
        grants: Vec<(PartitionId, u64, VersionVector)>,
    ) -> (SiteRequest, Result<PendingReply>) {
        let moves = grants.len();
        let req = SiteRequest::Grant {
            grants,
            generation: self.generation,
        };
        let pending = self.send_remaster(to, &req, moves);
        (req, pending)
    }

    /// Sends one release/grant-class RPC carrying `moves` moves and counts
    /// it: moves beyond the first are round trips saved by sharing the RPC.
    fn send_remaster(&self, to: SiteId, req: &SiteRequest, moves: usize) -> Result<PendingReply> {
        self.remaster_rpcs.inc();
        self.remaster_rpcs_saved.add(moves.saturating_sub(1) as u64);
        self.remaster_batch_size
            .record(Duration::from_micros(moves as u64));
        self.network.rpc_async(
            EndpointId::Site(to.raw()),
            TrafficCategory::Remaster,
            Bytes::from(encode_to_vec(req)),
        )
    }

    /// Settles one in-flight remaster RPC into its per-move results: rides
    /// the already-sent async request first; a lost request or reply falls
    /// back to full retransmission under the network's retry policy — safe
    /// because release and grant are idempotent per `(partition, epoch)` at
    /// the data sites. A transport failure, or a rejection of the whole RPC
    /// (a fenced selector gets `StaleSelector`), fails every move alike.
    fn settle_moves(
        &self,
        to: SiteId,
        req: &SiteRequest,
        pending: Result<PendingReply>,
        moves: usize,
    ) -> Vec<Result<VersionVector>> {
        let retry = self.network.config().retry;
        let reply = match pending.and_then(|p| p.wait_timeout(retry.attempt_timeout)) {
            Err(DynaError::Timeout { .. } | DynaError::Network(_)) => self.network.rpc_with_retry(
                &retry,
                None,
                EndpointId::Site(to.raw()),
                TrafficCategory::Remaster,
                Bytes::from(encode_to_vec(req)),
            ),
            settled => settled,
        };
        match reply.and_then(|r| expect_ok(&r)) {
            Ok(SiteResponse::Released { results } | SiteResponse::Granted { results })
                if results.len() == moves =>
            {
                results
                    .into_iter()
                    .map(|result| result.map_err(DynaError::from))
                    .collect()
            }
            Ok(_) => vec![Err(DynaError::Internal("unexpected remaster response")); moves],
            Err(e) => vec![Err(e); moves],
        }
    }
}
