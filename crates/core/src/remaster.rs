//! Mastership transfer for the site selector: the **one** release/grant
//! executor (Algorithm 1, §III-B) and the epoch policy that feeds it.
//!
//! Mechanism — [`SiteSelector::execute_moves`]: given exclusive map guards
//! and a list of moves to one destination, group the moves by source, send
//! every source's `Release` before waiting on any, fire each source's
//! `Grant` the moment its release settles, grant unplaced partitions
//! directly, and apply one failure rule per move. The routing slow path,
//! the epoch flush, the back-grant and the standby's failover repair all
//! move mastership through it; nothing else builds a `Release` or `Grant`.
//!
//! Policy — the epoch queue: with `remaster_batching` on, a sole-master
//! group whose master looks overloaded is *queued* for a move instead of
//! moved, and the queue is planned and executed at the epoch boundary.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::trace::{next_trace_id, TraceKind, TracePayload};
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_network::{CrashPoint, EndpointId, PendingReply, TrafficCategory};
use dynamast_site::messages::{expect_ok, SiteRequest, SiteResponse};
use parking_lot::RwLockWriteGuard;

use super::{sole_master, SiteSelector};
use crate::partition_map::{PartitionEntry, PartitionMeta};
use crate::strategy::{confirm_group_destination, ScoreInputs};

/// Imbalance probe (epoch batching only): a sole-master fast-path group is
/// considered for a deferred move when its master's tracked load exceeds
/// `REBALANCE_FACTOR ×` the mean site load, once at least
/// `REBALANCE_MIN_TOTAL` writes have been attributed overall. Both reads are
/// relaxed-atomic approximations — the flush re-scores under exclusive locks
/// before anything actually moves.
const REBALANCE_FACTOR: f64 = 1.5;
const REBALANCE_MIN_TOTAL: f64 = 64.0;

/// Moves that landed, each with the releaser whose copy may now retire
/// (frozen replica sets: a copy *follows* the master).
type Moved = Vec<(PartitionId, SiteId)>;

/// One queued ownership move: where the partition should go and how many
/// transactions have been routed to its *current* master while it waited.
pub(super) struct PendingMove {
    /// Destination decided at enqueue time (re-scored as a group at flush).
    /// May equal the current master — such entries are sticky "scored,
    /// stay put" markers that stop the imbalance probe from re-scoring the
    /// same group on every route; the flush discards them.
    dest: SiteId,
    /// Fast-path routes that executed at the old master since enqueue.
    deferrals: u32,
}

/// The epoch's pending-move queue (guarded by one leaf mutex; touched only
/// when `remaster_batching` is enabled — a flush drains it *before* taking
/// any partition-map lock).
#[derive(Default)]
pub(super) struct EpochQueue {
    moves: HashMap<PartitionId, PendingMove>,
    /// When the first move of the open epoch was queued (time trigger).
    started: Option<Instant>,
}

impl SiteSelector {
    // ---- The release/grant executor ----

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
    /// * both landed — `set_master`, statistics, queue.
    ///
    /// `before_grant` is the crash point between a settled release and its
    /// grant: `BeforeGrantSend` on the routing path, `MidBatchGrant` in an
    /// epoch flush, where dying there also tears the flush.
    ///
    /// Returns the merged grant vector (the transaction's minimum begin
    /// version), the mastered partitions that moved with their releasers —
    /// for the caller to [`SiteSelector::retire_followed`] once it has let
    /// go of its guards — and the first per-move failure. `Err` means the
    /// selector crashed at a [`CrashPoint`]: a dead process backs nothing
    /// out.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn execute_moves(
        &self,
        txn_id: u64,
        partitions: &[PartitionId],
        entries: &[Arc<PartitionEntry>],
        guards: &mut [RwLockWriteGuard<'_, PartitionMeta>],
        moves: &[(usize, Option<SiteId>)],
        dest: SiteId,
        before_grant: CrashPoint,
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
            self.crash_check(before_grant)?;
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
                            self.drop_pending(partitions[i]);
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

    // ---- The epoch policy: queue now, move at the boundary ----

    /// Number of moves currently queued for the next epoch boundary
    /// (tests and diagnostics; counts sticky "stay put" markers too).
    pub fn pending_moves(&self) -> usize {
        self.pending.lock().moves.len()
    }

    /// Forgets a queued move once the partition has moved.
    fn drop_pending(&self, partition: PartitionId) {
        if self.config.remaster_batching {
            self.pending.lock().moves.remove(&partition);
        }
    }

    /// Per-route bookkeeping on the sole-master fast path when epoch
    /// batching is on. Never stalls the transaction: the group keeps
    /// executing at `master` (the no-stall guarantee), and only a blown
    /// wait budget forces the epoch to flush early — in which case the
    /// group's post-flush master is returned for re-routing, or `None` if
    /// the flush (which plans partition by partition) split the group, so
    /// that the caller co-locates it again on the slow path.
    pub(super) fn epoch_tick(
        &self,
        txn_id: u64,
        cvv: &VersionVector,
        partitions: &[PartitionId],
        master: SiteId,
    ) -> Result<Option<SiteId>> {
        let budget = self.config.remaster_wait_budget;
        let (force_flush, unqueued) = {
            let mut q = self.pending.lock();
            let mut force = false;
            let mut unqueued: Vec<PartitionId> = Vec::new();
            for p in partitions {
                match q.moves.get_mut(p) {
                    Some(pm) => {
                        pm.deferrals += 1;
                        if pm.deferrals > budget {
                            if pm.dest != master {
                                force = true;
                            } else {
                                // A "stay put" verdict expires after a
                                // budget's worth of routes: the load picture
                                // that justified it may have shifted.
                                q.moves.remove(p);
                            }
                        }
                    }
                    None => unqueued.push(*p),
                }
            }
            (force, unqueued)
        };
        // Imbalance probe: a cheap relaxed read of the per-site load
        // attribution; full Eq. 8 scoring runs only when this master looks
        // overloaded. Partitions are scored individually — moving a whole
        // co-hot set wholesale never improves balance, spreading it does —
        // and every verdict is cached in the queue (a "stay put" included)
        // so each partition is scored once per epoch, not once per route.
        if !force_flush && !unqueued.is_empty() {
            let load = self.stats.approx_site_load();
            let total: f64 = load.iter().sum();
            let mean = total / load.len().max(1) as f64;
            if total >= REBALANCE_MIN_TOTAL && load[master.as_usize()] > REBALANCE_FACTOR * mean {
                for p in &unqueued {
                    let (dest, cands) = self.score_candidates(&[*p], &[Some(master)], cvv);
                    if dest != master {
                        // Decision explainability for deferred moves: epoch 0
                        // marks "queued, epoch not yet assigned"; the flush
                        // emits the final epoch-stamped decision.
                        self.trace(
                            txn_id,
                            TraceKind::RemasterDecision,
                            TracePayload::Decision {
                                chosen: dest.raw(),
                                partitions: 1,
                                epoch: 0,
                                candidates: Arc::new(cands),
                            },
                        );
                    }
                    let mut q = self.pending.lock();
                    if q.started.is_none() {
                        q.started = Some(Instant::now());
                    }
                    q.moves
                        .entry(*p)
                        .or_insert(PendingMove { dest, deferrals: 0 });
                }
            }
        }
        let boundary = {
            let q = self.pending.lock();
            q.moves.len() >= self.config.epoch_max_moves.max(1)
                || (self.config.epoch_interval > Duration::ZERO
                    && q.started
                        .is_some_and(|t| t.elapsed() >= self.config.epoch_interval))
        };
        if force_flush || boundary {
            self.flush_epoch_traced(txn_id)?;
            if force_flush {
                // The waiting group just moved (or a concurrent flush beat
                // us to it) — route wherever the map says it lives now.
                let entries = self.map.entries_for(partitions);
                let guards = self.map.lock_shared(&entries);
                let masters: Vec<Option<SiteId>> = guards.iter().map(|g| g.master).collect();
                return Ok(sole_master(&masters));
            }
        }
        Ok(Some(master))
    }

    /// Flushes the open epoch now: drains the pending queue, plans a
    /// destination per partition and executes the moves one (source,
    /// destination) site pair at a time. Public so benches and tests can
    /// force epoch boundaries; routing calls it when the epoch's move
    /// count, age, or a wait budget trips it.
    pub fn flush_epoch(&self) -> Result<()> {
        self.flush_epoch_traced(next_trace_id())
    }

    /// Time-trigger check used by the background svv probe: flushes once
    /// the open epoch is older than `epoch_interval`. No-op otherwise.
    pub fn flush_epoch_if_due(&self) -> Result<()> {
        if self.config.epoch_interval == Duration::ZERO {
            return Ok(());
        }
        let due = self
            .pending
            .lock()
            .started
            .is_some_and(|t| t.elapsed() >= self.config.epoch_interval);
        if due {
            self.flush_epoch()
        } else {
            Ok(())
        }
    }

    fn flush_epoch_traced(&self, txn_id: u64) -> Result<()> {
        if !self.config.remaster_batching {
            return Ok(());
        }
        if self.flush_in_progress.swap(true, Ordering::AcqRel) {
            return Ok(()); // another thread's flush is already draining
        }
        struct Unflag<'a>(&'a AtomicBool);
        impl Drop for Unflag<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let _unflag = Unflag(&self.flush_in_progress);
        let mut drained: Vec<PartitionId> = {
            let mut q = self.pending.lock();
            q.started = None;
            q.moves.drain().map(|(p, _)| p).collect()
        };
        if drained.is_empty() {
            return Ok(());
        }
        // Ascending partition order: the map's deadlock-avoidance locking
        // discipline, and a deterministic plan for a deterministic queue.
        drained.sort_unstable();
        drained.dedup();
        self.flush_moves(txn_id, &drained)
    }

    /// Plans one epoch flush ([`SiteSelector::plan_flush`]) and hands each
    /// (source, destination) site pair's moves to the executor — one
    /// `Release` + one `Grant` per pair. Planning runs under *shared* map
    /// locks only, and each pair's exclusive window covers just its own two
    /// round trips: the router is never stalled for the whole flush, only
    /// for the pair whose partitions it actually touches. A selector crash
    /// between pairs (`MidBatchRelease`) or between a pair's release and
    /// its grant (`MidBatchGrant`) tears the flush — earlier pairs moved,
    /// later ones untouched — which is what the standby's repair must mend.
    fn flush_moves(&self, txn_id: u64, partitions: &[PartitionId]) -> Result<()> {
        let masters: Vec<Option<SiteId>> = {
            let entries = self.map.entries_for(partitions);
            let guards = self.map.lock_shared(&entries);
            guards.iter().map(|g| g.master).collect()
        };
        let plan = self.plan_flush(txn_id, partitions, &masters);
        let mut by_pair: BTreeMap<(SiteId, SiteId), Vec<PartitionId>> = BTreeMap::new();
        for (i, master) in masters.iter().enumerate() {
            if let (Some(src), Some(dst)) = (*master, plan[i]) {
                if src != dst {
                    by_pair.entry((src, dst)).or_default().push(partitions[i]);
                }
            }
        }
        let mut moved = Moved::new();
        for ((src, dst), pair_parts) in by_pair {
            // A crash here tears the flush between pairs, outside any lock
            // window.
            self.crash_check(CrashPoint::MidBatchRelease)?;
            // Exclusive locks for this pair only. `pair_parts` ascends and
            // pairs never share a partition, so the map's ascending-order
            // locking discipline holds within and across pairs.
            let entries = self.map.entries_for(&pair_parts);
            let mut guards = self.map.lock_exclusive(&entries);
            // Re-verify under the exclusive lock: a slow-path co-location
            // may have superseded the plan while no lock was held. Under
            // partial replication the destination must also hold a copy
            // before its grant — moves whose install fails stay put, like
            // any move the executor fails, for a later epoch.
            let moves: Vec<(usize, Option<SiteId>)> = (0..pair_parts.len())
                .filter(|&k| guards[k].master == Some(src))
                .filter(|&k| self.ensure_replica(dst, pair_parts[k]).is_ok())
                .map(|k| (k, Some(src)))
                .collect();
            let (_, landed, _) = self.execute_moves(
                txn_id,
                &pair_parts,
                &entries,
                &mut guards,
                &moves,
                dst,
                CrashPoint::MidBatchGrant,
            )?;
            moved.extend(landed);
        }
        self.retire_followed(&moved);
        if !moved.is_empty() {
            self.remaster_ops.inc();
        }
        Ok(())
    }

    /// The flush planner: greedy per-partition Eq. 8 assignment, heaviest
    /// partition first, over ONE shared stats snapshot and freshness read —
    /// the per-candidate feature inputs are computed once for the whole
    /// queued set rather than once per routed transaction. A working copy
    /// of the site-load vector absorbs each assignment before the next
    /// partition is scored, so a flash-crowd hot set *spreads* across
    /// underloaded sites instead of ping-ponging wholesale; already-assigned
    /// partners count at their new homes for the localization terms.
    fn plan_flush(
        &self,
        txn_id: u64,
        partitions: &[PartitionId],
        masters: &[Option<SiteId>],
    ) -> Vec<Option<SiteId>> {
        let m = self.config.num_sites;
        let (snaps, mut working_load) = self.stats.snapshot(partitions);
        let site_vvs = self.freshness.all();
        let unreachable: Vec<bool> = (0..m)
            .map(|i| !self.network.site_reachable(i as u32))
            .collect();
        let cvv = VersionVector::zero(m);
        let mut order: Vec<usize> = (0..partitions.len())
            .filter(|&i| masters[i].is_some())
            .collect();
        order.sort_by(|&a, &b| {
            snaps[b]
                .load
                .total_cmp(&snaps[a].load)
                .then(partitions[a].cmp(&partitions[b]))
        });
        let mut plan: Vec<Option<SiteId>> = vec![None; partitions.len()];
        let mut assigned: HashMap<PartitionId, SiteId> = HashMap::new();
        for &i in &order {
            let placed = [(partitions[i], masters[i])];
            let load = [snaps[i].load];
            let intra = vec![self.coaccess(&snaps[i].intra.partners, &[], &assigned)];
            let inter = vec![self.coaccess(&snaps[i].inter.partners, &[], &assigned)];
            let (dest, cands) = confirm_group_destination(
                &ScoreInputs {
                    num_sites: m,
                    weights: &self.config.weights,
                    partitions: &placed,
                    partition_load: &load,
                    site_load: &working_load,
                    intra: &intra,
                    inter: &inter,
                    site_vvs: &site_vvs,
                    cvv: &cvv,
                },
                &unreachable,
            );
            let src = masters[i].expect("order holds only mastered partitions");
            working_load[src.as_usize()] -= snaps[i].load;
            working_load[dest.as_usize()] += snaps[i].load;
            assigned.insert(partitions[i], dest);
            plan[i] = Some(dest);
            if dest != src {
                // The epoch-stamped final decision for this move (its
                // release allocates the next remaster epoch).
                self.trace(
                    txn_id,
                    TraceKind::RemasterDecision,
                    TracePayload::Decision {
                        chosen: dest.raw(),
                        partitions: 1,
                        epoch: self.epoch.load(Ordering::Relaxed) + 1,
                        candidates: Arc::new(cands),
                    },
                );
            }
        }
        plan
    }
}
