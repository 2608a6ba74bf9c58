//! The remaster role of a data site: dynamic mastering (§III-B) and
//! selector fencing (§V-C).
//!
//! It owns the release and grant ledgers (two `ClaimTable`s, so a
//! retransmitted Release/Grant replays its recorded result instead of
//! re-revoking or re-granting), the selector-generation fence and the
//! remaster-epoch watermark. The mastership table itself is the site's
//! [`crate::ownership::Ownership`], which execution also reads.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::PartitionId;
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_replication::record::LogRecord;

use crate::claims::ClaimTable;
use crate::data_site::DataSite;

/// Settled epochs retained per partition and ledger. Duplicates arrive from
/// selector RPC retries within one remaster (same epoch) or, across a
/// selector failover, from the deposed selector's last few epochs — both
/// stay well inside this window.
const RETAIN: usize = 8;

/// What the remaster role keeps between RPCs.
#[derive(Default)]
pub(crate) struct RemasterState {
    /// Settled releases per `(partition, epoch)`.
    released: ClaimTable<PartitionId, VersionVector, RETAIN>,
    /// Settled grants per `(partition, epoch)`.
    granted: ClaimTable<PartitionId, VersionVector, RETAIN>,
    /// Selector fence watermark (§V-C failover): the highest selector
    /// generation this site has observed. Remaster RPCs carrying a lower
    /// generation come from a deposed selector and are rejected with
    /// [`DynaError::StaleSelector`], making dual mastership impossible.
    selector_generation: AtomicU64,
    /// Highest remaster epoch this site has participated in (release or
    /// grant). Persisted in checkpoints so recovery after log truncation
    /// still knows the epoch floor, and stamped onto audit-plane events.
    max_epoch_seen: AtomicU64,
}

/// A data site seen as a remaster participant; from [`DataSite::remaster`].
pub struct Remaster<'a> {
    pub(crate) site: &'a DataSite,
    pub(crate) state: &'a RemasterState,
}

impl Remaster<'_> {
    /// Admits a remaster RPC's fencing token: raises the site's watermark to
    /// `generation` if higher, and rejects the request if a newer selector
    /// has already fenced this site. The `fetch_max` makes the watermark
    /// monotone under concurrent remasters and fences.
    pub fn check_selector_generation(&self, generation: u64) -> Result<()> {
        let prev = self
            .state
            .selector_generation
            .fetch_max(generation, Ordering::AcqRel);
        if generation < prev {
            return Err(DynaError::StaleSelector {
                observed: generation,
                current: prev,
            });
        }
        Ok(())
    }

    /// Installs a selector fence and returns the reconciliation snapshot a
    /// promoting standby needs: the site's svv and the partitions its live
    /// ownership table currently masters.
    pub fn fence_selector(&self, generation: u64) -> Result<(VersionVector, Vec<PartitionId>)> {
        self.check_selector_generation(generation)?;
        let mastered = self.site.ownership.mastered_partitions();
        Ok((self.site.clock.current(), mastered))
    }

    /// Seeds the fence watermark on a freshly (re)built site, so a restarted
    /// site does not accept remasters from selectors deposed before its
    /// crash. Monotone: never lowers an already-observed generation.
    pub fn install_selector_generation(&self, generation: u64) {
        self.state
            .selector_generation
            .fetch_max(generation, Ordering::AcqRel);
    }

    /// The highest selector generation this site has observed.
    pub fn selector_generation(&self) -> u64 {
        self.state.selector_generation.load(Ordering::Acquire)
    }

    /// Seeds the remaster-epoch watermark on a freshly (re)built site (from
    /// a checkpoint or replayed logs). Monotone, like
    /// [`Remaster::install_selector_generation`].
    pub fn install_remaster_epoch(&self, epoch: u64) {
        self.state.max_epoch_seen.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The highest remaster epoch this site has participated in.
    pub fn remaster_epoch(&self) -> u64 {
        self.state.max_epoch_seen.load(Ordering::Acquire)
    }

    /// Releases mastership of each `(partition, epoch)` — the moves of one
    /// `Release` RPC: waits for the partition's in-flight writers, logs the
    /// release (recovery, §V-C) and returns, per move, the svv at the
    /// release point.
    ///
    /// Each partition gets its own drain, its own Release log record
    /// (per-origin in-order replication admission is preserved) and its own
    /// ledger entry, and a failed move leaves the others alone — but the
    /// records are filled together and the site waits for visibility *once*
    /// (see `log_moves`), so k moves cost one publication — on a
    /// durable log one group fsync — and one move costs what it always did.
    ///
    /// Idempotent per `(partition, epoch)`: a retransmitted release (lost
    /// reply under fault injection) replays the recorded `rel_vv` instead of
    /// failing the unmastered-revoke check; one that races the original
    /// waits for the original's result.
    pub fn release_moves(&self, moves: &[(PartitionId, u64)]) -> Vec<Result<VersionVector>> {
        let released = &self.state.released;
        let admitted = moves
            .iter()
            .zip(released.claim(moves))
            .map(|(&(partition, epoch), recorded)| {
                if recorded.is_some() {
                    return Ok(recorded);
                }
                if let Err(e) = self.site.ownership.revoke_and_drain(partition) {
                    released.abandon((partition, epoch));
                    // The selector lost the reply and retries under a
                    // *fresh* epoch (each routing attempt allocates one); it
                    // only sends Release to the site its exclusively-locked
                    // map names as master, so reaching here unmastered means
                    // the earlier release executed: replay the latest one
                    // recorded.
                    return released.latest(partition).map(Some).ok_or(e);
                }
                Ok(None)
            })
            .collect();
        self.log_moves(false, moves.to_vec(), admitted)
    }

    /// Takes mastership of each `(partition, epoch)` once this site has
    /// caught up to its releaser's `rel_vv` — the moves of one `Grant` RPC,
    /// logged and answered like [`Remaster::release_moves`].
    ///
    /// Idempotent per `(partition, epoch)`: a duplicated grant, racing or
    /// late, returns the recorded `grant_vv` without appending a second
    /// Grant record.
    pub fn grant_moves(
        &self,
        grants: &[(PartitionId, u64, VersionVector)],
    ) -> Vec<Result<VersionVector>> {
        let keys: Vec<_> = grants.iter().map(|(p, epoch, _)| (*p, *epoch)).collect();
        let admitted = grants
            .iter()
            .zip(self.state.granted.claim(&keys))
            .map(|((partition, epoch, rel_vv), recorded)| {
                if recorded.is_some() {
                    return Ok(recorded);
                }
                self.admit_grant(*partition, rel_vv)
                    .inspect_err(|_| self.state.granted.abandon((*partition, *epoch)))
                    .map(|()| None)
            })
            .collect();
        self.log_moves(true, keys, admitted)
    }

    /// Takes ownership of one claimed grant once this site may master it.
    fn admit_grant(&self, partition: PartitionId, rel_vv: &VersionVector) -> Result<()> {
        // Master-hosts invariant (partial replication): a site may only be
        // granted mastership of a partition it fully hosts — the selector
        // installs a copy first (create-then-grant) when the Eq. 8 choice
        // lands on a non-replica.
        if self
            .site
            .hosting()
            .is_some_and(|hosting| !hosting.hosts(partition))
        {
            return Err(DynaError::NotReplica {
                site: self.site.id,
                partition,
            });
        }
        self.site.clock.wait_dominates(rel_vv)?;
        self.site.ownership.grant(partition);
        Ok(())
    }

    /// The shared tail of a remaster RPC. `admitted[i]` is an error, a
    /// result replayed from the ledger, or `None` for a move whose ownership
    /// change is done and still has to be logged. Those get one Release or
    /// Grant record each, filled together, and one wait until the last of
    /// them is visible — the returned vector is the remaster handoff point,
    /// so it must cover the records themselves — and are then ledgered and
    /// audited one by one.
    fn log_moves(
        &self,
        granted: bool,
        keys: Vec<(PartitionId, u64)>,
        admitted: Vec<Result<Option<VersionVector>>>,
    ) -> Vec<Result<VersionVector>> {
        let site = self.site;
        // Each move to log reserves its slot and is encoded before the
        // fill, which holds the log lock.
        let (seqs, fills): (Vec<_>, Vec<_>) = keys
            .iter()
            .zip(&admitted)
            .map(|(&(partition, epoch), admitted)| {
                if !matches!(admitted, Ok(None)) {
                    return (None, None);
                }
                let ticket = site.pipeline.begin();
                let (origin, sequence) = (site.id, ticket.seq());
                let record = if granted {
                    LogRecord::Grant {
                        origin,
                        sequence,
                        partition,
                        epoch,
                    }
                } else {
                    LogRecord::Release {
                        origin,
                        sequence,
                        partition,
                        epoch,
                    }
                };
                let encoded = Bytes::from(encode_to_vec(&record));
                (Some(sequence), Some((ticket, encoded)))
            })
            .unzip();
        site.pipeline.commit_all(fills.into_iter().flatten());
        let last = seqs.iter().flatten().max().copied();
        let visible = last.map(|seq| site.clock.wait_published(seq));
        let ledger = if granted {
            &self.state.granted
        } else {
            &self.state.released
        };
        keys.into_iter()
            .zip(admitted)
            .zip(seqs)
            .map(|(((partition, epoch), admitted), seq)| {
                if let Some(replayed) = admitted? {
                    return Ok(replayed);
                }
                let seq = seq.expect("an admitted move was logged");
                let vv = visible
                    .clone()
                    .expect("a logged move waited")
                    .inspect_err(|_| ledger.abandon((partition, epoch)))?;
                ledger.settle((partition, epoch), vv.clone());
                self.install_remaster_epoch(epoch);
                if let Some(rec) = site.recorder.as_deref().filter(|r| r.audit_enabled()) {
                    dynamast_common::audit::emit_ownership(
                        rec,
                        site.id.raw(),
                        partition.raw(),
                        seq,
                        epoch,
                        granted,
                    );
                }
                Ok(vv)
            })
            .collect()
    }

    /// Retained ledger entries `(released, granted)` — exposed so tests can
    /// assert the idempotency state stays bounded under duplicate RPC
    /// hammering.
    pub fn ledger_sizes(&self) -> (usize, usize) {
        (self.state.released.len(), self.state.granted.len())
    }
}
