//! The participant role of a data site in the statically placed
//! comparators (multi-master, partition-store and LEAP): 2PC prepare and
//! decide, remote reads for a client-side coordinator, and LEAP's data
//! shipping. A site has this role only when it is built with a static owner
//! (`DataSiteConfig::static_owner`); a DynaMast site never has it.
//!
//! Decisions go through a `ClaimTable`, so a duplicated or retransmitted
//! `Decide` — racing the original or late — replays the recorded outcome,
//! and a `Prepare` that arrives after the decision answers it instead of
//! staging locks nothing would release.

use std::collections::HashMap;

use dynamast_common::ids::{Key, PartitionId};
use dynamast_common::{DynaError, Result, Row, VersionVector};
use dynamast_replication::record::WriteEntry;
use dynamast_storage::{ImageRecord, LockGuard, ReadAt, VersionStamp};

use crate::claims::ClaimTable;
use crate::data_site::{DataSite, StaticOwnerFn};
use crate::messages::ExpectedVersion;
use crate::proc::ScanRange;

/// Decisions remembered; a coordinator's duplicates arrive within a few
/// round trips of the original, far inside this window.
const DECISIONS_RETAINED: usize = 4096;

struct PreparedTxn {
    _locks: Vec<LockGuard>,
    writes: Vec<WriteEntry>,
}

/// What the participant role keeps between RPCs.
pub(crate) struct ParticipantState {
    /// The fixed partition → site assignment a prepared fragment is checked
    /// against; it covers partitions created after startup too (e.g.
    /// TPC-C order growth).
    static_owner: StaticOwnerFn,
    /// Staged fragments awaiting their decision.
    prepared: parking_lot::Mutex<HashMap<u64, PreparedTxn>>,
    /// Settled decisions per `((), txn id)`: `(committed, site vector)`.
    decided: ClaimTable<(), (bool, VersionVector), DECISIONS_RETAINED>,
}

impl ParticipantState {
    pub(crate) fn new(static_owner: StaticOwnerFn) -> Self {
        ParticipantState {
            static_owner,
            prepared: parking_lot::Mutex::new(HashMap::new()),
            decided: ClaimTable::default(),
        }
    }
}

/// A data site seen as a 2PC participant and LEAP shipper; from
/// [`DataSite::participant`].
pub struct Participant<'a> {
    pub(crate) site: &'a DataSite,
    pub(crate) state: &'a ParticipantState,
}

impl Participant<'_> {
    /// 2PC phase one: validate ownership, try-lock the fragment's write set
    /// and stage the writes. A lock conflict votes **no** immediately —
    /// blocking here could deadlock with a concurrent transaction preparing
    /// in the opposite site order; the coordinator aborts and retries with
    /// backoff instead.
    ///
    /// The claim on the decision orders this prepare against a decide of
    /// the same transaction: a copy that arrives after the decision answers
    /// the recorded outcome, and one that races it waits for it.
    pub fn prepare(
        &self,
        txn_id: u64,
        writes: Vec<WriteEntry>,
        expected: &[ExpectedVersion],
    ) -> Result<bool> {
        let key = ((), txn_id);
        if let Some((committed, _)) = self.state.decided.claim(&[key]).remove(0) {
            return Ok(committed);
        }
        let vote = self.stage(txn_id, writes, expected);
        // A prepare leaves nothing to remember: only the decision settles.
        self.state.decided.abandon(key);
        vote
    }

    fn stage(
        &self,
        txn_id: u64,
        writes: Vec<WriteEntry>,
        expected: &[ExpectedVersion],
    ) -> Result<bool> {
        // A second copy of a staged Prepare must not deadlock on the first
        // copy's locks.
        if self.state.prepared.lock().contains_key(&txn_id) {
            return Ok(true);
        }
        let site = self.site;
        let keys: Vec<Key> = writes.iter().map(|w| w.key).collect();
        for p in site.partitions_of(&keys)? {
            if (self.state.static_owner)(p) != site.id {
                return Ok(false);
            }
        }
        let mut sorted = keys;
        sorted.sort_unstable();
        sorted.dedup();
        let mut locks = Vec::with_capacity(sorted.len());
        for key in sorted {
            match site.store.locks().try_acquire(key) {
                Some(guard) => locks.push(guard),
                None => return Ok(false), // conflict: vote no, locks drop
            }
        }
        // First-committer-wins validation: the versions the coordinator
        // read for its read-modify-writes must still be current now that
        // the locks are held; otherwise a concurrent transaction committed
        // in between and blindly installing would lose its update.
        for exp in expected {
            let current = site.store.read_latest(exp.key)?.map(|(_, stamp)| stamp);
            if current != exp.stamp {
                return Ok(false);
            }
        }
        self.state.prepared.lock().insert(
            txn_id,
            PreparedTxn {
                _locks: locks,
                writes,
            },
        );
        Ok(true)
    }

    /// 2PC phase two. Idempotent: a duplicated or retransmitted decision
    /// replays the recorded outcome instead of committing twice (or
    /// erroring on the already-consumed staged fragment), and one racing
    /// the original waits for the original's outcome.
    pub fn decide(&self, txn_id: u64, commit: bool) -> Result<VersionVector> {
        let key = ((), txn_id);
        if let Some((decided_commit, vv)) = self.state.decided.claim(&[key]).remove(0) {
            // A coordinator never reverses its decision, so a retransmission
            // that disagrees with the recorded outcome is a protocol error.
            if decided_commit != commit {
                return Err(DynaError::Internal("conflicting decision for txn"));
            }
            return Ok(vv);
        }
        let site = self.site;
        let staged = self.state.prepared.lock().remove(&txn_id);
        let vv = match (staged, commit) {
            (Some(txn), true) => {
                let begin = site.clock.current();
                match site.commit_local(txn_id, &begin, txn.writes) {
                    Ok(vv) => {
                        site.commits.inc();
                        vv
                    }
                    Err(e) => {
                        self.state.decided.abandon(key);
                        return Err(e);
                    }
                }
            }
            (Some(_), false) => {
                site.aborts.inc();
                site.clock.current()
            }
            (None, false) => site.clock.current(), // abort is idempotent
            (None, true) => {
                self.state.decided.abandon(key);
                return Err(DynaError::Internal("commit for unprepared txn"));
            }
        };
        self.state.decided.settle(key, (commit, vv.clone()));
        Ok(vv)
    }

    /// Settled decisions retained — exposed so tests can assert the
    /// idempotency state stays bounded.
    pub fn decisions_retained(&self) -> usize {
        self.state.decided.len()
    }

    /// Serves point and range reads to a remote coordinator
    /// (latest-committed, as the unreplicated systems use).
    #[allow(clippy::type_complexity)]
    pub fn remote_read(
        &self,
        keys: &[Key],
        ranges: &[ScanRange],
    ) -> Result<(
        Vec<(Key, Option<(Row, VersionStamp)>)>,
        Vec<Vec<(u64, Row)>>,
    )> {
        let store = &self.site.store;
        let mut key_rows = Vec::with_capacity(keys.len());
        for key in keys {
            key_rows.push((*key, store.read_latest(*key)?));
        }
        let mut scans = Vec::with_capacity(ranges.len());
        let mut scanned = 0u64;
        for range in ranges {
            let mut rows = Vec::new();
            store.visit_range(
                range.table,
                range.start..range.end,
                ReadAt::Latest,
                |record, row, _| rows.push((record, row.clone())),
            )?;
            scanned += range.end.saturating_sub(range.start);
            scans.push(rows);
        }
        self.site.service_sleep(keys.len() as u64 + scanned);
        Ok((key_rows, scans))
    }

    /// LEAP release: gives up ownership of partitions and ships their
    /// records (data moves with mastership — the expensive transfer the
    /// paper contrasts with DynaMast's metadata-only protocol).
    pub fn leap_release(&self, partitions: &[PartitionId]) -> Result<Vec<ImageRecord>> {
        for &p in partitions {
            self.site.ownership.revoke_and_drain(p)?;
        }
        self.site.store.image(ReadAt::Latest, Some(partitions))
    }

    /// LEAP grant: installs shipped records and takes ownership — neither
    /// unless the whole image installs.
    pub fn leap_grant(&self, partitions: &[PartitionId], records: Vec<ImageRecord>) -> Result<()> {
        self.site
            .store
            .install_batch(records.into_iter().map(Into::into).collect())?;
        for &p in partitions {
            self.site.ownership.grant(p);
        }
        Ok(())
    }
}
