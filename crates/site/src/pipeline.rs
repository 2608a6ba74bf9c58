//! The commit pipeline: one sequencing path per site.
//!
//! Every durable state change at a site — local commits, 2PC decides,
//! remaster Release/Grant records — used to run inside one global
//! `commit_order` mutex held across sequence allocation, version installs,
//! record serialization, the log append, and svv publication, and that
//! critical section was duplicated four times in `data_site.rs`. This module
//! replaces all of them with a single audited path structured as:
//!
//! 1. **sequencing** ([`CommitPipeline::begin`]) — a tiny lock that couples
//!    `SiteClock::allocate` with `DurableLog::reserve`, so *slot order equals
//!    sequence order*. That equality is load-bearing: peers tail the log with
//!    one in-order subscriber per origin, and recovery replays it front to
//!    back — an inversion would wedge both.
//! 2. **install + serialize** — outside any global lock, concurrent across
//!    committers. Safe because the committer still holds its row write locks,
//!    and versions stamped `(site, seq)` stay invisible to every snapshot
//!    until `svv[site] >= seq`.
//! 3. **publish** ([`CommitPipeline::commit_encoded`]) — fill the reserved log slot
//!    (the fill that closes the gap at the log's visible watermark publishes
//!    the whole contiguous run in one group commit) and publish the svv
//!    watermark in sequence order via `SiteClock::publish`.
//!
//! The section between `begin` and `commit` must be infallible (validate
//! inputs *before* `begin`): an abandoned ticket would leave a hole in the
//! log and the svv order that wedges the site. [`CommitPipeline::begin_guarded`]
//! backstops that contract — if the committer dies anyway (panicking
//! executor, crash-point unwind, process kill mid-install), the guard's drop
//! fills the slot with a [`LogRecord::Noop`] tombstone via
//! [`CommitPipeline::abort`], so the sequence space stays gap-free and the
//! watermark keeps moving.
//!
//! The consume side lives here too: [`apply_refresh_batch_with`] applies
//! the admissible prefix of one origin's batch — one admission check per
//! contiguous admissible run, installs batched outside the clock lock, one
//! svv watermark publication per run — and returns how far it got, never
//! blocking. The batch is shared by every subscriber of the origin, so rows
//! are cloned (a reference-count bump) into storage.

use std::sync::Arc;

use bytes::Bytes;
use dynamast_common::ids::{Key, SiteId};
use dynamast_common::{Result, Row, VersionVector};
use dynamast_replication::record::LogRecord;
use dynamast_replication::{DurableLog, Wake};
use dynamast_storage::{Store, VersionStamp};
use parking_lot::Mutex;

use crate::clock::SiteClock;

/// A reserved position in a site's commit order: the allocated sequence
/// number and the matching durable-log slot. Obtained from
/// [`CommitPipeline::begin`]; must be completed with
/// [`CommitPipeline::commit_encoded`].
#[derive(Clone, Copy, Debug)]
pub struct CommitTicket {
    /// The local commit sequence (`tvv[self]` for a commit record).
    pub seq: u64,
    slot: u64,
}

/// The single sequencing path for all durable state changes at one site.
pub struct CommitPipeline {
    site: SiteId,
    clock: Arc<SiteClock>,
    log: Arc<DurableLog>,
    /// Couples sequence allocation with log-slot reservation. Held only for
    /// those two counter bumps — never across installs, serialization, or
    /// the log append.
    sequencer: Mutex<()>,
}

impl CommitPipeline {
    /// Builds the pipeline over a site's clock and its own durable log.
    pub fn new(site: SiteId, clock: Arc<SiteClock>, log: Arc<DurableLog>) -> Self {
        CommitPipeline {
            site,
            clock,
            log,
            sequencer: Mutex::new(()),
        }
    }

    /// The owning site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The site clock the pipeline publishes through.
    pub fn clock(&self) -> &Arc<SiteClock> {
        &self.clock
    }

    /// The sequencing section: allocates the next commit sequence and
    /// reserves the matching log slot under one tiny lock.
    ///
    /// Everything after this call until [`CommitPipeline::commit_encoded`]
    /// must be infallible — validate before beginning.
    pub fn begin(&self) -> CommitTicket {
        let _sequencer = self.sequencer.lock();
        let seq = self.clock.allocate();
        let slot = self.log.reserve();
        CommitTicket { seq, slot }
    }

    /// Completes a ticket with its encoded record, without waiting for the
    /// sequence to become visible: the local commit path serializes while
    /// it still borrows the rows, moves the rows into storage, then
    /// completes the ticket and returns immediately — its transaction vector
    /// (`begin` + own sequence) is already the client's session vector, and
    /// snapshot freshness waits pick up publication downstream. A remaster
    /// RPC, whose reply is the handoff point and so must cover its own
    /// records, fills all of them at once and then waits on the clock once.
    ///
    /// Publication rides the group commit: whichever fill closes the log's
    /// visible gap advances the svv over the whole contiguous run, so no
    /// committer ever parks waiting for a predecessor's publication turn.
    /// That is safe because every committer installs its versions *before*
    /// filling its slot — a contiguous filled prefix is a fully installed
    /// prefix.
    pub fn commit_encoded(&self, ticket: CommitTicket, encoded: Bytes) {
        self.commit_all([(ticket, encoded)]);
    }

    /// [`CommitPipeline::commit_encoded`] for several tickets at once: the
    /// run they close publishes (and syncs) once, not once per ticket.
    pub(crate) fn commit_all(&self, fills: impl IntoIterator<Item = (CommitTicket, Bytes)>) {
        let fills = fills
            .into_iter()
            .map(|(ticket, encoded)| (ticket.slot, encoded));
        if let Some(visible) = self.log.fill_all(fills) {
            // Slot i holds sequence i + 1, so the visible length is exactly
            // the highest fully installed, fully logged sequence.
            self.clock.publish_up_to(visible);
        }
    }

    /// Abandons a ticket whose owner cannot complete: fills the slot with a
    /// [`LogRecord::Noop`] tombstone so the sequence space stays gap-free
    /// and the watermark (and everything behind it — group fsync, remote
    /// refresh admission) keeps moving. Used by [`CommitGuard`] when a
    /// committer panics between `begin` and `commit`.
    pub fn abort(&self, ticket: CommitTicket) {
        if let Some(visible) = self.log.abort(ticket.slot) {
            self.clock.publish_up_to(visible);
        }
    }

    /// Arms a ticket with a panic/crash guard: if the guard drops before
    /// [`CommitGuard::defuse`], the ticket is aborted with a tombstone. Use
    /// around the install/serialize section so a committer that dies there
    /// (a panicking executor, a crash-point unwind) cannot wedge the site.
    pub fn begin_guarded(&self) -> CommitGuard<'_> {
        CommitGuard {
            pipeline: self,
            ticket: self.begin(),
            armed: true,
        }
    }
}

/// A [`CommitTicket`] that aborts itself (tombstone fill) if dropped without
/// being defused — the drop-safety net for the "infallible" section between
/// `begin` and `commit`.
pub struct CommitGuard<'a> {
    pipeline: &'a CommitPipeline,
    ticket: CommitTicket,
    armed: bool,
}

impl CommitGuard<'_> {
    /// The guarded ticket.
    pub fn ticket(&self) -> CommitTicket {
        self.ticket
    }

    /// Disarms the guard; the caller takes back responsibility for
    /// completing the ticket (it is about to commit it).
    pub fn defuse(mut self) -> CommitTicket {
        self.armed = false;
        self.ticket
    }
}

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.pipeline.abort(self.ticket);
        }
    }
}

/// One version to install: key, stamp, row.
pub type Install = (Key, VersionStamp, Row);

/// Chooses a run's installs: called once per admissible run with its
/// records, it pushes the versions to install. A site's subscription filter
/// and audit hook go here; without one every write of every commit record
/// installs ([`collect_all`]).
pub type RunCollector<'a> = &'a mut dyn FnMut(&[LogRecord], &mut Vec<Install>);

/// Applies the admissible prefix of one origin's batch at a site with no
/// subscription filter, returning how many records applied (all of them
/// when each record's Eq. 1 dependencies are already applied).
pub fn apply_refresh_batch(
    clock: &SiteClock,
    store: &Store,
    records: impl AsRef<[LogRecord]>,
) -> Result<usize> {
    apply_refresh_batch_with(clock, store, records.as_ref(), None, None)
}

/// Applies the admissible prefix of one origin's batch as refresh
/// transactions and returns its length, never blocking.
///
/// Splits the batch into maximal contiguous admissible runs: the head of a
/// run is checked against the live svv ([`SiteClock::admit_or_wake`]: the
/// update application rule, Eq. 1, for commit records; next-in-origin-order
/// for release/grant metadata), the run is extended greedily while each
/// following record is admissible given the admission-time svv snapshot
/// plus the run's own origin progress, `collect` chooses the run's
/// installs, they go into one `Store::install_batch`, and the svv advances
/// once over the whole run. A refused head ends the call; `wake`, if
/// given, fires at the site's next svv advance.
///
/// Installing outside the clock lock is safe for the same reason the commit
/// pipeline's installs are: a version stamped `(origin, seq)` is invisible
/// to snapshots until `svv[origin] >= seq`, which only `publish_refresh`
/// makes true — in run order, after the installs.
pub fn apply_refresh_batch_with(
    clock: &SiteClock,
    store: &Store,
    records: &[LogRecord],
    wake: Option<&Wake>,
    mut collect: Option<RunCollector<'_>>,
) -> Result<usize> {
    let mut applied = 0;
    while let Some(head) = records.get(applied) {
        let origin = head.origin();
        let Some(mut svv) = clock.admit_or_wake(|svv| head_admissible(svv, head), wake)? else {
            break;
        };
        // Extend the run while the next record stays admissible under the
        // snapshot, with the origin's dimension at the run's own progress
        // (other origins' dimensions cannot regress, so the snapshot stays
        // valid for cross-origin dependency checks for the whole run).
        let mut cursor = head.sequence();
        let mut run = 1;
        for next in &records[applied + 1..] {
            svv.set(origin, cursor);
            if next.origin() != origin || !head_admissible(&svv, next) {
                break;
            }
            cursor = next.sequence();
            run += 1;
        }
        let run_records = &records[applied..applied + run];
        let mut installs = Vec::new();
        match collect.as_deref_mut() {
            Some(collect) => collect(run_records, &mut installs),
            None => collect_all(run_records, &mut installs),
        }
        // Refresh application has no caller to propagate to (it matches a
        // crashed subscriber in the paper's Kafka deployment), so a failed
        // install means a corrupted record.
        store
            .install_batch(installs)
            .expect("refresh install failed: corrupted log record");
        clock.publish_refresh(origin, cursor);
        applied += run;
    }
    Ok(applied)
}

/// Every write of every commit record in `run`, stamped with its commit.
pub fn collect_all(run: &[LogRecord], installs: &mut Vec<Install>) {
    for record in run {
        if let LogRecord::Commit {
            origin,
            tvv,
            writes,
        } = record
        {
            let stamp = VersionStamp::new(*origin, tvv.get(*origin));
            installs.extend(writes.iter().map(|w| (w.key, stamp, w.row.clone())));
        }
    }
}

/// Admission check for the head of a run against the live svv.
fn head_admissible(svv: &VersionVector, record: &LogRecord) -> bool {
    match record {
        LogRecord::Commit { origin, tvv, .. } => svv.can_apply_refresh(tvv, *origin),
        LogRecord::Release {
            origin, sequence, ..
        }
        | LogRecord::Grant {
            origin, sequence, ..
        }
        | LogRecord::Noop {
            origin, sequence, ..
        } => svv.get(*origin) + 1 == *sequence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::codec::encode_to_vec;
    use dynamast_common::ids::{Key, TableId};
    use dynamast_common::{Row, Value};
    use dynamast_replication::record::WriteEntry;
    use dynamast_storage::Catalog;
    use std::thread;

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

    fn commit_record(origin: usize, tvv: &[u64], writes: Vec<(u64, u64)>) -> LogRecord {
        LogRecord::Commit {
            origin: SiteId::new(origin),
            tvv: VersionVector::from_counts(tvv.to_vec()),
            writes: writes
                .into_iter()
                .map(|(k, v)| WriteEntry::new(key(k), row(v)))
                .collect(),
        }
    }

    fn pipeline() -> (CommitPipeline, Arc<SiteClock>, Arc<DurableLog>) {
        let clock = Arc::new(SiteClock::new(SiteId::new(0), 2));
        let log = Arc::new(DurableLog::new());
        (
            CommitPipeline::new(SiteId::new(0), Arc::clone(&clock), Arc::clone(&log)),
            clock,
            log,
        )
    }

    #[test]
    fn tickets_couple_sequence_and_slot_order() {
        let (pipe, clock, log) = pipeline();
        let t1 = pipe.begin();
        let t2 = pipe.begin();
        assert_eq!((t1.seq, t2.seq), (1, 2));
        assert_eq!((t1.slot, t2.slot), (0, 1));
        // Completing out of ticket order publishes in sequence order anyway.
        let fill = |ticket, record: LogRecord| {
            pipe.commit_encoded(ticket, Bytes::from(encode_to_vec(&record)));
        };
        fill(t2, commit_record(0, &[2, 0], vec![(1, 20)]));
        assert_eq!(log.len(), 0, "slot 1 filled but slot 0 open: hidden");
        assert_eq!(clock.current().get(SiteId::new(0)), 0);
        fill(t1, commit_record(0, &[1, 0], vec![(1, 10)]));
        assert_eq!(clock.current().get(SiteId::new(0)), 2);
        let (recs, _) = log.read_from(0).unwrap();
        let seqs: Vec<u64> = recs.iter().map(|r| r.sequence()).collect();
        assert_eq!(seqs, vec![1, 2], "slot order equals sequence order");
    }

    /// Regression: a ticket abandoned between `begin` and `commit` used to
    /// wedge the site forever (watermark never advances past the hole). The
    /// abort tombstone unwedges it and later commits publish normally.
    #[test]
    fn aborted_ticket_unwedges_later_commits() {
        let (pipe, clock, log) = pipeline();
        let dead = pipe.begin();
        let live = pipe.begin();
        pipe.commit_encoded(
            live,
            Bytes::from(encode_to_vec(&commit_record(0, &[2, 0], vec![(1, 20)]))),
        );
        assert_eq!(clock.current().get(SiteId::new(0)), 0, "hole blocks svv");
        pipe.abort(dead);
        assert_eq!(clock.current().get(SiteId::new(0)), 2, "tombstone unwedges");
        let (recs, _) = log.read_from(0).unwrap();
        assert!(matches!(recs[0], LogRecord::Noop { sequence: 1, .. }));
    }

    #[test]
    fn commit_guard_aborts_on_panic_and_defuses_on_commit() {
        let (pipe, clock, _log) = pipeline();
        // A committer that panics mid-install: the guard tombstones its slot.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pipe.begin_guarded();
            panic!("executor died mid-install");
        }));
        assert!(result.is_err());
        // The next commit proceeds as sequence 2 and publishes through.
        let guard = pipe.begin_guarded();
        let ticket = guard.defuse();
        let record = commit_record(0, &[2, 0], vec![(1, 10)]);
        pipe.commit_encoded(ticket, Bytes::from(encode_to_vec(&record)));
        assert_eq!(clock.current().get(SiteId::new(0)), 2);
    }

    #[test]
    fn refresh_batch_advances_over_noop_tombstones() {
        let clock = SiteClock::new(SiteId::new(0), 2);
        let store = Store::new(catalog(), 4);
        let batch = vec![
            commit_record(1, &[0, 1], vec![(1, 10)]),
            LogRecord::Noop {
                origin: SiteId::new(1),
                sequence: 2,
            },
            commit_record(1, &[0, 3], vec![(1, 30)]),
        ];
        assert_eq!(apply_refresh_batch(&clock, &store, batch).unwrap(), 3);
        let svv = clock.current();
        assert_eq!(svv.get(SiteId::new(1)), 3);
        assert_eq!(store.read(key(1), &svv).unwrap().unwrap(), row(30));
    }

    #[test]
    fn refresh_batch_applies_contiguous_run_with_one_publication() {
        let clock = SiteClock::new(SiteId::new(0), 2);
        let store = Store::new(catalog(), 4);
        let origin = 1;
        let batch = vec![
            commit_record(origin, &[0, 1], vec![(1, 10)]),
            commit_record(origin, &[0, 2], vec![(2, 20)]),
            commit_record(origin, &[0, 3], vec![(1, 30)]),
        ];
        assert_eq!(apply_refresh_batch(&clock, &store, batch).unwrap(), 3);
        let svv = clock.current();
        assert_eq!(svv.get(SiteId::new(origin)), 3);
        assert_eq!(store.read(key(1), &svv).unwrap().unwrap(), row(30));
        assert_eq!(store.read(key(2), &svv).unwrap().unwrap(), row(20));
    }

    #[test]
    fn refresh_batch_stops_run_at_unsatisfied_cross_dependency() {
        let clock = SiteClock::new(SiteId::new(2), 3);
        let store = Store::new(catalog(), 4);
        // Second record depends on site 1's first commit, which has not
        // arrived: the applier must publish the first record, then stop
        // and leave the wake for the dependency's advance.
        let batch = vec![
            commit_record(0, &[1, 0, 0], vec![(1, 10)]),
            commit_record(0, &[2, 1, 0], vec![(2, 20)]),
        ];
        let wake = Wake::new(thread::current());
        let applied = apply_refresh_batch_with(&clock, &store, &batch, Some(&wake), None);
        assert_eq!(applied.unwrap(), 1, "first run applied alone");
        assert_eq!(clock.current().get(SiteId::new(0)), 1);
        assert!(!wake.take(), "blocked on the dependency");
        // Satisfy the dependency: the wake fires and the rest applies.
        clock.publish_refresh(SiteId::new(1), 1);
        assert!(wake.take());
        let rest = apply_refresh_batch_with(&clock, &store, &batch[1..], Some(&wake), None);
        assert_eq!(rest.unwrap(), 1);
        assert_eq!(clock.current().get(SiteId::new(0)), 2);
        let svv = clock.current();
        assert_eq!(store.read(key(2), &svv).unwrap().unwrap(), row(20));
    }

    #[test]
    fn refresh_batch_handles_metadata_records() {
        let clock = SiteClock::new(SiteId::new(0), 2);
        let store = Store::new(catalog(), 4);
        let batch = vec![
            LogRecord::Release {
                origin: SiteId::new(1),
                sequence: 1,
                partition: dynamast_common::ids::PartitionId::new(3),
                epoch: 1,
            },
            commit_record(1, &[0, 2], vec![(5, 50)]),
            LogRecord::Grant {
                origin: SiteId::new(1),
                sequence: 3,
                partition: dynamast_common::ids::PartitionId::new(3),
                epoch: 2,
            },
        ];
        assert_eq!(apply_refresh_batch(&clock, &store, batch).unwrap(), 3);
        assert_eq!(clock.current().get(SiteId::new(1)), 3);
    }
}
