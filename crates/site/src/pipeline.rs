//! The commit pipeline: a site's commit order, counted once and applied
//! once.
//!
//! **Produce side.** Every durable state change at a site — local commits,
//! 2PC decides, remaster Release/Grant records — takes its place in the
//! site's commit order by reserving the next slot of the site's own durable
//! log ([`CommitPipeline::begin`]); the change's sequence is that slot plus
//! one, so slot order *is* sequence order, with no second counter to keep in
//! step. Every reader relies on it: peers tail the log with one in-order
//! feeder per origin, recovery replays it front to back, and a checkpoint's
//! per-origin offsets equal its svv cut. The committer then installs and
//! serializes outside any global lock — concurrent with other committers,
//! safe because it still holds its row write locks and versions stamped
//! `(site, seq)` stay invisible to every snapshot until `svv[site] >= seq`
//! — and completes the ticket ([`CommitPipeline::commit_encoded`]): the
//! fill that closes the gap at the log's visible watermark publishes the
//! whole contiguous run behind it in one group commit and advances
//! `svv[self]` over it ([`SiteClock::publish_up_to`]).
//!
//! The section between `begin` and `commit` must be infallible (validate
//! inputs *before* `begin`): an abandoned slot would leave a hole in the
//! commit order that wedges the site. The [`CommitTicket`] backstops that
//! contract — if the committer dies anyway (panicking executor, crash-point
//! unwind), dropping the ticket fills its slot with a [`LogRecord::Noop`]
//! tombstone, so the sequence space stays gap-free and the watermark keeps
//! moving.
//!
//! **Consume side.** [`apply_refresh_batch_with`] is the one implementation
//! of the update application rule (Eq. 1): it applies the admissible prefix
//! of one origin's batch — one admission check per contiguous admissible
//! run, installs batched outside the clock lock, one svv watermark
//! publication per run — and returns how far it got, never blocking. The
//! live refresh feeder hands it each published run; [`replay`] (recovery,
//! §V-C) hands it each origin's retained log suffix in bounded chunks,
//! round-robin, against a clock seeded from the recovery's svv.

use std::collections::HashSet;
use std::sync::Arc;

use bytes::Bytes;
use dynamast_common::ids::{Key, PartitionId, SiteId};
use dynamast_common::{DynaError, Result, Row, VersionVector};
use dynamast_replication::record::LogRecord;
use dynamast_replication::{DurableLog, LogSet, Wake};
use dynamast_storage::{Catalog, Store, VersionStamp};

use crate::clock::SiteClock;

/// A reserved position in a site's commit order: a slot of the site's own
/// durable log, holding sequence `slot + 1`. Obtained from
/// [`CommitPipeline::begin`]; completed with
/// [`CommitPipeline::commit_encoded`]. Dropped uncommitted, it tombstones
/// its slot.
#[must_use = "a ticket dropped uncommitted tombstones its slot"]
pub struct CommitTicket<'a> {
    pipeline: &'a CommitPipeline,
    slot: u64,
}

impl CommitTicket<'_> {
    /// The local commit sequence (`tvv[self]` for a commit record).
    pub fn seq(&self) -> u64 {
        self.slot + 1
    }

    /// Hands the slot to its fill: the ticket no longer tombstones it.
    fn into_slot(self) -> u64 {
        let slot = self.slot;
        std::mem::forget(self);
        slot
    }
}

impl Drop for CommitTicket<'_> {
    fn drop(&mut self) {
        let pipeline = self.pipeline;
        pipeline.publish(pipeline.log.abort(self.slot));
    }
}

/// The single sequencing path for all durable state changes at one site.
pub struct CommitPipeline {
    clock: Arc<SiteClock>,
    log: Arc<DurableLog>,
}

impl CommitPipeline {
    /// Builds the pipeline over `site`'s clock and its own durable log.
    pub fn new(site: SiteId, clock: Arc<SiteClock>, log: Arc<DurableLog>) -> Self {
        debug_assert_eq!(log.site(), site, "a site commits into its own log");
        CommitPipeline { clock, log }
    }

    /// Reserves the next slot of the site's log: the next commit sequence.
    ///
    /// Everything after this call until [`CommitPipeline::commit_encoded`]
    /// must be infallible — validate before beginning.
    pub fn begin(&self) -> CommitTicket<'_> {
        CommitTicket {
            pipeline: self,
            slot: self.log.reserve(),
        }
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
    pub fn commit_encoded(&self, ticket: CommitTicket<'_>, encoded: Bytes) {
        self.commit_all([(ticket, encoded)]);
    }

    /// [`CommitPipeline::commit_encoded`] for several tickets at once: the
    /// run they close publishes (and syncs) once, not once per ticket.
    pub(crate) fn commit_all<'a>(
        &'a self,
        fills: impl IntoIterator<Item = (CommitTicket<'a>, Bytes)>,
    ) {
        let fills = fills
            .into_iter()
            .map(|(ticket, encoded)| (ticket.into_slot(), encoded));
        self.publish(self.log.fill_all(fills));
    }

    /// Publishes a run the log made visible: slot i holds sequence i + 1,
    /// so the visible length is exactly the highest fully installed, fully
    /// logged sequence.
    fn publish(&self, visible: Option<u64>) {
        if let Some(visible) = visible {
            self.clock.publish_up_to(visible);
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
/// given, fires at the site's next svv advance. A run that names an unknown
/// table is a corrupted record: it installs nothing and the call returns
/// the error (the live feeder ends that subscription; replay fails the
/// recovery).
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
        store.install_batch(installs)?;
        clock.publish_refresh(origin, cursor);
        applied += run;
    }
    Ok(applied)
}

/// Every write of every commit record in `run`, stamped with its commit.
pub fn collect_all(run: &[LogRecord], installs: &mut Vec<Install>) {
    collect_where(run, installs, |_| true);
}

/// The writes in `run` whose key passes `keep`, stamped with their commit.
fn collect_where(run: &[LogRecord], installs: &mut Vec<Install>, keep: impl Fn(Key) -> bool) {
    for record in run {
        if let LogRecord::Commit {
            origin,
            tvv,
            writes,
        } = record
        {
            let stamp = VersionStamp::new(*origin, tvv.get(*origin));
            let kept = writes.iter().filter(|w| keep(w.key));
            installs.extend(kept.map(|w| (w.key, stamp, w.row.clone())));
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

/// Whether a site hosting the partitions in `hosted` (`None`: all of them,
/// full replication) keeps `key`'s rows: the one predicate a recovery
/// applies to its checkpoint image and to its replayed log suffix. A key
/// whose table is unknown is kept, so its install reports the error.
pub fn hosts_key(catalog: &Catalog, hosted: Option<&HashSet<PartitionId>>, key: Key) -> bool {
    hosted.is_none_or(|hosted| {
        catalog
            .partition_of(key)
            .map_or(true, |partition| hosted.contains(&partition))
    })
}

/// Records a replay reads from one origin's log at a time.
const REPLAY_CHUNK: u64 = 1024;

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
/// dependency order (§V-C: "replaying redo logs from the positions
/// indicated by the site version vector").
///
/// Round-robin over origins, each pass reads an origin's next chunk of at
/// most `REPLAY_CHUNK` records (its retained suffix, read as replay reaches
/// it, since the logs may still grow: a site restarts while others commit),
/// keeps it decoded until it applies, and hands what remains of it to
/// [`apply_refresh_batch_with`] — the refresh applier, run against a clock
/// seeded with the seed's svv and no wake — which applies its admissible
/// prefix under Eq. 1. Replay ends when a pass applies nothing: done if no
/// origin has a record left, and an error otherwise (the logs are mutually
/// stuck, which indicates corruption). A seed not cut for this many sites,
/// or a record naming an unknown table, is an error too. `applied` sees
/// each record as its run applies.
///
/// Under partial replication only writes to partitions in `hosted` are
/// installed ([`hosts_key`]). Every record still advances the svv — a site
/// that skips a foreign partition's writes has still *seen* that commit for
/// Eq. 1 admission purposes, exactly like the live refresh subscription
/// filter. `hosted = None` installs everything (full replication).
pub fn replay(
    logs: &LogSet,
    seed: ReplayedState,
    hosted: Option<&HashSet<PartitionId>>,
    mut applied: impl FnMut(&LogRecord),
) -> Result<ReplayedState> {
    let m = logs.num_sites();
    let ReplayedState {
        store,
        svv,
        mut offsets,
    } = seed;
    if svv.dims() != m || offsets.len() != m {
        return Err(DynaError::Internal(
            "replay seed does not match the log set's site count",
        ));
    }
    // Replay publishes only through `publish_refresh`, never the clock's
    // own dimension, so any site can own it.
    let clock = SiteClock::from_recovered(SiteId::new(0), svv);
    let mut collect = |run: &[LogRecord], installs: &mut Vec<Install>| {
        run.iter().for_each(&mut applied);
        collect_where(run, installs, |key| hosts_key(store.catalog(), hosted, key));
    };
    // Each origin's decoded chunk and the log offset of its first record;
    // the chunk has applied up to the origin's offset.
    let mut chunks: Vec<(u64, Vec<LogRecord>)> =
        offsets.iter().map(|&offset| (offset, Vec::new())).collect();
    loop {
        let (mut progressed, mut left) = (false, false);
        for (origin, (offset, (start, chunk))) in offsets.iter_mut().zip(&mut chunks).enumerate() {
            if *offset == *start + chunk.len() as u64 {
                let log = logs.log(SiteId::new(origin));
                *chunk = log.read_range(*offset, Some(*offset + REPLAY_CHUNK))?.0;
                *start = *offset;
            }
            let rest = &chunk[(*offset - *start) as usize..];
            let n = apply_refresh_batch_with(&clock, &store, rest, None, Some(&mut collect))?;
            *offset += n as u64;
            progressed |= n > 0;
            left |= n < rest.len();
        }
        match (progressed, left) {
            (true, _) => {}
            (false, false) => break,
            (false, true) => return Err(DynaError::Internal("log replay is stuck")),
        }
    }
    Ok(ReplayedState {
        store,
        svv: clock.current(),
        offsets,
    })
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
        assert_eq!((t1.seq(), t2.seq()), (1, 2));
        assert_eq!((t1.slot, t2.slot), (0, 1));
        // Completing out of ticket order publishes in sequence order anyway.
        let fill = |ticket: CommitTicket<'_>, record: LogRecord| {
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
        drop(dead);
        assert_eq!(clock.current().get(SiteId::new(0)), 2, "tombstone unwedges");
        let (recs, _) = log.read_from(0).unwrap();
        assert!(matches!(recs[0], LogRecord::Noop { sequence: 1, .. }));
    }

    #[test]
    fn commit_guard_aborts_on_panic_and_defuses_on_commit() {
        let (pipe, clock, log) = pipeline();
        // A committer that panics mid-install: its ticket tombstones the slot.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ticket = pipe.begin();
            panic!("executor died mid-install");
        }));
        assert!(result.is_err());
        // The next commit proceeds as sequence 2 and publishes through.
        let ticket = pipe.begin();
        assert_eq!(ticket.seq(), 2);
        let record = commit_record(0, &[2, 0], vec![(1, 10)]);
        pipe.commit_encoded(ticket, Bytes::from(encode_to_vec(&record)));
        assert_eq!(clock.current().get(SiteId::new(0)), 2);
        let (recs, _) = log.read_from(0).unwrap();
        assert!(
            matches!(recs[1], LogRecord::Commit { .. }),
            "a committed ticket is not tombstoned"
        );
    }

    /// A ticket taken from `begin` and dropped uncommitted — no commit, no
    /// explicit abort — tombstones its slot, so the next commit publishes.
    #[test]
    fn a_ticket_dropped_uncommitted_lets_the_next_commit_publish() {
        let (pipe, clock, _log) = pipeline();
        let abandoned = pipe.begin();
        drop(abandoned);
        let ticket = pipe.begin();
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
            .append(&commit_record(0, &[1, 0], vec![(1, 10)]));
        logs.log(SiteId::new(1))
            .append(&commit_record(1, &[1, 1], vec![(2, 20)]));
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
            .append(&commit_record(0, &[1, 0, 0], vec![(1, 1)]));
        logs.log(SiteId::new(2))
            .append(&commit_record(2, &[1, 0, 1], vec![(3, 3)]));
        logs.log(SiteId::new(0))
            .append(&commit_record(0, &[2, 0, 1], vec![(1, 2)]));
        logs.log(SiteId::new(1))
            .append(&commit_record(1, &[2, 1, 1], vec![(2, 2)]));
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
            .append(&commit_record(0, &[1, 5], vec![(1, 1)]));
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
            .append(&commit_record(0, &[1, 0], vec![(1, 10)]));
        logs.log(SiteId::new(0)).append(&LogRecord::Noop {
            origin: SiteId::new(0),
            sequence: 2,
        });
        logs.log(SiteId::new(0))
            .append(&commit_record(0, &[3, 0], vec![(1, 30)]));
        let state = from_zero(&logs).unwrap();
        assert_eq!(state.svv.as_slice(), &[3, 0]);
        let snap = state.svv.clone();
        assert_eq!(state.store.read(key(1), &snap).unwrap().unwrap(), row(30));
    }

    #[test]
    fn replay_resumes_past_a_seeded_prefix() {
        let logs = LogSet::new(2);
        logs.log(SiteId::new(0))
            .append(&commit_record(0, &[1, 0], vec![(1, 10)]));
        logs.log(SiteId::new(0))
            .append(&commit_record(0, &[2, 0], vec![(1, 20)]));
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
            .append(&commit_record(0, &[1, 0], vec![(1, 10), (150, 15)]));
        logs.log(SiteId::new(1))
            .append(&commit_record(1, &[1, 1], vec![(151, 20)]));
        let hosted: HashSet<PartitionId> = [PartitionId::new(0)].into_iter().collect();
        let seed = empty(2);
        let state = replay(&logs, seed, Some(&hosted), |_| {}).unwrap();
        assert_eq!(state.svv.as_slice(), &[1, 1]);
        let snap = state.svv.clone();
        assert_eq!(state.store.read(key(1), &snap).unwrap().unwrap(), row(10));
        assert_eq!(state.store.read(key(150), &snap).unwrap(), None);
        assert_eq!(state.store.read(key(151), &snap).unwrap(), None);
    }

    /// Replay reads each origin in chunks and goes round-robin: a
    /// dependency that points past an origin's first chunk, in both
    /// directions, resolves over later passes.
    #[test]
    fn replay_resolves_dependencies_across_chunk_boundaries() {
        let logs = LogSet::new(2);
        let n = REPLAY_CHUNK + 10;
        for seq in 1..=n {
            logs.log(SiteId::new(0))
                .append(&commit_record(0, &[seq, 0], vec![(1, seq)]));
        }
        // Origin 1 read origin 0's second chunk; origin 0's last commit
        // read origin 1's.
        logs.log(SiteId::new(1))
            .append(&commit_record(1, &[REPLAY_CHUNK + 5, 1], vec![(2, 2)]));
        logs.log(SiteId::new(0))
            .append(&commit_record(0, &[n + 1, 1], vec![(1, n + 1)]));
        let state = from_zero(&logs).unwrap();
        assert_eq!(state.svv.as_slice(), &[n + 1, 1]);
        assert_eq!(state.offsets, vec![n + 1, 1]);
        let snap = state.svv.clone();
        assert_eq!(
            state.store.read(key(1), &snap).unwrap().unwrap(),
            row(n + 1)
        );
        assert_eq!(state.store.read(key(2), &snap).unwrap().unwrap(), row(2));
    }

    /// A commit record naming a table the catalog does not know is a
    /// corrupted log: replaying it is an error, not a panic.
    #[test]
    fn replay_fails_on_a_record_naming_an_unknown_table() {
        let logs = LogSet::new(2);
        logs.log(SiteId::new(0)).append(&LogRecord::Commit {
            origin: SiteId::new(0),
            tvv: VersionVector::from_counts(vec![1, 0]),
            writes: vec![
                WriteEntry::new(key(1), row(10)),
                WriteEntry::new(Key::new(TableId::new(7), 1), row(70)),
            ],
        });
        assert!(from_zero(&logs).is_err());
    }
}
