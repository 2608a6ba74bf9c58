//! Invariant audit plane: streaming checkers over the flight recorder.
//!
//! DynaMast's correctness rests on invariants the rest of the system takes
//! as axioms: exactly one master writes a partition at any instant, and
//! remastering hands mastership off without losing or duplicating any
//! update. The tests assert these *post hoc* (final balances, mastership
//! maps); this module checks them *online* while the run is in flight, so
//! a violation is pinned to the exact overwritten write the moment it
//! happens instead of 100+ runs later at the final sum.
//!
//! The plane has three pieces:
//!
//! 1. **Events** — [`TracePayload::WriteEffect`] emitted at every version
//!    install (commit-side and refresh-side) and [`TracePayload::Ownership`]
//!    at every release/grant, both behind the recorder's
//!    [`FlightRecorder::set_audit`] arm flag so an unarmed run pays nothing.
//! 2. **The sink** — [`AuditSink`] drains the per-thread recorder rings on a
//!    background thread, merges them, and runs the online checkers below.
//! 3. **Black-box bundles** — on violation, a bounded repro bundle (seed,
//!    crash detail, the exact offending `(partition, key, (origin, seq))`
//!    tuple, and the causal timelines of the recent event tail) is written
//!    to disk with keep-newest-N rotation.
//!
//! ## Checkers
//!
//! * **Double master** — per `(site, partition)` the site's own
//!   release/grant records and commit-side writes all carry that site's
//!   pipeline commit sequence, a total order. A write sequenced after a
//!   release with no intervening grant means the site wrote a partition it
//!   had handed off. Verdicts are deferred one poll so cross-thread drain
//!   races can't misorder a grant behind a later write.
//! * **Lost update** — every commit-side install captures the stamp of the
//!   version it overwrote (read under the held write locks, so it *is* the
//!   replaced version). Two writes claiming the same parent stamp on one
//!   key is a lost update, order-independently and with zero false
//!   positives.
//! * **Exactly-once install** — duplicate `(origin, seq, key)` commit-side,
//!   or duplicate `(site, origin, seq, key)` refresh-side.
//! * **svv monotonicity** — per `(site, origin)` the refresh frontier
//!   (`thru_seq` of applied batches) must never regress.
//! * **Refresh completeness** — the keys each origin commit wrote are
//!   remembered in a bounded window; when a replica's refresh frontier for
//!   that origin passes a sequence without having installed its keys, the
//!   missing `(partition, key, (origin, seq))` is reported.
//! * **Conservation** — (opt-in) commit-side deltas (`value - prev`) are
//!   grouped by `(origin, seq)`; a transfer workload's groups must each be
//!   zero-sum, even under at-least-once re-execution (a re-executed
//!   transfer is a fresh commit group, itself zero-sum).
//!
//! ## Loss handling
//!
//! Ring wrap and drop-on-contention lose events. Every checker degrades to
//! "audit incomplete" under loss rather than reporting a false violation:
//! checkers where loss can only *hide* a violation (lost update,
//! exactly-once, svv regression, conservation-within-a-lossless-window)
//! stay active; checkers where loss could *fabricate* one (double master,
//! refresh completeness) reset or disarm.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::metrics::Counter;
use crate::trace::{
    render_timelines, FlightRecorder, TraceEvent, TraceKind, TracePayload, TraceSite,
};
use crate::value::{Row, Value};

/// How many recent events the sink retains for black-box bundles. The sink
/// drains the recorder rings, so it must keep its own bounded tail to have
/// any history to render when a violation fires.
const TAIL_CAPACITY: usize = 4096;

/// Per-origin window (in commit sequences) of remembered write sets and
/// install stamps. Older state is pruned; a check that would need pruned
/// state is skipped (coverage loss, never a false positive).
const SEQ_WINDOW: u64 = 4096;

/// Per-key cap on remembered parent stamps for the lost-update checker.
const PARENT_CAP: usize = 8192;

/// Configuration for an [`AuditSink`].
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Check per-commit zero-sum conservation (transfer-only workloads).
    pub conservation: bool,
    /// Where to write black-box repro bundles; `None` disables bundles.
    pub bundle_dir: Option<PathBuf>,
    /// Keep at most this many bundles in `bundle_dir` (oldest pruned).
    pub bundle_keep: usize,
    /// Reproduction seed recorded in bundles.
    pub seed: u64,
    /// Free-form run detail (crash point, fault plan) recorded in bundles.
    pub detail: String,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            conservation: false,
            bundle_dir: None,
            bundle_keep: 8,
            seed: 0,
            detail: String::new(),
        }
    }
}

/// What invariant a [`Violation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A site wrote a partition after releasing it and before any grant.
    DoubleMaster,
    /// Two writes overwrote the same parent version of one key.
    LostUpdate,
    /// The same `(origin, seq)` installed a key twice.
    DuplicateInstall,
    /// A replica's refresh frontier for an origin moved backwards.
    SvvRegression,
    /// A replica's refresh frontier passed a commit without installing
    /// one of its keys.
    MissingInstall,
    /// A commit group's value deltas did not sum to zero.
    ConservationBreach,
}

impl ViolationKind {
    /// Short slug used in bundle file names.
    pub fn slug(&self) -> &'static str {
        match self {
            ViolationKind::DoubleMaster => "double-master",
            ViolationKind::LostUpdate => "lost-update",
            ViolationKind::DuplicateInstall => "duplicate-install",
            ViolationKind::SvvRegression => "svv-regression",
            ViolationKind::MissingInstall => "missing-install",
            ViolationKind::ConservationBreach => "conservation-breach",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One confirmed invariant violation, naming the exact offending
/// `(partition, key, (origin, seq))`.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Partition of the offending key.
    pub partition: u64,
    /// Table component of the offending key.
    pub table: u32,
    /// Record component of the offending key.
    pub record: u64,
    /// Origin site of the offending commit stamp.
    pub origin: u32,
    /// Commit sequence of the offending stamp.
    pub sequence: u64,
    /// Human-readable detail (both writers, sums, frontiers).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: p{} key=({},{}) stamp=(site{},{}) — {}",
            self.kind,
            self.partition,
            self.table,
            self.record,
            self.origin,
            self.sequence,
            self.detail
        )
    }
}

/// The outcome of an audited run, returned by [`AuditSink::finish`].
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Audit-relevant events processed (write/ownership/refresh).
    pub events: u64,
    /// Confirmed violations, in detection order.
    pub violations: Vec<Violation>,
    /// `true` if any ring wrap or drop forced a checker to degrade: the
    /// run's clean bill of health is then partial, not total.
    pub incomplete: bool,
    /// Events lost to ring wrap across the run.
    pub ring_wraps: u64,
}

/// A commit-side write pending double-master confirmation.
struct OwnCandidate {
    site: u32,
    partition: u64,
    seq: u64,
    table: u32,
    record: u64,
    value: i64,
    release_seq: u64,
    release_epoch: u64,
    seen_poll: u64,
}

/// First commit-side claim of a parent version stamp.
#[derive(Clone, Copy)]
struct WriteClaim {
    origin: u32,
    sequence: u64,
    value: i64,
    partition: u64,
}

/// One (origin, seq) commit group accumulating conservation deltas.
struct Group {
    sum: i64,
    members: Vec<(u64, u32, u64, i64)>,
    first_poll: u64,
    last_poll: u64,
    prev_missing: bool,
}

/// One site+partition's ownership transitions, keyed by the site's commit
/// sequence: `(acquired, epoch, suspect)`.
type TransitionLog = BTreeMap<u64, (bool, u64, bool)>;

/// The keys one origin commit wrote, as `(partition, table, record)`.
type WriteSet = Vec<(u64, u32, u64)>;

#[derive(Default)]
struct AuditState {
    poll_no: u64,
    incomplete: bool,
    lossy_ever: bool,
    violations: Vec<Violation>,
    /// Bounded recent-event tail for bundle timelines.
    tail: VecDeque<TraceEvent>,
    /// Double master: per (site, partition), ownership transitions keyed by
    /// the site's commit sequence: `(acquired, epoch, suspect)`. A release
    /// is `suspect` when recorded inside the straggler window after a lossy
    /// drain — it may precede a grant that was lost, so it never grounds a
    /// double-master verdict.
    transitions: HashMap<(u32, u64), TransitionLog>,
    own_candidates: Vec<OwnCandidate>,
    /// Polls at or before this index sit in the post-loss straggler window.
    suspect_until_poll: u64,
    /// Lost update: per key, parent stamp -> first claiming write.
    parents: HashMap<(u32, u64), BTreeMap<(u32, u64), WriteClaim>>,
    /// Exactly-once: commit-side installs seen, (origin, seq, table, record).
    installed: HashSet<(u32, u64, u32, u64)>,
    /// Exactly-once: refresh installs seen, (site, origin, seq, table, record).
    refresh_installed: HashSet<(u32, u32, u64, u32, u64)>,
    /// Skips declared by the partial-replication subscription filter,
    /// (site, origin, seq, table, record): the record was deliberately not
    /// installed because the site does not host its partition. Satisfies
    /// the refresh-completeness obligation for that key.
    refresh_skips: HashSet<(u32, u32, u64, u32, u64)>,
    /// svv monotonicity: (site, origin) -> highest refresh frontier seen.
    refresh_frontier: HashMap<(u32, u32), u64>,
    /// Refresh completeness: origin -> seq -> keys written at that commit.
    origin_writes: HashMap<u32, BTreeMap<u64, WriteSet>>,
    /// Pending frontier checks: (site, origin) -> (thru_seq, seen_poll).
    refresh_checks: HashMap<(u32, u32), (u64, u64)>,
    /// Refresh completeness verified up to this seq per (site, origin).
    refresh_checked: HashMap<(u32, u32), u64>,
    /// Highest commit sequence seen per origin (window pruning).
    origin_max_seq: HashMap<u32, u64>,
    /// Conservation groups pending finalization.
    groups: HashMap<(u32, u64), Group>,
    /// Groups first seen at or before this poll are conservation-tainted
    /// (a lossy drain may have swallowed members).
    tainted_until_poll: u64,
    /// Sites whose stores were rebuilt by unaudited crash-recovery replay:
    /// the first refresh frontier per (site, origin) after a restart
    /// re-baselines completeness instead of checking across the replay
    /// window.
    restarted: HashSet<u32>,
}

/// Streaming invariant auditor over a [`FlightRecorder`].
///
/// Create with [`AuditSink::arm`] for live runs (spawns a background drain
/// thread and arms the recorder), or [`AuditSink::offline`] plus
/// [`AuditSink::ingest`] for deterministic detector self-tests.
pub struct AuditSink {
    recorder: Arc<FlightRecorder>,
    config: AuditConfig,
    state: Mutex<AuditState>,
    events: Arc<Counter>,
    violations: Arc<Counter>,
    ring_wraps: Arc<Counter>,
    stop: Arc<AtomicBool>,
    worker: Mutex<Option<JoinHandle<()>>>,
    dropped_floor: AtomicU64,
    bundle_counter: AtomicU64,
}

impl AuditSink {
    /// Creates a sink without arming the recorder or spawning the drain
    /// thread — events are supplied directly via [`AuditSink::ingest`].
    pub fn offline(recorder: Arc<FlightRecorder>, config: AuditConfig) -> Arc<AuditSink> {
        Arc::new(AuditSink {
            dropped_floor: AtomicU64::new(recorder.dropped()),
            recorder,
            config,
            state: Mutex::new(AuditState::default()),
            events: Arc::new(Counter::new()),
            violations: Arc::new(Counter::new()),
            ring_wraps: Arc::new(Counter::new()),
            stop: Arc::new(AtomicBool::new(false)),
            worker: Mutex::new(None),
            bundle_counter: AtomicU64::new(0),
        })
    }

    /// Arms audit-event emission on the recorder and starts a background
    /// thread draining it every couple of milliseconds.
    pub fn arm(recorder: Arc<FlightRecorder>, config: AuditConfig) -> Arc<AuditSink> {
        let sink = Self::offline(recorder, config);
        // Value signatures only cost something when a checker consumes
        // them: the conservation checker sums signature deltas, the
        // ownership/exactly-once checkers run on stamps alone.
        sink.recorder.set_audit_values(sink.config.conservation);
        sink.recorder.set_audit(true);
        let worker_sink = Arc::clone(&sink);
        let stop = Arc::clone(&sink.stop);
        let handle = std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                worker_sink.poll();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        *sink.worker.lock() = Some(handle);
        sink
    }

    /// Counter of audit-relevant events processed.
    pub fn events_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.events)
    }

    /// Counter of confirmed violations.
    pub fn violations_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.violations)
    }

    /// Counter of events lost to ring wrap while audited.
    pub fn ring_wraps_counter(&self) -> Arc<Counter> {
        Arc::clone(&self.ring_wraps)
    }

    /// Drains the recorder once and runs the checkers over the batch.
    pub fn poll(&self) {
        let (events, wrapped) = self.recorder.drain_accounted();
        let dropped_now = self.recorder.dropped();
        let dropped_prev = self.dropped_floor.swap(dropped_now, Ordering::Relaxed);
        let lost = wrapped + dropped_now.saturating_sub(dropped_prev);
        if wrapped > 0 {
            self.ring_wraps.add(wrapped);
        }
        self.ingest(&events, lost > 0);
    }

    /// Feeds one batch of events through the checkers. `lossy` marks the
    /// batch as having lost events (ring wrap / drop) since the previous
    /// batch; checkers degrade rather than risk a false violation.
    pub fn ingest(&self, events: &[TraceEvent], lossy: bool) {
        let mut state = self.state.lock();
        let state = &mut *state;
        state.poll_no += 1;
        let now = state.poll_no;
        if lossy {
            state.incomplete = true;
            state.lossy_ever = true;
            // A missing grant could make an honest write look masterless:
            // reset ownership knowledge, drop unconfirmed candidates, and
            // treat releases recorded in the next poll as suspect (their
            // matching grant may be among the lost events).
            state.transitions.clear();
            state.own_candidates.clear();
            state.suspect_until_poll = now + 1;
            // A missing member could make an honest group look unbalanced.
            state.groups.clear();
            state.tainted_until_poll = now + 1;
        }

        let mut fresh: Vec<Violation> = Vec::new();
        let mut relevant = 0u64;
        for ev in events {
            match &ev.payload {
                TracePayload::None if ev.kind == TraceKind::SiteRestart => {
                    relevant += 1;
                    if let TraceSite::Site(site) = ev.site {
                        Self::forget_site(state, site);
                    }
                }
                TracePayload::WriteEffect {
                    table,
                    record,
                    origin,
                    sequence,
                    ..
                } if ev.kind == TraceKind::RefreshSkip => {
                    relevant += 1;
                    if let TraceSite::Site(site) = ev.site {
                        state
                            .refresh_skips
                            .insert((site, *origin, *sequence, *table, *record));
                    }
                }
                TracePayload::WriteEffect { .. } => {
                    relevant += 1;
                    Self::ingest_write(state, ev, now, &mut fresh, &self.config);
                }
                TracePayload::Ownership {
                    partition,
                    site,
                    sequence,
                    epoch,
                    acquired,
                } => {
                    relevant += 1;
                    let suspect = !acquired && now <= state.suspect_until_poll;
                    state
                        .transitions
                        .entry((*site, *partition))
                        .or_default()
                        .insert(*sequence, (*acquired, *epoch, suspect));
                }
                TracePayload::Refresh {
                    origin, sequence, ..
                } => {
                    relevant += 1;
                    let site = match ev.site {
                        TraceSite::Site(s) => s,
                        _ => continue,
                    };
                    let key = (site, *origin);
                    let prev = state.refresh_frontier.get(&key).copied().unwrap_or(0);
                    if *sequence < prev && !lossy {
                        fresh.push(Violation {
                            kind: ViolationKind::SvvRegression,
                            partition: 0,
                            table: 0,
                            record: 0,
                            origin: *origin,
                            sequence: *sequence,
                            detail: format!(
                                "site{site} refresh frontier for origin site{origin} \
                                 regressed {prev} -> {sequence}"
                            ),
                        });
                    }
                    if *sequence > prev {
                        state.refresh_frontier.insert(key, *sequence);
                    }
                    // Queue a completeness check (deferred one poll so the
                    // origin's own write events have certainly arrived).
                    if site != *origin {
                        if state.restarted.contains(&site)
                            && !state.refresh_checked.contains_key(&key)
                        {
                            // First frontier after a restart: everything at
                            // or below it may have been installed by the
                            // unaudited recovery replay. Baseline, don't
                            // check.
                            state.refresh_checked.insert(key, *sequence);
                        } else {
                            let entry = state.refresh_checks.entry(key).or_insert((0, now));
                            if *sequence > entry.0 {
                                *entry = (*sequence, now);
                            }
                        }
                    }
                }
                _ => {}
            }
            state.tail.push_back(ev.clone());
            while state.tail.len() > TAIL_CAPACITY {
                state.tail.pop_front();
            }
        }
        self.events.add(relevant);

        Self::confirm_pending(state, &self.config, &mut fresh);
        Self::prune(state);
        for v in fresh {
            self.report(state, v);
        }
    }

    /// Stops the drain thread, runs the final confirmation rounds, disarms
    /// the recorder, and returns the run's report.
    pub fn finish(&self) -> AuditReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.worker.lock().take() {
            let _ = handle.join();
        }
        self.poll();
        // One empty round so every deferred candidate becomes confirmable.
        self.ingest(&[], false);
        self.recorder.set_audit(false);
        self.recorder.set_audit_values(false);
        let state = self.state.lock();
        AuditReport {
            events: self.events.get(),
            violations: state.violations.clone(),
            incomplete: state.incomplete,
            ring_wraps: self.ring_wraps.get(),
        }
    }

    /// A site restart rebuilt that site's store by direct log replay — an
    /// unaudited path — and may have reset its volatile counters. Forget
    /// everything the checkers believed about the site so stale pre-crash
    /// knowledge cannot fabricate violations; each checker re-baselines
    /// from the site's next events. This mirrors the loss-soundness rule:
    /// forgetting can only hide evidence, never invent it.
    fn forget_site(state: &mut AuditState, site: u32) {
        state.restarted.insert(site);
        // Ownership: the rebuilt site re-derives mastership from the logs
        // without re-emitting transitions, so a pre-crash release would
        // read as "still released" against its post-restart writes.
        state.transitions.retain(|&(s, _), _| s != site);
        state.own_candidates.retain(|c| c.site != site);
        // Refresh (site as replica): replication resumes from recovered
        // offsets, so the first post-restart frontier may regress or span
        // replayed-but-unaudited installs.
        state.refresh_frontier.retain(|&(s, _), _| s != site);
        state.refresh_checks.retain(|&(s, _), _| s != site);
        state.refresh_checked.retain(|&(s, _), _| s != site);
        state.refresh_installed.retain(|&(s, _, _, _, _)| s != site);
        state.refresh_skips.retain(|&(s, _, _, _, _)| s != site);
        // Commit side (site as origin): a commit that installed and was
        // audited but missed the log is rolled back by the replay, so its
        // sequence can be legitimately reused; drop the origin's write
        // history rather than risk false duplicates or false missing
        // installs against it.
        state.installed.retain(|&(o, _, _, _)| o != site);
        state.origin_writes.remove(&site);
        state.origin_max_seq.remove(&site);
        state.groups.retain(|&(o, _), _| o != site);
        for claims in state.parents.values_mut() {
            claims.retain(|_, c| c.origin != site);
        }
    }

    fn ingest_write(
        state: &mut AuditState,
        ev: &TraceEvent,
        now: u64,
        fresh: &mut Vec<Violation>,
        config: &AuditConfig,
    ) {
        let TracePayload::WriteEffect {
            partition,
            table,
            record,
            prev,
            value,
            prev_origin,
            prev_seq,
            origin,
            sequence,
            epoch: _,
            generation: _,
            refresh,
        } = ev.payload
        else {
            return;
        };
        let installer = match ev.site {
            TraceSite::Site(s) => s,
            _ => origin,
        };

        if refresh {
            // Exactly-once per replica: the same origin commit must not
            // install the same key twice at one site. Loss can only hide a
            // duplicate, never fabricate one.
            if !state
                .refresh_installed
                .insert((installer, origin, sequence, table, record))
            {
                fresh.push(Violation {
                    kind: ViolationKind::DuplicateInstall,
                    partition,
                    table,
                    record,
                    origin,
                    sequence,
                    detail: format!(
                        "site{installer} refresh-installed key ({table},{record}) twice \
                         for commit (site{origin},{sequence})"
                    ),
                });
            }
            return;
        }

        let max = state.origin_max_seq.entry(origin).or_insert(0);
        if sequence > *max {
            *max = sequence;
        }

        // Exactly-once at the origin.
        if !state.installed.insert((origin, sequence, table, record)) {
            fresh.push(Violation {
                kind: ViolationKind::DuplicateInstall,
                partition,
                table,
                record,
                origin,
                sequence,
                detail: format!(
                    "origin site{origin} installed key ({table},{record}) twice \
                     at sequence {sequence}"
                ),
            });
        }

        // Remember the write set for the refresh-completeness checker.
        state
            .origin_writes
            .entry(origin)
            .or_default()
            .entry(sequence)
            .or_default()
            .push((partition, table, record));

        // Lost update: a second claim of the same parent version. The
        // parent stamp was read under the held write locks, so it is
        // exactly the version this install replaced; two claimants means
        // one of them never saw the other's write. Order-independent, and
        // loss can only hide a claimant.
        if prev_origin != u32::MAX {
            let claims = state.parents.entry((table, record)).or_default();
            match claims.get(&(prev_origin, prev_seq)) {
                Some(first) => {
                    let first = *first;
                    fresh.push(Violation {
                        kind: ViolationKind::LostUpdate,
                        partition,
                        table,
                        record,
                        origin,
                        sequence,
                        detail: format!(
                            "write (site{origin},{sequence}) value={value} overwrote parent \
                             (site{prev_origin},{prev_seq}) already claimed by \
                             (site{},{}) value={} on p{}",
                            first.origin, first.sequence, first.value, first.partition
                        ),
                    });
                }
                None => {
                    claims.insert(
                        (prev_origin, prev_seq),
                        WriteClaim {
                            origin,
                            sequence,
                            value,
                            partition,
                        },
                    );
                    while claims.len() > PARENT_CAP {
                        claims.pop_first();
                    }
                }
            }
        }

        // Double master: the write's predecessor in the site's own commit
        // order must not be an unmatched release. Defer the verdict one
        // poll in case a grant's event is still in another thread's ring;
        // skip entirely inside the post-loss straggler window.
        if now > state.suspect_until_poll {
            if let Some(trans) = state.transitions.get(&(installer, partition)) {
                if let Some((&rel_seq, &(acquired, rel_epoch, suspect))) =
                    trans.range(..sequence).next_back()
                {
                    if !acquired && !suspect {
                        state.own_candidates.push(OwnCandidate {
                            site: installer,
                            partition,
                            seq: sequence,
                            table,
                            record,
                            value,
                            release_seq: rel_seq,
                            release_epoch: rel_epoch,
                            seen_poll: now,
                        });
                    }
                }
            }
        }

        // Conservation: accumulate the commit group's delta.
        if config.conservation {
            let group = state.groups.entry((origin, sequence)).or_insert(Group {
                sum: 0,
                members: Vec::new(),
                first_poll: now,
                last_poll: now,
                prev_missing: false,
            });
            group.last_poll = now;
            if prev_origin == u32::MAX {
                group.prev_missing = true;
            } else {
                let delta = value.wrapping_sub(prev);
                group.sum = group.sum.wrapping_add(delta);
                group.members.push((partition, table, record, delta));
            }
        }
    }

    /// Confirms deferred verdicts whose grace poll has elapsed.
    fn confirm_pending(state: &mut AuditState, config: &AuditConfig, fresh: &mut Vec<Violation>) {
        let now = state.poll_no;

        // Double-master candidates: still release-preceded after the grace
        // poll means the write really ran without mastership.
        let mut kept = Vec::new();
        for cand in state.own_candidates.drain(..) {
            if cand.seen_poll >= now {
                kept.push(cand);
                continue;
            }
            let confirmed = state
                .transitions
                .get(&(cand.site, cand.partition))
                .and_then(|t| t.range(..cand.seq).next_back())
                .is_some_and(|(_, &(acquired, _, suspect))| !acquired && !suspect);
            if confirmed {
                fresh.push(Violation {
                    kind: ViolationKind::DoubleMaster,
                    partition: cand.partition,
                    table: cand.table,
                    record: cand.record,
                    origin: cand.site,
                    sequence: cand.seq,
                    detail: format!(
                        "site{} wrote key ({},{}) value={} at sequence {} after releasing \
                         p{} at sequence {} (epoch {}) with no intervening grant",
                        cand.site,
                        cand.table,
                        cand.record,
                        cand.value,
                        cand.seq,
                        cand.partition,
                        cand.release_seq,
                        cand.release_epoch
                    ),
                });
            }
        }
        state.own_candidates = kept;

        // Refresh completeness: a replica frontier that passed an origin
        // sequence must have installed every key that commit wrote. Any
        // loss ever disarms this checker — a swallowed install event would
        // otherwise read as a missing install.
        if !state.lossy_ever {
            let due: Vec<((u32, u32), u64)> = state
                .refresh_checks
                .iter()
                .filter(|(_, (_, seen))| *seen < now)
                .map(|(k, (thru, _))| (*k, *thru))
                .collect();
            for ((site, origin), thru) in due {
                state.refresh_checks.remove(&(site, origin));
                let from = state
                    .refresh_checked
                    .get(&(site, origin))
                    .copied()
                    .unwrap_or(0);
                let floor = state
                    .origin_max_seq
                    .get(&origin)
                    .copied()
                    .unwrap_or(0)
                    .saturating_sub(SEQ_WINDOW);
                if let Some(writes) = state.origin_writes.get(&origin) {
                    for (&seq, keys) in writes.range(from.max(floor) + 1..=thru) {
                        for &(partition, table, record) in keys {
                            if !state
                                .refresh_installed
                                .contains(&(site, origin, seq, table, record))
                                && !state
                                    .refresh_skips
                                    .contains(&(site, origin, seq, table, record))
                            {
                                fresh.push(Violation {
                                    kind: ViolationKind::MissingInstall,
                                    partition,
                                    table,
                                    record,
                                    origin,
                                    sequence: seq,
                                    detail: format!(
                                        "site{site} refresh frontier for origin site{origin} \
                                         passed sequence {thru} without installing key \
                                         ({table},{record}) of commit (site{origin},{seq})"
                                    ),
                                });
                            }
                        }
                    }
                }
                let checked = state.refresh_checked.entry((site, origin)).or_insert(0);
                if thru > *checked {
                    *checked = thru;
                }
            }
        } else {
            state.refresh_checks.clear();
        }

        // Conservation groups: a group whose last member arrived before
        // this poll is complete (a commit's install loop is one thread, so
        // a drain can split it across at most adjacent polls).
        if config.conservation {
            let due: Vec<(u32, u64)> = state
                .groups
                .iter()
                .filter(|(_, g)| g.last_poll < now)
                .map(|(k, _)| *k)
                .collect();
            for key in due {
                let group = state.groups.remove(&key).expect("group present");
                if group.first_poll <= state.tainted_until_poll {
                    state.incomplete = true;
                    continue;
                }
                if group.prev_missing {
                    state.incomplete = true;
                    continue;
                }
                if group.sum != 0 && !group.members.is_empty() {
                    let (origin, sequence) = key;
                    let (partition, table, record, _) = group.members[0];
                    let members = group
                        .members
                        .iter()
                        .map(|(p, t, r, d)| format!("p{p} ({t},{r}) delta={d}"))
                        .collect::<Vec<_>>()
                        .join(", ");
                    fresh.push(Violation {
                        kind: ViolationKind::ConservationBreach,
                        partition,
                        table,
                        record,
                        origin,
                        sequence,
                        detail: format!(
                            "commit (site{origin},{sequence}) deltas sum to {} — [{members}]",
                            group.sum
                        ),
                    });
                }
            }
        }
    }

    /// Bounds the sink's memory: old sequences fall out of the per-origin
    /// windows; checks that would have needed them are silently skipped.
    fn prune(state: &mut AuditState) {
        let floors: Vec<(u32, u64)> = state
            .origin_max_seq
            .iter()
            .map(|(o, max)| (*o, max.saturating_sub(SEQ_WINDOW)))
            .collect();
        for (origin, floor) in &floors {
            if let Some(writes) = state.origin_writes.get_mut(origin) {
                while writes
                    .first_key_value()
                    .is_some_and(|(&seq, _)| seq < *floor)
                {
                    writes.pop_first();
                }
            }
        }
        let cap = SEQ_WINDOW as usize * 8;
        if state.installed.len() > cap * 4 {
            let floor_of = |origin: u32| {
                floors
                    .iter()
                    .find(|(o, _)| *o == origin)
                    .map(|(_, f)| *f)
                    .unwrap_or(0)
            };
            state
                .installed
                .retain(|&(origin, seq, _, _)| seq >= floor_of(origin));
            state
                .refresh_installed
                .retain(|&(_, origin, seq, _, _)| seq >= floor_of(origin));
            state
                .refresh_skips
                .retain(|&(_, origin, seq, _, _)| seq >= floor_of(origin));
        }
    }

    /// Records a confirmed violation and writes its black-box bundle.
    fn report(&self, state: &mut AuditState, violation: Violation) {
        self.violations.inc();
        if let Some(dir) = &self.config.bundle_dir {
            let n = self.bundle_counter.fetch_add(1, Ordering::Relaxed);
            if let Err(err) = self.write_bundle(dir, n, &violation, state) {
                eprintln!("[audit] failed to write repro bundle: {err}");
            }
        }
        eprintln!("[audit] VIOLATION {violation}");
        state.violations.push(violation);
    }

    fn write_bundle(
        &self,
        dir: &Path,
        n: u64,
        violation: &Violation,
        state: &AuditState,
    ) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let name = format!("audit-{n:06}-{}.txt", violation.kind.slug());
        let path = dir.join(&name);
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, "DynaMast audit black box");
        let _ = writeln!(out, "seed: {:#x}", self.config.seed);
        if !self.config.detail.is_empty() {
            let _ = writeln!(out, "detail: {}", self.config.detail);
        }
        let _ = writeln!(out, "violation: {}", violation.kind);
        let _ = writeln!(
            out,
            "offending: p{} key=({},{}) stamp=(site{},{})",
            violation.partition,
            violation.table,
            violation.record,
            violation.origin,
            violation.sequence
        );
        let _ = writeln!(out, "{}", violation.detail);
        let tail: Vec<TraceEvent> = state.tail.iter().cloned().collect();
        let _ = writeln!(out, "\n--- recent events ({} retained) ---", tail.len());
        for ev in tail.iter().rev().take(256).rev() {
            let _ = writeln!(out, "{ev}");
        }
        let _ = writeln!(out, "\n--- causal timelines ---");
        let _ = writeln!(out, "{}", render_timelines(&tail, 8));
        let mut file = fs::File::create(&path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()?;
        prune_bundles(dir, self.config.bundle_keep)?;
        Ok(())
    }
}

/// Deletes the oldest `audit-*` bundles beyond `keep` (bundle names embed a
/// monotonically increasing counter, so lexicographic order is age order).
pub fn prune_bundles(dir: &Path, keep: usize) -> std::io::Result<()> {
    let mut bundles: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("audit-") && n.ends_with(".txt"))
        })
        .collect();
    bundles.sort();
    while bundles.len() > keep {
        let victim = bundles.remove(0);
        let _ = fs::remove_file(victim);
    }
    Ok(())
}

/// Signed signature of a row's value: numeric cells contribute their value,
/// string/byte cells a small order-sensitive hash. Equal rows have equal
/// signatures; for single-column numeric rows (SmallBank balances) the
/// signature *is* the value, so deltas are real debits/credits.
pub fn value_signature(row: &Row) -> i64 {
    let mut sig: i64 = 0;
    for cell in row.cells() {
        let part = match cell {
            Value::I64(v) => *v,
            Value::U64(v) => *v as i64,
            Value::Str(s) => fnv(s.as_bytes()),
            Value::Bytes(b) => fnv(b),
        };
        sig = sig.wrapping_mul(31).wrapping_add(part);
    }
    sig
}

/// FNV-style mix over four independent u64 lanes: signatures sit on the
/// commit hot path (two per audited install) and rows can be KB-sized, so
/// both a byte-at-a-time hash and a single serially-dependent multiply
/// chain would dominate the emission cost. Four lanes keep the multiplier
/// pipeline busy (~4 in-flight products instead of 1). Only determinism
/// matters — every site computes the same signature for the same bytes —
/// not compatibility with reference FNV.
fn fnv(bytes: &[u8]) -> i64 {
    const PRIME: u64 = 0x1000_0000_01b3;
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [
        SEED,
        SEED ^ 0x9e37_79b9_7f4a_7c15,
        SEED ^ 0xc2b2_ae3d_27d4_eb4f,
        SEED ^ 0x1656_67b1_9e37_79f9,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane ^= u64::from_le_bytes(block[i * 8..i * 8 + 8].try_into().expect("8-byte lane"));
            *lane = lane.wrapping_mul(PRIME);
        }
    }
    let mut hash = lanes[0];
    for lane in &lanes[1..] {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        hash ^= u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        hash = hash.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash as i64
}

/// Accumulates write-effect events for one batched ring push: one clock
/// read and one ring acquisition cover a whole commit's installs (or a
/// chunk of a refresh batch) instead of paying both per event. Fill with
/// [`EffectBatch::write_effect`], then [`EffectBatch::flush`].
#[derive(Default)]
pub struct EffectBatch {
    events: Vec<TraceEvent>,
}

impl EffectBatch {
    pub fn with_capacity(n: usize) -> Self {
        EffectBatch {
            events: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Queues one version-install event (same fields as
    /// [`emit_write_effect`]); the timestamp is assigned at flush.
    #[allow(clippy::too_many_arguments)]
    pub fn write_effect(
        &mut self,
        txn_id: u64,
        site: u32,
        partition: u64,
        table: u32,
        record: u64,
        prev: Option<(i64, u32, u64)>,
        value: i64,
        origin: u32,
        sequence: u64,
        generation: u64,
        epoch: u64,
        refresh: bool,
    ) {
        let (prev_sig, prev_origin, prev_seq) = prev.unwrap_or((0, u32::MAX, 0));
        self.events.push(TraceEvent {
            txn_id,
            site: TraceSite::Site(site),
            kind: TraceKind::WriteEffect,
            micros: 0,
            payload: TracePayload::WriteEffect {
                partition,
                table,
                record,
                prev: prev_sig,
                value,
                prev_origin,
                prev_seq,
                origin,
                sequence,
                generation,
                epoch,
                refresh,
            },
        });
    }

    /// Queues one refresh-skip declaration: the partial-replication filter
    /// stripped this key's write because the site does not host its
    /// partition. Satisfies the completeness checker's install obligation.
    pub fn refresh_skip(
        &mut self,
        site: u32,
        partition: u64,
        table: u32,
        record: u64,
        origin: u32,
        sequence: u64,
    ) {
        // The payload of the refresh install it stands in for.
        self.write_effect(
            0, site, partition, table, record, None, 0, origin, sequence, 0, 0, true,
        );
        if let Some(event) = self.events.last_mut() {
            event.kind = TraceKind::RefreshSkip;
        }
    }

    /// Pushes the queued events and leaves the batch empty, retaining its
    /// allocation for reuse.
    pub fn flush(&mut self, recorder: &FlightRecorder) {
        if !self.events.is_empty() {
            recorder.record_batch(self.events.drain(..));
        }
    }
}

/// Emits one version-install event, if auditing is armed: an
/// [`EffectBatch`] of one.
#[allow(clippy::too_many_arguments)]
pub fn emit_write_effect(
    recorder: &FlightRecorder,
    txn_id: u64,
    site: u32,
    partition: u64,
    table: u32,
    record: u64,
    prev: Option<(i64, u32, u64)>,
    value: i64,
    origin: u32,
    sequence: u64,
    generation: u64,
    epoch: u64,
    refresh: bool,
) {
    let mut batch = EffectBatch::with_capacity(1);
    batch.write_effect(
        txn_id, site, partition, table, record, prev, value, origin, sequence, generation, epoch,
        refresh,
    );
    batch.flush(recorder);
}

/// Emits a site-restart marker, if auditing is armed. Crash recovery
/// rebuilds the site's store by log replay that never passes the audited
/// install hooks, so the sink forgets the site's per-site knowledge and
/// re-baselines its refresh-completeness at the next frontier it sees.
pub fn emit_site_restart(recorder: &FlightRecorder, site: u32) {
    if !recorder.audit_enabled() {
        return;
    }
    recorder.record(
        0,
        TraceSite::Site(site),
        TraceKind::SiteRestart,
        TracePayload::None,
    );
}

/// Emits one ownership-transition event, if auditing is armed.
pub fn emit_ownership(
    recorder: &FlightRecorder,
    site: u32,
    partition: u64,
    sequence: u64,
    epoch: u64,
    acquired: bool,
) {
    recorder.record(
        0,
        TraceSite::Site(site),
        TraceKind::OwnEffect,
        TracePayload::Ownership {
            partition,
            site,
            sequence,
            epoch,
            acquired,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)] // one parameter per WriteEffect field a test varies
    fn write_event(
        site: u32,
        partition: u64,
        record: u64,
        prev: Option<(i64, u32, u64)>,
        value: i64,
        origin: u32,
        sequence: u64,
        refresh: bool,
        micros: u64,
    ) -> TraceEvent {
        let (prev_sig, prev_origin, prev_seq) = prev.unwrap_or((0, u32::MAX, 0));
        TraceEvent {
            txn_id: sequence,
            site: TraceSite::Site(site),
            kind: TraceKind::WriteEffect,
            micros,
            payload: TracePayload::WriteEffect {
                partition,
                table: 0,
                record,
                prev: prev_sig,
                value,
                prev_origin,
                prev_seq,
                origin,
                sequence,
                generation: 1,
                epoch: 0,
                refresh,
            },
        }
    }

    fn own_event(site: u32, partition: u64, sequence: u64, acquired: bool) -> TraceEvent {
        TraceEvent {
            txn_id: 0,
            site: TraceSite::Site(site),
            kind: TraceKind::OwnEffect,
            micros: sequence,
            payload: TracePayload::Ownership {
                partition,
                site,
                sequence,
                epoch: 1,
                acquired,
            },
        }
    }

    fn frontier_event(site: u32, origin: u32, sequence: u64, micros: u64) -> TraceEvent {
        TraceEvent {
            txn_id: 0,
            site: TraceSite::Site(site),
            kind: TraceKind::RefreshApply,
            micros,
            payload: TracePayload::Refresh {
                origin,
                sequence,
                records: 1,
                lag_us: 0,
            },
        }
    }

    fn restart_event(site: u32, micros: u64) -> TraceEvent {
        TraceEvent {
            txn_id: 0,
            site: TraceSite::Site(site),
            kind: TraceKind::SiteRestart,
            micros,
            payload: TracePayload::None,
        }
    }

    fn sink(conservation: bool) -> Arc<AuditSink> {
        AuditSink::offline(
            FlightRecorder::new(64),
            AuditConfig {
                conservation,
                ..AuditConfig::default()
            },
        )
    }

    #[test]
    fn clean_commit_stream_reports_no_violations() {
        let sink = sink(true);
        sink.ingest(
            &[
                write_event(0, 1, 10, Some((100, 0, 0)), 90, 0, 1, false, 1),
                write_event(0, 2, 20, Some((100, 0, 0)), 110, 0, 1, false, 2),
                write_event(0, 1, 10, Some((90, 0, 1)), 80, 0, 2, false, 3),
                write_event(0, 2, 20, Some((110, 0, 1)), 120, 0, 2, false, 4),
            ],
            false,
        );
        let report = sink.finish();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(!report.incomplete);
        assert_eq!(report.events, 4);
    }

    #[test]
    fn duplicate_parent_claim_is_a_lost_update() {
        let sink = sink(false);
        sink.ingest(
            &[
                write_event(0, 1, 10, Some((100, 0, 0)), 90, 0, 1, false, 1),
                write_event(1, 1, 10, Some((100, 0, 0)), 110, 1, 7, false, 2),
            ],
            false,
        );
        let report = sink.finish();
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::LostUpdate);
        assert_eq!((v.partition, v.record), (1, 10));
        assert_eq!((v.origin, v.sequence), (1, 7));
    }

    #[test]
    fn write_after_release_without_grant_is_double_master() {
        let sink = sink(false);
        sink.ingest(
            &[
                own_event(0, 1, 5, false),
                write_event(0, 1, 10, Some((100, 0, 0)), 90, 0, 8, false, 10),
            ],
            false,
        );
        let report = sink.finish();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::DoubleMaster);
        assert_eq!(report.violations[0].sequence, 8);
    }

    #[test]
    fn late_arriving_grant_clears_the_candidate() {
        let sink = sink(false);
        sink.ingest(
            &[
                own_event(0, 1, 5, false),
                write_event(0, 1, 10, Some((100, 0, 0)), 90, 0, 8, false, 10),
            ],
            false,
        );
        // The grant between release(5) and write(8) arrives one poll late,
        // as a cross-thread drain race would deliver it.
        sink.ingest(&[own_event(0, 1, 6, true)], false);
        let report = sink.finish();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn lossy_batch_degrades_to_incomplete_not_violation() {
        let sink = sink(true);
        sink.ingest(
            &[
                own_event(0, 1, 5, false),
                write_event(0, 1, 10, Some((100, 0, 0)), 90, 0, 8, false, 10),
            ],
            true,
        );
        let report = sink.finish();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.incomplete);
    }

    #[test]
    fn unbalanced_commit_group_breaches_conservation() {
        let sink = sink(true);
        sink.ingest(
            &[
                write_event(0, 1, 10, Some((100, 0, 0)), 50, 0, 3, false, 1),
                write_event(0, 2, 20, Some((100, 0, 0)), 120, 0, 3, false, 2),
            ],
            false,
        );
        let report = sink.finish();
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::ConservationBreach);
        assert_eq!((v.origin, v.sequence), (0, 3));
        assert!(v.detail.contains("sum to -30"), "{}", v.detail);
    }

    #[test]
    fn commit_group_split_across_polls_still_balances() {
        let sink = sink(true);
        sink.ingest(
            &[write_event(0, 1, 10, Some((100, 0, 0)), 50, 0, 3, false, 1)],
            false,
        );
        sink.ingest(
            &[write_event(
                0,
                2,
                20,
                Some((100, 0, 0)),
                150,
                0,
                3,
                false,
                2,
            )],
            false,
        );
        let report = sink.finish();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn restart_rebaselines_refresh_completeness() {
        // Origin site0 commits seq 1-2; the replica's crash-recovery
        // replay installs them without emitting, then its live frontier
        // passes them.
        let replayed = [
            write_event(0, 1, 10, Some((100, 0, 0)), 90, 0, 1, false, 1),
            write_event(0, 1, 11, Some((100, 0, 0)), 70, 0, 2, false, 2),
        ];

        // Without the restart marker the replay window reads as missing
        // installs — the exact false positive the marker exists to kill.
        let naive = sink(false);
        naive.ingest(&replayed, false);
        naive.ingest(&[frontier_event(1, 0, 2, 20)], false);
        let report = naive.finish();
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert_eq!(report.violations[0].kind, ViolationKind::MissingInstall);

        // With it, the first post-restart frontier baselines instead.
        let audited = sink(false);
        audited.ingest(&replayed, false);
        audited.ingest(&[restart_event(1, 10), frontier_event(1, 0, 2, 20)], false);
        audited.ingest(&[], false);
        // ...and the checker re-arms past the baseline: an audited commit
        // at seq 3 whose install the replica really skipped is caught.
        audited.ingest(
            &[
                write_event(0, 1, 12, Some((100, 0, 0)), 60, 0, 3, false, 30),
                frontier_event(1, 0, 3, 40),
            ],
            false,
        );
        let report = audited.finish();
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.kind, ViolationKind::MissingInstall);
        assert_eq!((v.origin, v.sequence, v.record), (0, 3, 12));
    }

    #[test]
    fn bundle_rotation_keeps_newest_n() {
        let dir = std::env::temp_dir().join(format!("dyna-audit-rot-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for n in 0..6 {
            fs::write(dir.join(format!("audit-{n:06}-lost-update.txt")), "x").unwrap();
        }
        prune_bundles(&dir, 3).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names.len(), 3);
        assert_eq!(names[0], "audit-000003-lost-update.txt");
        let _ = fs::remove_dir_all(&dir);
    }
}
