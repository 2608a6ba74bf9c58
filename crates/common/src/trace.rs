//! Flight recorder: an always-on, bounded, structured event trace.
//!
//! Every component of the system — the site selector, the data sites, the
//! replication propagator, the network fabric, and the client-side 2PC
//! coordinator of the static baseline architectures — records
//! [`TraceEvent`]s into a shared [`FlightRecorder`]. The recorder is
//! designed so that recording is cheap enough to leave on in benchmarks
//! (see `BENCH_selector.json` for the measured overhead):
//!
//! * Each writer thread owns a private bounded ring; recording is one
//!   uncontended `try_lock` (a single CAS) plus a circular-buffer store.
//!   The lock is contended only while a snapshot is being taken, in which
//!   case the writer *drops the event* instead of blocking — recording
//!   never waits.
//! * Rings are bounded (`TRACE_RING` events per thread, default 1024); old
//!   events are overwritten, so a recorder holds the most recent window of
//!   activity, which is exactly what a post-mortem wants.
//!
//! Events carry a **trace id** (`txn_id`): client-facing transactions are
//! assigned a process-unique id at submission ([`next_trace_id`]) which rides
//! the `ExecUpdate` / `ExecRead` RPCs, so a single transaction's causal path
//! — route → remaster → execute → commit → refresh — can be reassembled
//! across components with [`render_timelines`]. Replication refresh events
//! do not know the transaction id (log records are identified by
//! `(origin, sequence)`), so the renderer joins them against the commit
//! event's version stamp.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ids::SiteId;

/// Hot-path timestamp source. `Instant::now` costs ~30 ns here (a vDSO
/// `clock_gettime`), which is a third of the whole record budget; on x86_64
/// the TSC is read directly (~10 ns) and converted to microseconds with a
/// once-per-process calibration against `Instant`. Trace timestamps are
/// display-grade (ordering and span arithmetic), so the calibration's ~0.1%
/// frequency error and cross-core TSC skew on pre-invariant-TSC hardware
/// are acceptable where they would not be for latency *measurement*.
#[cfg(target_arch = "x86_64")]
mod fastclock {
    use std::sync::OnceLock;
    use std::time::Instant;

    struct Calib {
        base_ticks: u64,
        /// `2^32 ×` microseconds per TSC tick.
        micros_per_tick_q32: u64,
    }

    static CALIB: OnceLock<Calib> = OnceLock::new();

    #[inline]
    fn ticks() -> u64 {
        // SAFETY: `_rdtsc` has no preconditions.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    fn calibrate() -> Calib {
        let t0 = Instant::now();
        let c0 = ticks();
        // ~1 ms spin bounds the frequency error at ~0.1%; paid once per
        // process, on the first recorded event.
        while t0.elapsed().as_micros() < 1_000 {
            std::hint::spin_loop();
        }
        let elapsed = t0.elapsed().as_nanos();
        let dticks = u128::from((ticks().wrapping_sub(c0)).max(1));
        Calib {
            base_ticks: c0,
            micros_per_tick_q32: (((elapsed << 32) / 1_000 / dticks) as u64).max(1),
        }
    }

    /// Microseconds since process-wide calibration (first use).
    #[inline]
    pub fn now_micros() -> u64 {
        let calib = CALIB.get_or_init(calibrate);
        let dticks = ticks().wrapping_sub(calib.base_ticks);
        ((u128::from(dticks) * u128::from(calib.micros_per_tick_q32)) >> 32) as u64
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod fastclock {
    use std::sync::OnceLock;
    use std::time::Instant;

    static START: OnceLock<Instant> = OnceLock::new();

    /// Microseconds since first use.
    #[inline]
    pub fn now_micros() -> u64 {
        let start = START.get_or_init(Instant::now);
        start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

/// Default per-thread ring capacity (events); override with `TRACE_RING`.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique transaction trace id (never zero).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Reads the `TRACE_RING` override for the per-thread ring capacity.
pub fn ring_capacity_from_env() -> usize {
    std::env::var("TRACE_RING")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_RING_CAPACITY)
}

/// Where an event was recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceSite {
    /// Not tied to a specific component (fabric-level bookkeeping).
    None,
    /// The active site selector.
    Selector,
    /// A standby selector replica.
    Standby(u32),
    /// A data site.
    Site(u32),
}

impl From<SiteId> for TraceSite {
    fn from(s: SiteId) -> Self {
        TraceSite::Site(s.raw())
    }
}

impl fmt::Display for TraceSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSite::None => write!(f, "-"),
            TraceSite::Selector => write!(f, "selector"),
            TraceSite::Standby(n) => write!(f, "standby{n}"),
            TraceSite::Site(n) => write!(f, "site{n}"),
        }
    }
}

/// What happened. One variant per instrumented protocol point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Selector routed an update or read transaction.
    Route,
    /// Selector scored candidate destinations for a remaster.
    RemasterDecision,
    /// Selector sent a release RPC.
    ReleaseSend,
    /// Selector observed the release ack.
    ReleaseAck,
    /// Selector sent a grant RPC.
    GrantSend,
    /// Selector observed the grant ack.
    GrantAck,
    /// Data site began a transaction (locks + session-freshness wait).
    TxnBegin,
    /// Data site finished stored-procedure execution.
    TxnExecute,
    /// Data site committed (version install + log append + publish).
    TxnCommit,
    /// Data site applied a replication refresh batch.
    RefreshApply,
    /// 2PC coordinator dispatched prepares.
    TwoPcPrepare,
    /// 2PC participant voted.
    TwoPcVote,
    /// 2PC coordinator decided.
    TwoPcDecide,
    /// Fabric accepted a message for delivery.
    NetSend,
    /// Fabric delivered a message.
    NetDeliver,
    /// Fault plan verdict: message dropped.
    NetDrop,
    /// Fault plan verdict: message duplicated.
    NetDuplicate,
    /// Fault plan verdict: delay spike injected.
    NetDelaySpike,
    /// A version install (commit-side or refresh-side) observed by the
    /// invariant audit plane. Emitted only while auditing is armed
    /// ([`FlightRecorder::set_audit`]).
    WriteEffect,
    /// An ownership transition (release or grant) in a site's own commit
    /// order, stamped with its commit sequence. Emitted only while auditing
    /// is armed.
    OwnEffect,
    /// A data site restarted after a crash: its store was rebuilt by log
    /// replay that never passes the audited install hooks, so the audit
    /// plane forgets the site's per-site knowledge and re-baselines from
    /// its next events. Emitted only while auditing is armed.
    SiteRestart,
    /// The partial-replication subscription filter deliberately stripped a
    /// refresh write for a partition the site does not host. Declares the
    /// skip to the refresh-completeness checker — a record neither
    /// installed nor declared is still a missing install. Emitted only
    /// while auditing is armed. Payload: [`TracePayload::WriteEffect`] with
    /// `refresh = true`.
    RefreshSkip,
}

impl TraceKind {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Route => "route",
            TraceKind::RemasterDecision => "remaster.decide",
            TraceKind::ReleaseSend => "release.send",
            TraceKind::ReleaseAck => "release.ack",
            TraceKind::GrantSend => "grant.send",
            TraceKind::GrantAck => "grant.ack",
            TraceKind::TxnBegin => "txn.begin",
            TraceKind::TxnExecute => "txn.execute",
            TraceKind::TxnCommit => "txn.commit",
            TraceKind::RefreshApply => "refresh.apply",
            TraceKind::TwoPcPrepare => "2pc.prepare",
            TraceKind::TwoPcVote => "2pc.vote",
            TraceKind::TwoPcDecide => "2pc.decide",
            TraceKind::NetSend => "net.send",
            TraceKind::NetDeliver => "net.deliver",
            TraceKind::NetDrop => "net.drop",
            TraceKind::NetDuplicate => "net.duplicate",
            TraceKind::NetDelaySpike => "net.delay_spike",
            TraceKind::WriteEffect => "write.effect",
            TraceKind::OwnEffect => "own.effect",
            TraceKind::SiteRestart => "site.restart",
            TraceKind::RefreshSkip => "refresh.skip",
        }
    }
}

/// One candidate site's scores in a remaster decision, all four features of
/// the paper's Eq. 8 plus the weighted total.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateScore {
    /// The candidate destination site.
    pub site: u32,
    /// Write-load balance factor (Eqs. 2–4), weighted.
    pub balance: f64,
    /// Refresh-delay penalty (Eq. 5), weighted; entered negatively into the
    /// total.
    pub delay: f64,
    /// Intra-transaction co-access localization (Eq. 6), weighted.
    pub intra: f64,
    /// Inter-transaction co-access localization (Eq. 7), weighted.
    pub inter: f64,
    /// Combined benefit `balance - delay + intra + inter`.
    pub total: f64,
    /// Whether the site was reachable when the decision was made
    /// (unreachable candidates are masked out of the argmax).
    pub reachable: bool,
}

/// Structured event payload. Hot-path variants are `Copy`-sized; only the
/// remaster decision (already on the slow path) allocates.
#[derive(Clone, Debug, PartialEq)]
pub enum TracePayload {
    /// Nothing beyond the kind.
    None,
    /// A routing decision.
    Route {
        /// Destination site.
        dest: u32,
        /// Number of write-set partitions (0 for reads).
        partitions: u32,
        /// `true` if the fast path (sole master, shared locks) served it.
        fast_path: bool,
        /// `true` if routing required a remaster.
        remastered: bool,
    },
    /// A remaster decision with the full per-candidate scoring table.
    Decision {
        /// Site chosen as the destination.
        chosen: u32,
        /// Number of write-set partitions being co-located.
        partitions: u32,
        /// Remastering epoch the decision belongs to: the next epoch the
        /// selector will allocate.
        epoch: u64,
        /// Per-candidate scores of all four features.
        candidates: Arc<Vec<CandidateScore>>,
    },
    /// A release/grant protocol step for one partition.
    Remaster {
        /// Partition being moved.
        partition: u64,
        /// Releasing site.
        from: u32,
        /// Receiving site.
        to: u32,
        /// Remastering epoch.
        epoch: u64,
    },
    /// A duration (begin wait, execution time, …) in microseconds.
    Span {
        /// Elapsed microseconds.
        us: u64,
        /// Microseconds of that spent waiting on version-vector freshness
        /// (only meaningful for [`TraceKind::TxnBegin`]).
        vv_wait_us: u64,
    },
    /// A commit's version stamp (joins refresh events to the transaction).
    Commit {
        /// Origin site of the commit.
        origin: u32,
        /// Sequence the commit installed at its origin.
        sequence: u64,
        /// Commit processing time in microseconds.
        us: u64,
    },
    /// A replication refresh batch application.
    Refresh {
        /// Origin site whose log is being applied.
        origin: u32,
        /// Sequence of the last record applied in the batch.
        sequence: u64,
        /// Records in the batch.
        records: u32,
        /// Refresh lag: now minus the enqueue time of the newest record.
        lag_us: u64,
    },
    /// A network fabric event.
    Net {
        /// Sending endpoint (encoded; see `dynamast-network`).
        from: u32,
        /// Receiving endpoint (encoded).
        to: u32,
        /// Traffic category index.
        category: u8,
        /// Payload bytes.
        bytes: u32,
    },
    /// A 2PC step.
    TwoPc {
        /// Participants involved (prepare) or voting site (vote).
        site: u32,
        /// Vote / decision: `true` = yes / commit.
        ok: bool,
        /// Participant count (prepare/decide) or 0.
        participants: u32,
    },
    /// One version install, as seen by the invariant audit plane: the new
    /// value's signature plus the stamp of the version it replaced.
    WriteEffect {
        /// Partition the key belongs to.
        partition: u64,
        /// Table component of the key.
        table: u32,
        /// Record component of the key.
        record: u64,
        /// Signed value signature of the overwritten row (0 when the prev
        /// version was not captured; see `prev_origin`).
        prev: i64,
        /// Signed value signature of the installed row.
        value: i64,
        /// Origin of the overwritten version's stamp, or `u32::MAX` when the
        /// previous version was not captured (refresh installs skip the read).
        prev_origin: u32,
        /// Sequence of the overwritten version's stamp.
        prev_seq: u64,
        /// Origin site of the installing commit.
        origin: u32,
        /// Commit sequence at the origin.
        sequence: u64,
        /// Selector fence generation the installing site held.
        generation: u64,
        /// Highest remaster epoch the installing site had observed.
        epoch: u64,
        /// `true` for a replication refresh install, `false` for a
        /// commit-side install at the origin.
        refresh: bool,
    },
    /// An ownership transition (release/grant) in the site's commit order.
    Ownership {
        /// Partition whose mastership moved.
        partition: u64,
        /// Site recording the transition.
        site: u32,
        /// The site's commit sequence for the release/grant record.
        sequence: u64,
        /// Remaster epoch of the transition.
        epoch: u64,
        /// `true` for a grant (mastership acquired), `false` for a release.
        acquired: bool,
    },
}

impl fmt::Display for TracePayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TracePayload::None => Ok(()),
            TracePayload::Route {
                dest,
                partitions,
                fast_path,
                remastered,
            } => write!(
                f,
                "dest=site{dest} parts={partitions}{}{}",
                if *fast_path { " fast" } else { "" },
                if *remastered { " remastered" } else { "" }
            ),
            TracePayload::Decision {
                chosen,
                partitions,
                epoch,
                candidates,
            } => {
                write!(f, "chosen=site{chosen} parts={partitions} epoch={epoch}")?;
                for c in candidates.iter() {
                    write!(
                        f,
                        " | site{}: bal={:.3} delay={:.3} intra={:.3} inter={:.3} total={:.3}{}",
                        c.site,
                        c.balance,
                        c.delay,
                        c.intra,
                        c.inter,
                        c.total,
                        if c.reachable { "" } else { " UNREACHABLE" }
                    )?;
                }
                Ok(())
            }
            TracePayload::Remaster {
                partition,
                from,
                to,
                epoch,
            } => write!(f, "p{partition} site{from}->site{to} epoch={epoch}"),
            TracePayload::Span { us, vv_wait_us } => {
                if *vv_wait_us > 0 {
                    write!(f, "{us}us (vv_wait={vv_wait_us}us)")
                } else {
                    write!(f, "{us}us")
                }
            }
            TracePayload::Commit {
                origin,
                sequence,
                us,
            } => write!(f, "origin=site{origin} seq={sequence} {us}us"),
            TracePayload::Refresh {
                origin,
                sequence,
                records,
                lag_us,
            } => write!(
                f,
                "origin=site{origin} thru_seq={sequence} records={records} lag={lag_us}us"
            ),
            TracePayload::Net {
                from,
                to,
                category,
                bytes,
            } => write!(f, "{from:#x}->{to:#x} cat={category} {bytes}B"),
            TracePayload::TwoPc {
                site,
                ok,
                participants,
            } => {
                if *participants > 0 {
                    write!(
                        f,
                        "{} participants={participants}",
                        if *ok { "commit" } else { "abort" }
                    )
                } else {
                    write!(f, "site{site} {}", if *ok { "yes" } else { "no" })
                }
            }
            TracePayload::WriteEffect {
                partition,
                table,
                record,
                prev,
                value,
                prev_origin,
                prev_seq,
                origin,
                sequence,
                generation,
                epoch,
                refresh,
            } => {
                write!(
                    f,
                    "p{partition} key=({table},{record}) {}={value} stamp=(site{origin},{sequence}) gen={generation} epoch={epoch}",
                    if *refresh { "refresh" } else { "commit" },
                )?;
                if *prev_origin != u32::MAX {
                    write!(f, " prev={prev}@(site{prev_origin},{prev_seq})")?;
                }
                Ok(())
            }
            TracePayload::Ownership {
                partition,
                site,
                sequence,
                epoch,
                acquired,
            } => write!(
                f,
                "p{partition} site{site} {} seq={sequence} epoch={epoch}",
                if *acquired { "grant" } else { "release" }
            ),
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Transaction trace id, or 0 for events not tied to a transaction.
    pub txn_id: u64,
    /// Component that recorded the event.
    pub site: TraceSite,
    /// What happened.
    pub kind: TraceKind,
    /// Microseconds since the recorder was created.
    pub micros: u64,
    /// Structured detail.
    pub payload: TracePayload,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "+{:>9}us  {:<9} {:<16}",
            self.micros,
            self.site.to_string(),
            self.kind.label()
        )?;
        match self.payload {
            TracePayload::None => Ok(()),
            _ => write!(f, " {}", self.payload),
        }
    }
}

struct RingInner {
    buf: Vec<TraceEvent>,
    /// Total events ever written; `head % capacity` is the next slot once
    /// the ring has wrapped.
    head: u64,
    /// Events overwritten by ring wrap since the last drain. The audit
    /// plane treats any loss as "audit incomplete", never as a violation.
    overwritten: u64,
    /// High-water timestamp: the fast clock is raw TSC on x86_64 and can
    /// regress across a core migration, so each ring clamps its events
    /// monotone. With per-ring order intact, the stable merge-by-micros in
    /// [`FlightRecorder::drain_accounted`] preserves program order within
    /// every thread.
    last_micros: u64,
}

/// A per-thread ring guarded by a raw spin flag instead of a full mutex:
/// the writer is a single thread holding the lock for one slot write, and
/// the only contention is a (rare) snapshot, so an uncontended
/// acquire-CAS + release-store beats a general mutex's parking machinery
/// on the record hot path.
struct ThreadRing {
    locked: AtomicBool,
    inner: std::cell::UnsafeCell<RingInner>,
}

// SAFETY: `inner` is only accessed while `locked` is held (acquired with
// an Acquire CAS, released with a Release store), which serialises all
// access and publishes writes to the next acquirer.
unsafe impl Sync for ThreadRing {}
unsafe impl Send for ThreadRing {}

impl ThreadRing {
    fn new() -> Self {
        ThreadRing {
            locked: AtomicBool::new(false),
            inner: std::cell::UnsafeCell::new(RingInner {
                buf: Vec::new(),
                head: 0,
                overwritten: 0,
                last_micros: 0,
            }),
        }
    }

    #[inline]
    fn try_acquire(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Blocking acquire for readers: the writer holds the flag for one
    /// slot write (nanoseconds), so spinning is bounded in practice.
    fn acquire(&self) {
        while !self.try_acquire() {
            std::hint::spin_loop();
        }
    }

    #[inline]
    fn release(&self) {
        self.locked.store(false, Ordering::Release);
    }

    /// Pushes a group of events sharing one (clamped) timestamp under a
    /// single flag acquisition, overwriting the oldest once at capacity.
    /// Never blocks: if a snapshot holds the ring, every event is dropped;
    /// returns how many were.
    fn push_batch(
        &self,
        capacity: usize,
        micros: u64,
        events: impl IntoIterator<Item = TraceEvent>,
    ) -> u64 {
        if !self.try_acquire() {
            return events.into_iter().count() as u64;
        }
        // SAFETY: flag held (see `Sync` impl).
        let inner = unsafe { &mut *self.inner.get() };
        let micros = if micros < inner.last_micros {
            inner.last_micros
        } else {
            inner.last_micros = micros;
            micros
        };
        for mut ev in events {
            ev.micros = micros;
            if inner.buf.len() < capacity {
                inner.buf.push(ev);
            } else {
                let slot = (inner.head % capacity as u64) as usize;
                inner.buf[slot] = ev;
                inner.overwritten += 1;
            }
            inner.head += 1;
        }
        self.release();
        0
    }

    /// Appends the ring's events in chronological order: once wrapped, the
    /// oldest retained event sits at `head % len`, not slot 0.
    fn snapshot(&self, out: &mut Vec<TraceEvent>) {
        self.acquire();
        // SAFETY: flag held (see `Sync` impl).
        let inner = unsafe { &*self.inner.get() };
        if !inner.buf.is_empty() {
            let start = (inner.head % inner.buf.len() as u64) as usize;
            out.extend(inner.buf[start..].iter().cloned());
            out.extend(inner.buf[..start].iter().cloned());
        }
        self.release();
    }

    /// Snapshots and clears the ring under one flag acquisition, returning
    /// how many events were lost to ring wrap since the last drain. The
    /// two steps must be atomic: a separate snapshot-then-clear would
    /// destroy (unaccounted) any event pushed in between, and the audit
    /// plane would read the silent gap as a violation instead of loss.
    fn take(&self, out: &mut Vec<TraceEvent>) -> u64 {
        self.acquire();
        // SAFETY: flag held (see `Sync` impl).
        let inner = unsafe { &mut *self.inner.get() };
        if !inner.buf.is_empty() {
            let start = (inner.head % inner.buf.len() as u64) as usize;
            out.extend(inner.buf[start..].iter().cloned());
            out.extend(inner.buf[..start].iter().cloned());
            inner.buf.clear();
            inner.head = 0;
        }
        let overwritten = inner.overwritten;
        inner.overwritten = 0;
        self.release();
        overwritten
    }
}

thread_local! {
    /// Per-thread ring handles, keyed by recorder id. Small linear map: a
    /// thread typically touches one or two recorders.
    static THREAD_RINGS: std::cell::RefCell<Vec<(u64, Arc<ThreadRing>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The flight recorder: a set of per-thread bounded event rings plus a
/// merge-on-read snapshot API.
///
/// ```
/// use dynamast_common::trace::{FlightRecorder, TraceKind, TracePayload, TraceSite};
///
/// let rec = FlightRecorder::new(64);
/// rec.record(7, TraceSite::Selector, TraceKind::Route, TracePayload::None);
/// let events = rec.snapshot();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].txn_id, 7);
/// ```
pub struct FlightRecorder {
    id: u64,
    start_micros: u64,
    enabled: AtomicBool,
    /// Whether audit-plane events ([`TraceKind::WriteEffect`],
    /// [`TraceKind::OwnEffect`]) should be emitted. Off by default so the
    /// audit plane is zero-cost unless armed.
    audit: AtomicBool,
    /// Whether audited installs should also carry value *signatures*.
    /// Signatures feed the conservation checker (and enrich bundles); the
    /// ownership/exactly-once checkers run on stamps alone. Hashing every
    /// row is the dominant emission cost on wide rows, so the sink arms
    /// this only when a conservation checker will actually consume it.
    audit_values: AtomicBool,
    capacity_per_thread: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    dropped: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder with the given per-thread ring capacity.
    pub fn new(capacity_per_thread: usize) -> Arc<Self> {
        Arc::new(FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            start_micros: fastclock::now_micros(),
            enabled: AtomicBool::new(true),
            audit: AtomicBool::new(false),
            audit_values: AtomicBool::new(false),
            capacity_per_thread: capacity_per_thread.max(1),
            rings: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    /// Creates a recorder sized from the `TRACE_RING` environment variable
    /// (default [`DEFAULT_RING_CAPACITY`] events per thread).
    pub fn from_env() -> Arc<Self> {
        Self::new(ring_capacity_from_env())
    }

    /// Enables or disables recording (cheap atomic; events while disabled
    /// are discarded before timestamping).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Arms or disarms audit-plane event emission (write/ownership effects).
    pub fn set_audit(&self, on: bool) {
        self.audit.store(on, Ordering::Relaxed);
    }

    /// Whether audit-plane events should be emitted. Emit sites check this
    /// before doing any per-write work (value signatures, prev reads).
    #[inline]
    pub fn audit_enabled(&self) -> bool {
        self.audit.load(Ordering::Relaxed) && self.enabled()
    }

    /// Arms or disarms value-signature computation on audited installs
    /// (see the `audit_values` field).
    pub fn set_audit_values(&self, on: bool) {
        self.audit_values.store(on, Ordering::Relaxed);
    }

    /// Whether audited installs should carry value signatures.
    #[inline]
    pub fn audit_values(&self) -> bool {
        self.audit_values.load(Ordering::Relaxed)
    }

    /// Microseconds since the recorder was created.
    #[inline]
    pub fn now_micros(&self) -> u64 {
        fastclock::now_micros().saturating_sub(self.start_micros)
    }

    /// Events dropped because a snapshot held the writer's ring.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one event on the calling thread's ring.
    pub fn record(&self, txn_id: u64, site: TraceSite, kind: TraceKind, payload: TracePayload) {
        self.record_batch([TraceEvent {
            txn_id,
            site,
            kind,
            micros: 0,
            payload,
        }]);
    }

    /// Records a group of events on the calling thread's ring with one
    /// clock read and one ring acquisition for the whole group (the
    /// per-event costs — ~50 ns of virtualized `rdtsc` plus the
    /// TLS/lock round trip — dominate audit emission, which produces one
    /// event per write of a commit). The group shares one timestamp;
    /// within-ring order is positional, so relative order is preserved.
    pub fn record_batch(&self, events: impl IntoIterator<Item = TraceEvent>) {
        if !self.enabled() {
            return;
        }
        let micros = self.now_micros();
        let dropped = THREAD_RINGS.with(|cell| {
            let mut rings = cell.borrow_mut();
            if let Some((_, ring)) = rings.iter().find(|(id, _)| *id == self.id) {
                ring.push_batch(self.capacity_per_thread, micros, events)
            } else {
                let ring = Arc::new(ThreadRing::new());
                self.rings.lock().push(Arc::clone(&ring));
                let dropped = ring.push_batch(self.capacity_per_thread, micros, events);
                rings.push((self.id, ring));
                dropped
            }
        });
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Takes a merged snapshot of all per-thread rings, ordered by
    /// timestamp. Writers racing a snapshot drop their event rather than
    /// blocking (counted in [`FlightRecorder::dropped`]).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let rings: Vec<Arc<ThreadRing>> = self.rings.lock().clone();
        let mut out = Vec::new();
        for ring in rings {
            ring.snapshot(&mut out);
        }
        out.sort_by_key(|e| e.micros);
        out
    }

    /// Snapshots and clears all rings.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.drain_accounted().0
    }

    /// Snapshots and clears all rings, also returning how many events were
    /// lost to ring wrap since the previous drain. The audit plane uses the
    /// loss count to degrade to "audit incomplete" instead of reporting
    /// false violations over a gappy history.
    pub fn drain_accounted(&self) -> (Vec<TraceEvent>, u64) {
        let rings: Vec<Arc<ThreadRing>> = self.rings.lock().clone();
        let mut out = Vec::new();
        let mut wrapped = 0u64;
        for ring in &rings {
            wrapped += ring.take(&mut out);
        }
        out.sort_by_key(|e| e.micros);
        (out, wrapped)
    }

    /// Renders the causal per-transaction timelines of the most recent
    /// `last_n` events — the chaos watchdog's post-mortem view.
    pub fn dump_recent_timelines(&self, last_n: usize, max_txns: usize) -> String {
        let mut events = self.snapshot();
        if events.len() > last_n {
            events.drain(..events.len() - last_n);
        }
        render_timelines(&events, max_txns)
    }
}

/// Groups events by transaction and renders each as a causal timeline.
///
/// Replication refresh events carry no transaction id; they are joined to a
/// transaction via the `(origin, sequence)` stamp of its commit event.
/// Untraced events (fabric noise, other txns' refreshes) are summarised in a
/// trailing count line instead of printed.
pub fn render_timelines(events: &[TraceEvent], max_txns: usize) -> String {
    use std::fmt::Write as _;

    let mut by_txn: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    // (origin, commit sequence) -> txn id, for the refresh join.
    let mut commit_stamp: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut untraced = 0usize;
    for ev in events {
        if ev.txn_id != 0 {
            if let TracePayload::Commit {
                origin, sequence, ..
            } = ev.payload
            {
                commit_stamp.insert((origin, sequence), ev.txn_id);
            }
            by_txn.entry(ev.txn_id).or_default().push(ev);
        }
    }
    for ev in events {
        if ev.txn_id == 0 {
            if let TracePayload::Refresh {
                origin, sequence, ..
            } = ev.payload
            {
                // A refresh batch applies records (.. ..=sequence]; attribute
                // it to any transaction whose commit stamp it covers.
                let joined: Vec<u64> = commit_stamp
                    .range((origin, 0)..=(origin, sequence))
                    .map(|(_, txn)| *txn)
                    .collect();
                if !joined.is_empty() {
                    for txn in joined {
                        by_txn.entry(txn).or_default().push(ev);
                    }
                    continue;
                }
            }
            untraced += 1;
        }
    }

    let mut order: Vec<(u64, u64)> = by_txn
        .iter()
        .map(|(txn, evs)| (evs.iter().map(|e| e.micros).min().unwrap_or(0), *txn))
        .collect();
    order.sort_unstable();

    let mut out = String::new();
    let shown = order.len().min(max_txns);
    let _ = writeln!(
        out,
        "flight recorder: {} events, {} transactions (showing last {shown}), {untraced} untraced",
        events.len(),
        order.len(),
    );
    for &(_, txn) in order
        .iter()
        .rev()
        .take(max_txns)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        let mut evs = by_txn.remove(txn).unwrap_or_default();
        evs.sort_by_key(|e| e.micros);
        let _ = writeln!(out, "txn {txn}:");
        for ev in evs {
            let _ = writeln!(out, "  {ev}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(rec: &FlightRecorder, txn: u64, kind: TraceKind) {
        rec.record(txn, TraceSite::Selector, kind, TracePayload::None);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn record_snapshot_roundtrip() {
        let rec = FlightRecorder::new(16);
        ev(&rec, 1, TraceKind::Route);
        ev(&rec, 1, TraceKind::TxnCommit);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].micros <= snap[1].micros);
    }

    #[test]
    fn ring_overwrites_oldest_at_capacity() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            ev(&rec, i, TraceKind::Route);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<u64> = snap.iter().map(|e| e.txn_id).collect();
        assert!(ids.contains(&9), "newest retained: {ids:?}");
        assert!(!ids.contains(&0), "oldest overwritten: {ids:?}");
    }

    #[test]
    fn disabled_recorder_discards() {
        let rec = FlightRecorder::new(16);
        rec.set_enabled(false);
        ev(&rec, 1, TraceKind::Route);
        assert!(rec.snapshot().is_empty());
        rec.set_enabled(true);
        ev(&rec, 2, TraceKind::Route);
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn drain_clears_rings() {
        let rec = FlightRecorder::new(16);
        ev(&rec, 1, TraceKind::Route);
        assert_eq!(rec.drain().len(), 1);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn multithreaded_writers_merge_in_time_order() {
        let rec = FlightRecorder::new(256);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    rec.record(
                        t * 100 + i,
                        TraceSite::Site(t as u32),
                        TraceKind::TxnBegin,
                        TracePayload::None,
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len() as u64 + rec.dropped(), 200);
        assert!(snap.windows(2).all(|w| w[0].micros <= w[1].micros));
    }

    #[test]
    fn timeline_joins_refresh_by_commit_stamp() {
        let rec = FlightRecorder::new(64);
        rec.record(
            42,
            TraceSite::Selector,
            TraceKind::Route,
            TracePayload::Route {
                dest: 1,
                partitions: 2,
                fast_path: false,
                remastered: true,
            },
        );
        rec.record(
            42,
            TraceSite::Site(1),
            TraceKind::TxnCommit,
            TracePayload::Commit {
                origin: 1,
                sequence: 7,
                us: 12,
            },
        );
        // Refresh at another site covering the commit's stamp: txn_id = 0.
        rec.record(
            0,
            TraceSite::Site(2),
            TraceKind::RefreshApply,
            TracePayload::Refresh {
                origin: 1,
                sequence: 9,
                records: 3,
                lag_us: 88,
            },
        );
        let dump = rec.dump_recent_timelines(100, 10);
        assert!(dump.contains("txn 42:"), "{dump}");
        assert!(dump.contains("refresh.apply"), "{dump}");
        assert!(dump.contains("remastered"), "{dump}");
    }

    #[test]
    fn decision_payload_prints_all_four_features() {
        let p = TracePayload::Decision {
            chosen: 1,
            partitions: 3,
            epoch: 12,
            candidates: Arc::new(vec![CandidateScore {
                site: 1,
                balance: 0.5,
                delay: 0.1,
                intra: 2.0,
                inter: 0.0,
                total: 2.4,
                reachable: true,
            }]),
        };
        let s = p.to_string();
        for needle in ["bal=", "delay=", "intra=", "inter=", "total=", "epoch=12"] {
            assert!(s.contains(needle), "{s}");
        }
    }
}
