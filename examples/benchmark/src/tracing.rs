//! The traced client: the same public calls `DynaMastSystem::update`/`read`
//! make, composed here so a span can be recorded around each one.
//!
//! A span is `(name, trace id, parent, start, end)` on the run clock.
//! Spans stay in memory (one `Vec` per client thread) and are written out
//! when the benchmark ends. Site-side phases arrive as durations in
//! `ExecTimings`, not as timestamps, so their spans are *placed* inside the
//! RPC span assuming the unaccounted time splits evenly between the request
//! and reply legs; their lengths are measured, their offsets are not.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dynamast::common::trace::next_trace_id;
use dynamast::common::{DynaError, Result, TraceEvent, TraceKind, TracePayload, TraceSite};
use dynamast::core::dynamast::DynaMastSystem;
use dynamast::network::TrafficCategory;
use dynamast::site::proc::{ProcCall, ReadMode};
use dynamast::site::system::{exec_read_at, exec_update_at, ClientSession};

use crate::scenario::NUM_SITES;

/// Span names, indexed by [`Span::name`]. The prefix is the layer (crate)
/// the time is attributed to.
pub const SPAN_NAMES: [&str; 11] = [
    "client.txn",
    "client.backoff",
    "core.route_update",
    "core.route_lookup",
    "core.route_read",
    "network.exec_rpc",
    "site.begin",
    "site.execute",
    "site.commit",
    "replication.refresh_lag",
    "network.selector_hop",
];
pub const TXN: u8 = 0;
pub const BACKOFF: u8 = 1;
pub const ROUTE_UPDATE: u8 = 2;
pub const ROUTE_LOOKUP: u8 = 3;
pub const ROUTE_READ: u8 = 4;
pub const EXEC_RPC: u8 = 5;
pub const SITE_BEGIN: u8 = 6;
pub const SITE_EXECUTE: u8 = 7;
pub const SITE_COMMIT: u8 = 8;
pub const REFRESH_LAG: u8 = 9;
pub const SELECTOR_HOP: u8 = 10;

/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: u8,
    /// Whether the transaction is an update.
    pub update: bool,
    /// Index of the causing span in the same client's log.
    pub parent: u32,
    /// Flight-recorder trace id shared by every span of one transaction.
    pub trace_id: u64,
    /// Start, nanoseconds on the run clock.
    pub start_ns: u64,
    /// End, nanoseconds on the run clock.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One client thread's spans.
#[derive(Default)]
pub struct SpanLog {
    /// Spans in creation order; parents precede children.
    pub spans: Vec<Span>,
    /// Updates committed since the last refresh-lag sample.
    since_lag_sample: u32,
}

/// One in `LAG_SAMPLE_EVERY` committed updates measures refresh lag.
const LAG_SAMPLE_EVERY: u32 = 64;

impl SpanLog {
    /// Self time of every span: its length minus the part of it that its
    /// direct child spans cover (children of one span never overlap).
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for child in self.spans.iter().filter(|s| s.parent != NO_PARENT) {
            let parent = &self.spans[child.parent as usize];
            let covered = child
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(child.start_ns.max(parent.start_ns));
            let slot = &mut own[child.parent as usize];
            *slot = slot.saturating_sub(covered);
        }
        own
    }

    fn open(&mut self, name: u8, update: bool, parent: u32, trace_id: u64, start_ns: u64) -> u32 {
        self.spans.push(Span {
            name,
            update,
            parent,
            trace_id,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, index: u32, end_ns: u64) {
        self.spans[index as usize].end_ns = end_ns;
    }

    fn closed(&mut self, name: u8, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let p = self.spans[parent as usize];
        let index = self.open(name, p.update, parent, p.trace_id, start_ns);
        self.close(index, end_ns.max(start_ns));
        index
    }

    /// Places the site-side phases inside the RPC span `rpc`.
    fn place_site_phases(&mut self, rpc: u32, phases: &[(u8, u32)]) {
        let span = self.spans[rpc as usize];
        let inside: u64 = phases.iter().map(|&(_, us)| u64::from(us) * 1_000).sum();
        let mut at = span.start_ns + span.nanos().saturating_sub(inside) / 2;
        for &(name, us) in phases {
            let end = (at + u64::from(us) * 1_000).min(span.end_ns);
            self.closed(name, rpc, at.min(end), end);
            at = end;
        }
    }
}

fn ns(clock: Instant) -> u64 {
    clock.elapsed().as_nanos() as u64
}

/// The client↔selector hop: an in-process call in this reproduction, whose
/// simulated transit time `charge_one_way` sleeps on the calling thread.
fn selector_hop(
    system: &DynaMastSystem,
    bytes: usize,
    clock: Instant,
    log: &mut SpanLog,
    root: u32,
) {
    let t = ns(clock);
    system
        .network()
        .charge_one_way(TrafficCategory::ClientSelector, bytes);
    log.closed(SELECTOR_HOP, root, t, ns(clock));
}

/// `DynaMastSystem::update`, span by span. Returns the number of routing
/// attempts used (1 = no resubmission).
pub fn traced_update(
    system: &Arc<DynaMastSystem>,
    session: &mut ClientSession,
    proc: &ProcCall,
    clock: Instant,
    log: &mut SpanLog,
) -> Result<u32> {
    let txn_id = next_trace_id();
    let network = system.network();
    let root = log.open(TXN, true, NO_PARENT, txn_id, ns(clock));
    let mut last_err = DynaError::Internal("unreachable: no routing attempts");
    // Same bounded resubmission rule as `DynaMastSystem::update`: up to 16
    // attempts, backing off `attempt * 50 us` between them. Its
    // `selector_down` test is private to the system and left out: the
    // benchmark never crashes the selector.
    for attempt in 0..16u32 {
        if attempt > 0 {
            let t = ns(clock);
            thread::sleep(Duration::from_micros(u64::from(attempt) * 50));
            log.closed(BACKOFF, root, t, ns(clock));
        }
        let selector = system.selector();
        selector_hop(system, 32 + proc.write_set.len() * 12, clock, log, root);
        let t_route = ns(clock);
        let routed =
            selector.route_update_traced(txn_id, session.id, &session.cvv, &proc.write_set);
        let t_routed = ns(clock);
        let route = log.closed(ROUTE_UPDATE, root, t_route, t_routed);
        let decision = match routed {
            Ok(d) => d,
            Err(
                err @ (DynaError::Timeout { .. }
                | DynaError::Network(_)
                | DynaError::StaleSelector { .. }),
            ) => {
                last_err = err;
                continue;
            }
            Err(DynaError::NotReplica { site, partition }) => {
                let _ = selector.repair_replica(site, partition);
                last_err = DynaError::NotReplica { site, partition };
                continue;
            }
            Err(other) => {
                log.close(root, ns(clock));
                return Err(other);
            }
        };
        log.closed(
            ROUTE_LOOKUP,
            route,
            t_route,
            t_route + decision.lookup.as_nanos() as u64,
        );
        selector_hop(system, 16 + NUM_SITES * 8, clock, log, root);
        let t_rpc = ns(clock);
        let executed = exec_update_at(
            network,
            decision.site,
            txn_id,
            session,
            &decision.min_vv,
            proc,
            true,
        );
        let rpc = log.closed(EXEC_RPC, root, t_rpc, ns(clock));
        match executed {
            Ok((_, timings)) => {
                log.place_site_phases(
                    rpc,
                    &[
                        (SITE_BEGIN, timings.begin_us),
                        (SITE_EXECUTE, timings.exec_us),
                        (SITE_COMMIT, timings.commit_us),
                    ],
                );
                let t_done = ns(clock);
                log.close(root, t_done);
                log.since_lag_sample += 1;
                if log.since_lag_sample >= LAG_SAMPLE_EVERY {
                    log.since_lag_sample = 0;
                    sample_refresh_lag(system, session, decision.site.as_usize(), clock, log, root);
                }
                return Ok(attempt + 1);
            }
            Err(
                err @ (DynaError::NotMaster { .. }
                | DynaError::Timeout { .. }
                | DynaError::Network(_)),
            ) => last_err = err,
            Err(DynaError::NotReplica { site, partition }) => {
                let _ = selector.repair_replica(site, partition);
                last_err = DynaError::NotReplica { site, partition };
            }
            Err(other) => {
                log.close(root, ns(clock));
                return Err(other);
            }
        }
    }
    log.close(root, ns(clock));
    Err(last_err)
}

/// `DynaMastSystem::read`, span by span (full replication: the read-set
/// partition list the selector takes is empty, as in the system itself).
pub fn traced_read(
    system: &Arc<DynaMastSystem>,
    session: &mut ClientSession,
    proc: &ProcCall,
    clock: Instant,
    log: &mut SpanLog,
) -> Result<u32> {
    let txn_id = next_trace_id();
    let network = system.network();
    let root = log.open(TXN, false, NO_PARENT, txn_id, ns(clock));
    let mut last_err = DynaError::Internal("unreachable: no read attempts");
    for attempt in 0..4u32 {
        if attempt > 0 {
            let t = ns(clock);
            thread::sleep(Duration::from_micros(u64::from(attempt) * 50));
            log.closed(BACKOFF, root, t, ns(clock));
        }
        let selector = system.selector();
        selector_hop(system, 32, clock, log, root);
        let t_route = ns(clock);
        let site = selector.route_read_partitions_traced(txn_id, &session.cvv, &[]);
        log.closed(ROUTE_READ, root, t_route, ns(clock));
        selector_hop(system, 16, clock, log, root);
        let t_rpc = ns(clock);
        let executed = exec_read_at(network, site, txn_id, session, proc, ReadMode::Snapshot);
        let rpc = log.closed(EXEC_RPC, root, t_rpc, ns(clock));
        match executed {
            Ok((_, timings)) => {
                log.place_site_phases(
                    rpc,
                    &[
                        (SITE_BEGIN, timings.begin_us),
                        (SITE_EXECUTE, timings.exec_us),
                    ],
                );
                log.close(root, ns(clock));
                return Ok(attempt + 1);
            }
            Err(err @ (DynaError::Timeout { .. } | DynaError::Network(_))) => last_err = err,
            Err(DynaError::NotReplica { site, partition }) => {
                let _ = selector.repair_replica(site, partition);
                last_err = DynaError::NotReplica { site, partition };
            }
            Err(other) => {
                log.close(root, ns(clock));
                return Err(other);
            }
        }
    }
    log.close(root, ns(clock));
    Err(last_err)
}

/// Measures how long after the commit acknowledgement every *other* site's
/// svv covers the session vector (the commit just observed). Runs on the
/// client thread after the transaction's span closed, so it costs the
/// closed loop one lag per `LAG_SAMPLE_EVERY` updates and nothing else.
fn sample_refresh_lag(
    system: &DynaMastSystem,
    session: &ClientSession,
    origin: usize,
    clock: Instant,
    log: &mut SpanLog,
    root: u32,
) {
    let acked = log.spans[root as usize].end_ns;
    let deadline = Instant::now() + Duration::from_secs(1);
    let sites = system.sites();
    for (i, site) in sites.iter().enumerate() {
        if i == origin {
            continue;
        }
        while !site.clock().current().dominates(&session.cvv) {
            if Instant::now() > deadline {
                return;
            }
            thread::yield_now();
        }
    }
    log.closed(REFRESH_LAG, root, acked, ns(clock));
}

/// Flight-recorder events kept for the joins the per-layer report needs.
pub struct RecorderLog {
    /// Release/grant send and ack events, and client→site deliveries with
    /// the `TxnBegin` events that follow them.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap between drains.
    pub wrapped: u64,
}

/// Polls `recorder().drain()` while the traced window runs.
pub struct RecorderDrain {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<RecorderLog>,
}

fn wanted(event: &TraceEvent) -> bool {
    match event.kind {
        TraceKind::ReleaseSend
        | TraceKind::ReleaseAck
        | TraceKind::GrantSend
        | TraceKind::GrantAck
        | TraceKind::TxnBegin => true,
        TraceKind::NetDeliver => matches!(
            event.payload,
            TracePayload::Net { category, .. } if category == TrafficCategory::ClientSite.index() as u8
        ),
        _ => false,
    }
}

impl RecorderDrain {
    /// Discards everything recorded so far and starts polling.
    pub fn start(system: &Arc<DynaMastSystem>) -> RecorderDrain {
        let stop = Arc::new(AtomicBool::new(false));
        let recorder = Arc::clone(system.recorder());
        let _ = recorder.drain();
        let flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("recorder-drain".into())
            .spawn(move || {
                let mut log = RecorderLog {
                    events: Vec::new(),
                    wrapped: 0,
                };
                loop {
                    let done = flag.load(Ordering::Relaxed);
                    let (events, wrapped) = recorder.drain_accounted();
                    log.wrapped += wrapped;
                    log.events.extend(events.into_iter().filter(wanted));
                    if done {
                        return log;
                    }
                    thread::sleep(Duration::from_millis(20));
                }
            })
            .expect("spawn recorder drain thread");
        RecorderDrain { stop, handle }
    }

    /// Stops polling after one last drain.
    pub fn finish(self) -> RecorderLog {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("recorder drain thread panicked")
    }
}

/// Recorder-side joins.
#[derive(Default)]
pub struct RecorderJoins {
    /// `ReleaseSend → ReleaseAck` per (trace id, partition), microseconds.
    pub release_rtt_us: Vec<u64>,
    /// `GrantSend → GrantAck` per (trace id, partition), microseconds.
    pub grant_rtt_us: Vec<u64>,
    /// Client→site `NetDeliver` → start of the transaction's begin phase at
    /// that site (request decode and dispatch), microseconds.
    pub deliver_to_begin_us: Vec<u64>,
}

/// Joins the drained events. Remaster steps carry their trace id and
/// partition. Fabric deliveries carry no trace id, so a `TxnBegin` is
/// matched to the latest unmatched client→site delivery at the same site
/// that precedes its begin phase; with two clients at most two candidates
/// are ever open.
pub fn join_recorder(mut events: Vec<TraceEvent>) -> RecorderJoins {
    use std::collections::HashMap;
    events.sort_by_key(|e| e.micros);
    let mut joins = RecorderJoins::default();
    let mut open: HashMap<(u8, u64, u64), u64> = HashMap::new();
    let mut delivered: Vec<Vec<u64>> = vec![Vec::new(); NUM_SITES];
    for event in &events {
        match (&event.kind, &event.payload) {
            (TraceKind::ReleaseSend, TracePayload::Remaster { partition, .. }) => {
                open.insert((0, event.txn_id, *partition), event.micros);
            }
            (TraceKind::GrantSend, TracePayload::Remaster { partition, .. }) => {
                open.insert((1, event.txn_id, *partition), event.micros);
            }
            (TraceKind::ReleaseAck, TracePayload::Remaster { partition, .. }) => {
                if let Some(sent) = open.remove(&(0, event.txn_id, *partition)) {
                    joins.release_rtt_us.push(event.micros - sent);
                }
            }
            (TraceKind::GrantAck, TracePayload::Remaster { partition, .. }) => {
                if let Some(sent) = open.remove(&(1, event.txn_id, *partition)) {
                    joins.grant_rtt_us.push(event.micros - sent);
                }
            }
            (TraceKind::NetDeliver, TracePayload::Net { to, .. }) => {
                // Site endpoints encode as the site index.
                if let Some(queue) = delivered.get_mut(*to as usize) {
                    queue.push(event.micros);
                }
            }
            (TraceKind::TxnBegin, TracePayload::Span { us, .. }) => {
                let TraceSite::Site(site) = event.site else {
                    continue;
                };
                let begin_started = event.micros.saturating_sub(*us);
                let Some(queue) = delivered.get_mut(site as usize) else {
                    continue;
                };
                // Latest delivery not after the begin phase started; the
                // microsecond clock can tie, hence `<=`.
                if let Some(pos) = queue.iter().rposition(|&d| d <= begin_started) {
                    let d = queue.remove(pos);
                    // Older unmatched deliveries belong to requests that
                    // never began (rejected before begin); forget them.
                    queue.drain(..pos);
                    joins.deliver_to_begin_us.push(begin_started - d);
                }
            }
            _ => {}
        }
    }
    joins
}

/// Writes every span as one compact JSON document:
/// `{"names": [...], "columns": [...], "clients": [[[name, update, parent,
/// trace_id, start_ns, end_ns], ...], ...], ...}`; `extra` is spliced in as
/// further top-level members (provenance, the metrics registry snapshot).
pub fn write_span_file(path: &Path, clients: &[&SpanLog], extra: &str) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"names\":[")?;
    for (i, name) in SPAN_NAMES.iter().enumerate() {
        write!(out, "{}\"{name}\"", if i > 0 { "," } else { "" })?;
    }
    write!(
        out,
        "],\"columns\":[\"name\",\"update\",\"parent\",\"trace_id\",\"start_ns\",\"end_ns\"],{extra},\"clients\":["
    )?;
    for (c, log) in clients.iter().enumerate() {
        write!(out, "{}[", if c > 0 { "," } else { "" })?;
        for (i, s) in log.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                out,
                "{}[{},{},{parent},{},{},{}]",
                if i > 0 { "," } else { "" },
                s.name,
                u8::from(s.update),
                s.trace_id,
                s.start_ns,
                s.end_ns
            )?;
        }
        write!(out, "]")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: TraceKind,
        micros: u64,
        txn_id: u64,
        site: TraceSite,
        payload: TracePayload,
    ) -> TraceEvent {
        TraceEvent {
            txn_id,
            site,
            kind,
            micros,
            payload,
        }
    }

    #[test]
    fn site_phases_are_centred_and_keep_their_lengths() {
        let mut log = SpanLog::default();
        let root = log.open(TXN, true, NO_PARENT, 9, 0);
        let rpc = log.closed(EXEC_RPC, root, 1_000, 101_000);
        log.place_site_phases(
            rpc,
            &[(SITE_BEGIN, 10), (SITE_EXECUTE, 20), (SITE_COMMIT, 30)],
        );
        let placed: Vec<(u8, u64, u64)> = log.spans[2..]
            .iter()
            .map(|s| (s.name, s.start_ns, s.end_ns))
            .collect();
        // 100 us RPC, 60 us accounted: 20 us residual on each side.
        assert_eq!(
            placed,
            vec![
                (SITE_BEGIN, 21_000, 31_000),
                (SITE_EXECUTE, 31_000, 51_000),
                (SITE_COMMIT, 51_000, 81_000)
            ]
        );
        assert!(log.spans[2..]
            .iter()
            .all(|s| s.parent == rpc && s.trace_id == 9));
        // Self time: the RPC keeps its 40 us residual, the root keeps what
        // the RPC does not cover, and a refresh-lag span that starts after
        // the root closed takes nothing from it.
        log.close(root, 120_000);
        log.closed(REFRESH_LAG, root, 120_000, 150_000);
        assert_eq!(log.self_nanos()[..2], [20_000, 40_000]);
    }

    #[test]
    fn recorder_join_pairs_remaster_steps_and_deliveries() {
        let remaster = |partition| TracePayload::Remaster {
            partition,
            from: 0,
            to: 1,
            epoch: 1,
        };
        let net = TracePayload::Net {
            from: 0,
            to: 2,
            category: TrafficCategory::ClientSite.index() as u8,
            bytes: 10,
        };
        let events = vec![
            ev(
                TraceKind::GrantAck,
                450,
                7,
                TraceSite::Selector,
                remaster(5),
            ),
            ev(
                TraceKind::ReleaseSend,
                100,
                7,
                TraceSite::Selector,
                remaster(5),
            ),
            ev(
                TraceKind::ReleaseAck,
                320,
                7,
                TraceSite::Selector,
                remaster(5),
            ),
            ev(
                TraceKind::GrantSend,
                330,
                7,
                TraceSite::Selector,
                remaster(5),
            ),
            ev(TraceKind::NetDeliver, 500, 0, TraceSite::None, net.clone()),
            ev(
                TraceKind::TxnBegin,
                530,
                7,
                TraceSite::Site(2),
                TracePayload::Span {
                    us: 12,
                    vv_wait_us: 0,
                },
            ),
        ];
        let joins = join_recorder(events);
        assert_eq!(joins.release_rtt_us, vec![220]);
        assert_eq!(joins.grant_rtt_us, vec![120]);
        assert_eq!(joins.deliver_to_begin_us, vec![18]);
    }
}
