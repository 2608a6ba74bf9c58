//! Deployment set-up, the closed-loop client driver, and counter windows.
//!
//! Clients record a sample for *every* transaction they issue, stamped with
//! its completion time on one shared clock; the controller thread only
//! sleeps to each window boundary and snapshots the system's counters
//! there. Windows are applied to the samples afterwards, so nothing on the
//! measured path branches on "are we measuring yet".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dynamast::common::codec::get_i64;
use dynamast::common::ids::ClientId;
use dynamast::common::Result;
use dynamast::core::dynamast::DynaMastSystem;
use dynamast::network::stats::TrafficSnapshot;
use dynamast::site::system::{ClientSession, ReplicatedSystem, SystemStats};
use dynamast::workloads::smallbank::PROC_DEPOSIT;
use dynamast::workloads::TxnKind;

use crate::scenario::{Scenario, CHECKPOINT_EVERY, CLIENTS, NUM_SITES};
use crate::stats::{delta, delta_vec};
use crate::tracing::{traced_read, traced_update, RecorderDrain, RecorderLog, SpanLog};

/// A built and populated deployment plus what set-up measured.
pub struct Deployment {
    /// The running system.
    pub system: Arc<DynaMastSystem>,
    /// Build + populate (+ first checkpoint on the durable scenario).
    pub setup: Duration,
    /// Rows loaded into one replica.
    pub rows_loaded: u64,
}

/// Builds the scenario's deployment and loads its database. The durable
/// scenario starts from an empty log directory and takes the first
/// checkpoint here: bulk-loaded rows are not logged, so without it they
/// would not survive `DynaMastSystem::recover`.
pub fn deploy(scenario: &Scenario) -> Result<Deployment> {
    if let Some(dir) = &scenario.log_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create durable log directory");
    }
    let t0 = Instant::now();
    let system = DynaMastSystem::build(scenario.dynamast_config(), scenario.workload.executor());
    let mut rows_loaded = 0u64;
    scenario.workload.populate(&mut |key, row| {
        rows_loaded += 1;
        system.load_row(key, row)
    })?;
    if scenario.durable() {
        system.checkpoint_all()?;
    }
    Ok(Deployment {
        system,
        setup: t0.elapsed(),
        rows_loaded,
    })
}

/// One issued transaction as its client saw it.
#[derive(Clone, Copy)]
pub struct Sample {
    /// Completion time, microseconds on the run clock.
    pub end_us: u64,
    /// Client-observed latency in nanoseconds.
    pub latency_ns: u64,
    /// Update (`true`) or read-only.
    pub update: bool,
    /// Whether `update`/`read` returned `Ok`.
    pub ok: bool,
    /// Extra routing/execution attempts the client needed (traced client
    /// only; the public API does not expose its resubmissions).
    pub resubmits: u8,
}

/// What one client thread brings back.
pub struct ClientLog {
    /// Every transaction issued, in issue order.
    pub samples: Vec<Sample>,
    /// Successful update transactions over the whole run.
    pub updates_ok: u64,
    /// Sum of successful SmallBank deposit amounts over the whole run (the
    /// only SmallBank procedure that creates money).
    pub deposited: i64,
    /// Nanoseconds spent inside the workload generator, and calls made.
    pub generator_ns: u64,
    /// Spans of transactions issued while tracing was on.
    pub spans: SpanLog,
}

/// Every windowed counter the public API exposes, read at one instant.
pub struct Counters {
    /// When the snapshot was taken, microseconds on the run clock.
    pub at_us: u64,
    /// `ReplicatedSystem::stats()`.
    pub stats: SystemStats,
    /// `selector.remaster_rpcs` (release/grant RPCs issued).
    pub remaster_rpcs: u64,
    /// `selector.placements` (first-time grants of unplaced partitions; each
    /// is one of the RPCs above but not part of a remaster operation).
    pub placements: u64,
    /// Fabric traffic matrix.
    pub traffic: TrafficSnapshot,
    /// Published length of every site's log (records).
    pub log_lens: Vec<u64>,
    /// Process user + system CPU time, seconds.
    pub cpu_secs: f64,
    /// Flight-recorder events dropped under snapshot contention.
    pub recorder_dropped: u64,
}

/// Windowed difference of two [`Counters`] snapshots.
pub struct CounterDelta {
    /// Window length in seconds.
    pub secs: f64,
    /// Committed update transactions (site-side count).
    pub committed_updates: u64,
    /// Aborts.
    pub aborts: u64,
    /// Transactions whose routing remastered.
    pub remaster_ops: u64,
    /// Partitions whose mastership moved.
    pub partitions_moved: u64,
    /// Release/grant RPCs issued.
    pub remaster_rpcs: u64,
    /// Unplaced partitions placed.
    pub placements: u64,
    /// Update transactions routed to each site.
    pub routed_per_site: Vec<u64>,
    /// Traffic in the window.
    pub traffic: TrafficSnapshot,
    /// Process CPU seconds.
    pub cpu_secs: f64,
    /// Recorder events dropped.
    pub recorder_dropped: u64,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by all threads of this process, living or exited, in
/// seconds, at the scheduler's nanosecond resolution. `/proc/self/stat`'s
/// `utime + stime` is sampled on timer ticks, and a workload whose threads
/// mostly sleep on timers (the injected-delay scenario) runs in step with
/// those ticks, so it read ±40 % between identical runs there.
fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout 64-bit
    // Linux expects, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

impl Counters {
    /// Snapshots every counter now.
    pub fn snapshot(system: &DynaMastSystem, clock: Instant) -> Counters {
        let logs = system.logs().logs();
        let selector = system.selector();
        Counters {
            at_us: clock.elapsed().as_micros() as u64,
            stats: system.stats(),
            remaster_rpcs: selector.remaster_rpcs.get(),
            placements: selector.placements.get(),
            traffic: system.network().stats().snapshot(),
            log_lens: logs.iter().map(|l| l.len()).collect(),
            cpu_secs: process_cpu_secs(),
            recorder_dropped: system.recorder().dropped(),
        }
    }

    /// The window from `self` to `end`.
    pub fn delta_to(&self, end: &Counters) -> CounterDelta {
        CounterDelta {
            secs: (end.at_us - self.at_us) as f64 / 1e6,
            committed_updates: delta(self.stats.committed_updates, end.stats.committed_updates),
            aborts: delta(self.stats.aborts, end.stats.aborts),
            remaster_ops: delta(self.stats.remaster_ops, end.stats.remaster_ops),
            partitions_moved: delta(self.stats.partitions_moved, end.stats.partitions_moved),
            remaster_rpcs: delta(self.remaster_rpcs, end.remaster_rpcs),
            placements: delta(self.placements, end.placements),
            routed_per_site: delta_vec(
                &self.stats.updates_routed_per_site,
                &end.stats.updates_routed_per_site,
            ),
            traffic: end.traffic.delta_since(&self.traffic),
            cpu_secs: end.cpu_secs - self.cpu_secs,
            recorder_dropped: delta(self.recorder_dropped, end.recorder_dropped),
        }
    }
}

/// One timed `checkpoint_all()` on the run clock.
#[derive(Clone, Copy)]
pub struct CheckpointSpan {
    /// Start, microseconds on the run clock.
    pub start_us: u64,
    /// End, microseconds on the run clock.
    pub end_us: u64,
}

/// Phase lengths of one run.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Warm-up: DynaMast places its initially unplaced partitions here.
    pub warmup: Duration,
    /// Traced runs only: an untraced reference window on the same
    /// deployment, run once before and once after the measured window,
    /// against which tracing overhead is taken. Two, one on each side,
    /// because a deployment that slows as it ages (`tpcc_durable`) would
    /// otherwise show its ageing as overhead.
    pub reference: Duration,
    /// The measured window.
    pub measure: Duration,
    /// Whether the measured window uses the traced client.
    pub traced: bool,
}

/// Everything one run produced.
pub struct RunOutput {
    /// Per-client logs.
    pub clients: Vec<ClientLog>,
    /// The untraced reference windows of a traced run, `(from, to)` in
    /// microseconds on the run clock; empty when untraced.
    pub reference_us: Vec<(u64, u64)>,
    /// Counters at the start of the measured window.
    pub at_start: Counters,
    /// Counters at the end of the measured window.
    pub at_end: Counters,
    /// Checkpoints taken during the run (durable scenario).
    pub checkpoints: Vec<CheckpointSpan>,
    /// Flight-recorder events drained during the traced window.
    pub recorder: Option<RecorderLog>,
}

fn sleep_until(clock: Instant, deadline: Duration) {
    if let Some(left) = deadline.checked_sub(clock.elapsed()) {
        thread::sleep(left);
    }
}

/// Drives `CLIENTS` closed-loop clients through warm-up and the measured
/// window (with an untraced reference window on either side of it when
/// traced), snapshotting counters at the measured window's boundaries, then
/// stops the clients and returns their logs.
pub fn drive(
    scenario: &Scenario,
    system: &Arc<DynaMastSystem>,
    seed: u64,
    phases: Phases,
) -> RunOutput {
    let stop = Arc::new(AtomicBool::new(false));
    let tracing = Arc::new(AtomicBool::new(false));
    let clock = Instant::now();
    let mut handles = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let system = Arc::clone(system);
        let stop = Arc::clone(&stop);
        let tracing = Arc::clone(&tracing);
        let mut generator = scenario.workload.client(ClientId::new(c), seed);
        // Procedure ids are per workload; only SmallBank's deposit mints money.
        let count_deposits = scenario.smallbank_initial_total.is_some();
        handles.push(
            thread::Builder::new()
                .name(format!("client-{c}"))
                .spawn(move || {
                    let mut session = ClientSession::new(ClientId::new(c), NUM_SITES);
                    let mut log = ClientLog {
                        samples: Vec::with_capacity(1 << 16),
                        updates_ok: 0,
                        deposited: 0,
                        generator_ns: 0,
                        spans: SpanLog::default(),
                    };
                    while !stop.load(Ordering::Relaxed) {
                        let traced = tracing.load(Ordering::Relaxed);
                        let g0 = Instant::now();
                        let txn = generator.next_txn();
                        let start = Instant::now();
                        log.generator_ns += (start - g0).as_nanos() as u64;
                        let update = txn.kind == TxnKind::Update;
                        let (ok, resubmits) = if traced {
                            let outcome = if update {
                                traced_update(
                                    &system,
                                    &mut session,
                                    &txn.call,
                                    clock,
                                    &mut log.spans,
                                )
                            } else {
                                traced_read(&system, &mut session, &txn.call, clock, &mut log.spans)
                            };
                            match outcome {
                                Ok(attempts) => (true, attempts.saturating_sub(1).min(255) as u8),
                                Err(_) => (false, 0),
                            }
                        } else {
                            let outcome = if update {
                                system.update(&mut session, &txn.call)
                            } else {
                                system.read(&mut session, &txn.call)
                            };
                            (outcome.is_ok(), 0)
                        };
                        let end = Instant::now();
                        if ok && update {
                            log.updates_ok += 1;
                            if count_deposits && txn.call.proc_id == PROC_DEPOSIT {
                                let mut args = txn.call.args.clone();
                                log.deposited += get_i64(&mut args).unwrap_or(0);
                            }
                        }
                        log.samples.push(Sample {
                            end_us: (end - clock).as_micros() as u64,
                            latency_ns: (end - start).as_nanos() as u64,
                            update,
                            ok,
                            resubmits,
                        });
                    }
                    log
                })
                .expect("spawn client thread"),
        );
    }

    // The control thread also owns the periodic checkpoint of the durable
    // scenario, so checkpoints land at fixed offsets from the run's start.
    let mut checkpoints = Vec::new();
    let mut next_checkpoint = CHECKPOINT_EVERY;
    let mut wait_until = |deadline: Duration, checkpoints: &mut Vec<CheckpointSpan>| {
        while scenario.durable() && next_checkpoint < deadline {
            sleep_until(clock, next_checkpoint);
            let start_us = clock.elapsed().as_micros() as u64;
            system.checkpoint_all().expect("periodic checkpoint");
            checkpoints.push(CheckpointSpan {
                start_us,
                end_us: clock.elapsed().as_micros() as u64,
            });
            next_checkpoint += CHECKPOINT_EVERY;
        }
        sleep_until(clock, deadline);
    };

    wait_until(phases.warmup, &mut checkpoints);
    let now_us = || clock.elapsed().as_micros() as u64;
    let mut reference_us = Vec::new();
    let mut drain = None;
    if phases.traced {
        let from_us = now_us();
        wait_until(phases.warmup + phases.reference, &mut checkpoints);
        reference_us.push((from_us, now_us()));
        tracing.store(true, Ordering::Relaxed);
        drain = Some(RecorderDrain::start(system));
    }
    let at_start = Counters::snapshot(system, clock);
    let measure_from = Duration::from_micros(at_start.at_us);
    wait_until(measure_from + phases.measure, &mut checkpoints);
    let at_end = Counters::snapshot(system, clock);
    tracing.store(false, Ordering::Relaxed);
    let recorder = drain.map(RecorderDrain::finish);
    if phases.traced {
        let from_us = now_us();
        wait_until(
            Duration::from_micros(from_us) + phases.reference,
            &mut checkpoints,
        );
        reference_us.push((from_us, now_us()));
    }
    stop.store(true, Ordering::Relaxed);
    let clients = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    RunOutput {
        clients,
        reference_us,
        at_start,
        at_end,
        checkpoints,
        recorder,
    }
}
