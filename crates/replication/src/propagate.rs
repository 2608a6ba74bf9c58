//! Update propagation: per-origin subscriber threads.
//!
//! Each replication manager "subscribes to updates from logs at other sites"
//! (§V-A2). [`Propagator::start`] spawns one subscriber thread per remote
//! origin; each thread tails that origin's log, charges the simulated network
//! for the batch transit, and hands each drained batch whole to the site's
//! [`RefreshApplier`] *in origin order*. Cross-origin ordering is the
//! applier's job (the update application rule blocks records whose
//! dependencies have not yet applied — and because each origin has its own
//! thread, blocking one origin never stalls another, mirroring Kafka's
//! independent topic consumption).
//!
//! Tailing is event-driven: subscribers park inside
//! [`crate::log::DurableLog::wait_read_from`] until an append signals the
//! log's condvar, then drain everything present as one batch. There is no
//! polling interval — an idle origin costs zero wakeups, and delivery
//! latency is condvar wake latency rather than half a poll period.
//! [`Propagator::stop`] sets the shutdown flag and calls
//! `notify_waiters` on every tailed log so parked subscribers return
//! promptly even if nothing is ever appended again.
//!
//! When a [`Network`] fabric with an attached
//! [`dynamast_network::FaultPlan`] is supplied, each batch transit consults
//! the plan on the `origin site → subscriber site` link: a directed
//! partition stalls delivery (the subscriber holds its cursor and re-fetches
//! once healed — the log is durable, so nothing is lost), and delay spikes
//! lengthen the batch transit. Drops and duplication are meaningless for a
//! cursor-tailed durable log (a "lost" fetch is just refetched at the same
//! cursor; a duplicated fetch applies nothing new), so those decisions are
//! consumed but ignored.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dynamast_common::config::NetworkConfig;
use dynamast_common::ids::SiteId;
use dynamast_common::trace::{TraceKind, TracePayload, TraceSite};
use dynamast_common::Result;
use dynamast_network::{wait_until, EndpointId, Network, TrafficCategory, TrafficStats};

use crate::log::{DurableLog, LogSet};
use crate::record::LogRecord;

/// Applies refresh transactions at a site.
///
/// Implementations must block until the update application rule (Eq. 1)
/// admits the record, then install it and advance the site version vector.
/// Returning an error stops the subscriber thread (used for shutdown).
pub trait RefreshApplier: Send + Sync + 'static {
    /// Applies one record originated at another site.
    fn apply(&self, record: LogRecord) -> Result<()>;

    /// Applies a whole drained batch from one origin's log, in order.
    ///
    /// The default delegates to [`RefreshApplier::apply`] per record; sites
    /// override this to amortize admission checks and watermark publication
    /// across the batch (install out of order, publish once per contiguous
    /// admissible run). Records arrive in origin log order and ownership
    /// transfers to the applier, so rows are moved — never cloned — into
    /// storage.
    fn apply_batch(&self, records: Vec<LogRecord>) -> Result<()> {
        for record in records {
            self.apply(record)?;
        }
        Ok(())
    }
}

/// Running subscriber threads for one site.
pub struct Propagator {
    shutdown: Arc<AtomicBool>,
    /// The logs being tailed, kept to wake parked subscribers on stop.
    tailed: Vec<Arc<DurableLog>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl Propagator {
    /// Starts one subscriber per remote origin, applying records via
    /// `applier`. `start_offsets[origin]` is the log offset to resume from
    /// (zero for a fresh site; the svv-indicated positions after recovery).
    /// `fabric`, when given, subjects batch transits to the network's
    /// attached fault plan (partitions stall, spikes delay).
    pub fn start(
        site: SiteId,
        logs: &LogSet,
        applier: Arc<dyn RefreshApplier>,
        network: NetworkConfig,
        fabric: Option<Arc<Network>>,
        stats: Option<Arc<TrafficStats>>,
        start_offsets: Vec<u64>,
    ) -> Self {
        assert_eq!(start_offsets.len(), logs.num_sites());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut tailed = Vec::new();
        let mut threads = Vec::new();
        #[allow(clippy::needless_range_loop)] // origin_idx names both the site and its offset slot
        for origin_idx in 0..logs.num_sites() {
            let origin = SiteId::new(origin_idx);
            if origin == site {
                continue;
            }
            let log = Arc::clone(logs.log(origin));
            tailed.push(Arc::clone(&log));
            let applier = Arc::clone(&applier);
            let stats = stats.clone();
            let recorder = fabric.as_ref().and_then(|n| n.recorder());
            let fabric = fabric.clone();
            let shutdown = Arc::clone(&shutdown);
            let mut cursor = start_offsets[origin_idx];
            threads.push(
                thread::Builder::new()
                    .name(format!("repl-{site}-from-{origin}"))
                    .spawn(move || {
                        while !shutdown.load(Ordering::Relaxed) {
                            // Parks until an append lands or stop() cancels.
                            let (records, bytes) = match log.wait_read_from(cursor, &shutdown) {
                                Ok(batch) => batch,
                                Err(_) => break,
                            };
                            if records.is_empty() {
                                // Only cancellation returns an empty batch.
                                continue;
                            }
                            // Refresh lag measured from batch fetch: transit
                            // delay plus the applier's admission wait (Eq. 1
                            // dependency blocking) — the components the
                            // paper's f_delay feature estimates. Captured
                            // BEFORE the transit is waited out, or the delay
                            // would be excluded from the lag it is supposed
                            // to dominate.
                            let fetched = Instant::now();
                            // One transit delay per fetched batch (Kafka
                            // consumers batch; charging per record would
                            // impose an unrealistic serial 1/RTT cap).
                            let mut delay = network.delay_for(bytes);
                            if let Some(plan) = fabric.as_ref().and_then(|n| n.faults()) {
                                let link = (
                                    Some(EndpointId::Site(origin.raw())),
                                    Some(EndpointId::Site(site.raw())),
                                );
                                // A partition stalls the stream: hold the
                                // batch until the link heals or we shut
                                // down (the durable log loses nothing).
                                while plan.is_partitioned(link.0, link.1) {
                                    if shutdown.load(Ordering::Relaxed) {
                                        return;
                                    }
                                    thread::sleep(Duration::from_millis(1));
                                }
                                delay += plan.decide(link.0, link.1).extra_delay;
                            }
                            if !delay.is_zero() {
                                wait_until(fetched + delay);
                            }
                            if let Some(stats) = &stats {
                                stats.record(TrafficCategory::Replication, bytes);
                            }
                            cursor += records.len() as u64;
                            let batch = records.len() as u32;
                            // The batch tail's stamp identifies the run after
                            // the applier consumes the records.
                            let last = records.last().expect("non-empty batch");
                            let stamp = (last.origin().raw(), last.sequence());
                            if applier.apply_batch(records).is_err() {
                                return;
                            }
                            if let Some(rec) = &recorder {
                                rec.record(
                                    0,
                                    TraceSite::Site(site.raw()),
                                    TraceKind::RefreshApply,
                                    TracePayload::Refresh {
                                        origin: stamp.0,
                                        sequence: stamp.1,
                                        records: batch,
                                        lag_us: fetched.elapsed().as_micros() as u64,
                                    },
                                );
                            }
                        }
                    })
                    .expect("spawn propagator"),
            );
        }
        Propagator {
            shutdown,
            tailed,
            threads,
        }
    }

    /// Signals shutdown, wakes every parked subscriber, and joins them.
    ///
    /// The applier must unblock any waiting `apply` calls (returning an
    /// error) when its owning site shuts down, or this will hang.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Subscribers may be parked in wait_read_from on an idle log; wake
        // them so they observe the flag (notify_waiters takes the log lock,
        // so the store above cannot race past a waiter's re-check).
        for log in &self.tailed {
            log.notify_waiters();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Propagator {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::{DynaError, VersionVector};
    use parking_lot::Mutex;
    use std::time::{Duration, Instant};

    struct Collector {
        seen: Mutex<Vec<LogRecord>>,
        fail_after: Option<usize>,
    }

    impl RefreshApplier for Collector {
        fn apply(&self, record: LogRecord) -> Result<()> {
            let mut seen = self.seen.lock();
            if let Some(n) = self.fail_after {
                if seen.len() >= n {
                    return Err(DynaError::ShuttingDown);
                }
            }
            seen.push(record);
            Ok(())
        }
    }

    fn commit(origin: usize, seq: u64, dims: usize) -> LogRecord {
        let mut tvv = VersionVector::zero(dims);
        tvv.set(SiteId::new(origin), seq);
        LogRecord::Commit {
            origin: SiteId::new(origin),
            tvv,
            writes: vec![],
        }
    }

    fn wait_for<F: Fn() -> bool>(cond: F) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("condition not reached in time");
    }

    #[test]
    fn subscribers_deliver_remote_records_in_order() {
        let logs = LogSet::new(3);
        let collector = Arc::new(Collector {
            seen: Mutex::new(Vec::new()),
            fail_after: None,
        });
        let prop = Propagator::start(
            SiteId::new(0),
            &logs,
            Arc::clone(&collector) as Arc<dyn RefreshApplier>,
            NetworkConfig::instant(),
            None,
            None,
            vec![0; 3],
        );
        for seq in 1..=3 {
            logs.log(SiteId::new(1)).append(&commit(1, seq, 3));
        }
        // Own-log records must NOT be delivered to self.
        logs.log(SiteId::new(0)).append(&commit(0, 1, 3));
        wait_for(|| collector.seen.lock().len() == 3);
        let seqs: Vec<u64> = collector.seen.lock().iter().map(|r| r.sequence()).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(collector
            .seen
            .lock()
            .iter()
            .all(|r| r.origin() == SiteId::new(1)));
        prop.stop();
    }

    #[test]
    fn start_offsets_skip_already_applied_records() {
        let logs = LogSet::new(2);
        for seq in 1..=4 {
            logs.log(SiteId::new(1)).append(&commit(1, seq, 2));
        }
        let collector = Arc::new(Collector {
            seen: Mutex::new(Vec::new()),
            fail_after: None,
        });
        let prop = Propagator::start(
            SiteId::new(0),
            &logs,
            Arc::clone(&collector) as Arc<dyn RefreshApplier>,
            NetworkConfig::instant(),
            None,
            None,
            vec![0, 2],
        );
        wait_for(|| collector.seen.lock().len() == 2);
        assert_eq!(collector.seen.lock()[0].sequence(), 3);
        prop.stop();
    }

    #[test]
    fn applier_error_stops_subscriber() {
        let logs = LogSet::new(2);
        let collector = Arc::new(Collector {
            seen: Mutex::new(Vec::new()),
            fail_after: Some(1),
        });
        let prop = Propagator::start(
            SiteId::new(0),
            &logs,
            Arc::clone(&collector) as Arc<dyn RefreshApplier>,
            NetworkConfig::instant(),
            None,
            None,
            vec![0, 0],
        );
        for seq in 1..=3 {
            logs.log(SiteId::new(1)).append(&commit(1, seq, 2));
        }
        wait_for(|| collector.seen.lock().len() == 1);
        // Stop should join promptly even though records remain unapplied.
        prop.stop();
        assert_eq!(collector.seen.lock().len(), 1);
    }

    /// Regression test for the shutdown race: subscribers now park
    /// indefinitely on idle logs, so `stop()` must wake them explicitly.
    /// Before the wake-on-stop, this would hang until a record arrived.
    #[test]
    fn stop_returns_promptly_with_idle_logs() {
        let logs = LogSet::new(4);
        let collector = Arc::new(Collector {
            seen: Mutex::new(Vec::new()),
            fail_after: None,
        });
        let prop = Propagator::start(
            SiteId::new(0),
            &logs,
            collector as Arc<dyn RefreshApplier>,
            NetworkConfig::instant(),
            None,
            None,
            vec![0; 4],
        );
        // Let the three subscriber threads park on their empty logs.
        thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        prop.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "stop() blocked for {:?} on idle logs",
            t0.elapsed()
        );
    }

    #[test]
    fn traffic_stats_account_replication_bytes() {
        let logs = LogSet::new(2);
        let stats = Arc::new(TrafficStats::new());
        let collector = Arc::new(Collector {
            seen: Mutex::new(Vec::new()),
            fail_after: None,
        });
        let prop = Propagator::start(
            SiteId::new(0),
            &logs,
            Arc::clone(&collector) as Arc<dyn RefreshApplier>,
            NetworkConfig::instant(),
            None,
            Some(Arc::clone(&stats)),
            vec![0, 0],
        );
        logs.log(SiteId::new(1)).append(&commit(1, 1, 2));
        wait_for(|| collector.seen.lock().len() == 1);
        let snap = stats.snapshot();
        assert!(snap.get(TrafficCategory::Replication).bytes > 0);
        prop.stop();
    }

    /// Regression: `lag_us` used to be measured from an `Instant` captured
    /// *after* the transit-delay sleep, so the reported refresh lag excluded
    /// the very transit delay it documents. With a 25ms one-way delay the
    /// traced lag must be at least that delay.
    #[test]
    fn refresh_lag_includes_transit_delay() {
        let logs = LogSet::new(2);
        let delay = Duration::from_millis(25);
        let slow = NetworkConfig {
            one_way_delay: delay,
            ..NetworkConfig::instant()
        };
        let fabric = Network::new(NetworkConfig::instant(), 7);
        let recorder = dynamast_common::FlightRecorder::new(64);
        fabric.set_recorder(Some(Arc::clone(&recorder)));
        let collector = Arc::new(Collector {
            seen: Mutex::new(Vec::new()),
            fail_after: None,
        });
        let prop = Propagator::start(
            SiteId::new(0),
            &logs,
            Arc::clone(&collector) as Arc<dyn RefreshApplier>,
            slow,
            Some(Arc::clone(&fabric)),
            None,
            vec![0, 0],
        );
        logs.log(SiteId::new(1)).append(&commit(1, 1, 2));
        wait_for(|| collector.seen.lock().len() == 1);
        prop.stop();
        let lags: Vec<u64> = recorder
            .snapshot()
            .iter()
            .filter_map(|ev| match ev.payload {
                TracePayload::Refresh { lag_us, .. } => Some(lag_us),
                _ => None,
            })
            .collect();
        assert!(!lags.is_empty(), "refresh trace event must be recorded");
        assert!(
            lags.iter().all(|&lag| lag >= delay.as_micros() as u64),
            "traced refresh lag {lags:?}us must include the {delay:?} transit delay"
        );
    }

    /// Each batch is applied no earlier than its configured transit delay
    /// after it was fetched. The fetch is not observable from outside, but
    /// the subscriber is parked when each record is appended and wakes
    /// within tens of µs, so a charge short of the delay shows as an apply
    /// less than the delay after the append.
    #[test]
    fn batches_are_applied_no_earlier_than_their_transit_delay() {
        struct Stamper(Mutex<Vec<Instant>>);
        impl RefreshApplier for Stamper {
            fn apply(&self, _record: LogRecord) -> Result<()> {
                self.0.lock().push(Instant::now());
                Ok(())
            }
        }
        let logs = LogSet::new(2);
        let delay = Duration::from_micros(300);
        let stamper = Arc::new(Stamper(Mutex::new(Vec::new())));
        let prop = Propagator::start(
            SiteId::new(0),
            &logs,
            Arc::clone(&stamper) as Arc<dyn RefreshApplier>,
            NetworkConfig {
                one_way_delay: delay,
                ..NetworkConfig::instant()
            },
            None,
            None,
            vec![0, 0],
        );
        for seq in 1..=20u64 {
            let appended = Instant::now();
            logs.log(SiteId::new(1)).append(&commit(1, seq, 2));
            wait_for(|| stamper.0.lock().len() == seq as usize);
            let applied = stamper.0.lock()[seq as usize - 1];
            assert!(
                applied.duration_since(appended) >= delay,
                "batch {seq} applied {:?} after its append, transit is {delay:?}",
                applied.duration_since(appended)
            );
        }
        prop.stop();
    }

    #[test]
    fn partition_stalls_stream_until_healed() {
        let logs = LogSet::new(2);
        let network = Network::new(NetworkConfig::instant(), 11);
        let plan = Arc::new(dynamast_network::FaultPlan::new(11));
        network.set_faults(Some(Arc::clone(&plan)));
        plan.partition(EndpointId::Site(1), EndpointId::Site(0));
        let collector = Arc::new(Collector {
            seen: Mutex::new(Vec::new()),
            fail_after: None,
        });
        let prop = Propagator::start(
            SiteId::new(0),
            &logs,
            Arc::clone(&collector) as Arc<dyn RefreshApplier>,
            NetworkConfig::instant(),
            Some(Arc::clone(&network)),
            None,
            vec![0, 0],
        );
        logs.log(SiteId::new(1)).append(&commit(1, 1, 2));
        thread::sleep(Duration::from_millis(60));
        assert!(
            collector.seen.lock().is_empty(),
            "partitioned stream must not deliver"
        );
        plan.heal_all();
        wait_for(|| collector.seen.lock().len() == 1);
        prop.stop();
    }
}
