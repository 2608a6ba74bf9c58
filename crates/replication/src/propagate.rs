//! Update propagation: one feeder thread per origin log.
//!
//! Each replication manager "subscribes to updates from logs at other sites"
//! (§V-A2). Here an origin's [`DurableLog`] runs one *feeder* thread for all
//! of its subscribers: [`Propagator::start`] registers one subscription per
//! remote origin for a site, the log starts its feeder at the first
//! subscription and joins it at the last: one refresh thread per site,
//! whatever the number of sites.
//!
//! The log unparks its feeder once per published run. The feeder decodes the
//! run once into an immutable batch (rows are `Arc`s, so a batch is shared,
//! never copied) and offers it to each subscription in turn. Each
//! subscription keeps its own state, so one stalled site never stalls its
//! siblings:
//!
//! * a **cursor** — a restarted or recovered site resumes from its own
//!   offset, and a cursor older than the feeder's decoded window is caught
//!   up from the log for that subscription alone;
//! * a **due time** per batch — `fetched + delay_for(bytes)` plus the fault
//!   plan's per-link `extra_delay`: one transit charge per batch, as Kafka
//!   consumers batch;
//! * a **hold** while its `origin → site` link is partitioned (re-checked
//!   every millisecond; the durable log loses nothing, so the held site
//!   catches up in order after the heal);
//! * an **admission block** — the site's [`RefreshApplier`] installs the
//!   Eq. 1-admissible prefix of a batch and returns how far it got; a
//!   shorter prefix means it asked its site clock for a [`Wake`] at the
//!   next svv advance, and the feeder offers the rest again then. Nothing
//!   blocks and nothing polls: cross-origin dependencies resolve through
//!   the clocks of the sites they concern.
//!
//! Drops and duplication are meaningless for a cursor-tailed durable log (a
//! "lost" fetch is refetched at the same cursor; a duplicated fetch applies
//! nothing new), so those fault decisions are consumed but ignored.
//!
//! [`Propagator::stop`] removes a site's subscriptions. Each subscription's
//! state is locked while the feeder applies for it, so once `stop` returns
//! that site's applier is never entered again, even if the feeder was
//! mid-batch for another site.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use dynamast_common::config::NetworkConfig;
use dynamast_common::ids::SiteId;
use dynamast_common::trace::{FlightRecorder, TraceKind, TracePayload, TraceSite};
use dynamast_common::Result;
use dynamast_network::{precise_timers, EndpointId, Network, TrafficCategory, TrafficStats};
use parking_lot::Mutex;

use crate::log::{DurableLog, LogSet};
use crate::record::LogRecord;

/// How often a subscription held by a partitioned link re-checks the link.
const PARTITION_POLL: Duration = Duration::from_millis(1);

/// Applies refresh transactions at a site.
pub trait RefreshApplier: Send + Sync + 'static {
    /// Applies the longest prefix of `records` that the update application
    /// rule (Eq. 1) admits now and returns its length. Returning less than
    /// `records.len()` means the next record waits on another origin: the
    /// applier has asked its site clock to fire `wake` at the next svv
    /// advance, and the rest is offered again then.
    ///
    /// `records` is one origin's run in log order, decoded once and shared
    /// by every subscriber of that origin: rows are cloned (a reference
    /// count bump), never moved out. An error (the site shut down, or a
    /// corrupted record) ends the subscription.
    fn apply_batch(&self, records: &[LogRecord], wake: &Wake) -> Result<usize>;
}

/// A one-shot request to resume a blocked subscription: sets its flag and
/// unparks the feeder that serves it.
#[derive(Clone)]
pub struct Wake {
    fired: Arc<AtomicBool>,
    feeder: Thread,
}

impl Wake {
    /// A wake that unparks `feeder` (a test driving an applier by hand
    /// passes the current thread).
    pub fn new(feeder: Thread) -> Self {
        Wake {
            fired: Arc::new(AtomicBool::new(false)),
            feeder,
        }
    }

    /// Fires the wake.
    pub fn fire(&self) {
        self.fired.store(true, Ordering::Release);
        self.feeder.unpark();
    }

    /// Consumes a fired wake, returning whether one was pending.
    pub fn take(&self) -> bool {
        self.fired.swap(false, Ordering::AcqRel)
    }
}

/// What a subscriber's link charges and reports.
struct Link {
    network: NetworkConfig,
    fabric: Option<Arc<Network>>,
    stats: Option<Arc<TrafficStats>>,
    recorder: Option<Arc<FlightRecorder>>,
}

/// One site's subscription to one origin log.
struct Subscription {
    site: SiteId,
    origin: SiteId,
    applier: Arc<dyn RefreshApplier>,
    link: Link,
    wake: Wake,
    /// Held by the feeder while it applies for this site, and by
    /// [`unsubscribe`] to mark it stopped.
    state: Mutex<SubState>,
}

struct SubState {
    /// Next log offset to apply.
    cursor: u64,
    /// `(first offset of a batch, when it is due here)`, fixed the first
    /// time this subscription reaches that batch.
    due: Option<(u64, Instant)>,
    /// Waiting for a [`Wake`] from the site clock.
    blocked: bool,
    stopped: bool,
}

/// The feeder of one origin log, owned by the log while it has
/// subscriptions.
pub(crate) struct Feeder {
    shared: Arc<FeederShared>,
    thread: thread::JoinHandle<()>,
}

struct FeederShared {
    subs: Mutex<Vec<Arc<Subscription>>>,
    /// `subs` changed since the feeder last copied it.
    changed: AtomicBool,
    stop: AtomicBool,
}

/// One decoded published run.
struct Batch {
    first: u64,
    records: Vec<LogRecord>,
    bytes: usize,
    fetched: Instant,
}

impl Batch {
    fn end(&self) -> u64 {
        self.first + self.records.len() as u64
    }
}

impl Feeder {
    fn spawn(log: Arc<DurableLog>) -> Feeder {
        let shared = Arc::new(FeederShared {
            subs: Mutex::new(Vec::new()),
            changed: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            let log = Arc::clone(&log);
            thread::Builder::new()
                .name(format!("feed-{}", log.site()))
                .spawn(move || feed(&log, &shared))
                .expect("spawn feeder")
        };
        log.set_tail(Some(thread.thread().clone()));
        Feeder { shared, thread }
    }

    fn unpark(&self) {
        self.thread.thread().unpark();
    }
}

/// Registers `site`'s subscription at `cursor` with `log`'s feeder,
/// starting the feeder if this is the log's first subscription.
fn subscribe(
    log: &Arc<DurableLog>,
    site: SiteId,
    applier: Arc<dyn RefreshApplier>,
    link: Link,
    cursor: u64,
) -> Arc<Subscription> {
    let mut slot = log.feeder.lock();
    let feeder = slot.get_or_insert_with(|| Feeder::spawn(Arc::clone(log)));
    let sub = Arc::new(Subscription {
        site,
        origin: log.site(),
        applier,
        link,
        wake: Wake::new(feeder.thread.thread().clone()),
        state: Mutex::new(SubState {
            cursor,
            due: None,
            blocked: false,
            stopped: false,
        }),
    });
    feeder.shared.subs.lock().push(Arc::clone(&sub));
    feeder.shared.changed.store(true, Ordering::Release);
    feeder.unpark();
    sub
}

/// Stops `sub` (waiting out an apply in flight for it) and removes it,
/// joining the feeder if it was the log's last subscription.
fn unsubscribe(log: &DurableLog, sub: &Arc<Subscription>) {
    sub.state.lock().stopped = true;
    let mut slot = log.feeder.lock();
    let Some(feeder) = slot.as_ref() else { return };
    let mut subs = feeder.shared.subs.lock();
    subs.retain(|s| !Arc::ptr_eq(s, sub));
    let last = subs.is_empty();
    drop(subs);
    feeder.shared.changed.store(true, Ordering::Release);
    if last {
        let feeder = slot.take().expect("checked above");
        log.set_tail(None);
        feeder.shared.stop.store(true, Ordering::Release);
        feeder.unpark();
        let _ = feeder.thread.join();
    } else {
        feeder.unpark();
    }
}

/// The feeder loop: fetch what the log published, offer every subscription
/// what is due for it, park until the next due time or an unpark (a
/// publish, a [`Wake`], a registry change, stop).
fn feed(log: &DurableLog, shared: &FeederShared) {
    // Transit charges are waited out in this thread's timed parks.
    precise_timers();
    let mut subs: Vec<Arc<Subscription>> = Vec::new();
    let mut window: VecDeque<Batch> = VecDeque::new();
    while !shared.stop.load(Ordering::Acquire) {
        if shared.changed.swap(false, Ordering::AcqRel) {
            subs = shared.subs.lock().clone();
        }
        let oldest = subs
            .iter()
            .filter_map(|s| {
                let st = s.state.lock();
                (!st.stopped).then_some(st.cursor)
            })
            .min();
        if let Some(oldest) = oldest {
            if let Err(err) = fetch(log, &mut window, oldest) {
                // Only a cursor below the truncated base fails; the
                // subscriptions that need it cannot continue.
                eprintln!("[feed-{}] {err}", log.site());
                let base = log.base();
                for sub in &subs {
                    let mut st = sub.state.lock();
                    st.stopped |= st.cursor < base;
                }
                continue;
            }
            // Batches every subscription has passed are done.
            while window.front().is_some_and(|b| b.end() <= oldest) {
                window.pop_front();
            }
        } else {
            window.clear();
        }
        let mut next: Option<Instant> = None;
        for sub in &subs {
            if let Some(at) = serve(sub, &window) {
                next = Some(next.map_or(at, |n| n.min(at)));
            }
        }
        match next {
            Some(at) => thread::park_timeout(at.saturating_duration_since(Instant::now())),
            None => thread::park(),
        }
    }
}

/// Extends `window` to cover `[oldest, published)`: a catch-up run in
/// front for a subscription older than the window, and the newly published
/// run at the back. Each run is decoded once.
fn fetch(log: &DurableLog, window: &mut VecDeque<Batch>, oldest: u64) -> Result<()> {
    let decode = |from: u64, to: Option<u64>| -> Result<Option<Batch>> {
        let (records, bytes) = log.read_range(from, to)?;
        Ok((!records.is_empty()).then(|| Batch {
            first: from,
            records,
            bytes,
            fetched: Instant::now(),
        }))
    };
    if let Some(front) = window.front().map(|b| b.first).filter(|&f| oldest < f) {
        if let Some(batch) = decode(oldest, Some(front))? {
            window.push_front(batch);
        }
    }
    let from = window.back().map_or(oldest, Batch::end);
    if let Some(batch) = decode(from, None)? {
        window.push_back(batch);
    }
    Ok(())
}

/// Offers `sub` every batch that is due for it, in order. Returns when it
/// next needs a visit without an unpark (a due time, a partition re-check);
/// `None` if it is caught up, blocked on a wake, or stopped.
fn serve(sub: &Subscription, window: &VecDeque<Batch>) -> Option<Instant> {
    let mut st = sub.state.lock();
    loop {
        if st.stopped {
            return None;
        }
        let at = window.partition_point(|b| b.end() <= st.cursor);
        let batch = window.get(at).filter(|b| b.first <= st.cursor)?;
        if st.blocked {
            if !sub.wake.take() {
                return None;
            }
            st.blocked = false;
        }
        let due = match st.due {
            Some((first, due)) if first == batch.first => due,
            _ => {
                let mut delay = sub.link.network.delay_for(batch.bytes);
                if let Some(plan) = sub.link.fabric.as_ref().and_then(|n| n.faults()) {
                    let link = (
                        Some(EndpointId::Site(sub.origin.raw())),
                        Some(EndpointId::Site(sub.site.raw())),
                    );
                    if plan.is_partitioned(link.0, link.1) {
                        return Some(Instant::now() + PARTITION_POLL);
                    }
                    delay += plan.decide(link.0, link.1).extra_delay;
                }
                if let Some(stats) = &sub.link.stats {
                    stats.record(TrafficCategory::Replication, batch.bytes);
                }
                let due = batch.fetched + delay;
                st.due = Some((batch.first, due));
                due
            }
        };
        if due > Instant::now() {
            return Some(due);
        }
        let records = &batch.records[(st.cursor - batch.first) as usize..];
        let applied = match sub.applier.apply_batch(records, &sub.wake) {
            Ok(applied) => applied.min(records.len()),
            Err(_) => {
                st.stopped = true;
                return None;
            }
        };
        st.cursor += applied as u64;
        if let (Some(rec), Some(last)) = (&sub.link.recorder, applied.checked_sub(1)) {
            // Refresh lag from the batch's fetch: transit delay plus any
            // admission wait (Eq. 1 dependency blocking) — the components
            // the paper's f_delay feature estimates.
            rec.record(
                0,
                TraceSite::Site(sub.site.raw()),
                TraceKind::RefreshApply,
                TracePayload::Refresh {
                    origin: records[last].origin().raw(),
                    sequence: records[last].sequence(),
                    records: applied as u32,
                    lag_us: batch.fetched.elapsed().as_micros() as u64,
                },
            );
        }
        if applied < records.len() {
            st.blocked = true;
        }
    }
}

/// One site's subscriptions to every remote origin log.
pub struct Propagator {
    subscriptions: Vec<(Arc<DurableLog>, Arc<Subscription>)>,
}

impl Propagator {
    /// Subscribes `site` to every remote origin's log, applying records via
    /// `applier`. `start_offsets[origin]` is the log offset to resume from
    /// (zero for a fresh site; the svv-indicated positions after recovery).
    /// `fabric`, when given, subjects batch transits to the network's
    /// attached fault plan (partitions hold, spikes delay).
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
        let subscriptions = logs
            .logs()
            .iter()
            .zip(start_offsets)
            .filter(|(log, _)| log.site() != site)
            .map(|(log, cursor)| {
                let link = Link {
                    network,
                    recorder: fabric.as_ref().and_then(|n| n.recorder()),
                    fabric: fabric.clone(),
                    stats: stats.clone(),
                };
                let sub = subscribe(log, site, Arc::clone(&applier), link, cursor);
                (Arc::clone(log), sub)
            })
            .collect();
        Propagator { subscriptions }
    }

    /// Removes the site's subscriptions; on return its applier is never
    /// called again. A log's feeder is joined with its last subscription.
    pub fn stop(mut self) {
        self.unsubscribe_all();
    }

    fn unsubscribe_all(&mut self) {
        for (log, sub) in self.subscriptions.drain(..) {
            unsubscribe(&log, &sub);
        }
    }
}

impl Drop for Propagator {
    fn drop(&mut self) {
        self.unsubscribe_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::{DynaError, VersionVector};
    use std::time::{Duration, Instant};

    struct Collector {
        seen: Mutex<Vec<LogRecord>>,
        fail_after: Option<usize>,
    }

    impl RefreshApplier for Collector {
        fn apply_batch(&self, records: &[LogRecord], _wake: &Wake) -> Result<usize> {
            let mut seen = self.seen.lock();
            for record in records {
                if let Some(n) = self.fail_after {
                    if seen.len() >= n {
                        return Err(DynaError::ShuttingDown);
                    }
                }
                seen.push(record.clone());
            }
            Ok(records.len())
        }
    }

    fn collector() -> Arc<Collector> {
        Arc::new(Collector {
            seen: Mutex::new(Vec::new()),
            fail_after: None,
        })
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

    fn start(
        site: usize,
        logs: &LogSet,
        applier: Arc<dyn RefreshApplier>,
        fabric: Option<Arc<Network>>,
        offsets: Vec<u64>,
    ) -> Propagator {
        Propagator::start(
            SiteId::new(site),
            logs,
            applier,
            NetworkConfig::instant(),
            fabric,
            None,
            offsets,
        )
    }

    fn seqs(c: &Collector) -> Vec<u64> {
        c.seen.lock().iter().map(|r| r.sequence()).collect()
    }

    #[test]
    fn subscribers_deliver_remote_records_in_order() {
        let logs = LogSet::new(3);
        let collector = collector();
        let prop = start(0, &logs, Arc::clone(&collector) as _, None, vec![0; 3]);
        for seq in 1..=3 {
            logs.log(SiteId::new(1)).append(&commit(1, seq, 3));
        }
        // Own-log records must NOT be delivered to self.
        logs.log(SiteId::new(0)).append(&commit(0, 1, 3));
        wait_for(|| collector.seen.lock().len() == 3);
        assert_eq!(seqs(&collector), vec![1, 2, 3]);
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
        let collector = collector();
        let prop = start(0, &logs, Arc::clone(&collector) as _, None, vec![0, 2]);
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
        let prop = start(0, &logs, Arc::clone(&collector) as _, None, vec![0, 0]);
        for seq in 1..=3 {
            logs.log(SiteId::new(1)).append(&commit(1, seq, 2));
        }
        wait_for(|| collector.seen.lock().len() == 1);
        // Stop should join promptly even though records remain unapplied.
        prop.stop();
        assert_eq!(collector.seen.lock().len(), 1);
    }

    /// Regression test for the shutdown race: feeders park indefinitely on
    /// idle logs, so `stop()` must wake them explicitly. Before the
    /// wake-on-stop, this would hang until a record arrived.
    #[test]
    fn stop_returns_promptly_with_idle_logs() {
        let logs = LogSet::new(4);
        let prop = start(0, &logs, collector() as _, None, vec![0; 4]);
        // Let the three feeders park on their empty logs.
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
        let collector = collector();
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
        let collector = collector();
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
    /// the feeder is parked when each record is appended and wakes within
    /// tens of µs, so a charge short of the delay shows as an apply less
    /// than the delay after the append.
    #[test]
    fn batches_are_applied_no_earlier_than_their_transit_delay() {
        struct Stamper(Mutex<Vec<Instant>>);
        impl RefreshApplier for Stamper {
            fn apply_batch(&self, records: &[LogRecord], _wake: &Wake) -> Result<usize> {
                let now = Instant::now();
                self.0.lock().extend(records.iter().map(|_| now));
                Ok(records.len())
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
        let collector = collector();
        let prop = start(
            0,
            &logs,
            Arc::clone(&collector) as _,
            Some(Arc::clone(&network)),
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

    /// One stalled link never stalls its siblings: with `origin → A`
    /// partitioned, B and C keep receiving from the same feeder, and A gets
    /// every record, in order, after the heal.
    #[test]
    fn partitioned_subscriber_holds_alone_and_catches_up_in_order() {
        let logs = LogSet::new(4);
        let network = Network::new(NetworkConfig::instant(), 13);
        let plan = Arc::new(dynamast_network::FaultPlan::new(13));
        network.set_faults(Some(Arc::clone(&plan)));
        plan.partition(EndpointId::Site(0), EndpointId::Site(1));
        let sites: Vec<_> = (1..4).map(|_| collector()).collect();
        let props: Vec<_> = sites
            .iter()
            .zip(1..)
            .map(|(c, site)| {
                start(
                    site,
                    &logs,
                    Arc::clone(c) as _,
                    Some(Arc::clone(&network)),
                    vec![0; 4],
                )
            })
            .collect();
        let origin = logs.log(SiteId::new(0));
        for seq in 1..=10 {
            origin.append(&commit(0, seq, 4));
            thread::sleep(Duration::from_millis(1));
        }
        wait_for(|| sites[1..].iter().all(|c| c.seen.lock().len() == 10));
        assert!(sites[0].seen.lock().is_empty(), "A's link is partitioned");
        plan.heal_all();
        wait_for(|| sites[0].seen.lock().len() == 10);
        for c in &sites {
            assert_eq!(seqs(c), (1..=10).collect::<Vec<_>>());
        }
        drop(props);
    }

    /// A site applying origin 0's records at the site clock's pace: Eq. 1
    /// over a shared svv, with wakes fired on every advance — what a data
    /// site's clock does.
    struct Site {
        svv: Mutex<(VersionVector, Vec<Wake>)>,
        applied: Mutex<Vec<(usize, u64)>>,
    }

    impl Site {
        fn new(dims: usize) -> Arc<Self> {
            Arc::new(Site {
                svv: Mutex::new((VersionVector::zero(dims), Vec::new())),
                applied: Mutex::new(Vec::new()),
            })
        }
    }

    impl RefreshApplier for Site {
        fn apply_batch(&self, records: &[LogRecord], wake: &Wake) -> Result<usize> {
            for (i, record) in records.iter().enumerate() {
                let LogRecord::Commit { origin, tvv, .. } = record else {
                    unreachable!("commits only")
                };
                let mut svv = self.svv.lock();
                if !svv.0.can_apply_refresh(tvv, *origin) {
                    svv.1.push(wake.clone());
                    return Ok(i);
                }
                svv.0.set(*origin, tvv.get(*origin));
                self.applied
                    .lock()
                    .push((origin.as_usize(), tvv.get(*origin)));
                for w in std::mem::take(&mut svv.1) {
                    w.fire();
                }
            }
            Ok(records.len())
        }
    }

    /// A record whose Eq. 1 dependency lands later on another origin's
    /// feeder is applied once it lands — by the wake the dependency's apply
    /// fires, not by a sleep-poll.
    #[test]
    fn blocked_record_applies_once_its_dependency_lands() {
        let logs = LogSet::new(3);
        let site = Site::new(3);
        let prop = start(2, &logs, Arc::clone(&site) as _, None, vec![0; 3]);
        // Origin 0's first commit read origin 1's first commit.
        let mut tvv = VersionVector::zero(3);
        tvv.set(SiteId::new(0), 1);
        tvv.set(SiteId::new(1), 1);
        logs.log(SiteId::new(0)).append(&LogRecord::Commit {
            origin: SiteId::new(0),
            tvv,
            writes: vec![],
        });
        thread::sleep(Duration::from_millis(30));
        assert!(site.applied.lock().is_empty(), "dependency not yet landed");
        let t0 = Instant::now();
        logs.log(SiteId::new(1)).append(&commit(1, 1, 3));
        wait_for(|| site.applied.lock().len() == 2);
        assert_eq!(*site.applied.lock(), vec![(1, 1), (0, 1)]);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "the blocked record waited {:?}",
            t0.elapsed()
        );
        prop.stop();
    }

    /// A subscription registered at an older offset catches up from the
    /// log for itself alone; its siblings on the same feeder apply nothing
    /// twice.
    #[test]
    fn late_subscription_catches_up_while_siblings_apply_nothing_twice() {
        let logs = LogSet::new(3);
        let origin = logs.log(SiteId::new(0));
        let early = collector();
        let early_prop = start(1, &logs, Arc::clone(&early) as _, None, vec![0; 3]);
        for seq in 1..=5 {
            origin.append(&commit(0, seq, 3));
        }
        wait_for(|| early.seen.lock().len() == 5);
        let late = collector();
        let late_prop = start(2, &logs, Arc::clone(&late) as _, None, vec![1, 0, 0]);
        for seq in 6..=8 {
            origin.append(&commit(0, seq, 3));
        }
        wait_for(|| late.seen.lock().len() == 7 && early.seen.lock().len() == 8);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(seqs(&early), (1..=8).collect::<Vec<_>>());
        assert_eq!(seqs(&late), (2..=8).collect::<Vec<_>>());
        drop((early_prop, late_prop));
    }

    /// After `stop` returns, that site's applier is never called again,
    /// even if the feeder was mid-batch for another site.
    #[test]
    fn stopped_applier_is_never_called_again() {
        struct Slow {
            entered: AtomicBool,
            calls: Mutex<u64>,
        }
        impl RefreshApplier for Slow {
            fn apply_batch(&self, records: &[LogRecord], _wake: &Wake) -> Result<usize> {
                self.entered.store(true, Ordering::Release);
                *self.calls.lock() += 1;
                thread::sleep(Duration::from_millis(50));
                Ok(records.len())
            }
        }
        let logs = LogSet::new(3);
        let slow = Arc::new(Slow {
            entered: AtomicBool::new(false),
            calls: Mutex::new(0),
        });
        let stopped = collector();
        // Site 1 subscribes first, so the feeder serves it first.
        let slow_prop = start(1, &logs, Arc::clone(&slow) as _, None, vec![0; 3]);
        let stopped_prop = start(2, &logs, Arc::clone(&stopped) as _, None, vec![0; 3]);
        logs.log(SiteId::new(0)).append(&commit(0, 1, 3));
        wait_for(|| slow.entered.load(Ordering::Acquire));
        stopped_prop.stop();
        let seen = stopped.seen.lock().len();
        for seq in 2..=4 {
            logs.log(SiteId::new(0)).append(&commit(0, seq, 3));
        }
        wait_for(|| *slow.calls.lock() >= 2);
        thread::sleep(Duration::from_millis(60));
        assert_eq!(stopped.seen.lock().len(), seen, "stopped applier called");
        slow_prop.stop();
    }
}
