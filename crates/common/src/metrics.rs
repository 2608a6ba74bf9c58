//! Measurement primitives used by the benchmark harness.
//!
//! * [`LatencyHistogram`] — log-bucketed latency histogram with percentile
//!   queries (the paper reports averages, p90, p99, and full tail curves).
//! * [`Counter`] — a cheap shared event counter.
//! * [`TimeSeries`] — throughput-over-time recording for the adaptivity
//!   experiment (Fig. 5b).
//! * [`TxnTimings`] — the six latency categories of the paper's Figure 7
//!   breakdown.
//! * [`MetricsRegistry`] — named handles over all of the above with a single
//!   JSON snapshot export (schema: `schemas/metrics_snapshot.schema.json`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

/// Number of histogram buckets: covers 1µs .. ~1100s with ~9% resolution.
pub const BUCKETS: usize = 256;
/// Geometric bucket growth factor.
const GROWTH: f64 = 1.09;

/// The bucket index a latency of `micros` is recorded into. Public so
/// boundary consistency with [`bucket_upper_micros`] can be property-tested.
pub fn bucket_for(micros: u64) -> usize {
    if micros <= 1 {
        return 0;
    }
    let idx = (micros as f64).ln() / GROWTH.ln();
    (idx as usize).min(BUCKETS - 1)
}

/// The inclusive upper bound (µs) reported for `bucket` — what
/// [`LatencyHistogram::quantile`] returns when the quantile lands there.
pub fn bucket_upper_micros(bucket: usize) -> u64 {
    GROWTH.powi(bucket as i32 + 1) as u64
}

/// A log-bucketed latency histogram.
///
/// Recording is lock-free (per-bucket atomics); queries take a consistent
/// snapshot by summing the atomics. Resolution is ~9% of the value, which is
/// ample for reproducing the paper's latency *ratios*.
///
/// ```
/// use std::time::Duration;
/// use dynamast_common::metrics::LatencyHistogram;
///
/// let h = LatencyHistogram::new();
/// for ms in [1u64, 2, 3, 100] {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile(0.99) >= Duration::from_millis(90));
/// ```
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([const { AtomicU64::new(0) }; BUCKETS]),
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_for(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency, or zero if empty.
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.total_micros.load(Ordering::Relaxed) / n)
    }

    /// Largest recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_micros.load(Ordering::Relaxed))
    }

    /// The latency at quantile `q ∈ [0, 1]` (upper bucket bound), or zero if
    /// empty.
    pub fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_micros(
                    bucket_upper_micros(i).min(self.max_micros.load(Ordering::Relaxed).max(1)),
                );
            }
        }
        self.max()
    }

    /// A printable summary (count / mean / p50 / p90 / p99 / max).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// Resets all observations.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.total_micros.store(0, Ordering::Relaxed);
        self.max_micros.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time percentile summary of a [`LatencyHistogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Mean latency.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Maximum.
    pub max: Duration,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:?} p50={:?} p90={:?} p99={:?} max={:?}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// A shared monotone event counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// Fixed-interval throughput time series (Fig. 5b adaptivity curve).
///
/// Callers `tick(events)` once per interval; the series stores the events per
/// interval for later plotting/printing.
pub struct TimeSeries {
    interval: Duration,
    points: Mutex<Vec<u64>>,
}

impl TimeSeries {
    /// Creates a series with the given sampling interval (metadata only).
    pub fn new(interval: Duration) -> Self {
        TimeSeries {
            interval,
            points: Mutex::new(Vec::new()),
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Appends one interval's event count.
    pub fn tick(&self, events: u64) {
        self.points.lock().push(events);
    }

    /// Snapshot of all points so far.
    pub fn points(&self) -> Vec<u64> {
        self.points.lock().clone()
    }
}

/// The six latency categories of the paper's Figure 7 breakdown, accumulated
/// across transactions.
#[derive(Default)]
pub struct TxnTimings {
    /// Site-selector lock + master-location lookup time (~10% in the paper).
    pub lookup: LatencyHistogram,
    /// Routing decision incl. remastering (<1%).
    pub routing: LatencyHistogram,
    /// Network time between components (>40%).
    pub network: LatencyHistogram,
    /// Stored-procedure execution (~45%).
    pub execution: LatencyHistogram,
    /// Transaction begin: lock acquisition + session-freshness wait (<1%).
    pub begin: LatencyHistogram,
    /// Commit processing (~1%).
    pub commit: LatencyHistogram,
}

impl TxnTimings {
    /// Creates zeroed timings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total mean time across all categories (denominator for the breakdown
    /// percentages).
    pub fn total_mean(&self) -> Duration {
        self.categories()
            .iter()
            .map(|(_, h)| h.mean())
            .sum::<Duration>()
    }

    /// `(label, histogram)` pairs in the paper's presentation order.
    pub fn categories(&self) -> [(&'static str, &LatencyHistogram); 6] {
        [
            ("lookup", &self.lookup),
            ("routing", &self.routing),
            ("network", &self.network),
            ("execution", &self.execution),
            ("begin", &self.begin),
            ("commit", &self.commit),
        ]
    }
}

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A metric that can render itself as a JSON value. Implemented by the
/// measurement primitives in this module; downstream crates implement it for
/// their own aggregates (e.g. the network fabric's `TrafficStats`) so one
/// [`MetricsRegistry`] snapshot covers the whole deployment.
pub trait JsonMetric: Send + Sync {
    /// Renders the metric's current value as a JSON value (not a document).
    fn metric_json(&self) -> String;
}

impl JsonMetric for Counter {
    fn metric_json(&self) -> String {
        self.get().to_string()
    }
}

impl JsonMetric for LatencyHistogram {
    fn metric_json(&self) -> String {
        let s = self.summary();
        format!(
            "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            s.count,
            s.mean.as_micros(),
            s.p50.as_micros(),
            s.p90.as_micros(),
            s.p99.as_micros(),
            s.max.as_micros()
        )
    }
}

impl JsonMetric for TxnTimings {
    fn metric_json(&self) -> String {
        let fields: Vec<String> = self
            .categories()
            .iter()
            .map(|(label, h)| format!("\"{label}\":{}", h.metric_json()))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Named handles over the measurement primitives, with a single JSON
/// snapshot export.
///
/// Components obtain (or create) shared handles by name — `counter("…")`,
/// `histogram("…")`, `timings("…")` — and pre-existing aggregates (like the
/// network's traffic accounting) are attached with
/// [`MetricsRegistry::register_traffic`]. [`MetricsRegistry::snapshot_json`]
/// renders everything as one document with four stable top-level sections:
/// `counters`, `histograms`, `timings`, and `traffic`.
///
/// ```
/// use dynamast_common::metrics::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// reg.counter("selector.routed").add(3);
/// let json = reg.snapshot_json();
/// assert!(json.contains("\"selector.routed\":3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
    timings: Mutex<BTreeMap<String, Arc<TxnTimings>>>,
    traffic: Mutex<BTreeMap<String, Arc<dyn JsonMetric>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns the histogram registered under `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        Arc::clone(
            self.histograms
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(LatencyHistogram::new())),
        )
    }

    /// Returns the timing breakdown registered under `name`, creating it if
    /// absent.
    pub fn timings(&self, name: &str) -> Arc<TxnTimings> {
        Arc::clone(
            self.timings
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(TxnTimings::new())),
        )
    }

    /// Attaches an existing counter under `name` (replacing any previous
    /// registration of that name). Lets components keep their hot-path
    /// `Arc<Counter>` fields while still appearing in the snapshot.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        self.counters.lock().insert(name.to_string(), counter);
    }

    /// Attaches an existing histogram under `name` (replacing any previous
    /// registration of that name).
    pub fn register_histogram(&self, name: &str, histogram: Arc<LatencyHistogram>) {
        self.histograms.lock().insert(name.to_string(), histogram);
    }

    /// Attaches an externally owned traffic-style aggregate under `name`.
    pub fn register_traffic(&self, name: &str, traffic: Arc<dyn JsonMetric>) {
        self.traffic.lock().insert(name.to_string(), traffic);
    }

    /// Renders every registered metric as one JSON document.
    pub fn snapshot_json(&self) -> String {
        fn section<T: JsonMetric + ?Sized>(map: &BTreeMap<String, Arc<T>>) -> String {
            let fields: Vec<String> = map
                .iter()
                .map(|(name, m)| format!("\"{}\":{}", json_escape(name), m.metric_json()))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        format!(
            "{{\"counters\":{},\"histograms\":{},\"timings\":{},\"traffic\":{}}}",
            section(&self.counters.lock()),
            section(&self.histograms.lock()),
            section(&self.timings.lock()),
            section(&self.traffic.lock())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_count() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), Duration::from_micros(200));
        assert_eq!(h.max(), Duration::from_micros(300));
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bracket_values() {
        let h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Duration::from_micros(i * 10));
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // ~9% bucket resolution: p50 should land near 5ms.
        let p50us = p50.as_micros() as f64;
        assert!((4000.0..7000.0).contains(&p50us), "p50 = {p50us}µs");
        let p99us = p99.as_micros() as f64;
        assert!((8500.0..11500.0).contains(&p99us), "p99 = {p99us}µs");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        let s = h.summary();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn histogram_reset_clears_state() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_millis(5));
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn quantile_never_exceeds_max_observation() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(123));
        assert!(h.quantile(1.0) <= Duration::from_micros(123).max(h.max()));
    }

    #[test]
    fn counter_take_resets() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn time_series_records_points_in_order() {
        let ts = TimeSeries::new(Duration::from_secs(1));
        ts.tick(10);
        ts.tick(20);
        assert_eq!(ts.points(), vec![10, 20]);
        assert_eq!(ts.interval(), Duration::from_secs(1));
    }

    #[test]
    fn txn_timings_total_is_sum_of_category_means() {
        let t = TxnTimings::new();
        t.lookup.record(Duration::from_micros(100));
        t.execution.record(Duration::from_micros(400));
        assert_eq!(t.total_mean(), Duration::from_micros(500));
        assert_eq!(t.categories().len(), 6);
    }

    #[test]
    fn registry_handles_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        reg.counter("a").add(3);
        assert_eq!(reg.counter("a").get(), 5);
        let h = reg.histogram("lat");
        h.record(Duration::from_micros(10));
        assert_eq!(reg.histogram("lat").count(), 1);
    }

    #[test]
    fn registry_snapshot_has_stable_sections() {
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        reg.histogram("h").record(Duration::from_micros(50));
        reg.timings("txn").lookup.record(Duration::from_micros(5));
        struct Fake;
        impl JsonMetric for Fake {
            fn metric_json(&self) -> String {
                "{\"bytes\":7}".to_string()
            }
        }
        reg.register_traffic("net", Arc::new(Fake));
        let json = reg.snapshot_json();
        for needle in [
            "\"counters\":{\"c\":1}",
            "\"histograms\":{\"h\":{\"count\":1",
            "\"timings\":{\"txn\":{\"lookup\"",
            "\"traffic\":{\"net\":{\"bytes\":7}}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
