//! Metric definitions (names, units, bounds — mirrored in `BENCHMARK.json`)
//! and the reductions that turn a run's samples, spans and counter windows
//! into them.

use dynamast::common::config::RetryPolicy;
use dynamast::network::TrafficCategory;

use crate::probes::Probes;
use crate::run::{ClientLog, RunOutput, Sample};
use crate::stats::{
    imbalance, mean_u64, median, median_of_slices, median_slice_percentile, percentile_sorted,
    ratio,
};
use crate::tracing::{
    RecorderJoins, Span, EXEC_RPC, REFRESH_LAG, ROUTE_LOOKUP, ROUTE_READ, ROUTE_UPDATE,
    SELECTOR_HOP, SITE_BEGIN, SITE_COMMIT, SITE_EXECUTE, TXN,
};

/// End-to-end metrics: `(name, unit, better, bound)`. `bound` is the share
/// of the parent's median by which the metric may worsen before a change
/// counts as a regression; README.md justifies each from repeat runs.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("throughput_tps", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("update_p50_us", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// Client-visible latencies reported by both kinds of run (printed by the
/// untraced one, per-layer metrics of the traced one) but not gated: on the
/// near-saturated `ycsb_write` their spread over ten runs reached 0.28 to
/// 0.78 whenever the shared host turned noisy, above the 0.25 a bound may
/// be (README.md, "Bounds", has the numbers).
pub const UNGATED: [&str; 4] = [
    "client.update_p95_us",
    "client.read_p50_us",
    "client.read_p95_us",
    "client.latency_p95_us",
];

/// Per-layer metrics: `(name, unit, better)`. The prefix is the layer
/// (crate) the number belongs to. README.md says how each is taken and
/// which end-to-end metric it should move on which workload.
pub const PER_LAYER: [(&str, &str, &str); 76] = [
    ("core.route_update.mean_us", "us", "lower"),
    ("core.route_update.p95_us", "us", "lower"),
    ("core.route_lookup.mean_us", "us", "lower"),
    ("core.route_read.mean_us", "us", "lower"),
    ("core.remaster.ops_per_ktxn", "1/ktxn", "lower"),
    ("core.remaster.partitions_per_op", "count", "lower"),
    ("core.remaster.rpcs_per_op", "count", "lower"),
    ("core.remaster.release_rtt_us", "us", "lower"),
    ("core.remaster.grant_rtt_us", "us", "lower"),
    ("core.resubmits_per_ktxn", "1/ktxn", "lower"),
    ("core.routed_imbalance", "ratio", "lower"),
    ("core.masters_imbalance", "ratio", "lower"),
    ("core.stats.record_write_set_ns", "ns", "lower"),
    ("core.strategy.score_sites_ns", "ns", "lower"),
    ("core.partition_map.lookup_ns", "ns", "lower"),
    ("network.msgs_per_txn", "count", "lower"),
    ("network.bytes_per_txn", "bytes", "lower"),
    ("network.client_site.bytes_per_txn", "bytes", "lower"),
    ("network.remaster.msgs_per_ktxn", "1/ktxn", "lower"),
    ("network.replication.bytes_per_update", "bytes", "lower"),
    ("network.replication.bytes_per_txn", "bytes", "lower"),
    ("network.selector_hop.mean_us", "us", "lower"),
    ("network.residual.mean_us", "us", "lower"),
    ("network.residual.p95_us", "us", "lower"),
    ("network.deliver_to_begin.mean_us", "us", "lower"),
    ("network.rpc_roundtrip.p50_us", "us", "lower"),
    ("network.would_resend_per_ktxn", "1/ktxn", "lower"),
    ("site.begin.mean_us", "us", "lower"),
    ("site.begin.p95_us", "us", "lower"),
    ("site.execute.mean_us", "us", "lower"),
    ("site.commit.mean_us", "us", "lower"),
    ("site.commit.p95_us", "us", "lower"),
    ("site.aborts_per_ktxn", "1/ktxn", "lower"),
    ("site.pipeline.commit_ns", "ns", "lower"),
    ("site.apply_refresh.ns_per_record", "ns", "lower"),
    ("site.messages.encode_ns", "ns", "lower"),
    ("site.messages.decode_ns", "ns", "lower"),
    ("replication.refresh_lag.p50_us", "us", "lower"),
    ("replication.refresh_lag.p95_us", "us", "lower"),
    ("replication.log.bytes_per_update", "bytes", "lower"),
    ("replication.log.bytes_per_user_byte", "ratio", "lower"),
    ("replication.checkpoint.mean_ms", "ms", "lower"),
    ("replication.checkpoint.stall_pct", "%", "lower"),
    ("replication.recover_s", "s", "lower"),
    ("replication.log.disk_bytes", "bytes", "lower"),
    ("replication.log.append_ns", "ns", "lower"),
    ("replication.log.append_sync_us", "us", "lower"),
    ("replication.log.read_from.ns_per_record", "ns", "lower"),
    ("replication.record.encode_ns", "ns", "lower"),
    ("replication.record.decode_ns", "ns", "lower"),
    ("storage.read_ns", "ns", "lower"),
    ("storage.scan.ns_per_key", "ns", "lower"),
    ("storage.install_ns", "ns", "lower"),
    ("storage.install_batch.ns_per_entry", "ns", "lower"),
    ("storage.lock_write_set_ns", "ns", "lower"),
    ("storage.resident_bytes_per_user_byte", "ratio", "lower"),
    ("storage.versions_per_record", "ratio", "lower"),
    ("common.recorder.record_ns", "ns", "lower"),
    ("common.recorder.dropped_events", "count", "lower"),
    ("common.vv.merge_max_ns", "ns", "lower"),
    ("client.generator.ns_per_txn", "ns", "lower"),
    ("client.update_p50_us", "us", "lower"),
    ("client.update_p95_us", "us", "lower"),
    ("client.read_p50_us", "us", "lower"),
    ("client.read_p95_us", "us", "lower"),
    ("client.latency_p95_us", "us", "lower"),
    ("client.update_p99_us", "us", "lower"),
    ("client.read_p99_us", "us", "lower"),
    ("client.max_us", "us", "lower"),
    ("client.traced_tps", "1/s", "higher"),
    ("client.txn.mean_us", "us", "lower"),
    ("process.cpu_us_per_txn", "us", "lower"),
    ("process.peak_rss_mb", "mb", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
    ("budget.coverage", "ratio", "higher"),
];

/// One reported number.
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit from the same table.
    pub unit: &'static str,
}

/// Client-side view of one window.
pub struct WindowSamples {
    /// Successful update latencies in nanoseconds, ascending.
    pub update_ns: Vec<u64>,
    /// Successful read latencies in nanoseconds, ascending.
    pub read_ns: Vec<u64>,
    /// Successful transactions per whole one-second slice.
    pub slices: Vec<u64>,
    /// Successful update latencies of each slice, nanoseconds, ascending.
    pub slice_update_ns: Vec<Vec<u64>>,
    /// Successful read latencies of each slice, nanoseconds, ascending.
    pub slice_read_ns: Vec<Vec<u64>>,
    /// Transactions issued that completed in the window.
    pub attempted: u64,
    /// Of those, how many returned `Err`.
    pub failed: u64,
    /// Extra attempts over all transactions (traced client only).
    pub resubmits: u64,
}

impl WindowSamples {
    /// Collects every client's samples that completed in `[from_us, to_us)`.
    pub fn collect(clients: &[ClientLog], from_us: u64, to_us: u64) -> WindowSamples {
        let whole_slices = ((to_us - from_us) / 1_000_000) as usize;
        let mut w = WindowSamples {
            update_ns: Vec::new(),
            read_ns: Vec::new(),
            slices: vec![0; whole_slices],
            slice_update_ns: vec![Vec::new(); whole_slices],
            slice_read_ns: vec![Vec::new(); whole_slices],
            attempted: 0,
            failed: 0,
            resubmits: 0,
        };
        let in_window = |s: &&Sample| s.end_us >= from_us && s.end_us < to_us;
        for sample in clients.iter().flat_map(|c| &c.samples).filter(in_window) {
            w.attempted += 1;
            w.resubmits += u64::from(sample.resubmits);
            if !sample.ok {
                w.failed += 1;
                continue;
            }
            let slice = ((sample.end_us - from_us) / 1_000_000) as usize;
            let (pooled, per_slice) = if sample.update {
                (&mut w.update_ns, &mut w.slice_update_ns)
            } else {
                (&mut w.read_ns, &mut w.slice_read_ns)
            };
            pooled.push(sample.latency_ns);
            // The partial slice at the window's end is not a slice.
            if let Some(count) = w.slices.get_mut(slice) {
                *count += 1;
                per_slice[slice].push(sample.latency_ns);
            }
        }
        w.update_ns.sort_unstable();
        w.read_ns.sort_unstable();
        for slice in w.slice_update_ns.iter_mut().chain(&mut w.slice_read_ns) {
            slice.sort_unstable();
        }
        w
    }

    /// Successful transactions in the window.
    pub fn committed(&self) -> u64 {
        (self.update_ns.len() + self.read_ns.len()) as u64
    }

    /// Median of the one-second slices, transactions per second.
    pub fn throughput_tps(&self) -> f64 {
        median_of_slices(&self.slices, 1.0)
    }

    /// Update latency: median over slices of the slice's exact
    /// `q`-quantile, microseconds.
    pub fn update_us(&self, q: f64) -> f64 {
        median_slice_percentile(&self.slice_update_ns, q) / 1e3
    }

    /// Read latency, as [`WindowSamples::update_us`].
    pub fn read_us(&self, q: f64) -> f64 {
        median_slice_percentile(&self.slice_read_ns, q) / 1e3
    }

    /// Latency of all successful transactions, updates and reads together,
    /// as [`WindowSamples::update_us`].
    pub fn latency_us(&self, q: f64) -> f64 {
        let all: Vec<Vec<u64>> = self
            .slice_update_ns
            .iter()
            .zip(&self.slice_read_ns)
            .map(|(updates, reads)| {
                let mut slice: Vec<u64> = updates.iter().chain(reads).copied().collect();
                slice.sort_unstable();
                slice
            })
            .collect();
        median_slice_percentile(&all, q) / 1e3
    }

    /// The [`UNGATED`] latencies, in that order.
    pub fn ungated_latencies(&self) -> [f64; 4] {
        [
            self.update_us(0.95),
            self.read_us(0.50),
            self.read_us(0.95),
            self.latency_us(0.95),
        ]
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_secs: &[f64], window: &WindowSamples) -> Vec<Metric> {
    let mut out = MetricSet::default();
    out.set("throughput_tps", window.throughput_tps());
    out.set("latency_p50_us", window.latency_us(0.50));
    out.set("update_p50_us", window.update_us(0.50));
    out.set("setup_s", median(setup_secs));
    out.finish(&END_TO_END.map(|(name, unit, _, _)| (name, unit)))
}

/// Everything the traced run measured besides spans.
pub struct TracedInputs<'a> {
    /// The run (clients' samples and spans, counter snapshots).
    pub run: &'a RunOutput,
    /// The traced window's samples.
    pub traced: &'a WindowSamples,
    /// Recorder-side joins over the traced window.
    pub joins: &'a RecorderJoins,
    /// Recorder events lost to ring wrap in the traced window.
    pub recorder_wrapped: u64,
    /// Single-thread probes.
    pub probes: &'a Probes,
    /// User payload bytes visible across all replicas at the end of the run.
    pub visible_user_bytes: u64,
    /// Store statistics at the end of the run.
    pub resident_bytes: u64,
    /// Versions retained across all sites.
    pub versions: u64,
    /// Records across all sites.
    pub records: u64,
    /// Masters per site at the end of the run.
    pub masters_per_site: &'a [u64],
    /// Log bytes and user payload bytes of the commit records appended in
    /// the traced window.
    pub log_bytes: u64,
    /// See `log_bytes`.
    pub log_user_bytes: u64,
    /// See `log_bytes`.
    pub log_commits: u64,
    /// Timed `DynaMastSystem::recover` (0 when the scenario is in memory).
    pub recover_secs: f64,
    /// Bytes under the durable log directory (0 when in memory).
    pub disk_bytes: u64,
    /// Peak resident set size of the process, MiB.
    pub peak_rss_mb: f64,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(inputs: &TracedInputs<'_>) -> Vec<Metric> {
    let run = inputs.run;
    let (from_us, to_us) = (run.at_start.at_us, run.at_end.at_us);
    let traced = inputs.traced;
    // Whole one-second slices of the untraced reference windows on either
    // side of the traced one.
    let reference_slices: Vec<u64> = run
        .reference_us
        .iter()
        .flat_map(|&(from, to)| WindowSamples::collect(&run.clients, from, to).slices)
        .collect();
    let counters = run.at_start.delta_to(&run.at_end);
    let txns = traced.committed() as f64;
    let ktxn = txns / 1_000.0;
    let updates = counters.committed_updates as f64;

    // Spans of transactions that completed inside the traced window, each
    // with its self time (a root's spans follow it in its client's log).
    let spans: Vec<(&Span, u64)> = {
        let (from_ns, to_ns) = (from_us * 1_000, to_us * 1_000);
        let mut keep = Vec::new();
        for log in run.clients.iter().map(|c| &c.spans) {
            let mut root_in_window = false;
            for (span, own_ns) in log.spans.iter().zip(log.self_nanos()) {
                if span.name == TXN {
                    root_in_window = span.end_ns >= from_ns && span.end_ns < to_ns;
                }
                if root_in_window {
                    keep.push((span, own_ns));
                }
            }
        }
        keep
    };
    let lengths = |name: u8| -> Vec<u64> {
        let mut v: Vec<u64> = spans
            .iter()
            .filter(|(s, _)| s.name == name)
            .map(|(s, _)| s.nanos())
            .collect();
        v.sort_unstable();
        v
    };
    let self_times = |name: u8| -> Vec<u64> {
        let mut v: Vec<u64> = spans
            .iter()
            .filter(|(s, _)| s.name == name)
            .map(|&(_, own_ns)| own_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let route_update = lengths(ROUTE_UPDATE);
    let begin = lengths(SITE_BEGIN);
    let commit = lengths(SITE_COMMIT);
    let lag = lengths(REFRESH_LAG);
    // Self time of the RPC span: what the site phases inside it do not
    // cover (transit + worker-queue wait + thread hand-off + codec).
    let residual = self_times(EXEC_RPC);
    // Budget: the share of client.txn time that its child spans cover, i.e.
    // everything but the root's own self time.
    let root_ns: u64 = lengths(TXN).iter().sum();
    let root_self_ns: u64 = self_times(TXN).iter().sum();
    let roots = lengths(TXN).len() as f64;

    let traffic = |c: TrafficCategory| counters.traffic.get(c);
    let total_msgs: u64 = TrafficCategory::ALL
        .iter()
        .map(|&c| traffic(c).messages)
        .sum();
    let generator_ns: u64 = run.clients.iter().map(|c| c.generator_ns).sum();
    let generated: usize = run.clients.iter().map(|c| c.samples.len()).sum();
    let max_ns = traced
        .update_ns
        .last()
        .max(traced.read_ns.last())
        .copied()
        .unwrap_or(0);

    // Checkpoint stall: throughput of the one-second slices a checkpoint
    // overlapped against the others.
    let (ckpt_ms, stall_pct) = {
        let spans: Vec<_> = run
            .checkpoints
            .iter()
            .filter(|c| c.start_us >= from_us && c.end_us < to_us)
            .collect();
        let mean_ms = ratio(
            spans
                .iter()
                .map(|c| (c.end_us - c.start_us) as f64 / 1e3)
                .sum(),
            spans.len() as f64,
        );
        let mut during = Vec::new();
        let mut outside = Vec::new();
        for (i, &count) in traced.slices.iter().enumerate() {
            let (lo, hi) = (
                from_us + i as u64 * 1_000_000,
                from_us + (i as u64 + 1) * 1_000_000,
            );
            if spans.iter().any(|c| c.start_us < hi && c.end_us > lo) {
                during.push(count as f64);
            } else {
                outside.push(count as f64);
            }
        }
        let stall = if during.is_empty() || outside.is_empty() {
            0.0
        } else {
            (1.0 - ratio(median(&during), median(&outside))) * 100.0
        };
        (mean_ms, stall)
    };

    let reference_tps = median_of_slices(&reference_slices, 1.0);
    let p = inputs.probes;
    let mut out = MetricSet::default();
    out.set("core.route_update.mean_us", mean_u64(&route_update) / 1e3);
    out.set(
        "core.route_update.p95_us",
        percentile_sorted(&route_update, 0.95) / 1e3,
    );
    out.set(
        "core.route_lookup.mean_us",
        mean_u64(&lengths(ROUTE_LOOKUP)) / 1e3,
    );
    out.set(
        "core.route_read.mean_us",
        mean_u64(&lengths(ROUTE_READ)) / 1e3,
    );
    out.set(
        "core.remaster.ops_per_ktxn",
        ratio(counters.remaster_ops as f64, ktxn),
    );
    out.set(
        "core.remaster.partitions_per_op",
        ratio(
            counters.partitions_moved as f64,
            counters.remaster_ops as f64,
        ),
    );
    out.set(
        "core.remaster.rpcs_per_op",
        // Placements of cold partitions are grant RPCs too, but belong to no
        // remaster operation.
        ratio(
            counters.remaster_rpcs.saturating_sub(counters.placements) as f64,
            counters.remaster_ops as f64,
        ),
    );
    out.set(
        "core.remaster.release_rtt_us",
        mean_u64(&inputs.joins.release_rtt_us),
    );
    out.set(
        "core.remaster.grant_rtt_us",
        mean_u64(&inputs.joins.grant_rtt_us),
    );
    out.set(
        "core.resubmits_per_ktxn",
        ratio(traced.resubmits as f64, ktxn),
    );
    out.set(
        "core.routed_imbalance",
        imbalance(&counters.routed_per_site),
    );
    out.set("core.masters_imbalance", imbalance(inputs.masters_per_site));
    out.set("core.stats.record_write_set_ns", p.record_write_set_ns);
    out.set("core.strategy.score_sites_ns", p.score_sites_ns);
    out.set("core.partition_map.lookup_ns", p.partition_map_lookup_ns);
    out.set("network.msgs_per_txn", ratio(total_msgs as f64, txns));
    out.set(
        "network.bytes_per_txn",
        ratio(counters.traffic.total_bytes() as f64, txns),
    );
    out.set(
        "network.client_site.bytes_per_txn",
        ratio(traffic(TrafficCategory::ClientSite).bytes as f64, txns),
    );
    out.set(
        "network.remaster.msgs_per_ktxn",
        ratio(traffic(TrafficCategory::Remaster).messages as f64, ktxn),
    );
    let replication_bytes = traffic(TrafficCategory::Replication).bytes as f64;
    out.set(
        "network.replication.bytes_per_update",
        ratio(replication_bytes, updates),
    );
    out.set(
        "network.replication.bytes_per_txn",
        ratio(replication_bytes, txns),
    );
    out.set(
        "network.selector_hop.mean_us",
        mean_u64(&lengths(SELECTOR_HOP)) / 1e3,
    );
    out.set("network.residual.mean_us", mean_u64(&residual) / 1e3);
    out.set(
        "network.residual.p95_us",
        percentile_sorted(&residual, 0.95) / 1e3,
    );
    out.set(
        "network.deliver_to_begin.mean_us",
        mean_u64(&inputs.joins.deliver_to_begin_us),
    );
    out.set("network.rpc_roundtrip.p50_us", p.rpc_roundtrip_p50_us);
    // The benchmark raises the RPC attempt timeout so that nothing is sent
    // twice (`scenario::RPC_ATTEMPT_TIMEOUT`); this counts the RPCs the
    // library's own policy would have sent again, and so executed again.
    let resend_after_ns = RetryPolicy::standard().attempt_timeout.as_nanos() as u64;
    let exec_rpcs = lengths(EXEC_RPC);
    let would_resend = exec_rpcs.len() - exec_rpcs.partition_point(|&ns| ns <= resend_after_ns);
    out.set(
        "network.would_resend_per_ktxn",
        ratio(would_resend as f64, ktxn),
    );
    out.set("site.begin.mean_us", mean_u64(&begin) / 1e3);
    out.set("site.begin.p95_us", percentile_sorted(&begin, 0.95) / 1e3);
    out.set(
        "site.execute.mean_us",
        mean_u64(&lengths(SITE_EXECUTE)) / 1e3,
    );
    out.set("site.commit.mean_us", mean_u64(&commit) / 1e3);
    out.set("site.commit.p95_us", percentile_sorted(&commit, 0.95) / 1e3);
    out.set("site.aborts_per_ktxn", ratio(counters.aborts as f64, ktxn));
    out.set("site.pipeline.commit_ns", p.pipeline_commit_ns);
    out.set(
        "site.apply_refresh.ns_per_record",
        p.apply_refresh_ns_per_record,
    );
    out.set("site.messages.encode_ns", p.message_encode_ns);
    out.set("site.messages.decode_ns", p.message_decode_ns);
    out.set(
        "replication.refresh_lag.p50_us",
        percentile_sorted(&lag, 0.50) / 1e3,
    );
    out.set(
        "replication.refresh_lag.p95_us",
        percentile_sorted(&lag, 0.95) / 1e3,
    );
    out.set(
        "replication.log.bytes_per_update",
        ratio(inputs.log_bytes as f64, inputs.log_commits as f64),
    );
    out.set(
        "replication.log.bytes_per_user_byte",
        ratio(inputs.log_bytes as f64, inputs.log_user_bytes as f64),
    );
    out.set("replication.checkpoint.mean_ms", ckpt_ms);
    out.set("replication.checkpoint.stall_pct", stall_pct);
    out.set("replication.recover_s", inputs.recover_secs);
    out.set("replication.log.disk_bytes", inputs.disk_bytes as f64);
    out.set("replication.log.append_ns", p.log_append_ns);
    out.set("replication.log.append_sync_us", p.log_append_sync_us);
    out.set(
        "replication.log.read_from.ns_per_record",
        p.log_read_from_ns_per_record,
    );
    out.set("replication.record.encode_ns", p.record_encode_ns);
    out.set("replication.record.decode_ns", p.record_decode_ns);
    out.set("storage.read_ns", p.store_read_ns);
    out.set("storage.scan.ns_per_key", p.store_scan_ns_per_key);
    out.set("storage.install_ns", p.store_install_ns);
    out.set(
        "storage.install_batch.ns_per_entry",
        p.store_install_batch_ns_per_entry,
    );
    out.set("storage.lock_write_set_ns", p.store_lock_write_set_ns);
    out.set(
        "storage.resident_bytes_per_user_byte",
        ratio(
            inputs.resident_bytes as f64,
            inputs.visible_user_bytes as f64,
        ),
    );
    out.set(
        "storage.versions_per_record",
        ratio(inputs.versions as f64, inputs.records as f64),
    );
    out.set("common.recorder.record_ns", p.recorder_record_ns);
    out.set(
        "common.recorder.dropped_events",
        (counters.recorder_dropped + inputs.recorder_wrapped) as f64,
    );
    out.set("common.vv.merge_max_ns", p.vv_merge_max_ns);
    out.set(
        "client.generator.ns_per_txn",
        ratio(generator_ns as f64, generated as f64),
    );
    out.set("client.update_p50_us", traced.update_us(0.50));
    for (name, value) in UNGATED.into_iter().zip(traced.ungated_latencies()) {
        out.set(name, value);
    }
    out.set(
        "client.update_p99_us",
        percentile_sorted(&traced.update_ns, 0.99) / 1e3,
    );
    out.set(
        "client.read_p99_us",
        percentile_sorted(&traced.read_ns, 0.99) / 1e3,
    );
    out.set("client.max_us", max_ns as f64 / 1e3);
    out.set("client.traced_tps", traced.throughput_tps());
    out.set("client.txn.mean_us", ratio(root_ns as f64 / 1e3, roots));
    out.set(
        "process.cpu_us_per_txn",
        ratio(counters.cpu_secs * 1e6, txns),
    );
    out.set("process.peak_rss_mb", inputs.peak_rss_mb);
    out.set(
        "trace.overhead_pct",
        (1.0 - ratio(traced.throughput_tps(), reference_tps)) * 100.0,
    );
    out.set("trace.spans", spans.len() as f64);
    out.set(
        "budget.coverage",
        1.0 - ratio(root_self_ns as f64, root_ns as f64),
    );
    out.finish(&PER_LAYER.map(|(name, unit, _)| (name, unit)))
}

/// Collects values by name and emits them in a table's order, so a metric
/// can neither be dropped nor paired with the wrong unit.
#[derive(Default)]
struct MetricSet {
    values: Vec<(&'static str, f64)>,
}

impl MetricSet {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn finish(self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        assert_eq!(
            self.values.len(),
            table.len(),
            "metric count differs from its table"
        );
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("metric {name} was not computed"))
                    .1;
                Metric { name, value, unit }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end_us: u64, latency_ns: u64, update: bool, ok: bool) -> Sample {
        Sample {
            end_us,
            latency_ns,
            update,
            ok,
            resubmits: 0,
        }
    }

    #[test]
    fn window_keeps_only_samples_that_completed_inside_it() {
        let log = ClientLog {
            samples: vec![
                sample(999_999, 10, true, true),    // before the window
                sample(1_000_000, 30, true, true),  // first slice
                sample(1_500_000, 20, false, true), // first slice
                sample(2_200_000, 40, true, false), // failed
                sample(2_900_000, 50, true, true),  // second slice
                sample(3_100_000, 60, true, true),  // partial third slice
                sample(3_500_000, 70, true, true),  // after the window
            ],
            updates_ok: 0,
            deposited: 0,
            generator_ns: 0,
            spans: Default::default(),
        };
        let w = WindowSamples::collect(&[log], 1_000_000, 3_400_000);
        assert_eq!(w.attempted, 5);
        assert_eq!(w.failed, 1);
        assert_eq!(w.update_ns, vec![30, 50, 60]);
        assert_eq!(w.read_ns, vec![20]);
        // Two whole one-second slices; the partial third is not a slice.
        assert_eq!(w.slices, vec![2, 1]);
        assert_eq!(w.committed(), 4);
    }

    #[test]
    fn metric_tables_have_unique_contract_conforming_names() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in &names {
            assert!(name.len() <= 64 && ok(name, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "{unit}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }
}
