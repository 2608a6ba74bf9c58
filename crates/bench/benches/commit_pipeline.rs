//! Commit-throughput microbenchmark: the shared [`CommitPipeline`] (a
//! reserved log slot as the sequence, install/serialize outside any global lock,
//! group-committed log, batched refresh apply) against a faithful replica of
//! the pre-refactor path (one `commit_order` mutex held across sequence
//! allocation, per-row clone-installs, record encoding, log append, and svv
//! publication; per-record clone-apply on the consume side).
//!
//! After the criterion single-op benches, `main` runs the multi-threaded
//! comparison at 1/4/8 committer threads — each run commits a fixed
//! transaction count and then drains the whole log into a replica, so the
//! measured window covers commit *and* replication apply — and writes the
//! numbers to `BENCH_commit.json` at the repo root. Set `DYNAMAST_MT_ONLY=1`
//! to skip the criterion benches and run only the comparison.

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use criterion::{criterion_group, BatchSize, Criterion};
use dynamast_common::audit::{self, AuditConfig, AuditSink};
use dynamast_common::codec::encode_to_vec;
use dynamast_common::ids::{Key, SiteId, TableId};
use dynamast_common::{FlightRecorder, FsyncMode, Row, Value, VersionVector};
use dynamast_replication::record::{LogRecord, WriteEntry};
use dynamast_replication::DurableLog;
use dynamast_site::pipeline::{collect_all, Install};
use dynamast_site::{apply_refresh_batch, apply_refresh_batch_with, CommitPipeline, SiteClock};
use dynamast_storage::{Catalog, ReadAt, Store, VersionStamp, Visit};
use parking_lot::Mutex;

const TABLE: TableId = TableId::new(0);
const WRITES_PER_TXN: usize = 8;
const ROW_FIELDS: usize = 25;
const ROW_FIELD_BYTES: usize = 40;
/// Total committed transactions per measured run (split across threads).
const TXNS_PER_RUN: u64 = 6000;
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table("t", 1, 4096);
    cat
}

/// A wide row (25 fields of 40 bytes, 1 KB payload): each deep clone the old
/// path performs (into the origin chain at commit, into the replica chain at
/// apply) costs one allocation per field, next to the flat encode/decode
/// work both paths share.
fn row(tag: u64) -> Row {
    Row::new(
        (0..ROW_FIELDS as u64)
            .map(|f| Value::Bytes(vec![(tag ^ f) as u8; ROW_FIELD_BYTES]))
            .collect(),
    )
}

fn txn_writes(thread: u64, i: u64) -> Vec<WriteEntry> {
    (0..WRITES_PER_TXN as u64)
        .map(|w| {
            let record = thread * 512 + (i * WRITES_PER_TXN as u64 + w) % 512;
            WriteEntry::new(Key::new(TABLE, record), row(i))
        })
        .collect()
}

/// One origin + one replica, committed to and drained by either path.
trait Committer: Send + Sync {
    fn commit(&self, writes: Vec<WriteEntry>);
    /// Applies every log record to the replica, returning the replica's
    /// final svv entry for the origin (sanity check).
    fn drain_into_replica(&self) -> u64;
}

// ---------------------------------------------------------------------
// Baseline: the pre-refactor commit critical section, verbatim shape
// ---------------------------------------------------------------------

/// Faithful replica of the old `commit_local`: one `commit_order` mutex held
/// across sequence → clone-install → encode+append → publish, and the old
/// per-record refresh apply that installs row clones under the replica's
/// clock lock.
struct MutexCommitter {
    site: SiteId,
    store: Store,
    log: DurableLog,
    clock: SiteClock,
    commit_order: Mutex<()>,
    replica: Store,
    replica_svv: Mutex<VersionVector>,
}

impl MutexCommitter {
    fn build() -> Self {
        MutexCommitter {
            site: SiteId::new(0),
            store: Store::new(catalog(), usize::MAX >> 1),
            log: DurableLog::new(),
            clock: SiteClock::new(SiteId::new(0), 2),
            commit_order: Mutex::new(()),
            replica: Store::new(catalog(), usize::MAX >> 1),
            replica_svv: Mutex::new(VersionVector::zero(2)),
        }
    }
}

impl Committer for MutexCommitter {
    fn commit(&self, writes: Vec<WriteEntry>) {
        let begin = VersionVector::zero(2);
        let _commit_order = self.commit_order.lock();
        // Under the mutex the next append lands at the log's length, and
        // slot i holds sequence i + 1.
        let seq = self.log.len() + 1;
        let stamp = VersionStamp::new(self.site, seq);
        for w in &writes {
            self.store.install(w.key, stamp, w.row.clone()).unwrap();
        }
        let mut tvv = begin;
        tvv.set(self.site, seq);
        let record = LogRecord::Commit {
            origin: self.site,
            tvv,
            writes,
        };
        let offset = self.log.append(&record);
        debug_assert_eq!(offset + 1, seq);
        self.clock.publish_up_to(seq);
    }

    fn drain_into_replica(&self) -> u64 {
        let (records, _) = self.log.read_from(0).unwrap();
        for record in records {
            let LogRecord::Commit {
                origin,
                tvv,
                writes,
            } = record
            else {
                unreachable!("commit-only workload")
            };
            // Old consume side: admission check and clone-installs both
            // inside the svv lock, one advance + (implicit) wake per record.
            let mut svv = self.replica_svv.lock();
            assert!(svv.can_apply_refresh(&tvv, origin));
            let stamp = VersionStamp::new(origin, tvv.get(origin));
            for w in &writes {
                self.replica.install(w.key, stamp, w.row.clone()).unwrap();
            }
            svv.set(origin, tvv.get(origin));
        }
        self.replica_svv.lock().get(self.site)
    }
}

// ---------------------------------------------------------------------
// The commit pipeline
// ---------------------------------------------------------------------

struct PipelineCommitter {
    site: SiteId,
    store: Store,
    log: Arc<DurableLog>,
    pipeline: CommitPipeline,
    replica: Store,
    replica_clock: SiteClock,
}

impl PipelineCommitter {
    fn build() -> Self {
        Self::build_with_log(Arc::new(DurableLog::new()))
    }

    /// Same pipeline over a caller-supplied log — the fsync comparison runs
    /// the identical commit path against persistent segmented logs.
    fn build_with_log(log: Arc<DurableLog>) -> Self {
        let site = SiteId::new(0);
        let clock = Arc::new(SiteClock::new(site, 2));
        PipelineCommitter {
            site,
            store: Store::new(catalog(), usize::MAX >> 1),
            log: Arc::clone(&log),
            pipeline: CommitPipeline::new(site, clock, log),
            replica: Store::new(catalog(), usize::MAX >> 1),
            replica_clock: SiteClock::new(SiteId::new(1), 2),
        }
    }
}

impl Committer for PipelineCommitter {
    fn commit(&self, writes: Vec<WriteEntry>) {
        let begin = VersionVector::zero(2);
        let ticket = self.pipeline.begin();
        let stamp = VersionStamp::new(self.site, ticket.seq());
        let mut tvv = begin;
        tvv.set(self.site, ticket.seq());
        let record = LogRecord::Commit {
            origin: self.site,
            tvv,
            writes,
        };
        let encoded = Bytes::from(encode_to_vec(&record));
        let LogRecord::Commit { writes, .. } = record else {
            unreachable!("constructed above")
        };
        for w in writes {
            self.store.install(w.key, stamp, w.row).unwrap();
        }
        self.pipeline.commit_encoded(ticket, encoded);
    }

    fn drain_into_replica(&self) -> u64 {
        let (records, _) = self.log.read_from(0).unwrap();
        apply_refresh_batch(&self.replica_clock, &self.replica, records).unwrap();
        self.replica_clock.current().get(self.site)
    }
}

// ---------------------------------------------------------------------
// Audit-overhead rider: the same pipeline with the invariant auditor armed
// ---------------------------------------------------------------------

/// The pipeline committer shadowed by the audit plane, emitting exactly
/// what the production paths emit: one [`audit::emit_write_effect`] per
/// version install (with the overwritten version's stamp read under the
/// same conditions `commit_local` reads it) and one per refresh install,
/// drained live by the sink's background poll thread.
struct AuditedCommitter {
    inner: PipelineCommitter,
    recorder: Arc<FlightRecorder>,
}

impl AuditedCommitter {
    fn build() -> (Arc<Self>, Arc<AuditSink>) {
        let recorder = FlightRecorder::new(4_096);
        let sink = AuditSink::arm(
            Arc::clone(&recorder),
            AuditConfig {
                // Wide byte-blob rows are not zero-sum transfers; the
                // ownership/exactly-once checkers stay armed (YCSB shape).
                conservation: false,
                ..AuditConfig::default()
            },
        );
        (
            Arc::new(AuditedCommitter {
                inner: PipelineCommitter::build(),
                recorder,
            }),
            sink,
        )
    }

    /// Emission-only fixture: the audit flag is armed on the recorder — every
    /// install pays the prev-stamp read, both signatures, and the ring push —
    /// but no sink thread drains. On a time-sliced single-CPU host the full
    /// rider charges the sink's processing to the committers too; this leg
    /// isolates the inline cost, which is what multi-core hosts actually pay.
    fn build_emit_only() -> Arc<Self> {
        let recorder = FlightRecorder::new(4_096);
        recorder.set_audit(true);
        Arc::new(AuditedCommitter {
            inner: PipelineCommitter::build(),
            recorder,
        })
    }
}

impl Committer for AuditedCommitter {
    fn commit(&self, writes: Vec<WriteEntry>) {
        let inner = &self.inner;
        let begin = VersionVector::zero(2);
        let ticket = inner.pipeline.begin();
        let stamp = VersionStamp::new(inner.site, ticket.seq());
        let mut tvv = begin;
        tvv.set(inner.site, ticket.seq());
        let record = LogRecord::Commit {
            origin: inner.site,
            tvv,
            writes,
        };
        let encoded = Bytes::from(encode_to_vec(&record));
        let LogRecord::Commit { writes, .. } = record else {
            unreachable!("constructed above")
        };
        let audit_values = self.recorder.audit_values();
        let mut effects = self
            .recorder
            .audit_enabled()
            .then(|| audit::EffectBatch::with_capacity(writes.len()));
        for w in writes {
            if let Some(batch) = effects.as_mut() {
                let prev = inner
                    .store
                    .visit(w.key, ReadAt::Latest, |row, s| {
                        (
                            if audit_values {
                                audit::value_signature(row)
                            } else {
                                0
                            },
                            s.origin.raw(),
                            s.sequence,
                        )
                    })
                    .ok()
                    .and_then(Visit::hit);
                batch.write_effect(
                    ticket.seq(),
                    inner.site.raw(),
                    0,
                    w.key.table.raw(),
                    w.key.record,
                    prev,
                    if audit_values {
                        audit::value_signature(&w.row)
                    } else {
                        0
                    },
                    inner.site.raw(),
                    ticket.seq(),
                    0,
                    0,
                    false,
                );
            }
            inner.store.install(w.key, stamp, w.row).unwrap();
        }
        if let Some(mut batch) = effects {
            batch.flush(&self.recorder);
        }
        inner.pipeline.commit_encoded(ticket, encoded);
    }

    fn drain_into_replica(&self) -> u64 {
        let inner = &self.inner;
        let (records, _) = inner.log.read_from(0).unwrap();
        let recorder = Arc::clone(&self.recorder);
        let audit_values = recorder.audit_values();
        const EFFECT_CHUNK: usize = 64;
        let mut batch = audit::EffectBatch::with_capacity(EFFECT_CHUNK);
        let mut collect = |run: &[LogRecord], installs: &mut Vec<Install>| {
            let first = installs.len();
            collect_all(run, installs);
            for (key, stamp, row) in &installs[first..] {
                batch.write_effect(
                    0,
                    1,
                    0,
                    key.table.raw(),
                    key.record,
                    None,
                    if audit_values {
                        audit::value_signature(row)
                    } else {
                        0
                    },
                    stamp.origin.raw(),
                    stamp.sequence,
                    0,
                    0,
                    true,
                );
                if batch.len() >= EFFECT_CHUNK {
                    batch.flush(&recorder);
                }
            }
        };
        apply_refresh_batch_with(
            &inner.replica_clock,
            &inner.replica,
            &records,
            None,
            Some(&mut collect),
        )
        .unwrap();
        batch.flush(&recorder);
        inner.replica_clock.current().get(inner.site)
    }
}

// ---------------------------------------------------------------------
// Criterion single-op benches (skipped under DYNAMAST_MT_ONLY)
// ---------------------------------------------------------------------

fn bench_single_thread_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("commit");
    let pipeline = PipelineCommitter::build();
    group.bench_function("pipeline_commit_txn", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            pipeline.commit(txn_writes(0, i));
        })
    });
    let baseline = MutexCommitter::build();
    group.bench_function("mutex_baseline_commit_txn", |b| {
        let mut i = 0;
        b.iter(|| {
            i += 1;
            baseline.commit(txn_writes(0, i));
        })
    });
    group.finish();
}

fn bench_refresh_apply(c: &mut Criterion) {
    c.bench_function("refresh_apply_batch_64_records", |b| {
        b.iter_batched(
            || {
                let committer = PipelineCommitter::build();
                for i in 0..64 {
                    committer.commit(txn_writes(0, i));
                }
                committer
            },
            |committer| committer.drain_into_replica(),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_single_thread_commit, bench_refresh_apply);

// ---------------------------------------------------------------------
// Multi-threaded comparison + BENCH_commit.json
// ---------------------------------------------------------------------

mod commit_mt {
    use super::*;

    fn run_one(committer: Arc<dyn Committer>, threads: usize) -> f64 {
        let per_thread = TXNS_PER_RUN / threads as u64;
        // Workload synthesis (hundreds of row-field allocations per
        // transaction) happens before the clock starts: the timed window
        // covers commit + drain work only, not generating the inputs.
        let workloads: Vec<Vec<Vec<WriteEntry>>> = (0..threads as u64)
            .map(|t| (0..per_thread).map(|i| txn_writes(t, i)).collect())
            .collect();
        let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
        let start = Instant::now();
        thread::scope(|scope| {
            for txns in workloads {
                let committer = Arc::clone(&committer);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for writes in txns {
                        committer.commit(writes);
                    }
                });
            }
            barrier.wait();
        });
        let committed = Instant::now();
        let applied = committer.drain_into_replica();
        let elapsed = start.elapsed();
        if std::env::var_os("DYNAMAST_PHASES").is_some() {
            println!(
                "    commit {:?}  drain {:?}",
                committed - start,
                elapsed - (committed - start)
            );
        }
        assert_eq!(applied, per_thread * threads as u64);
        (per_thread * threads as u64) as f64 / elapsed.as_secs_f64()
    }

    fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    }

    /// Five *paired* back-to-back runs per thread count, each on a fresh
    /// fixture (logs and version chains grow monotonically, so runs must
    /// not share state). The headline number is the median of the per-pair
    /// throughput ratios: the container shares its host and single windows
    /// swing by tens of percent, so pairing puts slow windows on both sides
    /// of each ratio instead of comparing medians from different windows.
    const PAIRS: usize = 5;

    /// Group-fsync cost rider: the same pipeline committing to *persistent*
    /// segmented logs, `fsync=off` vs `fsync=group`, at 4 committer threads.
    /// Observability only — the speedup gate always runs on the in-memory
    /// log (fsync cost is storage hardware, not commit-path code), so with
    /// `fsync=off` the headline numbers and their bound are unchanged. On a
    /// single-CPU host the section carries a skip marker instead of numbers,
    /// mirroring the CI bench gate's `host.cpus < 2` skip.
    const FSYNC_THREADS: usize = 4;
    const FSYNC_RUNS: usize = 3;
    const FSYNC_SEGMENT_BYTES: u64 = 8 << 20;

    fn fsync_section(cpus: usize) -> String {
        // DYNAMAST_FSYNC_RIDER=1 forces the rider on constrained hosts
        // (numbers will understate group-fsync batching; dev use only).
        if cpus < 2 && std::env::var_os("DYNAMAST_FSYNC_RIDER").is_none() {
            return "{\"skipped\": \"single-cpu host: committer threads cannot \
                    overlap the group-fsync batch window\"}"
                .to_string();
        }
        let bench_mode = |tag: &str, mode: FsyncMode| -> f64 {
            let mut runs = Vec::new();
            for i in 0..FSYNC_RUNS {
                let dir = std::env::temp_dir().join(format!(
                    "dynamast-bench-fsync-{tag}-{}-{i}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let log = DurableLog::open_persistent(
                    SiteId::new(0),
                    dir.clone(),
                    FSYNC_SEGMENT_BYTES,
                    mode,
                    1,
                )
                .expect("open persistent bench log");
                runs.push(run_one(
                    Arc::new(PipelineCommitter::build_with_log(Arc::new(log)))
                        as Arc<dyn Committer>,
                    FSYNC_THREADS,
                ));
                let _ = std::fs::remove_dir_all(&dir);
            }
            median(runs)
        };
        let off = bench_mode("off", FsyncMode::Off);
        let group = bench_mode("group", FsyncMode::Group);
        println!(
            "  fsync rider at {FSYNC_THREADS} threads (persistent log): \
             off {off:>10.0} txns/s, group {group:>10.0} txns/s, group/off {ratio:.2}x",
            ratio = group / off
        );
        format!(
            "{{\"threads\": {FSYNC_THREADS}, \"runs_per_mode\": {FSYNC_RUNS}, \
             \"segment_bytes\": {FSYNC_SEGMENT_BYTES}, \
             \"txns_per_sec\": {{\"fsync_off\": {off:.0}, \"fsync_group\": {group:.0}}}, \
             \"group_over_off\": {ratio:.3}}}",
            ratio = group / off
        )
    }

    /// Audit-overhead rider: paired 8-thread runs of the unarmed pipeline
    /// vs the same pipeline with the invariant auditor armed (write-effect
    /// emission per install + live sink draining). Acceptance bound: the
    /// audited/unarmed throughput ratio stays >= 0.95 (<= 5% overhead).
    const AUDIT_THREADS: usize = 8;

    fn audit_section(cpus: usize) -> String {
        // DYNAMAST_AUDIT_RIDER=1 forces the rider on constrained hosts
        // (time-sliced threads overstate the relative emission cost; dev
        // use only).
        if cpus < 2 && std::env::var_os("DYNAMAST_AUDIT_RIDER").is_none() {
            return "{\"skipped\": \"single-cpu host: the 8-thread overhead \
                    measurement needs threads that can actually contend\"}"
                .to_string();
        }
        let mut unarmed_runs = Vec::new();
        let mut audited_runs = Vec::new();
        let mut ratios = Vec::new();
        for _ in 0..PAIRS {
            let unarmed = run_one(
                Arc::new(PipelineCommitter::build()) as Arc<dyn Committer>,
                AUDIT_THREADS,
            );
            let (committer, sink) = AuditedCommitter::build();
            let audited = run_one(committer as Arc<dyn Committer>, AUDIT_THREADS);
            let report = sink.finish();
            assert!(
                report.violations.is_empty(),
                "auditor flagged the bench workload: {:?}",
                report.violations
            );
            unarmed_runs.push(unarmed);
            audited_runs.push(audited);
            ratios.push(audited / unarmed);
        }
        let (unarmed, audited, ratio) =
            (median(unarmed_runs), median(audited_runs), median(ratios));
        println!(
            "  audit rider at {AUDIT_THREADS} threads: unarmed {unarmed:>10.0} txns/s, \
             audited {audited:>10.0} txns/s, audited/unarmed {ratio:.3}"
        );
        if std::env::var_os("DYNAMAST_AUDIT_RIDER").is_some() {
            // Diagnostic only (never in the JSON): separates inline emission
            // cost from sink processing when attributing overhead by hand.
            let emit_only = run_one(
                AuditedCommitter::build_emit_only() as Arc<dyn Committer>,
                AUDIT_THREADS,
            );
            println!(
                "  audit rider emit-only (no sink thread): {emit_only:>10.0} txns/s, \
                 emit_only/unarmed {r:.3}",
                r = emit_only / unarmed
            );
        }
        format!(
            "{{\"threads\": {AUDIT_THREADS}, \"paired_runs\": {PAIRS}, \
             \"txns_per_sec\": {{\"unarmed\": {unarmed:.0}, \"audited\": {audited:.0}}}, \
             \"audited_over_unarmed\": {ratio:.3}}}"
        )
    }

    pub fn run_and_write_json() {
        println!("\ncommit_mt: commit + replication-drain throughput, pipeline vs mutex baseline");
        let build_pipeline = || Arc::new(PipelineCommitter::build()) as Arc<dyn Committer>;
        let build_mutex = || Arc::new(MutexCommitter::build()) as Arc<dyn Committer>;
        // Warm both paths once so allocator and code caches settle.
        run_one(build_pipeline(), 1);
        run_one(build_mutex(), 1);
        let mut pipeline = Vec::new();
        let mut baseline = Vec::new();
        let mut speedup = Vec::new();
        for &threads in &THREAD_COUNTS {
            let mut p_runs = Vec::new();
            let mut b_runs = Vec::new();
            let mut ratios = Vec::new();
            for _ in 0..PAIRS {
                let p = run_one(build_pipeline(), threads);
                let b = run_one(build_mutex(), threads);
                p_runs.push(p);
                b_runs.push(b);
                ratios.push(p / b);
            }
            let (p, b, r) = (median(p_runs), median(b_runs), median(ratios));
            println!(
                "  {threads} committer thread(s): pipeline {p:>10.0} txns/s, \
                 mutex baseline {b:>10.0} txns/s, paired speedup {r:.2}x"
            );
            pipeline.push((threads, p));
            baseline.push((threads, b));
            speedup.push(r);
        }
        let cpus = thread::available_parallelism().map_or(0, |n| n.get());
        let durability = fsync_section(cpus);
        let audit = audit_section(cpus);
        let fmt = |points: &[(usize, f64)]| -> String {
            points
                .iter()
                .map(|(t, v)| format!("      \"{t}\": {v:.0}"))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let json = format!(
            "{{\n  \"benchmark\": \"commit_pipeline\",\n  \
             \"description\": \"Commit throughput at 1/4/8 committer threads, measured end-to-end: each run commits {TXNS_PER_RUN} transactions ({WRITES_PER_TXN} writes of {row_bytes}-byte {ROW_FIELDS}-field rows each, pre-generated outside the timed window) and then drains the full log into a replica; the speedup is the median of paired back-to-back run ratios. pipeline = a reserved log slot as the sequence (no sequencing mutex), encode + version installs outside any global lock with rows moved (never cloned), group-committed log fill, and batched refresh apply on the consume side. mutex_baseline = faithful replica of the pre-refactor path: one commit_order mutex held across sequencing, per-row clone-install, encode, append, and publish, with per-record clone-apply at the replica.\",\n  \
             \"note\": \"Measured on a {cpus}-CPU container: committer threads cannot run in parallel, so multi-thread speedups reflect per-transaction cost only — chiefly the two deep row clones per write the old path performs (into the origin version chain at commit, into the replica chain at apply; one allocation per row field each) that the pipeline replaces with moves, plus per-record log/clock lock round-trips replaced by one batched fill/publish. On multi-core hardware the pipeline additionally stops serializing committers behind one mutex for the encode+install work.\",\n  \
             \"host\": {{\"os\": \"{os}\", \"arch\": \"{arch}\", \"cpus\": {cpus}}},\n  \
             \"config\": {{\n    \"txns_per_run\": {TXNS_PER_RUN},\n    \"writes_per_txn\": {WRITES_PER_TXN},\n    \"row_fields\": {ROW_FIELDS},\n    \"row_payload_bytes\": {row_bytes},\n    \"paired_runs_per_point\": {PAIRS},\n    \"cpus\": {cpus}\n  }},\n  \
             \"txns_per_sec\": {{\n    \"pipeline\": {{\n{p}\n    }},\n    \"mutex_baseline\": {{\n{b}\n    }}\n  }},\n  \
             \"speedup_pipeline_over_mutex\": {{\"1\": {s0:.3}, \"4\": {s1:.3}, \"8\": {s2:.3}}},\n  \
             \"measured_speedup_at_8_threads\": {s2:.3},\n  \
             \"durability_fsync\": {durability},\n  \
             \"audit_overhead\": {audit}\n}}\n",
            row_bytes = ROW_FIELDS * ROW_FIELD_BYTES,
            os = std::env::consts::OS,
            arch = std::env::consts::ARCH,
            p = fmt(&pipeline),
            b = fmt(&baseline),
            s0 = speedup[0],
            s1 = speedup[1],
            s2 = speedup[2],
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_commit.json");
        std::fs::write(path, json).expect("write BENCH_commit.json");
        println!("  wrote {path}");
    }
}

fn main() {
    if std::env::var_os("DYNAMAST_MT_ONLY").is_none() {
        benches();
    }
    commit_mt::run_and_write_json();
    // Emit the per-benchmark JSON report (CRITERION_JSON) and fail the run
    // if any benchmark recorded no measurement.
    criterion::finalize();
}
