//! Criterion micro-benchmarks for the core data structures and protocol
//! operations, plus the parallel-vs-sequential remastering ablation called
//! out in DESIGN.md.
//!
//! After the criterion benches, `main` runs the multi-threaded selector
//! routing benchmark (see [`selector_mt`]): the live selector's routing
//! throughput at 1/4/8 router threads and the flight recorder's overhead on
//! it, written to `BENCH_selector.json` at the repo root. Set
//! `DYNAMAST_MT_ONLY=1` to skip the criterion benches and run only that.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, BatchSize, Criterion};
use dynamast_common::codec::{encode_to_vec, Decode};
use dynamast_common::dist::Zipfian;
use dynamast_common::ids::{ClientId, Key, PartitionId, SiteId, TableId};
use dynamast_common::metrics::LatencyHistogram;
use dynamast_common::{Row, StrategyWeights, SystemConfig, Value, VersionVector};
use dynamast_core::partition_map::PartitionMap;
use dynamast_core::strategy::{best_site, score_sites, CoAccess, ScoreInputs};
use dynamast_replication::record::{LogRecord, WriteEntry};
use dynamast_storage::{Catalog, Store, VersionStamp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_version_vectors(c: &mut Criterion) {
    let mut group = c.benchmark_group("version_vector");
    let a = VersionVector::from_counts((0..8).map(|i| i * 1000).collect());
    let b = VersionVector::from_counts((0..8).map(|i| i * 999).collect());
    group.bench_function("merge_max_8d", |bencher| {
        bencher.iter_batched(
            || a.clone(),
            |mut x| {
                x.merge_max(&b);
                x
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("dominates_8d", |bencher| bencher.iter(|| a.dominates(&b)));
    group.bench_function("can_apply_refresh_8d", |bencher| {
        bencher.iter(|| b.can_apply_refresh(&a, SiteId::new(0)))
    });
    group.finish();
}

fn bench_storage(c: &mut Criterion) {
    let mut catalog = Catalog::new();
    let table = catalog.add_table("t", 2, 100);
    let store = Store::new(catalog, 4);
    for record in 0..10_000u64 {
        store
            .install(
                Key::new(table, record),
                VersionStamp::new(SiteId::new(0), 1),
                Row::new(vec![Value::U64(record), Value::Bytes(vec![0u8; 64])]),
            )
            .unwrap();
    }
    let begin = VersionVector::from_counts(vec![1]);
    let mut group = c.benchmark_group("storage");
    let mut rng = SmallRng::seed_from_u64(7);
    group.bench_function("mvcc_point_read", |bencher| {
        bencher.iter(|| {
            let record = rng.gen_range(0..10_000);
            store.read(Key::new(table, record), &begin).unwrap()
        })
    });
    group.bench_function("mvcc_install", |bencher| {
        let mut seq = 2u64;
        bencher.iter(|| {
            seq += 1;
            store
                .install(
                    Key::new(table, seq % 10_000),
                    VersionStamp::new(SiteId::new(0), seq),
                    Row::new(vec![Value::U64(seq), Value::Bytes(vec![0u8; 64])]),
                )
                .unwrap()
        })
    });
    group.bench_function("scan_200", |bencher| {
        bencher.iter(|| store.scan(table, 100, 300, &begin).unwrap())
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let record = LogRecord::Commit {
        origin: SiteId::new(2),
        tvv: VersionVector::from_counts(vec![10, 20, 30, 40]),
        writes: (0..3)
            .map(|i| WriteEntry {
                key: Key::new(TableId::new(0), i),
                row: Row::new(vec![Value::U64(i), Value::Bytes(vec![0u8; 64])]),
            })
            .collect(),
    };
    let encoded = Bytes::from(encode_to_vec(&record));
    let mut group = c.benchmark_group("codec");
    group.bench_function("encode_commit_record", |bencher| {
        bencher.iter(|| encode_to_vec(&record))
    });
    group.bench_function("decode_commit_record", |bencher| {
        bencher.iter(|| {
            let mut slice = encoded.clone();
            LogRecord::decode(&mut slice).unwrap()
        })
    });
    group.finish();
}

fn bench_strategy(c: &mut Criterion) {
    let weights = StrategyWeights::ycsb();
    let partitions: Vec<(PartitionId, Option<SiteId>)> = (0..3)
        .map(|i| (PartitionId::new(i), Some(SiteId::new(i % 4))))
        .collect();
    let partition_load = vec![10.0, 5.0, 2.0];
    let site_load = vec![100.0, 90.0, 110.0, 95.0];
    let coaccess: Vec<Vec<CoAccess>> = (0..3)
        .map(|i| {
            (0..8)
                .map(|j| CoAccess {
                    partner: PartitionId::new(100 + i * 8 + j),
                    probability: 0.1 * (j + 1) as f64,
                    partner_master: Some(SiteId::new(j % 4)),
                    in_write_set: false,
                })
                .collect()
        })
        .collect();
    let site_vvs: Vec<VersionVector> = (0..4)
        .map(|i| VersionVector::from_counts(vec![i * 10; 4]))
        .collect();
    let cvv = VersionVector::zero(4);
    c.bench_function("strategy_score_4_sites", |bencher| {
        bencher.iter(|| {
            let scores = score_sites(&ScoreInputs {
                num_sites: 4,
                weights: &weights,
                partitions: &partitions,
                partition_load: &partition_load,
                site_load: &site_load,
                intra: &coaccess,
                inter: &coaccess,
                site_vvs: &site_vvs,
                cvv: &cvv,
            });
            best_site(&scores)
        })
    });
}

fn bench_partition_map(c: &mut Criterion) {
    let map = PartitionMap::new();
    map.seed((0..10_000).map(|i| (PartitionId::new(i), SiteId::new(i % 4))));
    let mut rng = SmallRng::seed_from_u64(9);
    c.bench_function("partition_map_route_lookup", |bencher| {
        bencher.iter(|| {
            let p = PartitionId::new(rng.gen_range(0..10_000));
            let entries = map.entries_for(&[p]);
            let guards = map.lock_shared(&entries);
            guards[0].master
        })
    });
}

fn bench_metrics_and_dist(c: &mut Criterion) {
    let histogram = LatencyHistogram::new();
    c.bench_function("histogram_record", |bencher| {
        bencher.iter(|| histogram.record(Duration::from_micros(1234)))
    });
    let zipf = Zipfian::new(100_000, 0.75);
    let mut rng = SmallRng::seed_from_u64(11);
    c.bench_function("zipfian_sample", |bencher| {
        bencher.iter(|| zipf.sample(&mut rng))
    });
}

/// Ablation: parallel vs sequential release/grant (Algorithm 1's "parallel
/// execution of release and grant operations greatly speed up remastering").
/// Measured end-to-end through live DynaMast deployments with a real (LAN
/// latency) network: each iteration routes a write set whose partitions are
/// spread over the other sites, forcing release+grant per partition.
fn bench_remastering(c: &mut Criterion) {
    use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
    use dynamast_site::proc::{ProcCall, TxnCtx};

    struct Nop;
    impl dynamast_site::proc::ProcExecutor for Nop {
        fn execute(
            &self,
            _ctx: &mut dyn TxnCtx,
            _call: &ProcCall,
        ) -> dynamast_common::Result<Bytes> {
            Ok(Bytes::new())
        }
    }

    let mut group = c.benchmark_group("remastering");
    for (label, sequential) in [("parallel", false), ("sequential", true)] {
        let mut catalog = Catalog::new();
        let table = catalog.add_table("t", 1, 100);
        let mut config = SystemConfig::new(4).with_instant_service().with_seed(77);
        config.sequential_remastering = sequential;
        let system =
            DynaMastSystem::build(DynaMastConfig::adaptive(config, catalog), Arc::new(Nop));
        let selector = system.selector();
        let cvv = VersionVector::zero(4);
        // Pre-place a large partition pool round-robin over the sites, so
        // every iteration's 3-partition write set spans 3 distinct masters
        // and must remaster at least two of them.
        let pool: u64 = 120_000;
        selector.map().seed((0..pool).map(|i| {
            (
                dynamast_common::ids::partition_id(table, i),
                SiteId::new((i % 4) as usize),
            )
        }));
        for i in 0..pool {
            system.sites()[(i % 4) as usize]
                .ownership()
                .grant(dynamast_common::ids::partition_id(table, i));
        }
        let mut cursor = 0u64;
        group.bench_function(format!("route_3_spread_partitions_{label}"), |bencher| {
            bencher.iter(|| {
                let keys: Vec<Key> = (0..3)
                    .map(|j| Key::new(table, (cursor + j) * 100))
                    .collect();
                cursor += 3;
                selector
                    .route_update(ClientId::new(1), &cvv, &keys)
                    .unwrap()
                    .site
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(30);
    targets = bench_version_vectors, bench_storage, bench_codec, bench_strategy,
              bench_partition_map, bench_metrics_and_dist, bench_remastering
}

/// Multi-threaded selector routing throughput of the live `SiteSelector`
/// inside a DynaMast deployment.
///
/// Workload: the update mix routes a single-partition update over a
/// pre-placed pool (the sole-master fast path — no remastering RPCs, so
/// routing cost, statistics recording included, dominates); the read mix
/// routes freshness-checked reads. Threads use distinct clients and offset
/// round-robin cursors. The inter-transaction window is zero: at
/// microbenchmark rates one client's Δt window would hold thousands of sets.
mod selector_mt {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::{Duration, Instant};

    use bytes::Bytes;
    use dynamast_common::ids::{partition_id, ClientId, Key, SiteId, TableId};
    use dynamast_common::{SystemConfig, VersionVector};
    use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
    use dynamast_core::selector::SiteSelector;
    use dynamast_site::proc::{ProcCall, ProcExecutor, TxnCtx};
    use dynamast_storage::Catalog;

    const SITES: usize = 4;
    const POOL: u64 = 4096;
    const ROWS_PER_PARTITION: u64 = 100;
    const WARMUP: Duration = Duration::from_millis(150);
    const MEASURE: Duration = Duration::from_millis(500);
    const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

    #[derive(Clone, Copy)]
    enum Mix {
        /// 100% update routes: exercises the access-statistics path.
        Update,
        /// 100% read routes: exercises the freshness cache and read RNG.
        Read,
    }

    struct Nop;
    impl ProcExecutor for Nop {
        fn execute(
            &self,
            _ctx: &mut dyn TxnCtx,
            _call: &ProcCall,
        ) -> dynamast_common::Result<Bytes> {
            Ok(Bytes::new())
        }
    }

    struct Router {
        /// Keeps the deployment (sites, replication) alive for the run.
        system: Arc<DynaMastSystem>,
        selector: Arc<SiteSelector>,
        table: TableId,
        cvv: VersionVector,
    }

    impl Router {
        fn build() -> Self {
            let mut catalog = Catalog::new();
            let table = catalog.add_table("t", 1, ROWS_PER_PARTITION);
            let mut config = SystemConfig::new(SITES)
                .with_instant_service()
                .with_seed(77);
            config.inter_txn_window = Duration::ZERO;
            let system =
                DynaMastSystem::build(DynaMastConfig::adaptive(config, catalog), Arc::new(Nop));
            let selector = system.selector();
            selector.map().seed((0..POOL).map(|i| {
                (
                    partition_id(table, i),
                    SiteId::new((i % SITES as u64) as usize),
                )
            }));
            for i in 0..POOL {
                system.sites()[(i % SITES as u64) as usize]
                    .ownership()
                    .grant(partition_id(table, i));
            }
            Router {
                system,
                selector,
                table,
                cvv: VersionVector::zero(SITES),
            }
        }

        fn route(&self, mix: Mix, client: ClientId, part: u64) {
            match mix {
                Mix::Update => {
                    let key = Key::new(self.table, part * ROWS_PER_PARTITION);
                    std::hint::black_box(
                        self.selector
                            .route_update(client, &self.cvv, &[key])
                            .expect("fast-path route"),
                    );
                }
                Mix::Read => {
                    std::hint::black_box(self.selector.route_read(&self.cvv));
                }
            }
        }
    }

    /// Runs `threads` routing threads against `router` and returns measured
    /// throughput in ops/sec.
    fn run_one(router: &Arc<Router>, threads: usize, mix: Mix) -> f64 {
        // 0 = warmup, 1 = measuring, 2 = stop.
        let phase = Arc::new(AtomicU64::new(0));
        let ops = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(threads + 1));
        let mut handles = Vec::new();
        for t in 0..threads {
            let router = Arc::clone(router);
            let phase = Arc::clone(&phase);
            let ops = Arc::clone(&ops);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                let client = ClientId::new(t + 1);
                let mut cursor = (t as u64).wrapping_mul(POOL / 8 + 1) % POOL;
                let mut measured = 0u64;
                barrier.wait();
                loop {
                    match phase.load(Ordering::Relaxed) {
                        2 => break,
                        1 => measured += 1,
                        _ => {}
                    }
                    router.route(mix, client, cursor);
                    cursor = (cursor + 1) % POOL;
                }
                ops.fetch_add(measured, Ordering::Relaxed);
            }));
        }
        barrier.wait();
        thread::sleep(WARMUP);
        let t0 = Instant::now();
        phase.store(1, Ordering::Relaxed);
        thread::sleep(MEASURE);
        phase.store(2, Ordering::Relaxed);
        let elapsed = t0.elapsed();
        for h in handles {
            h.join().expect("router thread");
        }
        ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64()
    }

    /// Median of three interleaved runs: the container shares its host, so
    /// single windows swing by tens of percent.
    fn run_median(router: &Arc<Router>, threads: usize, mix: Mix) -> f64 {
        let mut runs: Vec<f64> = (0..3).map(|_| run_one(router, threads, mix)).collect();
        runs.sort_by(|a, b| a.total_cmp(b));
        runs[1]
    }

    /// Flight-recorder overhead on the 8-thread update-routing hot path:
    /// the same deployment measured with the recorder enabled (every route
    /// appends a `Route` event to the calling thread's ring) vs disabled
    /// (one relaxed atomic load, no event built). Returns
    /// `(on_ops_per_sec, off_ops_per_sec, overhead_percent)`.
    fn recorder_overhead() -> (f64, f64, f64) {
        let router = Arc::new(Router::build());
        let recorder = router.system.recorder().clone();
        // Interleave on/off medians so host noise hits both sides equally.
        recorder.set_enabled(true);
        let on = run_median(&router, 8, Mix::Update);
        recorder.set_enabled(false);
        let off = run_median(&router, 8, Mix::Update);
        recorder.set_enabled(true);
        let overhead = (off / on - 1.0) * 100.0;
        (on, off, overhead)
    }

    pub fn run_and_write_json() {
        println!("\nselector_mt: live selector routing throughput");
        let mut sections = Vec::new();
        for (mix, mix_name) in [(Mix::Update, "update_route"), (Mix::Read, "read_route")] {
            let router = Arc::new(Router::build());
            let mut points = Vec::new();
            for &threads in &THREAD_COUNTS {
                let tput = run_median(&router, threads, mix);
                println!("  {mix_name:<13} {threads} thread(s): {tput:>12.0} ops/s");
                points.push(format!("\"{threads}\": {tput:.0}"));
            }
            sections.push(format!(
                "    \"{mix_name}\": {{\"ops_per_sec\": {{{}}}}}",
                points.join(", ")
            ));
        }
        let (rec_on, rec_off, rec_overhead) = recorder_overhead();
        println!(
            "  flight recorder, update_route 8 threads: on {rec_on:.0} ops/s, \
             off {rec_off:.0} ops/s, overhead {rec_overhead:.1}%"
        );
        let json = format!(
            "{{\n  \"benchmark\": \"selector_route_hot_path\",\n  \
             \"description\": \"Live selector routing throughput at 1/4/8 router threads. update_route = single-partition sole-master fast path over a {POOL}-partition pre-placed pool (access-statistics recording under the tracker's one lock); read_route = freshness-checked read routing. Median of three {}ms windows after {}ms warmup.\",\n  \
             \"host\": {{\"os\": \"{os}\", \"arch\": \"{arch}\", \"cpus\": {cpus}}},\n  \
             \"config\": {{\n    \"sites\": {SITES},\n    \"sample_rate\": 1.0,\n    \"history_capacity\": 4096,\n    \"inter_window_ms\": 0\n  }},\n  \
             \"mixes\": {{\n{mixes}\n  }},\n  \
             \"flight_recorder\": {{\n    \
             \"description\": \"Always-on flight recorder cost on the 8-thread update-routing hot path: recorder enabled (every route appends a Route event to the calling thread's bounded ring) vs disabled (one relaxed atomic load). Acceptance bound: <= 5% overhead.\",\n    \
             \"update_route_8_threads_ops_per_sec\": {{\"recorder_on\": {rec_on:.0}, \"recorder_off\": {rec_off:.0}}},\n    \
             \"overhead_percent\": {rec_overhead:.2}\n  }}\n}}\n",
            MEASURE.as_millis(),
            WARMUP.as_millis(),
            mixes = sections.join(",\n"),
            cpus = thread::available_parallelism().map_or(0, |n| n.get()),
            os = std::env::consts::OS,
            arch = std::env::consts::ARCH,
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_selector.json");
        std::fs::write(path, json).expect("write BENCH_selector.json");
        println!("  wrote {path}");
    }
}

fn main() {
    if std::env::var_os("DYNAMAST_MT_ONLY").is_none() {
        benches();
    }
    selector_mt::run_and_write_json();
    // Emit the per-benchmark JSON report (CRITERION_JSON) and fail the run
    // if any benchmark recorded no measurement.
    criterion::finalize();
}
