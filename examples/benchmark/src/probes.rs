//! Single-thread probes: the cost of one call into each layer's public
//! functions, on inputs sampled from the scenario's own generator. They run
//! after the deployment has shut down, so nothing competes for the cores,
//! and they explain `process.cpu_us_per_txn` — per-call CPU cost, no waiting.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use dynamast::common::codec::{encode_to_vec, Decode};
use dynamast::common::config::{FsyncMode, NetworkConfig};
use dynamast::common::ids::{ClientId, Key, PartitionId, SiteId};
use dynamast::common::trace::{FlightRecorder, TraceKind, TracePayload, TraceSite};
use dynamast::common::{Row, Value, VersionVector};
use dynamast::core::partition_map::PartitionMap;
use dynamast::core::stats::{AccessStats, StatsConfig};
use dynamast::core::strategy::{best_site, score_sites, CoAccess, ScoreInputs};
use dynamast::network::{EndpointId, Network, TrafficCategory};
use dynamast::replication::log::DurableLog;
use dynamast::replication::record::{LogRecord, WriteEntry};
use dynamast::site::clock::SiteClock;
use dynamast::site::messages::SiteRequest;
use dynamast::site::pipeline::{apply_refresh_batch, CommitPipeline};
use dynamast::site::proc::ProcCall;
use dynamast::storage::{Store, VersionStamp};
use dynamast::workloads::TxnKind;

use crate::scenario::{Scenario, NUM_SITES};
use crate::stats::{median, percentile_sorted};

/// Results, one field per probe metric.
#[derive(Default)]
pub struct Probes {
    pub record_write_set_ns: f64,
    pub score_sites_ns: f64,
    pub partition_map_lookup_ns: f64,
    pub rpc_roundtrip_p50_us: f64,
    pub pipeline_commit_ns: f64,
    pub apply_refresh_ns_per_record: f64,
    pub message_encode_ns: f64,
    pub message_decode_ns: f64,
    pub log_append_ns: f64,
    pub log_append_sync_us: f64,
    pub log_read_from_ns_per_record: f64,
    pub record_encode_ns: f64,
    pub record_decode_ns: f64,
    pub store_read_ns: f64,
    pub store_scan_ns_per_key: f64,
    pub store_install_ns: f64,
    pub store_install_batch_ns_per_entry: f64,
    pub store_lock_write_set_ns: f64,
    pub recorder_record_ns: f64,
    pub vv_merge_max_ns: f64,
}

/// Transactions sampled from the generator for probe inputs.
const SAMPLED_TXNS: usize = 512;
/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 5;
/// Calls in the pilot batch that sizes the timed ones.
const PILOT_CALLS: usize = 16;
/// Target length of one timed batch, nanoseconds.
const BATCH_NANOS: f64 = 10e6;
/// Most calls in one timed batch (bounds what growing structures, such as
/// the probed log, accumulate).
const MAX_BATCH_CALLS: usize = 20_000;
/// Longest range one scan of the scan probe covers, in record ids.
const MAX_SCAN_IDS: u64 = 1_000;
/// Records per refresh run, as in the issue that defined the benchmark.
const REFRESH_RUN: usize = 64;

/// Median over `BATCHES` batches of the mean nanoseconds per call of `f`.
/// A short pilot sizes the batches so that one probe takes about
/// `BATCHES * BATCH_NANOS` whatever a call costs; `f` receives a running
/// call index to cycle through its inputs.
fn time_ns(mut f: impl FnMut(usize)) -> f64 {
    let mut index = 0usize;
    let mut batch = |calls: usize| {
        let t0 = Instant::now();
        for _ in 0..calls {
            f(index);
            index += 1;
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    };
    let pilot = batch(PILOT_CALLS);
    let calls = ((BATCH_NANOS / pilot.max(1.0)) as usize).clamp(PILOT_CALLS, MAX_BATCH_CALLS);
    let per_call: Vec<f64> = (0..BATCHES).map(|_| batch(calls)).collect();
    median(&per_call)
}

/// Runs every probe for `scenario`. `scratch` is a directory the persistent
/// log probe may create files under.
pub fn run(scenario: &Scenario, seed: u64, scratch: &Path) -> Probes {
    let catalog = scenario.workload.catalog();
    let mut generator = scenario
        .workload
        .client(ClientId::new(CLIENT_FOR_PROBES), seed);
    let calls: Vec<(ProcCall, bool)> = (0..SAMPLED_TXNS)
        .map(|_| {
            let txn = generator.next_txn();
            (txn.call, txn.kind == TxnKind::Update)
        })
        .collect();
    let updates: Vec<&ProcCall> = calls.iter().filter(|(_, u)| *u).map(|(c, _)| c).collect();
    assert!(
        !updates.is_empty(),
        "generator produced no update in {SAMPLED_TXNS} txns"
    );

    // A private replica of the loaded database: probe inputs are real rows.
    let store = Store::new(catalog.clone(), scenario.system.mvcc_versions);
    let load_stamp = VersionStamp::new(SiteId::new(0), 0);
    scenario
        .workload
        .populate(&mut |key, row| store.install(key, load_stamp, row))
        .expect("populate probe store");
    let snapshot = VersionVector::zero(NUM_SITES);
    let row_for = |key: Key| -> Row {
        store
            .read(key, &snapshot)
            .ok()
            .flatten()
            .unwrap_or_else(|| Row::new(vec![Value::U64(key.record)]))
    };
    let write_sets: Vec<Vec<Key>> = updates.iter().map(|c| c.write_set.clone()).collect();
    let partition_sets: Vec<Vec<PartitionId>> = write_sets
        .iter()
        .map(|ws| {
            let mut p: Vec<PartitionId> = ws
                .iter()
                .map(|k| catalog.partition_of(*k).expect("write-set key in catalog"))
                .collect();
            p.sort_unstable();
            p.dedup();
            p
        })
        .collect();
    let master_of = |p: PartitionId| SiteId::new((p.raw() % NUM_SITES as u64) as usize);
    let n = write_sets.len();
    let mut probes = Probes::default();

    // core: statistics, scoring, partition-map lookup.
    let stats = AccessStats::new(
        StatsConfig {
            sample_rate: scenario.system.sample_rate,
            history_capacity: scenario.system.history_capacity,
            inter_window: scenario.system.inter_txn_window,
            max_partners: scenario.system.max_coaccess_partners,
        },
        NUM_SITES,
        seed,
    );
    let masters: Vec<Vec<Option<SiteId>>> = partition_sets
        .iter()
        .map(|ps| ps.iter().map(|p| Some(master_of(*p))).collect())
        .collect();
    let client = ClientId::new(CLIENT_FOR_PROBES);
    probes.record_write_set_ns = time_ns(|i| {
        stats.record_write_set(
            client,
            Instant::now(),
            &partition_sets[i % n],
            &masters[i % n],
        );
    });
    let site_vvs: Vec<VersionVector> = (0..NUM_SITES as u64)
        .map(|i| VersionVector::from_counts(vec![1_000 + i; NUM_SITES]))
        .collect();
    let cvv = VersionVector::zero(NUM_SITES);
    probes.score_sites_ns = time_ns(|i| {
        let parts = &partition_sets[i % n];
        let (snaps, site_load) = stats.snapshot(parts);
        let placed: Vec<(PartitionId, Option<SiteId>)> =
            parts.iter().map(|p| (*p, Some(master_of(*p)))).collect();
        let load: Vec<f64> = snaps.iter().map(|s| s.load).collect();
        let coaccess = |partners: &[(PartitionId, f64)]| -> Vec<CoAccess> {
            partners
                .iter()
                .map(|&(partner, probability)| CoAccess {
                    partner,
                    probability,
                    partner_master: Some(master_of(partner)),
                    in_write_set: parts.binary_search(&partner).is_ok(),
                })
                .collect()
        };
        let intra: Vec<Vec<CoAccess>> = snaps.iter().map(|s| coaccess(&s.intra.partners)).collect();
        let inter: Vec<Vec<CoAccess>> = snaps.iter().map(|s| coaccess(&s.inter.partners)).collect();
        black_box(best_site(&score_sites(&ScoreInputs {
            num_sites: NUM_SITES,
            weights: &scenario.system.weights,
            partitions: &placed,
            partition_load: &load,
            site_load: &site_load,
            intra: &intra,
            inter: &inter,
            site_vvs: &site_vvs,
            cvv: &cvv,
        })));
    });
    let map = PartitionMap::new();
    map.seed(partition_sets.iter().flatten().map(|p| (*p, master_of(*p))));
    probes.partition_map_lookup_ns = time_ns(|i| {
        let entries = map.entries_for(&partition_sets[i % n]);
        let guards = map.lock_shared(&entries);
        black_box(guards[0].master);
    });

    // network: one echo RPC over an instant fabric (two thread hand-offs).
    {
        let network = Network::new(NetworkConfig::instant(), seed);
        let endpoint = EndpointId::Site(0);
        let server = network.serve(endpoint, Arc::new(|payload: Bytes| payload), 1);
        let payload = Bytes::from(vec![0u8; 128]);
        let mut rtt_ns: Vec<u64> = (0..2_000)
            .map(|_| {
                let t0 = Instant::now();
                network
                    .rpc(endpoint, TrafficCategory::ClientSite, payload.clone())
                    .expect("echo rpc");
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        drop(server);
        rtt_ns.sort_unstable();
        probes.rpc_roundtrip_p50_us = percentile_sorted(&rtt_ns, 0.5) / 1e3;
    }

    // site: request codec, commit pipeline, refresh apply.
    let requests: Vec<SiteRequest> = updates
        .iter()
        .map(|call| SiteRequest::ExecUpdate {
            txn_id: 1,
            min_vv: VersionVector::zero(NUM_SITES),
            proc: (*call).clone(),
            check_mastery: true,
        })
        .collect();
    let encoded_requests: Vec<Bytes> = requests
        .iter()
        .map(|r| Bytes::from(encode_to_vec(r)))
        .collect();
    probes.message_encode_ns = time_ns(|i| {
        black_box(encode_to_vec(&requests[i % n]));
    });
    probes.message_decode_ns = time_ns(|i| {
        let mut slice = encoded_requests[i % n].clone();
        black_box(SiteRequest::decode(&mut slice).expect("decode request"));
    });

    // Commit records as site 1 would log them: after-images of the sampled
    // write sets, sequences 1..; reused by the log, codec and refresh probes.
    let origin = SiteId::new(1);
    let commit_record = |seq: u64, ws: &[Key]| {
        let mut tvv = VersionVector::zero(NUM_SITES);
        tvv.set(origin, seq);
        LogRecord::Commit {
            origin,
            tvv,
            writes: ws
                .iter()
                .map(|k| WriteEntry::new(*k, row_for(*k)))
                .collect(),
        }
    };
    let records: Vec<LogRecord> = (0..n)
        .map(|i| commit_record(i as u64 + 1, &write_sets[i]))
        .collect();
    let encoded_records: Vec<Bytes> = records
        .iter()
        .map(|r| Bytes::from(encode_to_vec(r)))
        .collect();
    probes.record_encode_ns = time_ns(|i| {
        black_box(encode_to_vec(&records[i % n]));
    });
    probes.record_decode_ns = time_ns(|i| {
        let mut slice = encoded_records[i % n].clone();
        black_box(LogRecord::decode(&mut slice).expect("decode record"));
    });
    {
        let log = Arc::new(DurableLog::for_site(origin));
        let pipeline = CommitPipeline::new(
            origin,
            Arc::new(SiteClock::new(origin, NUM_SITES)),
            Arc::clone(&log),
        );
        probes.pipeline_commit_ns = time_ns(|i| {
            let ticket = pipeline.begin();
            pipeline.commit_encoded(ticket, encoded_records[i % n].clone());
        });
    }
    {
        let log = DurableLog::for_site(origin);
        probes.log_append_ns = time_ns(|i| {
            black_box(log.append(&records[i % n]));
        });
        let total = log.len() as usize;
        let t0 = Instant::now();
        let (read, _) = log.read_from(0).expect("read_from");
        probes.log_read_from_ns_per_record = t0.elapsed().as_nanos() as f64 / total as f64;
        assert_eq!(read.len(), total);
    }
    {
        let dir = scratch.join("probe-log");
        let _ = std::fs::remove_dir_all(&dir);
        let log = DurableLog::open_persistent(
            origin,
            dir.clone(),
            scenario.system.durability.segment_bytes,
            FsyncMode::Group,
            NUM_SITES,
        )
        .expect("open probe log");
        // Single appender: every append closes its own gap, so each one is
        // a group of one and pays one fsync.
        probes.log_append_sync_us = time_ns(|i| {
            black_box(log.append(&records[i % n]));
        }) / 1e3;
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        // Refresh apply at a replica: runs of REFRESH_RUN consecutive commit
        // records from one origin, as the propagator hands them over.
        let clock = SiteClock::new(SiteId::new(0), NUM_SITES);
        let mut seq = 0u64;
        let per_run = time_ns(|i| {
            let batch: Vec<LogRecord> = (0..REFRESH_RUN)
                .map(|j| {
                    seq += 1;
                    commit_record(seq, &write_sets[(i * REFRESH_RUN + j) % n])
                })
                .collect();
            apply_refresh_batch(&clock, &store, batch).expect("apply refresh batch");
        });
        // Building the batch (row clones) is input preparation; time it
        // alone and take it out.
        let build = time_ns(|i| {
            let batch: Vec<LogRecord> = (0..REFRESH_RUN)
                .map(|j| commit_record(j as u64 + 1, &write_sets[(i * REFRESH_RUN + j) % n]))
                .collect();
            black_box(batch);
        });
        probes.apply_refresh_ns_per_record = (per_run - build).max(0.0) / REFRESH_RUN as f64;
    }

    // storage: point read, scan, install, batch install, write-set locks.
    let keys: Vec<Key> = write_sets.iter().flatten().copied().collect();
    let k = keys.len();
    probes.store_read_ns = time_ns(|i| {
        black_box(store.read(keys[i % k], &snapshot).expect("read"));
    });
    {
        let ranges: Vec<_> = calls
            .iter()
            .flat_map(|(c, _)| c.read_ranges.iter().copied())
            .collect();
        // Workloads without scans (SmallBank) scan the partition around
        // each sampled key instead.
        let spans: Vec<(Key, u64)> = if ranges.is_empty() {
            keys.iter()
                .take(64)
                .map(|key| {
                    let size = catalog.table(key.table).expect("table").partition_size;
                    (
                        Key::new(key.table, key.record / size * size),
                        size.min(MAX_SCAN_IDS),
                    )
                })
                .collect()
        } else {
            ranges
                .iter()
                .take(64)
                .map(|r| {
                    (
                        Key::new(r.table, r.start),
                        (r.end - r.start).min(MAX_SCAN_IDS),
                    )
                })
                .collect()
        };
        let mut scanned = 0usize;
        let t0 = Instant::now();
        for (start, len) in &spans {
            scanned += store
                .scan(start.table, start.record, start.record + len, &snapshot)
                .expect("scan")
                .len();
        }
        probes.store_scan_ns_per_key = t0.elapsed().as_nanos() as f64 / scanned.max(1) as f64;
    }
    let rows: Vec<Row> = keys.iter().map(|key| row_for(*key)).collect();
    let mut seq = 1u64 << 32;
    probes.store_install_ns = time_ns(|i| {
        seq += 1;
        store
            .install(
                keys[i % k],
                VersionStamp::new(origin, seq),
                rows[i % k].clone(),
            )
            .expect("install");
    });
    {
        let batches = (k / REFRESH_RUN).max(1);
        let mut build_ns = 0u128;
        let t0 = Instant::now();
        for b in 0..batches * 4 {
            let b0 = Instant::now();
            seq += 1;
            let entries: Vec<_> = (0..REFRESH_RUN)
                .map(|j| {
                    let at = (b * REFRESH_RUN + j) % k;
                    (keys[at], VersionStamp::new(origin, seq), rows[at].clone())
                })
                .collect();
            build_ns += b0.elapsed().as_nanos();
            store.install_batch(entries).expect("install batch");
        }
        probes.store_install_batch_ns_per_entry =
            (t0.elapsed().as_nanos() - build_ns) as f64 / (batches * 4 * REFRESH_RUN) as f64;
    }
    probes.store_lock_write_set_ns = time_ns(|i| {
        black_box(store.lock_write_set(&write_sets[i % n]));
    });

    // common: one recorder event, one version-vector merge.
    let recorder = FlightRecorder::new(1024);
    probes.recorder_record_ns = time_ns(|i| {
        recorder.record(
            i as u64,
            TraceSite::Site(0),
            TraceKind::TxnExecute,
            TracePayload::Span {
                us: 1,
                vv_wait_us: 0,
            },
        );
    });
    let mut acc = VersionVector::zero(NUM_SITES);
    probes.vv_merge_max_ns = time_ns(|i| {
        acc.merge_max(&site_vvs[i % NUM_SITES]);
        black_box(&acc);
    });
    probes
}

/// Client id the probes' generator and statistics use (distinct from the
/// run's clients so the seed-derived streams differ).
const CLIENT_FOR_PROBES: usize = 9;
