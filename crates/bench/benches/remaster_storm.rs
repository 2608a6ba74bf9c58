//! Remaster-storm microbenchmark: epoch-batched group remastering against
//! per-transaction remastering when a flash crowd sweeps across the cluster.
//!
//! The storm: a flash crowd lands on one site's entire seeded partition
//! block with single-partition transfers, making that site the runaway load
//! leader and arming the selector's imbalance probe for every partition in
//! the block — a *remaster storm*. Per-txn mode (epoch size 1) pays one
//! Release + one Grant round trip synchronously on the routing path for
//! every move; epoch mode queues the moves and the epoch flush coalesces
//! them into one `Release` + one `Grant` per (src, dst) site pair,
//! off the routing path.
//!
//! A steady-state control runs uniform traffic (no imbalance, so the probe
//! never queues anything) with epoch batching on against batching fully
//! off, bounding the cost of the per-route epoch bookkeeping itself.
//!
//! Writes `BENCH_remaster.json` at the repo root. CI gates the three
//! headline ratios (with noise slack); the multi-thread numbers are
//! meaningless on a 1-CPU runner, so the gate skips there (the `host.cpus`
//! field records what the run actually had).

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes};
use dynamast_common::ids::{ClientId, Key};
use dynamast_common::{StrategyWeights, SystemConfig};
use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast_site::proc::ProcCall;
use dynamast_site::system::{ClientSession, ReplicatedSystem};
use dynamast_workloads::smallbank::{self, SmallBankConfig, SmallBankWorkload};
use dynamast_workloads::Workload;

const SITES: usize = 3;
/// 19_200 customers at the default partition size of 100 → 192 checking
/// partitions, block-seeded 64 per site: the hot block is wide enough
/// that its queued moves coalesce into real multi-move batches.
const CUSTOMERS: u64 = 19_200;
const PARTITION_SIZE: u64 = 100;
const BLOCK: u64 = CUSTOMERS / PARTITION_SIZE / SITES as u64;
/// One client thread: the storm claim is about the *routing path* — per-txn
/// mode pays each move's release+grant round trips synchronously before the
/// triggering transaction executes, epoch mode does not. A single
/// latency-bound client exposes exactly that stall; piling on clients just
/// re-measures the host's CPU ceiling (and on a shared 1-CPU CI runner,
/// nothing else).
const THREADS: usize = 1;
/// Transactions per wave: enough to arm the imbalance probe and drive the
/// block's moves, short enough that the storm window is actually
/// storm-dominated (a long calm tail would dilute both modes equally).
const WAVE_TXNS: u64 = 120;
/// The flash crowd lands on site 1's block: the storm starts remote, and a
/// fresh system's load history is 100% storm traffic — the probe arms hard
/// and the whole block wants out at once.
const WAVES: [u64; 1] = [1];
/// Paired back-to-back runs; the headline numbers are medians of per-pair
/// ratios (the container shares its host, so single windows are noisy).
const PAIRS: usize = 5;

/// Splitmix64 — deterministic, seeded per thread.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn transfer(from: u64, to: u64, amount: i64) -> ProcCall {
    let mut args = Vec::with_capacity(8);
    args.put_i64(amount);
    ProcCall {
        proc_id: smallbank::PROC_SEND_PAYMENT,
        args: Bytes::from(args),
        write_set: vec![
            Key::new(smallbank::CHECKING, from),
            Key::new(smallbank::CHECKING, to),
        ],
        read_keys: vec![],
        read_ranges: vec![],
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Epoch size 1, zero wait budget: every queued move flushes
    /// synchronously on the routing path — per-transaction remastering
    /// through the identical probe/score/flush machinery.
    PerTxn,
    /// Real epochs: moves accumulate and the background probe thread
    /// flushes them as coalesced batches off the routing path.
    Batched,
    /// Batching fully off (steady-state control only): no epoch
    /// bookkeeping on the routing path at all.
    Unbatched,
}

/// Builds a loaded system with the paper's block-range seeded placement
/// (LAN network, instant service, pure-balance weights so storm moves are
/// driven by load alone).
fn build(mode: Mode) -> Arc<DynaMastSystem> {
    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_customers: CUSTOMERS,
        initial_balance: 1_000_000,
        ..SmallBankConfig::default()
    });
    let mut config = SystemConfig::new(SITES)
        .with_instant_service()
        .with_weights(StrategyWeights {
            balance: 10_000.0,
            delay: 0.0,
            intra_txn: 0.0,
            inter_txn: 0.0,
        });
    match mode {
        Mode::PerTxn => config = config.with_epoch_batching(1, 0),
        Mode::Batched => {
            config = config.with_epoch_batching(64, 1_000_000);
            config.epoch_interval = Duration::from_millis(10);
        }
        Mode::Unbatched => {}
    }
    let placements: Vec<_> = {
        let owner = workload.static_owner(SITES);
        smallbank::all_partitions(workload.config())
            .into_iter()
            .map(|p| (p, owner(p)))
            .collect()
    };
    let mut cfg = DynaMastConfig::adaptive(config, workload.catalog());
    cfg.initial_placements = placements.clone();
    if mode == Mode::Batched {
        // The probe thread is the epoch flusher; tighten its cadence so the
        // 10 ms epochs actually close near their deadline.
        cfg.probe_interval = Duration::from_millis(2);
    }
    let system = DynaMastSystem::build(cfg, workload.executor());
    for (p, s) in &placements {
        system.sites()[s.as_usize()].ownership().grant(*p);
    }
    workload
        .populate(&mut |key, row| system.load_row(key, row))
        .expect("populate");
    system
}

/// One measured run. `storm == true` drives the hot-block flash crowd;
/// otherwise uniform traffic across every partition (steady control).
/// Returns (txns_per_sec, remaster_rpcs, partitions_moved).
fn run_one(system: &DynaMastSystem, storm: bool, seed: u64) -> (f64, u64, u64) {
    let rpcs_before = system.selector().remaster_rpcs.get();
    let moved_before = system.selector().partitions_moved.get();
    let total_partitions = CUSTOMERS / PARTITION_SIZE;
    let start = Instant::now();
    thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            scope.spawn(move || {
                let id = ClientId::new(t as usize + 1);
                let mut session = ClientSession::new(id, SITES);
                let mut rng = Rng(seed ^ (t.wrapping_mul(0x9E37_79B9)));
                for wave in if storm { &WAVES[..] } else { &[0][..] } {
                    for i in 0..if storm {
                        WAVE_TXNS
                    } else {
                        WAVES.len() as u64 * WAVE_TXNS
                    } {
                        // Storm: round-robin the hot block's partitions
                        // (offset per thread so the block is covered fast).
                        // Steady: uniform over all partitions.
                        let p = if storm {
                            wave * BLOCK + (i + t * BLOCK / THREADS as u64) % BLOCK
                        } else {
                            rng.next() % total_partitions
                        };
                        let base = p * PARTITION_SIZE;
                        let from = base + rng.next() % PARTITION_SIZE;
                        let mut to = base + rng.next() % PARTITION_SIZE;
                        if to == from {
                            to = if to % PARTITION_SIZE == PARTITION_SIZE - 1 {
                                to - 1
                            } else {
                                to + 1
                            };
                        }
                        let amount = (rng.next() % 50) as i64 + 1;
                        system
                            .update(&mut session, &transfer(from, to, amount))
                            .expect("storm transfer");
                    }
                }
            });
        }
    });
    // Count any still-queued moves' flush against the storm window too:
    // per-txn mode already paid for every move inline.
    system.selector().flush_epoch().expect("final flush");
    let elapsed = start.elapsed();
    let txns = THREADS as u64 * WAVES.len() as u64 * WAVE_TXNS;
    (
        txns as f64 / elapsed.as_secs_f64(),
        system.selector().remaster_rpcs.get() - rpcs_before,
        system.selector().partitions_moved.get() - moved_before,
    )
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let cpus = thread::available_parallelism().map_or(0, |n| n.get());
    println!("remaster_storm: epoch-batched vs per-txn remastering under a flash crowd");
    println!(
        "  {SITES} sites, {} partitions ({BLOCK}/site), {THREADS} client thread(s), \
         {WAVE_TXNS} storm txns/thread, {cpus} CPUs",
        CUSTOMERS / PARTITION_SIZE
    );

    // Warm both storm paths once so allocator and code caches settle.
    run_one(&build(Mode::Batched), true, 0xA11CE);
    run_one(&build(Mode::PerTxn), true, 0xA11CE);

    let mut b_tput = Vec::new();
    let mut p_tput = Vec::new();
    let mut b_rpcs = Vec::new();
    let mut p_rpcs = Vec::new();
    let mut b_moved = Vec::new();
    let mut p_moved = Vec::new();
    let mut speedups = Vec::new();
    let mut reductions = Vec::new();
    for pair in 0..PAIRS {
        let seed = 0x5709_4000 + pair as u64;
        let (bt, br, bm) = run_one(&build(Mode::Batched), true, seed);
        let (pt, pr, pm) = run_one(&build(Mode::PerTxn), true, seed);
        println!(
            "  storm pair {pair}: batched {bt:>7.0} txns/s ({br} rpcs, {bm} moved)  \
             per-txn {pt:>7.0} txns/s ({pr} rpcs, {pm} moved)  \
             speedup {:.2}x  rpc reduction {:.2}x",
            bt / pt,
            pr as f64 / br.max(1) as f64
        );
        speedups.push(bt / pt);
        reductions.push(pr as f64 / br.max(1) as f64);
        b_tput.push(bt);
        p_tput.push(pt);
        b_rpcs.push(br as f64);
        p_rpcs.push(pr as f64);
        b_moved.push(bm as f64);
        p_moved.push(pm as f64);
    }

    let mut s_batched = Vec::new();
    let mut s_unbatched = Vec::new();
    let mut s_ratios = Vec::new();
    for pair in 0..PAIRS {
        let seed = 0x57EA_D400 + pair as u64;
        let (bt, _, _) = run_one(&build(Mode::Batched), false, seed);
        let (ut, _, _) = run_one(&build(Mode::Unbatched), false, seed);
        println!(
            "  steady pair {pair}: batched {bt:>7.0} txns/s  batching-off {ut:>7.0} txns/s  \
             ratio {:.2}",
            bt / ut
        );
        s_batched.push(bt);
        s_unbatched.push(ut);
        s_ratios.push(bt / ut);
    }

    let speedup = median(speedups);
    let reduction = median(reductions);
    let steady = median(s_ratios);
    println!(
        "  headline: storm speedup {speedup:.2}x, rpc reduction {reduction:.2}x, \
         steady ratio {steady:.2}"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"remaster_storm\",\n  \
         \"description\": \"Epoch-batched group remastering vs per-transaction remastering under a flash crowd: the storm hammers one site's entire {BLOCK}-partition seeded block with single-partition SmallBank transfers from a latency-bound client, arming the imbalance probe for the whole block at once. per_txn = epoch size 1, zero wait budget: every queued move flushes synchronously on the routing path (one Release + one Grant round trip per move, each grant additionally waiting for the destination replica to dominate the release vector). batched = 64-move / 10 ms epochs flushed off the routing path by the probe thread as one Release + one Grant per (src, dst) site pair, paying the grant's replication-lag wait once per batch instead of once per move. Both modes share the identical probe, Eq. 8 scoring, and flush machinery; LAN network (100us one-way), instant service, pure-balance weights. steady = uniform traffic over all partitions (probe never queues), epoch batching on vs fully off, bounding the per-route epoch bookkeeping cost. All headline numbers are medians of {PAIRS} paired back-to-back run ratios.\",\n  \
         \"note\": \"The storm client is single-threaded (the claim is about routing-path stalls, not host parallelism), but timing ratios on a shared 1-CPU runner are still noisy; CI gates the RPC reduction everywhere and skips the two timing gates below 2 CPUs (see host.cpus for what this run had).\",\n  \
         \"host\": {{\"os\": \"{os}\", \"arch\": \"{arch}\", \"cpus\": {cpus}}},\n  \
         \"config\": {{\n    \"sites\": {SITES},\n    \"partitions\": {parts},\n    \"partitions_per_site\": {BLOCK},\n    \"client_threads\": {THREADS},\n    \"storm_txns_per_thread\": {WAVE_TXNS},\n    \"batched_epoch_max_moves\": 64,\n    \"batched_epoch_interval_ms\": 10,\n    \"paired_runs\": {PAIRS},\n    \"cpus\": {cpus}\n  }},\n  \
         \"storm\": {{\n    \"batched_txns_per_sec\": {bt:.0},\n    \"per_txn_txns_per_sec\": {pt:.0},\n    \"batched_remaster_rpcs\": {br:.0},\n    \"per_txn_remaster_rpcs\": {pr:.0},\n    \"batched_partitions_moved\": {bm:.0},\n    \"per_txn_partitions_moved\": {pm:.0},\n    \"speedup\": {speedup:.3},\n    \"rpc_reduction\": {reduction:.3}\n  }},\n  \
         \"steady\": {{\n    \"batched_txns_per_sec\": {sb:.0},\n    \"unbatched_txns_per_sec\": {su:.0},\n    \"ratio\": {steady:.3}\n  }},\n  \
         \"acceptance\": {{\"rpc_reduction_min\": 3.0, \"storm_speedup_min\": 1.3, \"steady_ratio_min\": 0.9}}\n}}\n",
        os = std::env::consts::OS,
        arch = std::env::consts::ARCH,
        parts = CUSTOMERS / PARTITION_SIZE,
        bt = median(b_tput),
        pt = median(p_tput),
        br = median(b_rpcs),
        pr = median(p_rpcs),
        bm = median(b_moved),
        pm = median(p_moved),
        sb = median(s_batched),
        su = median(s_unbatched),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_remaster.json");
    std::fs::write(path, json).expect("write BENCH_remaster.json");
    println!("  wrote {path}");
}
