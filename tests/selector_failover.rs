//! Selector failover chaos tests (§V-C): kill the selector at every
//! enumerated crash point inside the remaster protocol mid-SmallBank run,
//! promote the warm standby, and assert the user-facing guarantees survive —
//! money conserved, snapshot pair-sums intact (SSSI), and every partition
//! mastered by exactly one site as witnessed by the live ownership tables.
//!
//! Crash injection is deterministic: the switch fires at a pass ordinal
//! derived from `(CHAOS_SEED, crash_point)`, both printed on every run, so
//! `CHAOS_SEED=<seed> cargo test --test selector_failover` replays a failure
//! bit-for-bit.

mod common;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dynamast::common::codec::{self, encode_to_vec};
use dynamast::common::ids::{ClientId, Key, PartitionId, SiteId};
use dynamast::common::{DynaError, VersionVector};
use dynamast::core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast::network::{CrashPoint, CrashSwitch, EndpointId, TrafficCategory};
use dynamast::site::messages::{expect_ok, SiteRequest};
use dynamast::site::system::{ClientSession, ReplicatedSystem};
use dynamast::workloads::smallbank::{self, SmallBankConfig, SmallBankWorkload};
use dynamast::workloads::Workload;

use common::{
    arm_auditor, arm_watchdog, assert_audit_clean, await_convergence, chaos_config, chaos_seed,
    pair_balance, tolerable, transfer, Rng,
};

const INITIAL: i64 = 10_000;
const CUSTOMERS: u64 = 1_200;
const SHARED: u64 = 800;
const SITES: usize = 3;

/// Builds a populated 3-site SmallBank deployment, optionally arming the
/// selector with a crash switch.
fn build_smallbank(switch: Option<Arc<CrashSwitch>>) -> Arc<DynaMastSystem> {
    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_customers: CUSTOMERS,
        initial_balance: INITIAL,
        ..SmallBankConfig::default()
    });
    let mut cfg = DynaMastConfig::adaptive(chaos_config(SITES), workload.catalog());
    cfg.crash_switch = switch;
    let system = DynaMastSystem::build(cfg, workload.executor());
    workload
        .populate(&mut |key, row| system.load_row(key, row))
        .unwrap();
    system
}

/// Every partition must have exactly one master as witnessed by the live
/// ownership tables, and the (promoted) selector's map must agree with each
/// live claim.
fn assert_single_mastership(system: &DynaMastSystem, seed: u64, context: &str) {
    let mut claimants: HashMap<PartitionId, SiteId> = HashMap::new();
    for site in system.sites() {
        for p in site.ownership().mastered_partitions() {
            // Skip the draining sentinel: a partition mid-release is
            // transiently marked, not mastered.
            if p.raw() & (1 << 63) != 0 {
                continue;
            }
            if let Some(other) = claimants.insert(p, site.id()) {
                panic!(
                    "{context}: partition {p:?} mastered by both {other:?} and {:?} \
                     (seed {seed:#x})",
                    site.id()
                );
            }
        }
    }
    let placements: HashMap<PartitionId, Option<SiteId>> =
        system.selector().map().placements().into_iter().collect();
    for (p, owner) in &claimants {
        assert_eq!(
            placements.get(p).copied().flatten(),
            Some(*owner),
            "{context}: selector map disagrees with the live owner of {p:?} (seed {seed:#x})"
        );
    }
    // And the converse: every placed partition the selector believes in has
    // a live claimant (no orphaned mastership after repair).
    for (p, master) in &placements {
        if let Some(master) = master {
            assert_eq!(
                claimants.get(p),
                Some(master),
                "{context}: selector names {master:?} for {p:?} but no live table claims it \
                 (seed {seed:#x})"
            );
        }
    }
}

/// Conservation: the global checking total is invariant under transfers, no
/// matter how many re-executions or failovers happened.
fn assert_conservation(system: &DynaMastSystem, seed: u64) {
    let target = system
        .sites()
        .iter()
        .map(|s| s.clock().current())
        .fold(VersionVector::zero(SITES), |acc, vv| acc.max_with(&vv));
    await_convergence(system, &target, seed);
    let store = system.sites()[0].clone();
    let total: i64 = (0..CUSTOMERS)
        .map(|customer| {
            store
                .store()
                .read(Key::new(smallbank::CHECKING, customer), &target)
                .unwrap()
                .expect("populated account vanished")
                .cell(0)
                .as_i64()
                .unwrap()
        })
        .sum();
    assert_eq!(
        total,
        CUSTOMERS as i64 * INITIAL,
        "money not conserved across failover (seed {seed:#x})"
    );
}

/// One sweep iteration: run SmallBank under contention until the selector
/// dies at `point`, promote the standby, and verify every invariant.
fn run_crash_point(point: CrashPoint) {
    let seed = chaos_seed() ^ point.code().wrapping_mul(0x517C_C1B7_2722_0A95);
    eprintln!("[failover] crash_point={point:?} CHAOS_SEED={seed:#x}");

    // The two batch crash points sit on the epoch-flush path only (between
    // its (src, dst) pairs; between a pair's release and its grant), not
    // the routing slow path: reaching them needs the flash-crowd shape
    // (every client hammering a small hot range) that keeps the imbalance
    // probe queueing moves.
    let hot_mix = matches!(
        point,
        CrashPoint::MidBatchRelease | CrashPoint::MidBatchGrant
    );

    let switch = Arc::new(CrashSwitch::new(seed, point));
    let system = build_smallbank(Some(Arc::clone(&switch)));
    let _watchdog = arm_watchdog(
        seed,
        format!("crash_point={point:?}"),
        60,
        Some(Arc::clone(system.network())),
    );
    // The audit plane shadows every failover run: a double-master window in
    // the handoff shows up as a write sequenced after the old master's
    // release, and an overwritten debit as two writes claiming the same
    // parent stamp — with a repro bundle either way.
    let auditor = arm_auditor(&system, true, &format!("failover crash_point={point:?}"));

    let stop = Arc::new(AtomicBool::new(false));
    let promoted = Arc::new(AtomicBool::new(false));
    let post_failover_commits = Arc::new(AtomicU64::new(0));
    let post_failover_reads = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&stop);
            let promoted = Arc::clone(&promoted);
            let post_commits = Arc::clone(&post_failover_commits);
            let post_reads = Arc::clone(&post_failover_reads);
            thread::spawn(move || {
                let mut session = ClientSession::new(ClientId::new(t as usize), SITES);
                let mut rng = Rng(seed ^ (t + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                let (mine_a, mine_b) = (1_000 + t, 1_100 + t);
                let mut last_cvv = session.cvv.clone();
                while !stop.load(Ordering::Relaxed) {
                    let was_promoted = promoted.load(Ordering::Acquire);
                    let result = match rng.next() % 3 {
                        0 | 1 if hot_mix => {
                            // Flash crowd: same-partition transfers over a
                            // two-partition hot set, so routing stays on the
                            // sole-master fast path while the hot master's
                            // load imbalance feeds the pending-move queue.
                            let from = rng.next() % 200;
                            let mut to = rng.next() % 200;
                            if to == from {
                                to = (to + 1) % 200;
                            }
                            let amount = (rng.next() % 200) as i64 + 1;
                            system
                                .update(&mut session, &transfer(from, to, amount))
                                .map(|_| ())
                        }
                        0 => {
                            // Contended transfers across the shared range
                            // keep mastership moving, so every remaster
                            // crash point is exercised.
                            let from = rng.next() % SHARED;
                            let mut to = rng.next() % SHARED;
                            if to == from {
                                to = (to + 1) % SHARED;
                            }
                            let amount = (rng.next() % 200) as i64 + 1;
                            system
                                .update(&mut session, &transfer(from, to, amount))
                                .map(|_| ())
                        }
                        1 => {
                            let amount = (rng.next() % 50) as i64 + 1;
                            system
                                .update(&mut session, &transfer(mine_a, mine_b, amount))
                                .map(|_| ())
                        }
                        _ => system
                            .read(&mut session, &pair_balance(mine_a, mine_b))
                            .map(|outcome| {
                                let mut slice = outcome.result.clone();
                                let sum = codec::get_i64(&mut slice).unwrap();
                                assert_eq!(
                                    sum,
                                    2 * INITIAL,
                                    "client {t}: torn snapshot of a private pair across \
                                     failover at {point:?} (seed {seed:#x})"
                                );
                                if was_promoted {
                                    post_reads.fetch_add(1, Ordering::Relaxed);
                                }
                            }),
                    };
                    match result {
                        Ok(()) => {
                            if was_promoted {
                                post_commits.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) if tolerable(&e) => {}
                        Err(e) => {
                            panic!("client {t}: unexpected error {e} at {point:?} (seed {seed:#x})")
                        }
                    }
                    assert!(
                        session.cvv.dominates(&last_cvv),
                        "client {t}: session vector regressed across failover at {point:?} \
                         (seed {seed:#x})"
                    );
                    last_cvv = session.cvv.clone();
                }
            })
        })
        .collect();

    // Wait for the armed crash point to be hit mid-protocol.
    let fire_deadline = Instant::now() + Duration::from_secs(30);
    while !switch.fired() {
        assert!(
            Instant::now() < fire_deadline,
            "crash point {point:?} was never reached under load (seed {seed:#x})"
        );
        thread::sleep(Duration::from_millis(2));
    }

    // The selector process is dead. Leave a window where clients hammer the
    // corpse (and any in-flight zombie RPCs land), then promote.
    let zombie = system.crash_selector();
    assert!(zombie.crashed(), "crash switch fired but selector lives");
    thread::sleep(Duration::from_millis(50));
    system
        .promote_standby()
        .unwrap_or_else(|e| panic!("promotion failed at {point:?}: {e} (seed {seed:#x})"));
    assert_eq!(
        system.selector().generation(),
        zombie.generation() + 1,
        "promotion must advance the fencing generation"
    );
    promoted.store(true, Ordering::Release);

    // Post-failover traffic: the promoted selector must route, remaster,
    // and preserve every session.
    thread::sleep(Duration::from_millis(700));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }

    let commits = post_failover_commits.load(Ordering::Relaxed);
    let reads = post_failover_reads.load(Ordering::Relaxed);
    eprintln!(
        "[failover] crash_point={point:?} post_failover_commits={commits} \
         post_failover_pair_reads={reads}"
    );
    assert!(
        commits > 0,
        "no transaction committed after promotion at {point:?} (seed {seed:#x})"
    );

    assert_conservation(&system, seed);
    assert_single_mastership(&system, seed, &format!("after {point:?}"));
    assert_audit_clean(&auditor, seed, &format!("failover crash_point={point:?}"));
}

/// The sweep: the selector dies at *every* crash point of the remaster
/// protocol, one full SmallBank run per point. `DYNA_CRASH_POINT=<Debug
/// name>` narrows the sweep to one point.
#[test]
fn selector_crash_sweep_covers_every_crash_point() {
    let only = std::env::var("DYNA_CRASH_POINT").ok();
    for point in CrashPoint::ALL {
        if let Some(only) = &only {
            if format!("{point:?}") != *only {
                continue;
            }
        }
        run_crash_point(point);
    }
}

/// Fencing: after promotion, the deposed selector's queued release/grant
/// RPCs are rejected by the data sites with `StaleSelector`, and mastership
/// stays single.
#[test]
fn zombie_selector_grants_are_fenced_out() {
    let seed = chaos_seed() ^ 0x50B1_E5E1;
    let system = build_smallbank(None);
    let _watchdog = arm_watchdog(
        seed,
        "zombie selector".into(),
        60,
        Some(Arc::clone(system.network())),
    );

    // Place some partitions by running traffic.
    let mut session = ClientSession::new(ClientId::new(0), SITES);
    let mut rng = Rng(seed);
    for _ in 0..200 {
        let from = rng.next() % SHARED;
        let to = (from + 1 + rng.next() % (SHARED - 1)) % SHARED;
        let _ = system.update(&mut session, &transfer(from, to, 5));
    }

    let zombie = system.crash_selector();
    let stale_generation = zombie.generation();
    system.promote_standby().unwrap();
    let live = system.selector();
    assert_eq!(live.generation(), stale_generation + 1);

    // Pick a partition with a live master.
    let (owner, partition) = system
        .sites()
        .iter()
        .find_map(|site| {
            site.ownership()
                .mastered_partitions()
                .into_iter()
                .find(|p| p.raw() & (1 << 63) == 0)
                .map(|p| (site.id(), p))
        })
        .expect("traffic placed at least one partition");
    let other = SiteId::new((owner.as_usize() + 1) % SITES);
    let retry = system.network().config().retry;

    // The zombie's queued release fires late against the owner…
    let release = SiteRequest::Release {
        moves: vec![(partition, 1_000_000)],
        generation: stale_generation,
    };
    let reply = system
        .network()
        .rpc_with_retry(
            &retry,
            None,
            EndpointId::Site(owner.raw()),
            TrafficCategory::Remaster,
            Bytes::from(encode_to_vec(&release)),
        )
        .unwrap();
    assert_eq!(
        expect_ok(&reply).unwrap_err(),
        DynaError::StaleSelector {
            observed: stale_generation,
            current: stale_generation + 1,
        },
        "fenced site must reject the zombie release"
    );

    // …and its queued grant fires late against another site.
    let grant = SiteRequest::Grant {
        grants: vec![(partition, 1_000_000, VersionVector::zero(SITES))],
        generation: stale_generation,
    };
    let reply = system
        .network()
        .rpc_with_retry(
            &retry,
            None,
            EndpointId::Site(other.raw()),
            TrafficCategory::Remaster,
            Bytes::from(encode_to_vec(&grant)),
        )
        .unwrap();
    assert_eq!(
        expect_ok(&reply).unwrap_err(),
        DynaError::StaleSelector {
            observed: stale_generation,
            current: stale_generation + 1,
        },
        "fenced site must reject the zombie grant"
    );

    // Neither message moved mastership: the owner still masters the
    // partition, the other site does not, and the promoted selector agrees.
    assert!(
        system.sites()[owner.as_usize()]
            .ownership()
            .mastered_partitions()
            .contains(&partition),
        "zombie release must not revoke mastership"
    );
    assert!(
        !system.sites()[other.as_usize()]
            .ownership()
            .mastered_partitions()
            .contains(&partition),
        "zombie grant must not install mastership"
    );
    assert_single_mastership(&system, seed, "after zombie fire");

    // The promoted selector still commits at its own generation.
    system
        .update(&mut session, &transfer(0, 1, 1))
        .expect("promoted selector must keep committing");
}

/// Same `(CHAOS_SEED, crash_point)` ⇒ the same run, bit for bit: the crash
/// fires at the same pass ordinal and the same transaction index, and every
/// transaction outcome before it matches.
#[test]
fn same_seed_and_crash_point_replay_identically() {
    let seed = chaos_seed() ^ 0xDE7E_2217;
    let a = crash_trace(seed);
    let b = crash_trace(seed);
    assert_eq!(a, b, "same (seed, crash point) must replay bit-for-bit");
}

/// Runs a deterministic single-threaded schedule against a crash-armed
/// system and records (trigger ordinal, fired, per-txn outcomes).
fn crash_trace(seed: u64) -> (u64, bool, Vec<u8>) {
    let switch = Arc::new(CrashSwitch::new(seed, CrashPoint::AfterGrantSend));
    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_customers: CUSTOMERS,
        initial_balance: INITIAL,
        ..SmallBankConfig::default()
    });
    let mut cfg = DynaMastConfig::adaptive(chaos_config(SITES), workload.catalog());
    cfg.crash_switch = Some(Arc::clone(&switch));
    // No background svv probe: the schedule below is the only driver, so
    // the trace is a pure function of the seed.
    cfg.probe_interval = Duration::ZERO;
    let system = DynaMastSystem::build(cfg, workload.executor());
    workload
        .populate(&mut |key, row| system.load_row(key, row))
        .unwrap();

    let mut session = ClientSession::new(ClientId::new(0), SITES);
    let mut rng = Rng(seed);
    let mut outcomes = Vec::new();
    for _ in 0..300 {
        let from = rng.next() % SHARED;
        let mut to = rng.next() % SHARED;
        if to == from {
            to = (to + 1) % SHARED;
        }
        let outcome = match system.update(&mut session, &transfer(from, to, 7)) {
            Ok(_) => 1u8,
            Err(e) if tolerable(&e) => 0u8,
            Err(e) => panic!("unexpected error in deterministic schedule: {e}"),
        };
        outcomes.push(outcome);
        if switch.fired() {
            break;
        }
    }
    (switch.trigger_ordinal(), switch.fired(), outcomes)
}
