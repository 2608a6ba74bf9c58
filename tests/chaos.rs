//! Chaos tests: full DynaMast deployments (and one multi-master deployment)
//! driven under a seeded fault plan — message drops, duplication, delay
//! spikes, directed partitions, and a site crash/restart — while asserting
//! the user-facing guarantees survive:
//! conserved balances, snapshot-consistent reads, monotone sessions, and
//! replica convergence after healing.
//!
//! Every fault draw hashes from one seed; a failing run prints the seed and
//! plan so `CHAOS_SEED=<seed> cargo test --test chaos` replays the exact
//! fault schedule.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dynamast::baselines::static_system::{StaticKind, StaticSystem};
use dynamast::common::ids::{ClientId, Key};
use dynamast::common::{codec, VersionVector};
use dynamast::core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast::network::{EndpointId, FaultPlan};
use dynamast::site::system::{ClientSession, ReplicatedSystem};
use dynamast::workloads::smallbank::{self, SmallBankConfig, SmallBankWorkload};
use dynamast::workloads::ycsb::{YcsbConfig, YcsbWorkload};
use dynamast::workloads::{TxnKind, Workload};

use common::{
    arm_auditor, arm_watchdog, assert_audit_clean, await_convergence, chaos_config, chaos_seed,
    pair_balance, tolerable, transfer, Rng,
};

/// SmallBank under 1% drops + duplication + a crash/restart of site 1.
///
/// Only SendPayment transfers run (no deposits): a transfer conserves money
/// under at-least-once delivery — every re-execution moves the amount again
/// but never mints it — so the global checking total is invariant no matter
/// how many times a retransmitted update re-executes. Each client also owns
/// a private cross-partition account pair whose sum every committed state
/// preserves; Balance reads of the pair must observe exactly that sum, which
/// is the SSSI snapshot guarantee (a torn read across the two partitions is
/// the only way to see anything else).
#[test]
fn smallbank_survives_drops_duplication_and_a_site_crash() {
    const INITIAL: i64 = 10_000;
    const CUSTOMERS: u64 = 1_200;
    const SHARED: u64 = 800;

    let seed = chaos_seed();
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_drops(0.01)
            .with_duplication(0.005),
    );
    eprintln!("[chaos] smallbank seed={seed:#x} {plan:?}");

    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_customers: CUSTOMERS,
        initial_balance: INITIAL,
        ..SmallBankConfig::default()
    });
    let system = DynaMastSystem::build(
        DynaMastConfig::adaptive(chaos_config(3), workload.catalog()),
        workload.executor(),
    );
    let _watchdog = arm_watchdog(
        seed,
        format!("{plan:?}"),
        60,
        Some(Arc::clone(system.network())),
    );
    workload
        .populate(&mut |key, row| system.load_row(key, row))
        .unwrap();
    // The audit plane shadows the whole run: exactly-once installs,
    // single-writer-per-fence-interval, and debit/credit conservation of
    // every SendPayment group, checked online from the flight recorder.
    let auditor = arm_auditor(&system, true, "chaos smallbank");
    system.network().set_faults(Some(Arc::clone(&plan)));

    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut session = ClientSession::new(ClientId::new(t as usize), 3);
                let mut rng = Rng(seed ^ (t + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                // A private pair spanning two partitions (100 accounts per
                // partition): its sum is this thread's snapshot invariant.
                let (mine_a, mine_b) = (1_000 + t, 1_100 + t);
                let mut committed = 0u64;
                let mut errors = 0u64;
                let mut last_cvv = session.cvv.clone();
                while !stop.load(Ordering::Relaxed) {
                    let result = match rng.next() % 3 {
                        0 => {
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
                                    "client {t}: torn snapshot of a private pair \
                                     (seed {seed:#x})"
                                );
                            }),
                    };
                    match result {
                        Ok(()) => committed += 1,
                        Err(e) if tolerable(&e) => errors += 1,
                        Err(e) => panic!("client {t}: unexpected error {e} (seed {seed:#x})"),
                    }
                    // SSSI session guarantee: the observed-state vector
                    // never moves backwards, even across failed attempts
                    // and the crash window.
                    assert!(
                        session.cvv.dominates(&last_cvv),
                        "client {t}: session vector regressed (seed {seed:#x})"
                    );
                    last_cvv = session.cvv.clone();
                }
                (committed, errors)
            })
        })
        .collect();

    // Fault timeline: a healthy (but lossy) warmup, then site 1 crashes,
    // the cluster limps with 2/3 sites, the site restarts from its logs,
    // and the tail drains.
    thread::sleep(Duration::from_millis(700));
    system.crash_site(1);
    thread::sleep(Duration::from_millis(1_000));
    system.restart_site(1).unwrap();
    thread::sleep(Duration::from_millis(1_200));
    stop.store(true, Ordering::Relaxed);

    let mut committed = 0u64;
    let mut errors = 0u64;
    for h in handles {
        let (c, e) = h.join().unwrap();
        committed += c;
        errors += e;
    }
    assert!(committed > 0, "no transaction ever committed under chaos");
    eprintln!("[chaos] smallbank committed={committed} tolerated_errors={errors}");

    // Heal everything and let the replicas converge on a common snapshot.
    system.network().set_faults(None);
    let target = system
        .sites()
        .iter()
        .map(|s| s.clock().current())
        .fold(VersionVector::zero(3), |acc, vv| acc.max_with(&vv));
    await_convergence(&system, &target, seed);

    // Global conservation: transfers (even duplicated or re-executed ones)
    // move money, never create or destroy it.
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
        "money not conserved (seed {seed:#x})"
    );
    assert_audit_clean(&auditor, seed, "chaos smallbank");
}

/// YCSB under drops, duplication, delay spikes, and a directed partition
/// between sites 0 and 2 that heals mid-run. Asserts session monotonicity
/// throughout and byte-identical replicas once the fabric heals.
#[test]
fn ycsb_converges_after_partition_heals() {
    const KEYS: u64 = 2_000;

    let seed = chaos_seed() ^ 0x9C5B_DE01;
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_drops(0.01)
            .with_duplication(0.005)
            .with_delay_spikes(0.02, Duration::from_millis(2)),
    );
    eprintln!("[chaos] ycsb seed={seed:#x} {plan:?}");

    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: KEYS,
        rmw_fraction: 0.8,
        zipf: Some(0.75),
        affinity_txns: 50,
        ..YcsbConfig::default()
    });
    let system = DynaMastSystem::build(
        DynaMastConfig::adaptive(chaos_config(3), workload.catalog()),
        workload.executor(),
    );
    let _watchdog = arm_watchdog(
        seed,
        format!("{plan:?}"),
        60,
        Some(Arc::clone(system.network())),
    );
    workload
        .populate(&mut |key, row| system.load_row(key, row))
        .unwrap();
    // YCSB writes aren't zero-sum, so the conservation checker stays off;
    // ownership and exactly-once install auditing remain armed.
    let auditor = arm_auditor(&system, false, "chaos ycsb");
    system.network().set_faults(Some(Arc::clone(&plan)));

    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..3usize)
        .map(|t| {
            let system = Arc::clone(&system);
            let stop = Arc::clone(&stop);
            let mut generator = workload.client(ClientId::new(t), seed ^ t as u64);
            thread::spawn(move || {
                let mut session = ClientSession::new(ClientId::new(t), 3);
                let mut committed = 0u64;
                let mut errors = 0u64;
                let mut last_cvv = session.cvv.clone();
                while !stop.load(Ordering::Relaxed) {
                    let txn = generator.next_txn();
                    let result = match txn.kind {
                        TxnKind::Update => system.update(&mut session, &txn.call),
                        TxnKind::ReadOnly => system.read(&mut session, &txn.call),
                    };
                    match result {
                        Ok(_) => committed += 1,
                        Err(e) if tolerable(&e) => errors += 1,
                        Err(e) => panic!("client {t}: unexpected error {e} (seed {seed:#x})"),
                    }
                    assert!(
                        session.cvv.dominates(&last_cvv),
                        "client {t}: session vector regressed (seed {seed:#x})"
                    );
                    last_cvv = session.cvv.clone();
                }
                (committed, errors)
            })
        })
        .collect();

    // Fault timeline: lossy warmup, then a bidirectional partition between
    // sites 0 and 2 (replication between them stalls; remasters whose grant
    // waits on a stalled replica time out and roll back), then the fabric
    // heals and the backlog drains.
    thread::sleep(Duration::from_millis(400));
    plan.partition_pair(EndpointId::Site(0), EndpointId::Site(2));
    thread::sleep(Duration::from_millis(800));
    plan.heal_all();
    thread::sleep(Duration::from_millis(800));
    stop.store(true, Ordering::Relaxed);

    let mut committed = 0u64;
    let mut errors = 0u64;
    for h in handles {
        let (c, e) = h.join().unwrap();
        committed += c;
        errors += e;
    }
    assert!(committed > 0, "no transaction ever committed under chaos");
    eprintln!("[chaos] ycsb committed={committed} tolerated_errors={errors}");

    system.network().set_faults(None);
    let target = system
        .sites()
        .iter()
        .map(|s| s.clock().current())
        .fold(VersionVector::zero(3), |acc, vv| acc.max_with(&vv));
    await_convergence(&system, &target, seed);

    // Once converged, every replica must hold the identical snapshot: the
    // partition stalled replication but must not have forked it.
    let sites = system.sites();
    for key in 0..KEYS {
        let key = Key::new(dynamast::workloads::ycsb::USERTABLE, key);
        let reference = sites[0].store().read(key, &target).unwrap();
        for (i, site) in sites.iter().enumerate().skip(1) {
            assert_eq!(
                site.store().read(key, &target).unwrap(),
                reference,
                "site {i} diverged at {key:?} (seed {seed:#x})"
            );
        }
    }
    assert_audit_clean(&auditor, seed, "chaos ycsb");
}

/// Multi-master SmallBank under drops and duplication. Fabric copies of
/// `Prepare` and `Decide` reach the 2PC participants, which must answer each
/// transaction once: a decision installed twice, or a fragment re-staged
/// after its decision, would change the money total or strand locks. A
/// lost `Prepare` or vote must abort the transaction everywhere, and a lost
/// `Decide` must be retransmitted: otherwise one participant commits its
/// half of a transfer while the other keeps the staged half and its locks.
#[test]
fn multi_master_smallbank_conserves_money_under_drops_and_duplication() {
    const INITIAL: i64 = 10_000;
    const CUSTOMERS: u64 = 1_200;
    const SHARED: u64 = 800;
    const TRANSFERS: u64 = 150;

    let seed = chaos_seed() ^ 0x2FC0_0D1E;
    let plan = Arc::new(FaultPlan::new(seed).with_drops(0.01).with_duplication(0.05));
    eprintln!("[chaos] multi-master smallbank seed={seed:#x} {plan:?}");

    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_customers: CUSTOMERS,
        initial_balance: INITIAL,
        ..SmallBankConfig::default()
    });
    let owner = workload.static_owner(3);
    let system = StaticSystem::build(
        StaticKind::MultiMaster,
        chaos_config(3),
        workload.catalog(),
        Arc::clone(&owner),
        workload.static_tables(),
        workload.executor(),
        8,
    );
    let _watchdog = arm_watchdog(
        seed,
        format!("{plan:?}"),
        60,
        Some(Arc::clone(system.network())),
    );
    workload
        .populate(&mut |key, row| system.load_row(key, row))
        .unwrap();
    system.network().set_faults(Some(Arc::clone(&plan)));

    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let system = Arc::clone(&system);
            thread::spawn(move || {
                let mut session = ClientSession::new(ClientId::new(t as usize), 3);
                let mut rng = Rng(seed ^ (t + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                let mut committed = 0u64;
                for _ in 0..TRANSFERS {
                    let from = rng.next() % SHARED;
                    let to = (from + 1 + rng.next() % (SHARED - 1)) % SHARED;
                    let amount = (rng.next() % 200) as i64 + 1;
                    match system.update(&mut session, &transfer(from, to, amount)) {
                        Ok(_) => committed += 1,
                        Err(e) if tolerable(&e) => {}
                        Err(e) => panic!("client {t}: unexpected error {e} (seed {seed:#x})"),
                    }
                }
                committed
            })
        })
        .collect();
    let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(committed > 0, "no transaction ever committed under chaos");
    eprintln!("[chaos] multi-master smallbank committed={committed}");
    system.network().set_faults(None);

    // Every decision was awaited, so each owner holds its accounts' final
    // balances.
    let catalog = workload.catalog();
    let total: i64 = (0..CUSTOMERS)
        .map(|customer| {
            let key = Key::new(smallbank::CHECKING, customer);
            let site = owner(catalog.partition_of(key).unwrap());
            let (row, _) = system.sites()[site.as_usize()]
                .store()
                .read_latest(key)
                .unwrap()
                .expect("populated account vanished");
            row.cell(0).as_i64().unwrap()
        })
        .sum();
    assert_eq!(
        total,
        CUSTOMERS as i64 * INITIAL,
        "money not conserved (seed {seed:#x})"
    );
}

/// The same seed must produce the same per-link fault schedule regardless of
/// how message sends interleave across links — that is what makes a chaos
/// failure replayable from nothing but the printed seed.
#[test]
fn identical_seeds_produce_identical_fault_schedules() {
    let mk = |seed: u64| {
        FaultPlan::new(seed)
            .with_drops(0.2)
            .with_duplication(0.1)
            .with_delay_spikes(0.1, Duration::from_millis(1))
    };
    let links: [(Option<EndpointId>, Option<EndpointId>); 4] = [
        (None, Some(EndpointId::Site(0))),
        (Some(EndpointId::Site(0)), Some(EndpointId::Site(1))),
        (Some(EndpointId::Site(2)), Some(EndpointId::Site(0))),
        (Some(EndpointId::Selector), Some(EndpointId::Site(1))),
    ];

    // Draw plan A round-robin across links and plan B link-major: the
    // per-link ordinal counters must make each link's schedule independent
    // of the global interleaving.
    let a = mk(7);
    let mut sched_a = vec![Vec::new(); links.len()];
    for _ in 0..256 {
        for (i, (from, to)) in links.iter().enumerate() {
            sched_a[i].push(a.decide(*from, *to));
        }
    }
    let b = mk(7);
    let mut sched_b = vec![Vec::new(); links.len()];
    for (i, (from, to)) in links.iter().enumerate() {
        for _ in 0..256 {
            sched_b[i].push(b.decide(*from, *to));
        }
    }
    assert_eq!(sched_a, sched_b, "same seed must replay the same schedule");

    // The schedule is non-degenerate at these probabilities...
    assert!(sched_a.iter().flatten().any(|d| d.drop));
    assert!(sched_a.iter().flatten().any(|d| d.duplicate));
    assert!(sched_a.iter().flatten().any(|d| !d.drop && !d.duplicate));
    // ...and a different seed diverges.
    let c = mk(8);
    let mut sched_c = vec![Vec::new(); links.len()];
    for (i, (from, to)) in links.iter().enumerate() {
        for _ in 0..256 {
            sched_c[i].push(c.decide(*from, *to));
        }
    }
    assert_ne!(sched_b, sched_c, "different seeds must diverge");
}
