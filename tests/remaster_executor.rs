//! The one release/grant executor (`crates/core/src/remaster.rs`), pinned by
//! counts and event order rather than clocks: Algorithm 1's shape (every
//! source's Release before any wait, one RPC per source and half), the
//! per-move failure rule when a source is down, and Algorithm 1's rule that a
//! write set mastered at one site is never remastered.
//!
//! Determinism lever: all-zero strategy weights tie every Eq. 8 candidate at
//! 0.0 and the argmax breaks ties toward the lowest site id, so every
//! slow-path decision picks site 0.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use dynamast::common::ids::{ClientId, Key, PartitionId, SiteId};
use dynamast::common::trace::next_trace_id;
use dynamast::common::{
    RetryPolicy, StrategyWeights, SystemConfig, TraceKind, TracePayload, VersionVector,
};
use dynamast::core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast::site::system::{ClientSession, ReplicatedSystem};
use dynamast::workloads::smallbank::{self, SmallBankConfig, SmallBankWorkload};
use dynamast::workloads::Workload;

use common::{tolerable, transfer};

const SITES: usize = 3;
const CUSTOMERS: u64 = 1_200;
const PARTITION_SIZE: u64 = 100;

const ZERO_WEIGHTS: StrategyWeights = StrategyWeights {
    balance: 0.0,
    delay: 0.0,
    intra_txn: 0.0,
    inter_txn: 0.0,
};

/// A populated 3-site SmallBank deployment with no background probe. With
/// `seeded`, checking/savings partitions 0–3 start mastered at site 0, 4–7
/// at site 1 and 8–11 at site 2; without, every partition starts unplaced.
fn build(config: SystemConfig, seeded: bool) -> Arc<DynaMastSystem> {
    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_customers: CUSTOMERS,
        ..SmallBankConfig::default()
    });
    let mut config = config.with_instant_network().with_instant_service();
    // Lost messages cost milliseconds, not the production half second.
    config.network = config.network.with_retry(RetryPolicy {
        attempt_timeout: Duration::from_millis(100),
        max_attempts: 2,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(2),
        deadline: Duration::from_millis(250),
    });
    let mut cfg = DynaMastConfig::adaptive(config, workload.catalog());
    cfg.probe_interval = Duration::ZERO;
    if seeded {
        let owner = workload.static_owner(SITES);
        cfg.initial_placements = smallbank::all_partitions(workload.config())
            .into_iter()
            .map(|p| (p, owner(p)))
            .collect();
    }
    let system = DynaMastSystem::build(cfg, workload.executor());
    workload
        .populate(&mut |key, row| system.load_row(key, row))
        .unwrap();
    system
}

/// The first checking account of checking partition `index`.
fn account(index: u64) -> Key {
    Key::new(smallbank::CHECKING, index * PARTITION_SIZE)
}

fn checking(index: u64) -> PartitionId {
    dynamast::common::ids::partition_id(smallbank::CHECKING, index)
}

/// `(remaster_rpcs, remaster_rpcs_saved, remaster_ops, partitions_moved,
/// placements)` of the live selector.
fn counters(system: &DynaMastSystem) -> [u64; 5] {
    let s = system.selector();
    [
        s.remaster_rpcs.get(),
        s.remaster_rpcs_saved.get(),
        s.remaster_ops.get(),
        s.partitions_moved.get(),
        s.placements.get(),
    ]
}

fn delta(before: [u64; 5], after: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Routes `keys` once and returns the release/grant steps the route put on
/// the flight recorder, in program order, as `(kind, partition)`.
fn route(system: &DynaMastSystem, keys: &[Key]) -> (SiteId, Vec<(TraceKind, u64)>) {
    let txn_id = next_trace_id();
    let decision = system
        .selector()
        .route_update_traced(txn_id, ClientId::new(1), &VersionVector::zero(SITES), keys)
        .unwrap();
    let steps = system
        .recorder()
        .snapshot()
        .into_iter()
        .filter(|e| e.txn_id == txn_id)
        .filter_map(|e| match e.payload {
            TracePayload::Remaster { partition, .. } => Some((e.kind, partition)),
            _ => None,
        })
        .collect();
    (decision.site, steps)
}

/// Every partition is claimed by exactly one site's ownership table, and the
/// selector's map names that site.
fn assert_one_master_everywhere(system: &DynaMastSystem) {
    let mut claimants: HashMap<PartitionId, SiteId> = HashMap::new();
    for site in system.sites() {
        for p in site.ownership().mastered_partitions() {
            if let Some(other) = claimants.insert(p, site.id()) {
                panic!("{p:?} mastered by both {other:?} and {:?}", site.id());
            }
        }
    }
    for (p, master) in system.selector().map().placements() {
        assert_eq!(
            claimants.get(&p).copied(),
            master,
            "selector map and ownership tables disagree on {p:?}"
        );
    }
}

#[test]
fn three_sources_release_in_parallel_with_one_rpc_per_source_and_half() {
    let system = build(SystemConfig::new(SITES).with_weights(ZERO_WEIGHTS), true);
    let before = counters(&system);
    let (dest, steps) = route(&system, &[account(0), account(4), account(8)]);
    assert_eq!(dest, SiteId::new(0));
    // Two sources (sites 1 and 2; site 0 is the destination): 2 Release + 2
    // Grant RPCs, nothing shared, one remaster operation moving two.
    assert_eq!(delta(before, counters(&system)), [4, 0, 1, 2, 0]);
    let kinds: Vec<TraceKind> = steps.iter().map(|(kind, _)| *kind).collect();
    let first_ack = kinds
        .iter()
        .position(|k| *k == TraceKind::ReleaseAck)
        .expect("a release was acknowledged");
    assert_eq!(
        kinds[..first_ack],
        [TraceKind::ReleaseSend, TraceKind::ReleaseSend],
        "every Release leaves before any is waited on: {steps:?}"
    );
    assert_one_master_everywhere(&system);
}

#[test]
fn two_partitions_at_one_source_share_a_release_and_a_grant() {
    let system = build(SystemConfig::new(SITES).with_weights(ZERO_WEIGHTS), true);
    let before = counters(&system);
    let (dest, steps) = route(&system, &[account(0), account(4), account(5)]);
    assert_eq!(dest, SiteId::new(0));
    // One Release and one Grant carry both moves: two round trips saved.
    assert_eq!(delta(before, counters(&system)), [2, 2, 1, 2, 0]);
    // The benchmark's recorder join still finds a send/ack pair per partition.
    for kind in [
        TraceKind::ReleaseSend,
        TraceKind::ReleaseAck,
        TraceKind::GrantSend,
        TraceKind::GrantAck,
    ] {
        let mut partitions: Vec<u64> = steps
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, p)| *p)
            .collect();
        partitions.sort_unstable();
        assert_eq!(
            partitions,
            [checking(4).raw(), checking(5).raw()],
            "{kind:?}"
        );
    }
    assert_one_master_everywhere(&system);
}

#[test]
fn an_unplaced_write_set_is_granted_not_remastered() {
    let system = build(SystemConfig::new(SITES).with_weights(ZERO_WEIGHTS), false);
    let before = counters(&system);
    let (dest, steps) = route(&system, &[account(0), account(4), account(8)]);
    assert_eq!(dest, SiteId::new(0));
    // One Grant RPC places all three; nothing was released, so no remaster
    // operation and no partition "moved".
    assert_eq!(delta(before, counters(&system)), [1, 2, 0, 0, 3]);
    assert!(
        steps
            .iter()
            .all(|(kind, _)| matches!(kind, TraceKind::GrantSend | TraceKind::GrantAck)),
        "{steps:?}"
    );
    assert_one_master_everywhere(&system);
}

/// Write set `{p4 @ site 1, p8 @ site 2}`, destination site 0, site 2 down.
/// The parent's release half returned on site 2's failed settle with p4's
/// Grant already sent and never settled: p4 was mastered at site 0 while the
/// map still named site 1.
#[test]
fn a_crashed_source_fails_its_own_move_and_no_other() {
    let system = build(SystemConfig::new(SITES).with_weights(ZERO_WEIGHTS), true);
    system.crash_site(2);
    let err = system
        .selector()
        .route_update(
            ClientId::new(1),
            &VersionVector::zero(SITES),
            &[account(4), account(8)],
        )
        .expect_err("site 2 cannot release p8");
    assert!(tolerable(&err), "the route must fail retryably, got {err}");

    assert_one_master_everywhere(&system);
    let placements: HashMap<_, _> = system.selector().map().placements().into_iter().collect();
    assert_eq!(placements[&checking(4)], Some(SiteId::new(0)), "p4 moved");
    assert_eq!(placements[&checking(8)], Some(SiteId::new(2)), "p8 stayed");

    // p4 is usable at once, at the site the map names.
    let mut session = ClientSession::new(ClientId::new(1), SITES);
    system
        .update(
            &mut session,
            &transfer(4 * PARTITION_SIZE, 4 * PARTITION_SIZE + 1, 1),
        )
        .expect("a write set wholly at a live site commits");
}

/// Algorithm 1 remasters a write set only when it is mastered at more than
/// one site or at none. A write set wholly mastered at one site is routed
/// there, however hot it runs and however hard the balance term pulls.
#[test]
fn a_sole_master_write_set_is_never_remastered_however_hot() {
    let balance_only = StrategyWeights {
        balance: 1_000.0,
        ..ZERO_WEIGHTS
    };
    let system = build(SystemConfig::new(SITES).with_weights(balance_only), true);
    let selector = system.selector();
    let mut session = ClientSession::new(ClientId::new(1), SITES);
    let before = counters(&system);
    for i in 0..400u64 {
        // Both hot partitions start at site 1, which takes every write.
        let from = 4 * PARTITION_SIZE + i % PARTITION_SIZE;
        let to = 5 * PARTITION_SIZE + i % PARTITION_SIZE;
        let routed = selector.routed_per_site();
        system.update(&mut session, &transfer(from, to, 1)).unwrap();
        let now = selector.routed_per_site();
        let attempts: Vec<u64> = now.iter().zip(&routed).map(|(n, r)| n - r).collect();
        assert_eq!(
            attempts,
            [0, 1, 0],
            "update {i} was not routed once, to site 1"
        );
    }
    // No Release or Grant was sent, no remaster operation ran and nothing
    // moved or was placed.
    assert_eq!(delta(before, counters(&system)), [0; 5]);
}
