//! Placement-learning behaviour of the adaptive strategies (§IV): the
//! selector spreads unrelated load across sites (balance), co-locates
//! correlated partitions (intra-txn factor), and rarely remasters once the
//! workload's structure is learned.

use std::sync::Arc;

use bytes::Bytes;
use dynamast_common::ids::{ClientId, Key, TableId};
use dynamast_common::{Result, SystemConfig};
use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast_site::proc::{ProcCall, ProcExecutor, TxnCtx};
use dynamast_site::system::{ClientSession, ReplicatedSystem};
use dynamast_storage::Catalog;

const KV: TableId = TableId::new(0);

struct Nop;

impl ProcExecutor for Nop {
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        for key in &call.write_set {
            ctx.write(
                *key,
                dynamast_common::Row::new(vec![dynamast_common::Value::U64(1)]),
            )?;
        }
        Ok(Bytes::new())
    }
}

fn write(keys: &[u64]) -> ProcCall {
    ProcCall {
        proc_id: 1,
        args: Bytes::new(),
        write_set: keys.iter().map(|k| Key::new(KV, *k)).collect(),
        read_keys: vec![],
        read_ranges: vec![],
    }
}

fn build(num_sites: usize) -> Arc<DynaMastSystem> {
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(num_sites)
        .with_instant_network()
        .with_instant_service();
    DynaMastSystem::build(DynaMastConfig::adaptive(config, catalog), Arc::new(Nop))
}

/// Balance: many single-partition write streams spread over all sites.
#[test]
fn unrelated_partitions_spread_across_sites() {
    let system = build(4);
    let mut session = ClientSession::new(ClientId::new(1), 4);
    // 40 independent partitions, each written several times.
    for round in 0..5 {
        for p in 0..40u64 {
            system
                .update(&mut session, &write(&[p * 100 + round]))
                .unwrap();
        }
    }
    let masters = system.selector().map().masters_per_site(4);
    assert_eq!(masters.iter().sum::<u64>(), 40);
    for (i, count) in masters.iter().enumerate() {
        assert!(
            (5..=15).contains(count),
            "site {i} masters {count} of 40 partitions: {masters:?}"
        );
    }
}

/// Co-location: partitions always written together converge to one master
/// and stop needing remastering.
#[test]
fn correlated_partitions_colocate_and_stop_remastering() {
    let system = build(3);
    let mut session = ClientSession::new(ClientId::new(1), 3);
    // Three correlated groups, interleaved.
    let groups: [[u64; 3]; 3] = [[0, 100, 200], [1000, 1100, 1200], [2000, 2100, 2200]];
    for _ in 0..30 {
        for group in &groups {
            system.update(&mut session, &write(group)).unwrap();
        }
    }
    // Each group's partitions share a master.
    for group in &groups {
        let masters: Vec<_> = group
            .iter()
            .map(|k| {
                let p = system.sites()[0]
                    .store()
                    .catalog()
                    .partition_of(Key::new(KV, *k))
                    .unwrap();
                system
                    .selector()
                    .map()
                    .entries_for_existing(p)
                    .unwrap()
                    .master_relaxed()
                    .unwrap()
            })
            .collect();
        assert!(
            masters.windows(2).all(|w| w[0] == w[1]),
            "group {group:?} split across {masters:?}"
        );
    }
    // After convergence, further group transactions hit the fast path.
    let before = system.selector().remaster_ops.get();
    for _ in 0..10 {
        for group in &groups {
            system.update(&mut session, &write(group)).unwrap();
        }
    }
    assert_eq!(
        system.selector().remaster_ops.get(),
        before,
        "steady-state transactions must not remaster"
    );
}

/// The history queue adapts: after a workload shift, the new correlations
/// win even though they contradict the old ones.
#[test]
fn workload_shift_relearns_placements() {
    let system = build(2);
    let mut session = ClientSession::new(ClientId::new(1), 2);
    // Phase one: {A, B} co-accessed.
    let (a, b, c) = (0u64, 500u64, 900u64);
    for _ in 0..20 {
        system.update(&mut session, &write(&[a, b])).unwrap();
        system.update(&mut session, &write(&[c])).unwrap();
    }
    // Phase two: the workload shifts to {A, C}.
    for _ in 0..40 {
        system.update(&mut session, &write(&[a, c])).unwrap();
    }
    let partition_of = |k: u64| {
        system.sites()[0]
            .store()
            .catalog()
            .partition_of(Key::new(KV, k))
            .unwrap()
    };
    let master_of = |k: u64| {
        system
            .selector()
            .map()
            .entries_for_existing(partition_of(k))
            .unwrap()
            .master_relaxed()
            .unwrap()
    };
    assert_eq!(master_of(a), master_of(c), "new correlation must co-locate");
}

/// Pinned mode (single-master expressed in the framework) never remasters
/// and routes everything to the pinned site.
#[test]
fn pinned_selector_routes_everything_to_one_site() {
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(3)
        .with_instant_network()
        .with_instant_service();
    let system =
        dynamast_baselines::single_master::single_master(config, catalog, Arc::new(Nop), 24);
    let mut session = ClientSession::new(ClientId::new(1), 3);
    for i in 0..20u64 {
        system.update(&mut session, &write(&[i * 100])).unwrap();
    }
    let stats = system.stats();
    assert_eq!(stats.remaster_ops, 0);
    assert_eq!(stats.updates_routed_per_site[0], 20);
    assert_eq!(stats.updates_routed_per_site[1], 0);
}
