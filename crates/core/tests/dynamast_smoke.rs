//! End-to-end smoke tests of the assembled DynaMast system: routing,
//! remastering, refresh propagation, session guarantees.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};
use dynamast_common::codec;
use dynamast_common::ids::{ClientId, Key, SiteId, TableId};
use dynamast_common::{Result, Row, SystemConfig, Value};
use dynamast_core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast_site::proc::{ProcCall, ProcExecutor, TxnCtx};
use dynamast_site::system::{ClientSession, ReplicatedSystem};
use dynamast_storage::Catalog;

const TABLE: TableId = TableId::new(0);
const PROC_ADD: u32 = 1;
const PROC_SUM: u32 = 2;

/// Test executor: PROC_ADD adds a delta to every key in the write set;
/// PROC_SUM sums the values of the read keys.
struct TestExec;

impl ProcExecutor for TestExec {
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        let mut slice = call.args.clone();
        match call.proc_id {
            PROC_ADD => {
                let delta = codec::get_u64(&mut slice)?;
                let n = codec::get_u32(&mut slice)? as usize;
                for _ in 0..n {
                    let record = codec::get_u64(&mut slice)?;
                    let key = Key::new(TABLE, record);
                    let current = match ctx.read(key)? {
                        Some(row) => row.cell(0).as_u64()?,
                        None => 0,
                    };
                    ctx.write(key, Row::new(vec![Value::U64(current + delta)]))?;
                }
                Ok(Bytes::new())
            }
            PROC_SUM => {
                let n = codec::get_u32(&mut slice)? as usize;
                let mut sum = 0u64;
                for _ in 0..n {
                    let record = codec::get_u64(&mut slice)?;
                    if let Some(row) = ctx.read(Key::new(TABLE, record))? {
                        sum += row.cell(0).as_u64()?;
                    }
                }
                let mut out = Vec::new();
                out.put_u64(sum);
                Ok(Bytes::from(out))
            }
            _ => Err(dynamast_common::DynaError::Internal("unknown proc")),
        }
    }
}

fn add_proc(records: &[u64], delta: u64) -> ProcCall {
    let mut args = Vec::new();
    args.put_u64(delta);
    args.put_u32(records.len() as u32);
    for r in records {
        args.put_u64(*r);
    }
    ProcCall {
        proc_id: PROC_ADD,
        args: Bytes::from(args),
        write_set: records.iter().map(|r| Key::new(TABLE, *r)).collect(),
        read_keys: vec![],
        read_ranges: vec![],
    }
}

fn sum_proc(records: &[u64]) -> ProcCall {
    let mut args = Vec::new();
    args.put_u32(records.len() as u32);
    for r in records {
        args.put_u64(*r);
    }
    ProcCall {
        proc_id: PROC_SUM,
        args: Bytes::from(args),
        write_set: vec![],
        read_keys: records.iter().map(|r| Key::new(TABLE, *r)).collect(),
        read_ranges: vec![],
    }
}

fn build_system(num_sites: usize) -> Arc<DynaMastSystem> {
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(num_sites).with_instant_network();
    DynaMastSystem::build(
        DynaMastConfig::adaptive(config, catalog),
        Arc::new(TestExec),
    )
}

fn decode_sum(result: &Bytes) -> u64 {
    let mut slice = result.clone();
    slice.get_u64()
}

#[test]
fn update_then_read_same_session_sees_writes() {
    let system = build_system(3);
    let mut session = ClientSession::new(ClientId::new(1), 3);
    system
        .update(&mut session, &add_proc(&[1, 2, 3], 10))
        .unwrap();
    // SSSI: the same session must observe its own writes at any replica.
    for _ in 0..10 {
        let outcome = system.read(&mut session, &sum_proc(&[1, 2, 3])).unwrap();
        assert_eq!(decode_sum(&outcome.result), 30);
    }
}

/// Regression: a one-site deployment panicked at construction. The replica
/// floor was clamped into `[2, num_sites]`, and `clamp` panics when its
/// minimum exceeds its maximum.
#[test]
fn a_one_site_deployment_commits_and_reads_back() {
    for partial in [false, true] {
        let mut catalog = Catalog::new();
        catalog.add_table("kv", 1, 100);
        let mut config = SystemConfig::new(1).with_instant_network();
        if partial {
            config = config.with_partial_replication(2);
        }
        let system = DynaMastSystem::build(
            DynaMastConfig::adaptive(config, catalog),
            Arc::new(TestExec),
        );
        let mut session = ClientSession::new(ClientId::new(1), 1);
        system
            .update(&mut session, &add_proc(&[1, 150], 7))
            .unwrap();
        let outcome = system.read(&mut session, &sum_proc(&[1, 150])).unwrap();
        assert_eq!(decode_sum(&outcome.result), 14, "partial: {partial}");
    }
}

#[test]
fn cross_partition_write_sets_trigger_remastering() {
    let system = build_system(2);
    let mut a = ClientSession::new(ClientId::new(1), 2);
    let mut b = ClientSession::new(ClientId::new(2), 2);
    // Two distant partitions (0 and 5000) first touched separately, then
    // updated together — the second step forces co-location.
    system.update(&mut a, &add_proc(&[5], 1)).unwrap();
    system.update(&mut b, &add_proc(&[5000], 1)).unwrap();
    system.update(&mut a, &add_proc(&[5, 5000], 1)).unwrap();
    let stats = system.stats();
    assert_eq!(stats.committed_updates, 3);
    // The joint write set either found both partitions co-located already or
    // remastered; afterwards both partitions share one master.
    let placements = system.selector().map().placements();
    let masters: Vec<_> = placements.iter().filter_map(|(_, m)| *m).collect();
    assert_eq!(masters.len(), 2);
    assert_eq!(masters[0], masters[1]);
    // Key 5: +1 twice; key 5000: +1 twice.
    let outcome = system.read(&mut a, &sum_proc(&[5, 5000])).unwrap();
    assert_eq!(decode_sum(&outcome.result), 4);
}

#[test]
fn counters_survive_many_concurrent_clients() {
    let system = build_system(4);
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let system = Arc::clone(&system);
            std::thread::spawn(move || {
                let mut session = ClientSession::new(ClientId::new(t), 4);
                // All clients increment the same keys: write-write conflicts
                // must serialize, never abort, never lose updates.
                for _ in 0..25 {
                    system
                        .update(&mut session, &add_proc(&[7, 205], 1))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut session = ClientSession::new(ClientId::new(99), 4);
    // A fresh session has no freshness floor; route a write through the
    // same keys first so the subsequent read observes all prior commits.
    system
        .update(&mut session, &add_proc(&[7, 205], 0))
        .unwrap();
    let outcome = system.read(&mut session, &sum_proc(&[7, 205])).unwrap();
    assert_eq!(decode_sum(&outcome.result), 400);
    assert_eq!(system.stats().committed_updates, 201);
}

#[test]
fn replicas_converge_after_updates() {
    let system = build_system(3);
    let mut session = ClientSession::new(ClientId::new(1), 3);
    for i in 0..30u64 {
        system
            .update(&mut session, &add_proc(&[i * 100], 5))
            .unwrap();
    }
    // Wait for propagation: every site must reach the session's cvv.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    for site in system.sites() {
        loop {
            if site.clock().current().dominates(&session.cvv) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "propagation stalled");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Every replica stores every record.
        assert_eq!(site.store().record_count(), 30);
    }
}

#[test]
fn read_only_transactions_spread_across_sites() {
    let system = build_system(4);
    let mut session = ClientSession::new(ClientId::new(1), 4);
    system.update(&mut session, &add_proc(&[1], 1)).unwrap();
    // Allow the vv probe to refresh the freshness cache, then issue many
    // reads; with 4 fresh replicas a random router must hit more than one.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let mut distinct = std::collections::HashSet::new();
    for _ in 0..40 {
        let site = system.selector().route_read(&session.cvv);
        distinct.insert(site);
    }
    assert!(distinct.len() > 1, "reads routed to only {distinct:?}");
    let _ = SiteId::new(0);
}

/// A deployment with no svv probe, so the freshness estimates move only by
/// release/grant replies and the clients' reports, with the partition of
/// records 0–99 mastered at site 0.
fn build_unprobed(num_sites: usize) -> Arc<DynaMastSystem> {
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let partition = catalog.partition_of(Key::new(TABLE, 1)).unwrap();
    let mut cfg =
        DynaMastConfig::adaptive(SystemConfig::new(num_sites).with_instant_network(), catalog);
    cfg.probe_interval = std::time::Duration::ZERO;
    cfg.initial_placements = vec![(partition, SiteId::new(0))];
    DynaMastSystem::build(cfg, Arc::new(TestExec))
}

#[test]
fn a_read_after_an_update_routes_to_the_updating_site_without_parking() {
    let system = build_unprobed(3);
    let parks = system.metrics().counter("site.freshness_parks");
    let unfresh = || system.selector().reads_unfresh.get();
    let mut session = ClientSession::new(ClientId::new(1), 3);
    for round in 1..=20u64 {
        system.update(&mut session, &add_proc(&[1, 2], 1)).unwrap();
        assert_eq!(session.last_site, Some(SiteId::new(0)));
        let outcome = system.read(&mut session, &sum_proc(&[1, 2])).unwrap();
        assert_eq!(decode_sum(&outcome.result), 2 * round);
        // Only site 0's estimate covers the session (the others are never
        // probed), and only the client's report put it there.
        assert_eq!(session.last_site, Some(SiteId::new(0)), "round {round}");
    }
    assert_eq!(unfresh(), 0, "every read had a fresh candidate");
    assert_eq!(parks.get(), 0, "no begin waited for refresh");
}

#[test]
fn a_report_ahead_of_the_sites_svv_still_reads_the_clients_own_write() {
    use dynamast_network::{EndpointId, FaultPlan};
    let system = build_unprobed(3);
    // Hold site 0's refresh stream to site 1.
    let plan = Arc::new(FaultPlan::new(7));
    plan.partition(EndpointId::Site(0), EndpointId::Site(1));
    system.network().set_faults(Some(Arc::clone(&plan)));
    let mut writer = ClientSession::new(ClientId::new(1), 3);
    system
        .update(&mut writer, &add_proc(&[1, 2, 3], 10))
        .unwrap();
    assert_eq!(writer.last_site, Some(SiteId::new(0)));
    // The session claims site 1 covers its cvv, which site 1 has not
    // applied: the selector believes it and routes the read there.
    let mut reader = writer.clone();
    reader.last_site = Some(SiteId::new(1));
    let parks = system.metrics().counter("site.freshness_parks");
    let read = {
        let system = Arc::clone(&system);
        std::thread::spawn(move || {
            let outcome = system.read(&mut reader, &sum_proc(&[1, 2, 3])).unwrap();
            (decode_sum(&outcome.result), reader.last_site)
        })
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while parks.get() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the read never parked"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // The begin wait at site 1 holds the read until the write arrives.
    plan.heal_all();
    assert_eq!(read.join().unwrap(), (30, Some(SiteId::new(1))));
    assert_eq!(parks.get(), 1);
}
