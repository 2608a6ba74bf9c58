//! Strong-session snapshot isolation (paper §III-A, Appendix B): clients
//! always observe their own prior writes, sessions never travel backwards in
//! time, and snapshot reads are transactionally consistent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use bytes::{Buf, BufMut, Bytes};
use dynamast::common::ids::{ClientId, Key, SiteId, TableId};
use dynamast::common::{Result, Row, SystemConfig, Value, VersionVector};
use dynamast::core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast::site::proc::{ProcCall, ProcExecutor, TxnCtx};
use dynamast::site::system::{ClientSession, ReplicatedSystem};
use dynamast::storage::{Catalog, VersionStamp};

const KV: TableId = TableId::new(0);
const PROC_SET_PAIR: u32 = 1;
const PROC_READ_PAIR: u32 = 2;

/// SET_PAIR writes the same value to both keys of the write set; READ_PAIR
/// returns both keys' values. Snapshot isolation requires a reader to see
/// the pair at a single consistent state: both cells equal.
struct PairApp;

impl ProcExecutor for PairApp {
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        let mut args = call.args.clone();
        match call.proc_id {
            PROC_SET_PAIR => {
                let value = dynamast::common::codec::get_u64(&mut args)?;
                for key in &call.write_set {
                    ctx.write(*key, Row::new(vec![Value::U64(value)]))?;
                }
                Ok(Bytes::new())
            }
            PROC_READ_PAIR => {
                let mut out = Vec::with_capacity(16);
                for key in &call.read_keys {
                    let value = match ctx.read(*key)? {
                        Some(row) => row.cell(0).as_u64()?,
                        None => 0,
                    };
                    out.put_u64(value);
                }
                Ok(Bytes::from(out))
            }
            _ => Err(dynamast::common::DynaError::Internal("unknown proc")),
        }
    }
}

fn set_pair(a: u64, b: u64, value: u64) -> ProcCall {
    let mut args = Vec::new();
    args.put_u64(value);
    ProcCall {
        proc_id: PROC_SET_PAIR,
        args: Bytes::from(args),
        write_set: vec![Key::new(KV, a), Key::new(KV, b)],
        read_keys: vec![],
        read_ranges: vec![],
    }
}

fn read_pair(a: u64, b: u64) -> ProcCall {
    ProcCall {
        proc_id: PROC_READ_PAIR,
        args: Bytes::new(),
        write_set: vec![],
        read_keys: vec![Key::new(KV, a), Key::new(KV, b)],
        read_ranges: vec![],
    }
}

fn build(num_sites: usize) -> Arc<DynaMastSystem> {
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(num_sites)
        .with_instant_network()
        .with_instant_service();
    DynaMastSystem::build(DynaMastConfig::adaptive(config, catalog), Arc::new(PairApp))
}

/// Read-your-writes: a session's read immediately after its write observes
/// the write, at whichever replica the read routes to.
#[test]
fn sessions_read_their_own_writes() {
    let system = build(4);
    let mut session = ClientSession::new(ClientId::new(1), 4);
    for value in 1..=50u64 {
        system.update(&mut session, &set_pair(1, 2, value)).unwrap();
        let outcome = system.read(&mut session, &read_pair(1, 2)).unwrap();
        let mut result = outcome.result.clone();
        assert_eq!(result.get_u64(), value);
        assert_eq!(result.get_u64(), value);
    }
}

/// Monotonic reads: values observed by one session never go backwards even
/// when reads bounce between replicas.
#[test]
fn session_reads_are_monotone() {
    let system = build(4);
    let writer = {
        let system = Arc::clone(&system);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let mut session = ClientSession::new(ClientId::new(9), 4);
            let mut value = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                value += 1;
                system.update(&mut session, &set_pair(5, 6, value)).unwrap();
            }
        });
        (stop, handle)
    };
    let mut session = ClientSession::new(ClientId::new(1), 4);
    let mut last = 0u64;
    for _ in 0..200 {
        let outcome = system.read(&mut session, &read_pair(5, 6)).unwrap();
        let mut result = outcome.result.clone();
        let a = result.get_u64();
        assert!(a >= last, "session went back in time: {a} < {last}");
        last = a;
    }
    writer.0.store(true, Ordering::Relaxed);
    writer.1.join().unwrap();
}

/// Snapshot consistency: a pair written atomically is never observed torn,
/// even while a concurrent writer races and partitions remaster. The two
/// keys live in different partitions, so this exercises cross-partition
/// snapshot reads under remastering.
#[test]
fn paired_writes_are_never_torn() {
    let system = build(3);
    let a = 10u64; // partition 0
    let b = 510u64; // partition 5
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut session = ClientSession::new(ClientId::new(7), 3);
            let mut value = 0u64;
            while !stop.load(Ordering::Relaxed) {
                value += 1;
                system.update(&mut session, &set_pair(a, b, value)).unwrap();
            }
            value
        })
    };
    let mut readers = Vec::new();
    for r in 0..3usize {
        let system = Arc::clone(&system);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut session = ClientSession::new(ClientId::new(100 + r), 3);
            let mut checked = 0;
            while !stop.load(Ordering::Relaxed) {
                let outcome = system.read(&mut session, &read_pair(a, b)).unwrap();
                let mut result = outcome.result.clone();
                let va = result.get_u64();
                let vb = result.get_u64();
                assert_eq!(va, vb, "torn read: {va} vs {vb}");
                checked += 1;
            }
            checked
        }));
    }
    thread::sleep(std::time::Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);
    let total_writes = writer.join().unwrap();
    let total_checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_writes > 10, "writer made progress");
    assert!(total_checks > 10, "readers made progress");
}

/// Write-write conflicts serialize without aborts (the paper's lock-based
/// design): concurrent increments to a shared pair never lose an update.
#[test]
fn concurrent_writers_never_lose_updates() {
    let system = build(3);
    let mut handles = Vec::new();
    for t in 0..4usize {
        let system = Arc::clone(&system);
        handles.push(thread::spawn(move || {
            let mut session = ClientSession::new(ClientId::new(t), 3);
            for i in 0..50u64 {
                // Distinct values per writer; the final state is the last
                // committed pair, and every commit must succeed.
                system
                    .update(&mut session, &set_pair(800, 801, t as u64 * 1000 + i))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(system.stats().committed_updates, 200);
    assert_eq!(
        system.stats().aborts,
        0,
        "lock-based WW handling never aborts"
    );
}

/// Sharing is invisible: `load_row` hands every replica the same row image,
/// and a later update at the master reaches the other replicas as a new
/// version carried by refresh — the shared load image itself never changes
/// under any site.
#[test]
fn a_loaded_row_is_shared_but_never_aliased_by_a_later_write() {
    let system = build(4);
    let (a, b) = (Key::new(KV, 1), Key::new(KV, 2));
    let loaded = Row::new(vec![Value::U64(7)]);
    system.load_row(a, loaded.clone()).unwrap();
    system.load_row(b, loaded.clone()).unwrap();
    let sites = system.sites();
    assert_eq!(sites.len(), 4);
    let load_stamp = VersionStamp::new(SiteId::new(0), 0);
    for site in &sites {
        let copy = site.store().read_latest(a).unwrap();
        assert_eq!(copy, Some((loaded.clone(), load_stamp)));
    }

    let before = VersionVector::zero(4);
    let mut session = ClientSession::new(ClientId::new(1), 4);
    system.update(&mut session, &set_pair(1, 2, 8)).unwrap();
    let written = Row::new(vec![Value::U64(8)]);
    let mut origins = Vec::new();
    for site in &sites {
        // The session vector is the commit's: a replica dominates it only
        // once the refresh transaction has been applied there.
        site.clock().wait_dominates(&session.cvv).unwrap();
        let (row, stamp) = site.store().read_latest(a).unwrap().unwrap();
        assert_eq!(row, written);
        assert_eq!(stamp.sequence, session.cvv.get(stamp.origin));
        origins.push(stamp.origin);
        // The version under it is still the loaded image, at every site.
        assert_eq!(site.store().read(a, &before).unwrap(), Some(loaded.clone()));
    }
    origins.dedup();
    assert_eq!(
        origins.len(),
        1,
        "one commit at one master, refreshed to the rest"
    );
    assert_eq!(loaded, Row::new(vec![Value::U64(7)]));
}
