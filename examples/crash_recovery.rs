//! Crash recovery (paper §V-C): run transactions, "crash" a data site, and
//! rebuild both the site's storage and the selector's mastership map from
//! the durable redo logs alone.
//!
//! Run with: `cargo run --example crash_recovery`

use std::sync::Arc;

use bytes::{BufMut, Bytes};
use dynamast::common::ids::{ClientId, Key, SiteId, TableId};
use dynamast::common::{Result, Row, SystemConfig, Value};
use dynamast::core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast::core::recovery::{recover_selector_map, recover_site};
use dynamast::site::proc::{ProcCall, ProcExecutor, TxnCtx};
use dynamast::site::system::{ClientSession, ReplicatedSystem};
use dynamast::storage::Catalog;

const KV: TableId = TableId::new(0);
const PROC_SET: u32 = 1;

struct SetApp;

impl ProcExecutor for SetApp {
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        let mut args = call.args.clone();
        let value = dynamast::common::codec::get_u64(&mut args)?;
        for key in &call.write_set {
            ctx.write(*key, Row::new(vec![Value::U64(value)]))?;
        }
        Ok(Bytes::new())
    }
}

fn set(keys: &[u64], value: u64) -> ProcCall {
    let mut args = Vec::new();
    args.put_u64(value);
    ProcCall {
        proc_id: PROC_SET,
        args: Bytes::from(args),
        write_set: keys.iter().map(|k| Key::new(KV, *k)).collect(),
        read_keys: vec![],
        read_ranges: vec![],
    }
}

fn main() -> Result<()> {
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(3)
        .with_instant_network()
        .with_instant_service();
    let system = DynaMastSystem::build(
        DynaMastConfig::adaptive(config, catalog.clone()),
        Arc::new(SetApp),
    );

    // A workload that spreads mastership and forces some remastering.
    let mut session = ClientSession::new(ClientId::new(1), 3);
    for i in 0..50u64 {
        system.update(&mut session, &set(&[i * 100], i))?;
    }
    for i in 0..10u64 {
        system.update(&mut session, &set(&[i * 100, (i + 20) * 100], 1000 + i))?;
    }
    println!(
        "before crash: {} commits, {} remaster ops",
        system.stats().committed_updates,
        system.stats().remaster_ops
    );

    // "Crash" site 1: cut it off the network. In-flight work drains; the
    // durable logs survive (they are the Kafka stand-in).
    system
        .network()
        .disconnect(dynamast::network::EndpointId::Site(1));
    println!("site 1 disconnected");

    // Recover site 1 purely from the logs.
    let recovered = recover_site(SiteId::new(1), system.logs(), None, catalog, 4)?;
    println!(
        "replayed {} records; recovered svv = {}",
        recovered.state.offsets.iter().sum::<u64>(),
        recovered.state.svv
    );

    // The recovered store must agree with a live replica on every record.
    // Replay drained the logs; commit acks do not wait for remote refresh
    // application, so let the live replica catch up to the same history.
    let live = &system.sites()[0];
    while !live.clock().current().dominates(&session.cvv) {
        std::thread::yield_now();
    }
    let snapshot = live.clock().current();
    let mut checked = 0;
    for i in 0..50u64 {
        let key = Key::new(KV, i * 100);
        let live_row = live.store().read(key, &snapshot)?;
        let recovered_row = recovered.state.store.read(key, &recovered.state.svv)?;
        assert_eq!(live_row, recovered_row, "divergence at {key:?}");
        checked += 1;
    }
    println!("verified {checked} records match a live replica ✓");

    // The selector's mastership map is also reconstructible from the logs.
    // A site's own reconstructed claims reconcile the log-derived map; its
    // mastered set is that map filtered to the site.
    let (map, _) = recover_selector_map(
        system.logs(),
        &[],
        &[(SiteId::new(1), recovered.claims.clone())],
    )?;
    println!(
        "recovered mastership for {} partitions; site 1 mastered {}",
        map.len(),
        map.values().filter(|s| **s == SiteId::new(1)).count()
    );
    let placements = system.selector().map().placements();
    for (partition, master) in placements {
        if let Some(live_master) = master {
            assert_eq!(
                map.get(&partition),
                Some(&live_master),
                "mastership diverged"
            );
        }
    }
    println!("recovered mastership map matches the live selector ✓");
    Ok(())
}
