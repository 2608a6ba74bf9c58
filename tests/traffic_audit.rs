//! Per-architecture traffic-matrix audit: every category of network traffic
//! an architecture is supposed to generate must be nonzero after a burst,
//! and every category it must not generate must stay zero. A silent zero
//! (or a silent nonzero) means an RPC path gained or lost its accounting —
//! the regression this test pins down for all five systems the paper
//! compares, each built through the one factory, and for DynaMast under
//! floor-2 partial replication.

use std::sync::Arc;
use std::thread;

use dynamast::baselines::{build, SystemKind};
use dynamast::common::ids::ClientId;
use dynamast::common::SystemConfig;
use dynamast::network::TrafficCategory::{self, *};
use dynamast::site::system::ClientSession;
use dynamast::workloads::{TxnKind, Workload, YcsbConfig, YcsbWorkload};

const SITES: usize = 3;
const CLIENTS: usize = 4;
const TXNS_PER_CLIENT: usize = 100;
const WORKERS: usize = 8;

fn config() -> SystemConfig {
    SystemConfig::new(SITES).with_instant_service()
}

/// Builds `kind` over YCSB 50/50, runs a short burst, then asserts the
/// traffic matrix: nonzero messages for every expected category, zero for
/// every other.
fn burst_and_audit(kind: SystemKind, config: SystemConfig, expected: &[TrafficCategory]) {
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 4_000,
        rmw_fraction: 0.5,
        ..YcsbConfig::default()
    });
    let name = kind.name();
    let deployment = build(kind, config, &workload, WORKERS).unwrap();
    assert_eq!(
        deployment.system.name(),
        name,
        "the factory built another kind"
    );
    thread::scope(|scope| {
        for c in 0..CLIENTS {
            let system = Arc::clone(&deployment.system);
            let mut generator = workload.client(ClientId::new(c), 31 + c as u64);
            scope.spawn(move || {
                let mut session = ClientSession::new(ClientId::new(c), SITES);
                for _ in 0..TXNS_PER_CLIENT {
                    let txn = generator.next_txn();
                    let outcome = match txn.kind {
                        TxnKind::Update => system.update(&mut session, &txn.call),
                        TxnKind::ReadOnly => system.read(&mut session, &txn.call),
                    };
                    outcome.unwrap_or_else(|e| panic!("{name}: {} failed: {e}", txn.label));
                }
            });
        }
    });
    let snapshot = deployment.network.stats().snapshot();
    for category in TrafficCategory::ALL {
        let totals = snapshot.get(category);
        if expected.contains(&category) {
            assert!(
                totals.messages > 0,
                "{name}: expected {} traffic, saw none",
                category.label()
            );
            assert!(
                totals.bytes > 0,
                "{name}: {} messages recorded but zero bytes charged",
                category.label()
            );
        } else {
            assert_eq!(
                totals.messages,
                0,
                "{name}: expected no {} traffic, saw {} msgs",
                category.label(),
                totals.messages
            );
        }
    }
}

#[test]
fn dynamast_traffic_categories() {
    let expected = [ClientSelector, ClientSite, Remaster, Replication];
    burst_and_audit(SystemKind::DynaMast, config(), &expected);
}

/// Floor-2 partial replication adds data shipping: a grant to a site
/// without a copy installs one first (create-then-grant), and the
/// provisioning planner moves copies.
#[test]
fn dynamast_floor2_traffic_categories() {
    let expected = [ClientSelector, ClientSite, Remaster, Replication, DataShip];
    let config = config().with_partial_replication(2);
    burst_and_audit(SystemKind::DynaMast, config, &expected);
}

/// Remaster traffic without remaster ops: first-touch placement grants are
/// charged to the remaster category even under a pinned strategy.
#[test]
fn single_master_traffic_categories() {
    let expected = [ClientSelector, ClientSite, Remaster, Replication];
    burst_and_audit(SystemKind::SingleMaster, config(), &expected);
}

/// Both static systems spread writes through client-coordinated 2PC;
/// multi-master also tails every commit out to the other full replicas.
#[test]
fn multi_master_traffic_categories() {
    let expected = [ClientSite, TwoPhaseCommit, Replication];
    burst_and_audit(SystemKind::MultiMaster, config(), &expected);
}

/// Each partition is owned exactly once, so the propagator has nothing to
/// ship: replication must stay zero.
#[test]
fn partition_store_traffic_categories() {
    let expected = [ClientSite, TwoPhaseCommit];
    burst_and_audit(SystemKind::PartitionStore, config(), &expected);
}

#[test]
fn leap_traffic_categories() {
    let expected = [ClientSelector, ClientSite, DataShip];
    burst_and_audit(SystemKind::Leap, config(), &expected);
}
