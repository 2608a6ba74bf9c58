//! Architecture shoot-out: run the same YCSB burst on all five systems the
//! paper evaluates, plus DynaMast under floor-2 partial replication, and
//! print a side-by-side comparison — a miniature Figure 4a you can run in
//! seconds. Every system is built by the same factory with the same worker
//! pool per site; `tests/traffic_audit.rs` asserts each one's traffic
//! matrix, and this program prints its bytes per category.
//!
//! Run with: `cargo run --release --example architecture_comparison`

use std::sync::Arc;
use std::thread;
use std::time::Instant;

use dynamast::baselines::{build, SystemKind};
use dynamast::common::ids::ClientId;
use dynamast::common::{Result, SystemConfig};
use dynamast::network::TrafficCategory;
use dynamast::site::system::ClientSession;
use dynamast::workloads::{TxnKind, Workload, YcsbConfig, YcsbWorkload};

const CLIENTS: usize = 8;
const TXNS_PER_CLIENT: usize = 150;
const SITES: usize = 4;
/// RPC workers per site, the same for every architecture.
const WORKERS: usize = 8;

/// Builds `kind` under `config`, drives the burst, and prints one row of
/// throughput and statistics plus one row of bytes per traffic category.
fn drive(
    name: &str,
    kind: SystemKind,
    config: SystemConfig,
    workload: &YcsbWorkload,
) -> Result<()> {
    let deployment = build(kind, config, workload, WORKERS)?;
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let system = Arc::clone(&deployment.system);
        let mut generator = workload.client(ClientId::new(c), 7 + c as u64);
        handles.push(thread::spawn(move || -> Result<()> {
            let mut session = ClientSession::new(ClientId::new(c), SITES);
            for _ in 0..TXNS_PER_CLIENT {
                let txn = generator.next_txn();
                match txn.kind {
                    TxnKind::Update => system.update(&mut session, &txn.call)?,
                    TxnKind::ReadOnly => system.read(&mut session, &txn.call)?,
                };
            }
            Ok(())
        }));
    }
    for handle in handles {
        handle.join().expect("client panicked")?;
    }
    let elapsed = start.elapsed();
    let total = (CLIENTS * TXNS_PER_CLIENT) as f64;
    let stats = deployment.system.stats();
    println!(
        "{name:>16}: {:7.0} txn/s | commits {:5} | aborts {:3} | remasters {:4} | resident {:5.1} MiB",
        total / elapsed.as_secs_f64(),
        stats.committed_updates,
        stats.aborts,
        stats.remaster_ops,
        stats.resident_bytes as f64 / (1024.0 * 1024.0),
    );
    let snapshot = deployment.network.stats().snapshot();
    let traffic: Vec<String> = TrafficCategory::ALL
        .into_iter()
        .filter(|c| snapshot.get(*c).messages > 0)
        .map(|c| {
            let kib = snapshot.get(c).bytes as f64 / 1024.0;
            format!("{} {kib:.1} KiB", c.label())
        })
        .collect();
    println!("{:>16}  traffic: {}", "", traffic.join(" | "));
    Ok(())
}

fn main() -> Result<()> {
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 20_000,
        rmw_fraction: 0.5,
        ..YcsbConfig::default()
    });
    // Small, fast-to-run configuration: real protocol, light service costs.
    let config = || SystemConfig::new(SITES).with_instant_service();
    println!(
        "YCSB 50/50 RMW/scan, {SITES} sites x {WORKERS} workers, \
         {CLIENTS} clients x {TXNS_PER_CLIENT} txns\n"
    );
    for kind in SystemKind::ALL {
        drive(kind.name(), kind, config(), &workload)?;
        if kind == SystemKind::DynaMast {
            // The same system under floor-2 partial replication: the
            // resident column is the point — the store footprint drops
            // toward 2/4 of full replication while the client API stays
            // identical.
            let partial = config().with_partial_replication(2);
            drive("dynamast-floor2", kind, partial, &workload)?;
        }
    }
    Ok(())
}
