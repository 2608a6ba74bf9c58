//! Mode-equivalence property: per-transaction remastering and epoch-batched
//! remastering are *policies about when mastership moves*, not about where
//! data lives or what transactions observe. For the same seeded workload the
//! two modes must converge to the identical final ownership table, and the
//! SmallBank conservation invariant must hold under both.
//!
//! Determinism lever: all-zero strategy weights make every Eq. 8 candidate
//! score 0.0, and the argmax breaks ties toward the lowest site id — so every
//! remaster decision in either mode picks site 0, and the final table is a
//! pure function of *which* partitions moved, never of when the mover ran or
//! what the load vector looked like at flush time. A closing sweep pairs
//! every checking partition with partition 0 (pinned at site 0 by the same
//! tie-break), forcing any still-scattered partition through the mandatory
//! inline co-location path in both modes.

mod common;

use std::sync::Arc;

use dynamast::common::ids::{ClientId, Key, PartitionId, SiteId};
use dynamast::common::{StrategyWeights, SystemConfig, VersionVector};
use dynamast::core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast::site::system::{ClientSession, ReplicatedSystem};
use dynamast::workloads::smallbank::{self, SmallBankConfig, SmallBankWorkload};
use dynamast::workloads::Workload;
use proptest::prelude::*;

use common::{await_convergence, transfer, Rng};

const SITES: usize = 3;
const CUSTOMERS: u64 = 1_200;
const INITIAL: i64 = 10_000;
const PARTITION_SIZE: u64 = 100;

fn build(batched: bool) -> Arc<DynaMastSystem> {
    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_customers: CUSTOMERS,
        initial_balance: INITIAL,
        ..SmallBankConfig::default()
    });
    let mut config = SystemConfig::new(SITES)
        .with_instant_network()
        .with_instant_service()
        .with_weights(StrategyWeights {
            balance: 0.0,
            delay: 0.0,
            intra_txn: 0.0,
            inter_txn: 0.0,
        });
    if batched {
        // Small epochs and a tight wait budget so a short run still crosses
        // every flush trigger (count, wait-budget force, explicit drain).
        config = config.with_epoch_batching(4, 8);
    }
    // Seed the paper's Fig. 5b-style range placement instead of the default
    // unplaced start: cold-start placement under zero weights would put every
    // partition at site 0 immediately, leaving the epoch queue nothing to
    // move. With remote-seeded masters, batched mode must *migrate* them.
    let placements: Vec<_> = {
        let owner = workload.static_owner(SITES);
        smallbank::all_partitions(workload.config())
            .into_iter()
            .map(|p| (p, owner(p)))
            .collect()
    };
    let mut cfg = DynaMastConfig::adaptive(config, workload.catalog());
    cfg.initial_placements = placements.clone();
    let system = DynaMastSystem::build(cfg, workload.executor());
    for (p, s) in &placements {
        system.sites()[s.as_usize()].ownership().grant(*p);
    }
    workload
        .populate(&mut |key, row| system.load_row(key, row))
        .unwrap();
    system
}

/// Pairs of checking partitions seeded on the same non-zero site (block
/// range partitioning: 4–7 at site 1, 8–11 at site 2). A flash crowd split
/// across one pair makes that remote site the load leader, which is what
/// arms the imbalance probe — and two hot partitions queued from the same
/// source site is the smallest shape that coalesces into a real multi-move
/// `Release`.
const HOT_PAIRS: [(u64, u64); 8] = [
    (4, 5),
    (5, 6),
    (6, 7),
    (4, 7),
    (8, 9),
    (9, 10),
    (10, 11),
    (8, 11),
];

/// Runs the seeded transfer stream, then the deterministic co-location
/// sweep, then drains any queued epoch moves. Returns the ownership table
/// as the stream left it, before the sweep.
///
/// The stream interleaves two shapes. The *flash crowd* (~90%) hammers two
/// partitions co-seeded on a remote site with intra-partition pairs: pure
/// sole-master fast path, so per-txn mode never moves them, while batched
/// mode's probe queues both and a flush migrates them as one batch — exactly
/// the asymmetry the closing sweep must erase. *Scatter* pairs (~10%) stay
/// inside the site-0 seeded block (accounts 0..400) so they never steal the
/// hot partitions inline and dilute the remote site's load share.
fn run(
    system: &DynaMastSystem,
    seed: u64,
    txns: u64,
    span: u64,
    hot: (u64, u64),
) -> Vec<(PartitionId, Option<SiteId>)> {
    let mut session = ClientSession::new(ClientId::new(1), SITES);
    let mut rng = Rng(seed);
    for _ in 0..txns {
        let (from, mut to) = if rng.next() % 10 < 9 {
            let base = if rng.next().is_multiple_of(2) {
                hot.0
            } else {
                hot.1
            } * PARTITION_SIZE;
            (
                base + rng.next() % PARTITION_SIZE,
                base + rng.next() % PARTITION_SIZE,
            )
        } else {
            (rng.next() % span, rng.next() % span)
        };
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
            .unwrap();
    }
    let after_stream = placements(system);
    // The sweep: pair each checking partition with the anchor partition 0.
    // A scattered pair must co-locate inline (both modes share that path),
    // and zero weights send it to site 0.
    for p in 1..CUSTOMERS / PARTITION_SIZE {
        system
            .update(&mut session, &transfer(0, p * PARTITION_SIZE, 1))
            .unwrap();
    }
    system.selector().flush_epoch().unwrap();
    after_stream
}

fn placements(system: &DynaMastSystem) -> Vec<(PartitionId, Option<SiteId>)> {
    let mut table = system.selector().map().placements();
    table.sort_unstable_by_key(|(p, _)| *p);
    table
}

fn checking_total(system: &DynaMastSystem, seed: u64) -> i64 {
    let target = system
        .sites()
        .iter()
        .map(|s| s.clock().current())
        .fold(VersionVector::zero(SITES), |acc, vv| acc.max_with(&vv));
    await_convergence(system, &target, seed);
    let store = system.sites()[0].clone();
    (0..CUSTOMERS)
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
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seeded workload through both modes: identical final ownership
    /// tables, money conserved in each, and the batched run really batched.
    #[test]
    fn per_txn_and_epoch_batched_modes_converge_identically(
        seed in any::<u64>(),
        txns in 400u64..1_200,
        // Scatter stays within the site-0 seeded block; the span only
        // varies how much of that block the noise traffic touches.
        span in 150u64..400,
        hot_sel in 0usize..HOT_PAIRS.len(),
    ) {
        let hot = HOT_PAIRS[hot_sel];
        let per_txn = build(false);
        let batched = build(true);
        let per_txn_stream = run(&per_txn, seed, txns, span, hot);
        let batched_stream = run(&batched, seed, txns, span, hot);

        let a = placements(&per_txn);
        let b = placements(&batched);
        prop_assert_eq!(a, b, "ownership tables diverged (seed {:#x})", seed);

        // The batched run must have exercised the epoch flush, not just
        // degenerated to slow-path moves: only a flush moves a partition
        // during the stream, so the tables differ until the sweep.
        prop_assert!(
            batched_stream != per_txn_stream,
            "epoch mode never flushed a move (seed {:#x})",
            seed
        );

        prop_assert_eq!(checking_total(&per_txn, seed), CUSTOMERS as i64 * INITIAL);
        prop_assert_eq!(checking_total(&batched, seed), CUSTOMERS as i64 * INITIAL);
    }
}
