//! Commit-pipeline invariant tests: every sequencing path of a site — local
//! commits, remaster Release/Grant, and the batched refresh applier — runs
//! through one [`CommitPipeline`], and these tests pin the invariants that
//! pipeline must preserve under concurrency:
//!
//! * log slot order equals commit-sequence order, with no gaps, no matter
//!   how commits interleave between `begin()` and `commit()`;
//! * svv publication is monotone, and a snapshot read never observes a
//!   version stamped above the snapshot's published watermark (out-of-order
//!   *install* must stay invisible until the in-order *publish*);
//! * the remaster idempotency ledger answers duplicate Release/Grant RPCs
//!   — late or racing the original — with the recorded result while
//!   retaining only a bounded window.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use bytes::Bytes;
use dynamast_common::codec::encode_to_vec;
use dynamast_common::config::NetworkConfig;
use dynamast_common::ids::{Key, PartitionId, SiteId};
use dynamast_common::{SystemConfig, VersionVector};
use dynamast_network::{EndpointId, Network, TrafficCategory};
use dynamast_replication::record::LogRecord;
use dynamast_replication::{LogSet, RefreshApplier, Wake};
use dynamast_site::messages::{expect_ok, RemoteError, SiteRequest, SiteResponse};
use dynamast_site::tests_support::{deployment, write_call, ConstExec, TestDeployment, TABLE};
use dynamast_site::{DataSite, DataSiteConfig};
use dynamast_storage::Catalog;
use proptest::prelude::*;

fn pid(table_partition: u64) -> PartitionId {
    dynamast_common::ids::partition_id(TABLE, table_partition)
}

// ---------------------------------------------------------------------
// 8-thread commit stress
// ---------------------------------------------------------------------

#[test]
fn eight_thread_commit_stress_holds_pipeline_invariants() {
    const THREADS: u64 = 8;
    const COMMITS: u64 = 40;
    let d = deployment(2);
    let a = &d.sites[0];
    let id = a.id();
    let stop = Arc::new(AtomicBool::new(false));

    // Concurrent snapshot readers: the svv must advance monotonically, and
    // a read at a begin snapshot must never surface a version whose stamp
    // exceeds that snapshot's published watermark — even while committers
    // are installing versions for sequences that have not published yet.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let site = Arc::clone(a);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut prev = VersionVector::zero(2);
                while !stop.load(Ordering::Relaxed) {
                    let begin = site.clock().current();
                    assert!(begin.dominates(&prev), "svv publication must be monotone");
                    for record in 0..100 {
                        let read = site
                            .store()
                            .read_versioned(Key::new(TABLE, record), &begin)
                            .unwrap();
                        if let Some((_, stamp)) = read {
                            assert!(
                                stamp.sequence <= begin.get(stamp.origin),
                                "snapshot at {begin:?} observed unpublished version {stamp:?}"
                            );
                        }
                    }
                    prev = begin;
                }
            })
        })
        .collect();

    let committers: Vec<_> = (0..THREADS)
        .map(|t| {
            let site = Arc::clone(a);
            thread::spawn(move || {
                let min = VersionVector::zero(2);
                for i in 0..COMMITS {
                    // Overlapping keys across threads: committers contend on
                    // record locks as well as on the sequencing section.
                    let key = (t * COMMITS + i) % 100;
                    site.run_update(t * 1000 + i, &min, &write_call(&[key]), false)
                        .unwrap();
                }
            })
        })
        .collect();
    for c in committers {
        c.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }

    // Gap-free, contiguous, in-order: slot i holds local sequence i + 1,
    // with no reserved-but-unfilled slots left behind.
    let total = THREADS * COMMITS;
    let log = d.logs.log(id);
    assert_eq!(log.len(), total);
    assert_eq!(log.reserved_len(), total, "no abandoned reservations");
    let (records, _) = log.read_from(0).unwrap();
    assert_eq!(records.len() as u64, total);
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.origin(), id);
        assert_eq!(
            record.sequence(),
            i as u64 + 1,
            "log slot order must equal commit-sequence order"
        );
    }
    assert_eq!(a.clock().current().get(id), total);
}

// ---------------------------------------------------------------------
// Duplicate Release/Grant hammering: bounded ledger, correct replay
// ---------------------------------------------------------------------

#[test]
fn duplicate_remaster_rpcs_replay_from_a_bounded_ledger() {
    const ROUNDS: u64 = 100;
    let d = deployment(2);
    let (a, b) = (&d.sites[0], &d.sites[1]);
    let p = pid(0);
    a.ownership().grant(p);

    let mut release_vvs = HashMap::new();
    for epoch in 1..=ROUNDS {
        // Mastership ping-pongs: odd epochs a -> b, even epochs b -> a.
        let (rel, gr) = if epoch % 2 == 1 { (a, b) } else { (b, a) };
        let rel_vv = rel
            .remaster()
            .release_moves(&[(p, epoch)])
            .remove(0)
            .unwrap();
        // Retransmitted Release RPCs replay the recorded result.
        for _ in 0..3 {
            assert_eq!(
                rel.remaster()
                    .release_moves(&[(p, epoch)])
                    .remove(0)
                    .unwrap(),
                rel_vv
            );
        }
        let grant_vv = gr
            .remaster()
            .grant_moves(&[(p, epoch, rel_vv.clone())])
            .remove(0)
            .unwrap();
        for _ in 0..3 {
            assert_eq!(
                gr.remaster()
                    .grant_moves(&[(p, epoch, rel_vv.clone())])
                    .remove(0)
                    .unwrap(),
                grant_vv
            );
        }
        release_vvs.insert(epoch, rel_vv);
    }

    // Bounded memory: 100 remasters (plus 3 duplicates each) retain at most
    // the per-partition window on every ledger, not one entry per epoch.
    for site in [a, b] {
        let (released, granted) = site.remaster().ledger_sizes();
        assert!(released <= 8, "released ledger unbounded: {released}");
        assert!(granted <= 8, "granted ledger unbounded: {granted}");
    }

    // Late retransmits of retained epochs still replay the recorded vv
    // (a released on odd epochs, so its window covers 85, 87, .., 99).
    for epoch in [85, 93, 99] {
        assert_eq!(
            a.remaster().release_moves(&[(p, epoch)]).remove(0).unwrap(),
            release_vvs[&epoch]
        );
    }

    // Lost-reply replay under a fresh epoch: after round 100 the partition
    // is mastered at a, so a selector retrying b's epoch-100 release under a
    // new epoch gets the latest settled release replayed, not an error.
    assert_eq!(
        b.remaster().release_moves(&[(p, 999)]).remove(0).unwrap(),
        release_vvs[&100]
    );

    // Concurrent duplicates of one release (racing RPC retries) all settle
    // on the same recorded vv and add one ledger entry.
    let before = a.remaster().ledger_sizes().0;
    let racers: Vec<_> = (0..4)
        .map(|_| {
            let site = Arc::clone(a);
            thread::spawn(move || {
                site.remaster()
                    .release_moves(&[(p, 101)])
                    .remove(0)
                    .unwrap()
            })
        })
        .collect();
    let mut results: Vec<_> = racers.into_iter().map(|r| r.join().unwrap()).collect();
    results.dedup();
    assert_eq!(results.len(), 1, "racing duplicates must agree");
    assert!(a.remaster().ledger_sizes().0 <= before + 1);
}

/// Four copies of one Grant arrive at once (a selector retry racing its
/// original, duplicated by the fabric): the first to claim the move takes
/// ownership and logs it, and the others wait for its recorded result — one
/// answer, one Grant record.
#[test]
fn racing_duplicate_grants_log_once_and_agree() {
    const COPIES: usize = 4;
    for epoch in 1..=20u64 {
        let d = deployment(2);
        let b = &d.sites[1];
        let p = pid(0);
        let rel_vv = VersionVector::zero(2);
        let start = Arc::new(Barrier::new(COPIES));
        let racers: Vec<_> = (0..COPIES)
            .map(|_| {
                let (site, start, rel_vv) = (Arc::clone(b), Arc::clone(&start), rel_vv.clone());
                thread::spawn(move || {
                    start.wait();
                    site.remaster()
                        .grant_moves(&[(p, epoch, rel_vv)])
                        .remove(0)
                        .unwrap()
                })
            })
            .collect();
        let mut answers: Vec<_> = racers.into_iter().map(|r| r.join().unwrap()).collect();
        answers.dedup();
        assert_eq!(answers.len(), 1, "racing duplicates must agree");
        let (records, _) = d.logs.log(b.id()).read_from(0).unwrap();
        let grants = records
            .iter()
            .filter(|r| matches!(r, LogRecord::Grant { partition, .. } if *partition == p))
            .count();
        assert_eq!(grants, 1, "one Grant record for one move");
        assert_eq!(b.remaster().ledger_sizes().1, 1);
    }
}

/// One `Release` RPC carrying three moves, sent three times: the site logs
/// one record per released move, waits for visibility once (every released
/// move reports the same point), isolates the failed move, and answers the
/// retransmissions with the identical result vector from the ledger.
#[test]
fn a_retransmitted_k_move_release_rpc_replays_the_same_result_vector() {
    let d = deployment(2);
    let a = &d.sites[0];
    let (p0, unmastered, p1) = (pid(0), pid(1), pid(2));
    a.ownership().grant(p0);
    a.ownership().grant(p1);
    let request = Bytes::from(encode_to_vec(&SiteRequest::Release {
        moves: vec![(p0, 1), (unmastered, 2), (p1, 3)],
        generation: 0,
    }));
    let send = || {
        let reply = d
            .network
            .rpc_async(
                EndpointId::Site(0),
                TrafficCategory::Remaster,
                request.clone(),
            )
            .and_then(|pending| pending.wait())
            .unwrap();
        match expect_ok(&reply).unwrap() {
            SiteResponse::Released { results } => results,
            other => panic!("unexpected reply {other:?}"),
        }
    };

    let first = send();
    assert!(first[0].is_ok() && first[2].is_ok(), "{first:?}");
    assert_eq!(first[0], first[2], "one visibility wait for the RPC");
    assert_eq!(first[1], Err(RemoteError::Internal));
    assert_eq!(d.logs.log(a.id()).len(), 2, "one record per released move");
    assert!(a.ownership().mastered_partitions().is_empty());

    for _ in 0..2 {
        assert_eq!(send(), first);
    }
    assert_eq!(d.logs.log(a.id()).len(), 2, "duplicates log nothing");
    assert_eq!(a.remaster().ledger_sizes().0, 2);
}

/// Reserves `site`'s next log slot — its next commit sequence — by hand, a
/// committer parked between `CommitPipeline::begin` and its fill, and
/// returns the sequence plus the closer (a tombstone fill, as an abort
/// would do).
fn open_slot<'a>(d: &'a TestDeployment, site: &'a DataSite) -> (u64, impl FnOnce() + 'a) {
    let log = d.logs.log(site.id());
    let slot = log.reserve();
    let seq = slot + 1;
    (seq, move || {
        if let Some(visible) = log.abort(slot) {
            site.clock().publish_up_to(visible);
        }
    })
}

/// Runs `rpc` on its own thread while an earlier commit slot of `site` is
/// held open: it must not return before the slot closes, and must then
/// return. The reply to a Release or Grant is the remaster handoff point, so
/// it has to cover the RPC's own log records — which publish only behind
/// every earlier sequence.
fn blocked_by_open_slot<T: Send>(
    d: &TestDeployment,
    site: &DataSite,
    rpc: impl FnOnce() -> T + Send,
) -> (u64, T) {
    let (open, close) = open_slot(d, site);
    thread::scope(|s| {
        let call = s.spawn(rpc);
        thread::sleep(Duration::from_millis(50));
        assert!(!call.is_finished(), "replied with sequence {open} open");
        assert_eq!(site.clock().current().get(site.id()), open - 1);
        close();
        (open, call.join().unwrap())
    })
}

#[test]
fn a_remaster_reply_waits_for_earlier_open_slots_and_covers_its_own_records() {
    let d = deployment(2);
    let (a, b) = (&d.sites[0], &d.sites[1]);
    let (p0, p1, p2) = (pid(0), pid(1), pid(2));
    for p in [p0, p1, p2] {
        a.ownership().grant(p);
    }

    // One release: its record is the sequence after the open one.
    let (open, rel_vv) = blocked_by_open_slot(&d, a, || {
        a.remaster().release_moves(&[(p0, 1)]).remove(0).unwrap()
    });
    assert!(
        rel_vv.get(a.id()) > open,
        "{rel_vv:?} misses its own record"
    );

    // The grant half, at the other site, behind an open slot of its own.
    let (open, grant_vv) = blocked_by_open_slot(&d, b, || {
        b.remaster()
            .grant_moves(&[(p0, 1, rel_vv.clone())])
            .remove(0)
            .unwrap()
    });
    assert!(
        grant_vv.get(b.id()) > open,
        "{grant_vv:?} misses its own record"
    );
    assert!(grant_vv.dominates(&rel_vv));

    // A k-move `Release` RPC: two records behind the open slot, one wait on
    // the last of them. (The site reserves an RPC's slots back to back, so a
    // test cannot wedge a foreign slot *between* them; waiting on the last
    // sequence covers that case by construction.)
    let request = Bytes::from(encode_to_vec(&SiteRequest::Release {
        moves: vec![(p1, 2), (p2, 3)],
        generation: 0,
    }));
    let (open, reply) = blocked_by_open_slot(&d, a, || {
        d.network
            .rpc_async(EndpointId::Site(0), TrafficCategory::Remaster, request)
            .and_then(|pending| pending.wait())
            .unwrap()
    });
    let SiteResponse::Released { results } = expect_ok(&reply).unwrap() else {
        panic!("unexpected reply");
    };
    assert_eq!(results.len(), 2);
    for result in results {
        let vv = result.unwrap();
        assert!(
            vv.get(a.id()) >= open + 2,
            "{vv:?} misses the RPC's records"
        );
    }
}

// ---------------------------------------------------------------------
// Proptest: commits, refresh batches, and remasters interleaved
// ---------------------------------------------------------------------

/// Two replicated sites with *no* background runtimes: the test drives
/// refresh application by hand so generated batch boundaries are exact.
fn quiet_pair() -> (Vec<Arc<DataSite>>, LogSet) {
    let mut catalog = Catalog::new();
    catalog.add_table("t", 1, 100);
    let system = SystemConfig::new(2)
        .with_instant_network()
        .with_instant_service();
    let network = Network::new(NetworkConfig::instant(), 1);
    let logs = LogSet::new(2);
    let sites = (0..2)
        .map(|i| {
            DataSite::new(
                DataSiteConfig {
                    id: SiteId::new(i),
                    system: system.clone(),
                    replicate: true,
                    initial_partitions: Vec::new(),
                    static_owner: None,
                    hosted: None,
                    freshness_parks: None,
                },
                catalog.clone(),
                logs.clone(),
                Arc::clone(&network),
                Arc::new(ConstExec),
            )
        })
        .collect();
    (sites, logs)
}

/// Applies up to `max` pending records of `from`'s log at `to` as one
/// refresh batch, returning the advanced offset.
fn drain(logs: &LogSet, from: &Arc<DataSite>, to: &Arc<DataSite>, offset: u64, max: usize) -> u64 {
    let (records, _) = logs.log(from.id()).read_from(offset).unwrap();
    let batch = &records[..records.len().min(max)];
    let applied = to
        .apply_batch(batch, &Wake::new(std::thread::current()))
        .unwrap();
    assert_eq!(applied, batch.len(), "two sites never block on Eq. 1");
    offset + applied as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interleavings of local commits (at the current master),
    /// partial refresh batches in both directions, and Release/Grant
    /// remasters — all through the shared pipeline — must leave both sites
    /// with identical svvs, identical visible versions, and gap-free logs.
    #[test]
    fn interleaved_commits_refreshes_and_remasters_converge(
        ops in prop::collection::vec((0u8..6, 0u64..40), 1..48)
    ) {
        let (sites, logs) = quiet_pair();
        let p = pid(99); // remastered partition, disjoint from commit keys
        sites[0].ownership().grant(p);
        let mut master = 0usize;
        let mut epoch = 0u64;
        let mut offsets = [0u64; 2]; // offsets[i]: records of site i applied at the peer
        let min = VersionVector::zero(2);

        for (kind, arg) in ops {
            match kind {
                // Local commit at the current master.
                0..=2 => {
                    sites[master]
                        .run_update(epoch * 100 + arg, &min, &write_call(&[arg]), false)
                        .unwrap();
                }
                // Partial refresh batch, one direction per kind.
                3 | 4 => {
                    let from = if kind == 3 { 0 } else { 1 };
                    offsets[from] = drain(
                        &logs,
                        &sites[from],
                        &sites[1 - from],
                        offsets[from],
                        arg as usize % 5 + 1,
                    );
                }
                // Remaster: release at the master, catch the peer up, grant.
                _ => {
                    epoch += 1;
                    let rel_vv = sites[master].remaster().release_moves(&[(p, epoch)]).remove(0).unwrap();
                    prop_assert_eq!(&sites[master].remaster().release_moves(&[(p, epoch)]).remove(0).unwrap(), &rel_vv);
                    offsets[master] =
                        drain(&logs, &sites[master], &sites[1 - master], offsets[master], usize::MAX);
                    sites[1 - master].remaster().grant_moves(&[(p, epoch, rel_vv.clone())]).remove(0).unwrap();
                    master = 1 - master;
                }
            }
        }

        // Drain both directions to quiescence.
        for from in 0..2 {
            offsets[from] = drain(&logs, &sites[from], &sites[1 - from], offsets[from], usize::MAX);
        }

        // Convergence: identical svvs covering both full logs...
        let (vv0, vv1) = (sites[0].clock().current(), sites[1].clock().current());
        prop_assert_eq!(&vv0, &vv1);
        for site in &sites {
            prop_assert_eq!(vv0.get(site.id()), logs.log(site.id()).len());
        }
        // ...identical visible versions for every key...
        for key in 0..40 {
            let k = Key::new(TABLE, key);
            prop_assert_eq!(
                sites[0].store().read_versioned(k, &vv0).unwrap(),
                sites[1].store().read_versioned(k, &vv1).unwrap()
            );
        }
        // ...and gap-free logs: slot order equals sequence order at both.
        for site in &sites {
            let (records, _) = logs.log(site.id()).read_from(0).unwrap();
            for (i, record) in records.iter().enumerate() {
                prop_assert_eq!(record.origin(), site.id());
                prop_assert_eq!(record.sequence(), i as u64 + 1);
            }
        }
    }
}
