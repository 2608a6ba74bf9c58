//! Protocol-level tests of the data site: dynamic mastering release/grant
//! semantics, 2PC participant behaviour, and LEAP data shipping — exercised
//! through the direct API over a live multi-site deployment.

use dynamast_common::ids::{Key, PartitionId, SiteId, TableId};
use dynamast_common::{DynaError, Row, Value, VersionVector};
use dynamast_replication::record::WriteEntry;
use dynamast_site::messages::ExpectedVersion;
use dynamast_site::tests_support::{deployment, write_call, TABLE};
use dynamast_storage::{ImageRecord, VersionStamp};

fn pid(table_partition: u64) -> PartitionId {
    dynamast_common::ids::partition_id(TABLE, table_partition)
}

#[test]
fn release_then_grant_transfers_mastership() {
    let d = deployment(2);
    let (a, b) = (&d.sites[0], &d.sites[1]);
    a.ownership().grant(pid(0));
    // A local commit at A must be visible at B after the grant's catch-up.
    let min = VersionVector::zero(2);
    a.run_update(0, &min, &write_call(&[5]), true).unwrap();

    let rel_vv = a.release_moves(&[(pid(0), 1)]).remove(0).unwrap();
    assert!(!a.ownership().is_mastered(pid(0)));
    let grant_vv = b
        .grant_moves(&[(pid(0), 1, rel_vv.clone())])
        .remove(0)
        .unwrap();
    assert!(b.ownership().is_mastered(pid(0)));
    assert!(grant_vv.dominates(&rel_vv));
    // B's copy already includes A's committed write (the grant waited).
    let row = b.store().read(Key::new(TABLE, 5), &grant_vv).unwrap();
    assert!(row.is_some(), "grantee must have the releaser's state");
    // And B can now execute updates on the partition.
    b.run_update(0, &grant_vv, &write_call(&[6]), true).unwrap();
}

#[test]
fn updates_on_unmastered_partitions_are_rejected() {
    let d = deployment(2);
    let site = &d.sites[0];
    let err = site
        .run_update(0, &VersionVector::zero(2), &write_call(&[1]), true)
        .unwrap_err();
    assert!(matches!(err, DynaError::NotMaster { .. }));
    // With the mastership check disabled (2PC systems own their checks),
    // the update executes.
    site.run_update(0, &VersionVector::zero(2), &write_call(&[1]), false)
        .unwrap();
}

#[test]
fn release_of_unmastered_partition_errors() {
    let d = deployment(2);
    assert!(d.sites[0].release_moves(&[(pid(9), 1)]).remove(0).is_err());
}

#[test]
fn prepare_votes_no_on_lock_conflict_and_validation_failure() {
    let d = deployment(2);
    let site = &d.sites[0];
    site.ownership().grant(pid(0));
    let key = Key::new(TABLE, 3);
    let entry = WriteEntry {
        key,
        row: dynamast_common::Row::new(vec![dynamast_common::Value::U64(1)]),
    };

    // Lock conflict: holding the record lock forces a no-vote.
    let guard = site.store().locks().try_acquire(key).unwrap();
    assert!(!site.prepare(100, vec![entry.clone()], &[]).unwrap());
    drop(guard);

    // Validation failure: expect a version that does not exist.
    let stale = ExpectedVersion {
        key,
        stamp: Some(VersionStamp::new(SiteId::new(1), 42)),
    };
    assert!(!site.prepare(101, vec![entry.clone()], &[stale]).unwrap());

    // Matching expectation (absent row) passes and decide commits.
    let expect_absent = ExpectedVersion { key, stamp: None };
    assert!(site.prepare(102, vec![entry], &[expect_absent]).unwrap());
    let vv = site.decide(102, true).unwrap();
    assert!(site.store().read(key, &vv).unwrap().is_some());
}

#[test]
fn decide_abort_releases_locks_and_installs_nothing() {
    let d = deployment(2);
    let site = &d.sites[0];
    site.ownership().grant(pid(0));
    let key = Key::new(TABLE, 8);
    let entry = WriteEntry {
        key,
        row: dynamast_common::Row::new(vec![dynamast_common::Value::U64(1)]),
    };
    assert!(site.prepare(7, vec![entry], &[]).unwrap());
    // Locked while prepared.
    assert!(site.store().locks().try_acquire(key).is_none());
    site.decide(7, false).unwrap();
    assert!(site.store().locks().try_acquire(key).is_some());
    assert!(!site.store().contains(key).unwrap());
    // Abort is idempotent; commit of an unknown txn is an error.
    site.decide(7, false).unwrap();
    assert!(site.decide(7, true).is_err());
}

#[test]
fn leap_ships_records_with_ownership() {
    let d = deployment(2);
    let (a, b) = (&d.sites[0], &d.sites[1]);
    a.ownership().grant(pid(0));
    a.load_row(
        Key::new(TABLE, 10),
        dynamast_common::Row::new(vec![dynamast_common::Value::U64(99)]),
    )
    .unwrap();

    let records = a.leap_release(&[pid(0)]).unwrap();
    assert_eq!(records.len(), 1);
    assert!(!a.ownership().is_mastered(pid(0)));
    b.leap_grant(&[pid(0)], records).unwrap();
    assert!(b.ownership().is_mastered(pid(0)));
    let (row, _) = b.store().read_latest(Key::new(TABLE, 10)).unwrap().unwrap();
    assert_eq!(
        row,
        dynamast_common::Row::new(vec![dynamast_common::Value::U64(99)])
    );
}

/// Shipped records are input from another site: a grant whose image does
/// not install in full installs nothing and takes no ownership.
#[test]
fn leap_grant_with_a_bad_record_installs_nothing() {
    let d = deployment(2);
    let b = &d.sites[1];
    let valid = Key::new(TABLE, 10);
    let record = |key, v| ImageRecord {
        key,
        stamp: VersionStamp::new(SiteId::new(0), 1),
        row: Row::new(vec![Value::U64(v)]),
    };
    let unknown_table = Key::new(TableId::new(99), 11);
    let err = b
        .leap_grant(&[pid(0)], vec![record(valid, 1), record(unknown_table, 2)])
        .unwrap_err();
    assert_eq!(err, DynaError::NoSuchTable(99));
    assert!(
        !b.store().contains(valid).unwrap(),
        "no row of a refused grant"
    );
    assert!(!b.ownership().is_mastered(pid(0)));
}

#[test]
fn refresh_propagation_carries_local_commits_to_peers() {
    let d = deployment(3);
    let a = &d.sites[0];
    a.ownership().grant(pid(0));
    let min = VersionVector::zero(3);
    let (_, commit_vv, _) = a.run_update(0, &min, &write_call(&[1, 2]), true).unwrap();
    // Peers converge via their propagators.
    for peer in &d.sites[1..] {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !peer.clock().current().dominates(&commit_vv) {
            assert!(std::time::Instant::now() < deadline, "propagation stalled");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(peer
            .store()
            .read(Key::new(TABLE, 1), &commit_vv)
            .unwrap()
            .is_some());
    }
}

#[test]
fn grant_blocks_until_releaser_state_arrives() {
    let d = deployment(2);
    let (a, b) = (&d.sites[0], &d.sites[1]);
    a.ownership().grant(pid(0));
    // Commit a burst at A so the release vector is ahead of B.
    let min = VersionVector::zero(2);
    for i in 0..20u64 {
        a.run_update(0, &min, &write_call(&[i]), true).unwrap();
    }
    let rel_vv = a.release_moves(&[(pid(0), 1)]).remove(0).unwrap();
    // The grant must wait for B to apply A's history, then B's vv dominates.
    let grant_vv = b
        .grant_moves(&[(pid(0), 1, rel_vv.clone())])
        .remove(0)
        .unwrap();
    assert!(grant_vv.dominates(&rel_vv));
    // Every one of A's writes is now readable at B.
    for i in 0..20u64 {
        assert!(b
            .store()
            .read(Key::new(TABLE, i), &grant_vv)
            .unwrap()
            .is_some());
    }
}
