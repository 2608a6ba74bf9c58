//! Failure-injection tests (paper §V-C): sites recover from the durable
//! logs; the selector's mastership map is reconstructible from grant/release
//! records.

use std::sync::{mpsc, Arc};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes};
use dynamast::common::ids::{ClientId, Key, SiteId, TableId};
use dynamast::common::{FsyncMode, Result, Row, SystemConfig, Value, VersionVector};
use dynamast::core::dynamast::{DynaMastConfig, DynaMastSystem};
use dynamast::core::recovery::{recover_selector_map, recover_site};
use dynamast::site::proc::{ProcCall, ProcExecutor, TxnCtx};
use dynamast::site::system::{ClientSession, ReplicatedSystem};
use dynamast::storage::Catalog;

const KV: TableId = TableId::new(0);

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

/// [`SetApp`] that reports the thread and instant at which it executes the
/// one call writing `tapped`.
struct TappedApp {
    tapped: u64,
    entered: mpsc::Sender<(ThreadId, Instant)>,
}

impl ProcExecutor for TappedApp {
    fn execute(&self, ctx: &mut dyn TxnCtx, call: &ProcCall) -> Result<Bytes> {
        let value = dynamast::common::codec::get_u64(&mut call.args.clone())?;
        if value == self.tapped {
            let _ = self.entered.send((thread::current().id(), Instant::now()));
        }
        SetApp.execute(ctx, call)
    }
}

fn set(keys: &[u64], value: u64) -> ProcCall {
    let mut args = Vec::new();
    args.put_u64(value);
    ProcCall {
        proc_id: 1,
        args: Bytes::from(args),
        write_set: keys.iter().map(|k| Key::new(KV, *k)).collect(),
        read_keys: vec![],
        read_ranges: vec![],
    }
}

fn build() -> (Arc<DynaMastSystem>, Catalog) {
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(3)
        .with_instant_network()
        .with_instant_service();
    let system = DynaMastSystem::build(
        DynaMastConfig::adaptive(config, catalog.clone()),
        Arc::new(SetApp),
    );
    (system, catalog)
}

#[test]
fn replayed_site_matches_live_replica() {
    let (system, catalog) = build();
    let mut session = ClientSession::new(ClientId::new(1), 3);
    // Single-partition writes place; joint write sets remaster.
    for i in 0..40u64 {
        system.update(&mut session, &set(&[i * 100], i)).unwrap();
    }
    for i in 0..10u64 {
        system
            .update(&mut session, &set(&[i * 100, (i + 15) * 100], 5000 + i))
            .unwrap();
    }

    let recovered = recover_site(SiteId::new(2), system.logs(), None, catalog, 4).unwrap();
    // The recovered svv must cover the session's entire history.
    assert!(recovered.state.svv.dominates(&session.cvv));
    // Every record agrees with the freshest live data. Replay drained the
    // logs completely, so wait until the live replica's refresh stream has
    // caught up to the session history before comparing cuts — commit acks
    // do not wait for remote refresh application.
    let live = &system.sites()[0];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !live.clock().current().dominates(&session.cvv) {
        assert!(
            std::time::Instant::now() < deadline,
            "live replica never caught up to the session history"
        );
        std::thread::yield_now();
    }
    let live_vv = live.clock().current();
    for i in 0..40u64 {
        let key = Key::new(KV, i * 100);
        let expected = live.store().read(key, &live_vv).unwrap();
        let got = recovered
            .state
            .store
            .read(key, &recovered.state.svv)
            .unwrap();
        assert_eq!(got, expected, "divergence at {key:?}");
    }
}

#[test]
fn selector_map_recovers_current_masterships() {
    let (system, _) = build();
    let mut session = ClientSession::new(ClientId::new(1), 3);
    for i in 0..30u64 {
        system.update(&mut session, &set(&[i * 100], 1)).unwrap();
    }
    // Force remastering by joining distant partitions.
    for i in 0..10u64 {
        system
            .update(&mut session, &set(&[i * 100, (29 - i) * 100], 2))
            .unwrap();
    }
    let (recovered, _) = recover_selector_map(system.logs(), &[], &[]).unwrap();
    for (partition, master) in system.selector().map().placements() {
        let Some(live_master) = master else { continue };
        assert_eq!(
            recovered.get(&partition),
            Some(&live_master),
            "stale mastership for {partition:?}"
        );
    }
    assert!(!recovered.is_empty());
}

#[test]
fn crashed_site_does_not_block_others() {
    let (system, _) = build();
    let mut session = ClientSession::new(ClientId::new(1), 3);
    // Keep partitions away from site 1 by seeding activity then crashing it.
    for i in 0..10u64 {
        system.update(&mut session, &set(&[i * 100], 1)).unwrap();
    }
    // Find a partition NOT mastered at site 1 and keep writing to it after
    // the crash; single-site execution must be unaffected.
    let victim = SiteId::new(1);
    system
        .network()
        .disconnect(dynamast::network::EndpointId::Site(1));
    let placements = system.selector().map().placements();
    let survivor_partition = placements
        .iter()
        .find_map(|(p, m)| (*m != Some(victim)).then_some(*p))
        .expect("some partition not on the victim");
    let (_, index) = dynamast::common::ids::unpack_partition_id(survivor_partition);
    let key = index * 100;
    for value in 0..5 {
        system
            .update(&mut session, &set(&[key], value))
            .expect("transactions on surviving sites must proceed");
    }
}

#[test]
fn mid_remaster_crash_recovers_consistent_mastership() {
    let (system, _) = build();
    let mut session = ClientSession::new(ClientId::new(1), 3);
    for i in 0..12u64 {
        system.update(&mut session, &set(&[i * 100], 1)).unwrap();
    }
    // Pick a placed partition; its master A will die mid-remaster.
    let placements = system.selector().map().placements();
    let (partition, master) = placements
        .iter()
        .find_map(|(p, m)| m.map(|m| (*p, m)))
        .expect("some partition is placed");
    let a = master.as_usize();
    let b = (a + 1) % 3;
    let sites = system.sites();

    // Release at A, then crash A before any grant is issued: the remaster
    // is cut down exactly between its two halves.
    let rel_vv = sites[a]
        .remaster()
        .release_moves(&[(partition, 1_000_000)])
        .remove(0)
        .unwrap();
    system.crash_site(a);

    // The grant still completes at B: the release record is durable in A's
    // log and B's replica catches up to `rel_vv` from it.
    let grant_vv = sites[b]
        .remaster()
        .grant_moves(&[(partition, 1_000_000, rel_vv.clone())])
        .remove(0)
        .unwrap();
    assert!(grant_vv.dominates(&rel_vv));

    // A restarts from the logs and re-derives its mastership set.
    system.restart_site(a).unwrap();
    let sites = system.sites();
    let (recovered, _) = recover_selector_map(system.logs(), &[], &[]).unwrap();
    assert_eq!(
        recovered.get(&partition),
        Some(&SiteId::new(b)),
        "recovery must honor the grant that outlived the releaser's crash"
    );
    // The recovered selector map agrees with every live ownership table,
    // including the restarted site's.
    for (p, owner) in &recovered {
        for (i, site) in sites.iter().enumerate() {
            assert_eq!(
                site.ownership().is_mastered(*p),
                i == owner.as_usize(),
                "site {i} ownership of {p:?} disagrees with the recovered map"
            );
        }
    }
}

/// The mirror image: the grant lands and is logged at B, but B crashes before
/// the selector hears back, so the selector back-grants the partition to its
/// releaser A. B's log still ends in that grant; restarting B must leave the
/// partition with A instead of refusing to restart (or mastering it twice).
#[test]
fn a_grant_orphaned_by_the_grantees_crash_stays_with_the_releaser() {
    let (system, _) = build();
    let mut session = ClientSession::new(ClientId::new(1), 3);
    for i in 0..12u64 {
        system.update(&mut session, &set(&[i * 100], 1)).unwrap();
    }
    let placements = system.selector().map().placements();
    let (partition, master) = placements
        .iter()
        .find_map(|(p, m)| m.map(|m| (*p, m)))
        .expect("some partition is placed");
    let a = master.as_usize();
    let b = (a + 1) % 3;
    let sites = system.sites();

    let rel_vv = sites[a]
        .remaster()
        .release_moves(&[(partition, 1_000_000)])
        .remove(0)
        .unwrap();
    sites[b]
        .remaster()
        .grant_moves(&[(partition, 1_000_000, rel_vv.clone())])
        .remove(0)
        .unwrap();
    system.crash_site(b);
    // The executor's back-grant: the releaser takes the partition again at a
    // fresh epoch, and the selector's map names it.
    sites[a]
        .remaster()
        .grant_moves(&[(partition, 1_000_001, rel_vv)])
        .remove(0)
        .unwrap();
    system.selector().map().seed([(partition, SiteId::new(a))]);

    system.restart_site(b).unwrap();
    let sites = system.sites();
    assert!(sites[a].ownership().is_mastered(partition));
    assert!(
        !sites[b].ownership().is_mastered(partition),
        "the restarted grantee masters a partition the releaser took back"
    );
}

/// On an instant network a client's update runs the site's handler on the
/// client's own thread. Crashing the site mid-update must not race it:
/// `crash_site` returns only after that handler has returned, the restarted
/// site's svv covers exactly its log, and it holds the update exactly when
/// the client saw it commit.
#[test]
fn crash_waits_for_an_update_running_on_its_clients_thread() {
    const TAPPED: u64 = 42;
    let service = Duration::from_millis(20);
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let mut config = SystemConfig::new(3).with_instant_network();
    config.service_base = service;
    config.service_per_op = Duration::ZERO;
    let mut dyna = DynaMastConfig::adaptive(config, catalog);
    // No svv probe: nothing may sit in the site's queue ahead of the update.
    dyna.probe_interval = Duration::ZERO;
    let (entered_tx, entered) = mpsc::channel();
    let app = TappedApp {
        tapped: TAPPED,
        entered: entered_tx,
    };
    let system = DynaMastSystem::build(dyna, Arc::new(app));
    let mut session = ClientSession::new(ClientId::new(1), 3);
    // Place key 0's partition, then find its master.
    system.update(&mut session, &set(&[0], 1)).unwrap();
    let master = system
        .selector()
        .map()
        .placements()
        .into_iter()
        .find_map(|(p, m)| (dynamast::common::ids::unpack_partition_id(p).1 == 0).then_some(m))
        .flatten()
        .expect("key 0's partition is placed");
    let log = Arc::clone(system.logs().log(master));

    let client = {
        let system = Arc::clone(&system);
        thread::spawn(move || {
            let committed = system.update(&mut session, &set(&[0], TAPPED)).is_ok();
            (thread::current().id(), committed)
        })
    };
    let (ran_on, executed_at) = entered.recv().unwrap();
    system.crash_site(master.as_usize());
    // The handler waits out its service charge after executing, so it
    // cannot have returned before this instant.
    assert!(
        Instant::now() >= executed_at + service,
        "crash_site returned while the update's handler was still running"
    );
    let len_at_crash = log.len();
    let (client_thread, committed) = client.join().unwrap();
    assert_eq!(ran_on, client_thread, "the update did not run inline");
    assert_eq!(log.len(), len_at_crash, "the crashed site's log grew");

    system.restart_site(master.as_usize()).unwrap();
    let site = &system.sites()[master.as_usize()];
    let svv = site.clock().current();
    assert_eq!(svv.get(master), log.len());
    let row = site.store().read(Key::new(KV, 0), &svv).unwrap();
    assert_eq!(
        row == Some(Row::new(vec![Value::U64(TAPPED)])),
        committed,
        "update present after restart: {row:?}, client saw commit: {committed}"
    );
}

#[test]
fn recovered_clock_continues_the_sequence() {
    let (system, catalog) = build();
    let mut session = ClientSession::new(ClientId::new(1), 3);
    for i in 0..12u64 {
        system.update(&mut session, &set(&[i * 100], i)).unwrap();
    }
    let recovered = recover_site(SiteId::new(0), system.logs(), None, catalog, 4).unwrap();
    // The next commit's sequence is its log slot + 1: it continues the
    // recovered commit order exactly when every reserved slot is recovered.
    let own_log = system.logs().log(SiteId::new(0));
    assert_eq!(
        own_log.reserved_len(),
        recovered.state.svv.get(SiteId::new(0))
    );
}

/// `restart_site` on a disk-backed deployment whose logs were truncated:
/// the site comes back from its checkpoint plus the retained suffix (a
/// replay from offset zero would read below the truncated base), through
/// the same path a volatile restart takes.
#[test]
fn durable_restart_recovers_from_checkpoint_and_retained_suffix() {
    let dir = std::env::temp_dir().join(format!("dynamast-durable-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(3)
        .with_instant_network()
        .with_instant_service()
        .with_durability(dir.clone(), FsyncMode::Group)
        .with_segment_bytes(512);
    let system = DynaMastSystem::build(DynaMastConfig::adaptive(config, catalog), Arc::new(SetApp));
    const PARTITIONS: u64 = 30;
    for i in 0..PARTITIONS {
        system
            .load_row(Key::new(KV, i * 100), Row::new(vec![Value::U64(0)]))
            .unwrap();
    }
    // The first checkpoint stands in for the bulk load, which is not logged.
    system.checkpoint_all().unwrap();

    let mut session = ClientSession::new(ClientId::new(1), 3);
    for round in 0..8u64 {
        for i in 0..PARTITIONS {
            system
                .update(&mut session, &set(&[i * 100], round * 100 + i))
                .unwrap();
        }
    }
    // Joint write sets remaster.
    for i in 0..10u64 {
        system
            .update(&mut session, &set(&[i * 100, (i + 15) * 100], 5000 + i))
            .unwrap();
    }
    // Floors lag one checkpoint behind, so the third checkpoint is the first
    // that lets whole segments below the second one's cut go.
    system.checkpoint_all().unwrap();
    system.checkpoint_all().unwrap();
    assert!(
        (0..3).any(|o| system.logs().log(SiteId::new(o)).base() > 0),
        "no log was truncated: a replay from offset zero would still succeed"
    );

    // Pick two partitions site 1 masters: one moves away across the crash,
    // the other stays and takes the post-restart update.
    let victim = SiteId::new(1);
    let mut at_victim = system
        .selector()
        .map()
        .placements()
        .into_iter()
        .filter_map(|(p, m)| (m == Some(victim)).then_some(p));
    let moved = at_victim.next().expect("site 1 masters a partition");
    let kept = at_victim.next().expect("site 1 masters two partitions");
    let key_of = |p| dynamast::common::ids::unpack_partition_id(p).1 * 100;

    // The remaster away from site 1 is cut down between its halves: the
    // release is durable in site 1's log suffix, the grant lands while site
    // 1 is down. The two halves bypass the selector, so its map is told.
    let sites = system.sites();
    let rel_vv = sites[1]
        .remaster()
        .release_moves(&[(moved, 1_000_000)])
        .remove(0)
        .unwrap();
    system.crash_site(1);
    sites[2]
        .remaster()
        .grant_moves(&[(moved, 1_000_000, rel_vv.clone())])
        .remove(0)
        .unwrap();
    system.selector().map().seed([(moved, SiteId::new(2))]);
    let survivors: Vec<u64> = system
        .selector()
        .map()
        .placements()
        .into_iter()
        .filter_map(|(p, m)| (m != Some(victim)).then_some(key_of(p)))
        .collect();
    for (n, key) in survivors.iter().enumerate() {
        system
            .update(&mut session, &set(&[*key], 9000 + n as u64))
            .unwrap();
    }

    system.restart_site(1).unwrap();
    let sites = system.sites();

    // An update routed to the restarted site commits there.
    let before = sites[1].commits.get();
    system
        .update(&mut session, &set(&[key_of(kept)], 7777))
        .unwrap();
    assert_eq!(sites[1].commits.get(), before + 1);

    // The restarted store equals a live replica's at a common cut.
    let target = sites
        .iter()
        .map(|s| s.clock().current())
        .fold(VersionVector::zero(3), |acc, vv| acc.max_with(&vv));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    for site in &sites {
        while !site.clock().current().dominates(&target) {
            assert!(
                std::time::Instant::now() < deadline,
                "replicas never converged after the restart"
            );
            std::thread::yield_now();
        }
    }
    for i in 0..PARTITIONS {
        let key = Key::new(KV, i * 100);
        let expected = sites[0].store().read(key, &target).unwrap();
        assert!(expected.is_some(), "{key:?} vanished from the live replica");
        assert_eq!(
            sites[1].store().read(key, &target).unwrap(),
            expected,
            "restarted site diverges at {key:?}"
        );
    }

    // Every placed partition is mastered by exactly one ownership table,
    // the one the selector map names.
    for (p, master) in system.selector().map().placements() {
        let Some(master) = master else { continue };
        for (i, site) in sites.iter().enumerate() {
            assert_eq!(
                site.ownership().is_mastered(p),
                i == master.as_usize(),
                "site {i} ownership of {p:?} disagrees with the selector map"
            );
        }
    }
    drop(sites);
    drop(system);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A promoted standby allocates remaster epochs above every epoch a site
/// has seen, also once the Release/Grant records that carried them are
/// truncated: the checkpoints' persisted watermarks are then the only place
/// those epochs survive, and reissuing one would collide with the sites'
/// `(partition, epoch)` idempotency ledgers.
#[test]
fn a_promoted_standby_allocates_epochs_above_truncated_remasters() {
    let dir = std::env::temp_dir().join(format!("dynamast-promote-epochs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = Catalog::new();
    catalog.add_table("kv", 1, 100);
    let config = SystemConfig::new(3)
        .with_instant_network()
        .with_instant_service()
        .with_durability(dir.clone(), FsyncMode::Group)
        .with_segment_bytes(512);
    let system = DynaMastSystem::build(DynaMastConfig::adaptive(config, catalog), Arc::new(SetApp));
    const PARTITIONS: u64 = 30;
    let mut session = ClientSession::new(ClientId::new(1), 3);
    let write_each_partition = |session: &mut ClientSession, value: u64| {
        for i in 0..PARTITIONS {
            system.update(session, &set(&[i * 100], value)).unwrap();
        }
    };
    write_each_partition(&mut session, 0);
    // The highest remaster epoch the retained logs still hold.
    let retained_epoch = || recover_selector_map(system.logs(), &[], &[]).unwrap().1;
    // Joint write sets remaster.
    for i in 0..10u64 {
        system
            .update(&mut session, &set(&[i * 100, (i + 15) * 100], i))
            .unwrap();
    }
    let reached = retained_epoch();
    assert!(reached > 0, "no remaster happened");

    // Move every log past its Release/Grant records and checkpoint until
    // truncation has deleted them all (floors lag one checkpoint).
    for round in 1..=20 {
        if retained_epoch() == 0 {
            break;
        }
        write_each_partition(&mut session, round);
        system.checkpoint_all().unwrap();
    }
    assert_eq!(
        retained_epoch(),
        0,
        "the remaster records were never truncated"
    );

    system.crash_selector();
    system.promote_standby().unwrap();
    let split: Vec<u64> = [SiteId::new(0), SiteId::new(1)]
        .iter()
        .map(|site| {
            let placements = system.selector().map().placements();
            let (p, _) = placements
                .into_iter()
                .find(|(_, m)| *m == Some(*site))
                .expect("every site masters a partition");
            dynamast::common::ids::unpack_partition_id(p).1 * 100
        })
        .collect();
    system.update(&mut session, &set(&split, 99)).unwrap();
    let next = retained_epoch();
    assert!(
        next > reached,
        "the promoted selector remastered at epoch {next}, not above {reached}"
    );
    drop(system);
    std::fs::remove_dir_all(&dir).unwrap();
}
