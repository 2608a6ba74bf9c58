//! End-of-run correctness checks. The benchmark prints its metrics first
//! and then exits non-zero if any of these fails: a fast wrong answer is
//! not a result.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use dynamast::common::Value;
use dynamast::core::dynamast::DynaMastSystem;
use dynamast::site::system::ReplicatedSystem;

use crate::scenario::Scenario;

/// Outcome of one named check.
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Waits until every site's svv is equal and stays equal (the propagators
/// have delivered everything). Returns whether that happened in time.
pub fn quiesce(system: &DynaMastSystem) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let svvs: Vec<_> = system.sites().iter().map(|s| s.clock().current()).collect();
        let logs: Vec<u64> = system.logs().logs().iter().map(|l| l.len()).collect();
        let converged =
            svvs.windows(2).all(|w| w[0] == w[1]) && svvs[0].as_slice() == logs.as_slice();
        if converged {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Digest of everything visible at a site under its current svv — key,
/// version stamp and row of every record, in key order — plus the record
/// count and the sum of all `I64` first cells (SmallBank balances).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SiteDigest {
    /// Order-dependent hash over `(key, stamp, row)`.
    pub hash: u64,
    /// Visible records.
    pub records: u64,
    /// Sum of `I64` first cells.
    pub i64_total: i64,
    /// User payload bytes of the visible rows.
    pub payload_bytes: u64,
}

/// Digests every site of a quiesced system.
pub fn site_digests(system: &DynaMastSystem) -> Vec<SiteDigest> {
    system
        .sites()
        .iter()
        .map(|site| {
            let mut visible = site.store().dump_visible(&site.clock().current());
            visible.sort_by_key(|(key, _, _)| *key);
            let mut h = DefaultHasher::new();
            let mut i64_total = 0i64;
            let mut payload_bytes = 0u64;
            for (key, stamp, row) in &visible {
                (key, stamp.origin, stamp.sequence, row).hash(&mut h);
                payload_bytes += row.payload_size() as u64;
                if let Some(Value::I64(v)) = row.cells().first() {
                    i64_total += v;
                }
            }
            SiteDigest {
                hash: h.finish(),
                records: visible.len() as u64,
                i64_total,
                payload_bytes,
            }
        })
        .collect()
}

/// What the clients counted over the whole run (warm-up included).
pub struct ClientTotals {
    /// Successful update transactions.
    pub updates_ok: u64,
    /// Sum of successful SmallBank deposits.
    pub deposited: i64,
}

/// Runs the live-system checks on a quiesced deployment and returns them
/// with the per-site digests (the durable scenario compares the recovered
/// system against these).
pub fn check_live(
    scenario: &Scenario,
    system: &DynaMastSystem,
    quiesced: bool,
    totals: &ClientTotals,
) -> (Vec<Check>, Vec<SiteDigest>) {
    let mut checks = Vec::new();
    let sites = system.sites();
    let svvs: Vec<_> = sites.iter().map(|s| s.clock().current()).collect();
    checks.push(Check {
        name: "replicas_converge_svv",
        ok: quiesced && svvs.windows(2).all(|w| w[0] == w[1]),
        detail: format!(
            "svv per site: {}",
            svvs.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        ),
    });
    let digests = site_digests(system);
    checks.push(Check {
        name: "replicas_converge_digest",
        ok: digests.windows(2).all(|w| w[0] == w[1]),
        detail: format!(
            "{} visible records per site, digest {:016x}",
            digests[0].records, digests[0].hash
        ),
    });
    let committed = system.stats().committed_updates;
    checks.push(Check {
        name: "client_updates_match_site_commits",
        ok: committed == totals.updates_ok,
        detail: format!(
            "clients saw {} successful updates, sites committed {committed}",
            totals.updates_ok
        ),
    });
    let log_lens: Vec<u64> = system.logs().logs().iter().map(|l| l.len()).collect();
    let own_seq: Vec<u64> = sites
        .iter()
        .map(|s| s.clock().current().get(s.id()))
        .collect();
    checks.push(Check {
        name: "svv_matches_log_length",
        ok: own_seq == log_lens,
        detail: format!("svv_i[i] = {own_seq:?}, len(log_i) = {log_lens:?}"),
    });
    if let Some(initial) = scenario.smallbank_initial_total {
        let expected = initial + totals.deposited;
        checks.push(Check {
            name: "smallbank_conservation",
            ok: digests.iter().all(|d| d.i64_total == expected),
            detail: format!(
                "balances sum to {} at site 0; initial {initial} + deposits {} = {expected}",
                digests[0].i64_total, totals.deposited
            ),
        });
    }
    (checks, digests)
}

/// Compares a recovered deployment's digests with the live ones.
pub fn check_recovered(live: &[SiteDigest], recovered: &[SiteDigest]) -> Check {
    // Version stamps of rows restored from the bulk-load image may differ
    // from the live ones only if recovery re-stamps them; it does not, so
    // the full digest (stamps included) must match.
    Check {
        name: "recovered_matches_live",
        ok: live == recovered,
        detail: format!(
            "live digest {:016x} ({} records), recovered {:016x} ({} records)",
            live[0].hash, live[0].records, recovered[0].hash, recovered[0].records
        ),
    }
}
