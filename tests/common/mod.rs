//! Shared plumbing for the chaos-style integration tests (`chaos.rs`,
//! `selector_failover.rs`): seeded reproduction, the liveness watchdog, the
//! compressed retry policy, and the SmallBank invariant transactions.
//!
//! Not every test binary uses every helper.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes};
use dynamast::common::audit::{AuditConfig, AuditSink};
use dynamast::common::ids::Key;
use dynamast::common::{DynaError, RetryPolicy, SystemConfig, VersionVector};
use dynamast::core::dynamast::DynaMastSystem;
use dynamast::network::Network;
use dynamast::site::proc::ProcCall;
use dynamast::workloads::smallbank;

/// Seed override for replaying a failed run; accepts `0x`-hex or decimal.
pub fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(raw) => {
            let raw = raw.trim();
            if let Some(hex) = raw.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).expect("CHAOS_SEED must be hex after 0x")
            } else {
                raw.parse().expect("CHAOS_SEED must be an integer")
            }
        }
        Err(_) => 0xD15A_57E5_0C0D_E5EA,
    }
}

/// Splitmix64: a deterministic per-thread driver RNG (kept local so the
/// client schedule is reproducible from the same seed as the fault plan).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Disarms the watchdog on scope exit (including panic unwinding), so the
/// watchdog only fires on a genuine wedge, not after a normal assertion
/// failure.
pub struct WatchdogGuard {
    done: Arc<AtomicBool>,
}

impl Drop for WatchdogGuard {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// Kills the whole test process if the chaos run wedges: a liveness failure
/// would otherwise hang CI with no diagnostics. Prints the reproduction seed
/// and `detail` (the fault plan or crash point) before exiting — and, when a
/// network handle is supplied, dumps its in-flight RPC table so the wedged
/// call is identifiable. Supplying the network turns its (off-by-default)
/// in-flight tracking on for the rest of the test.
pub fn arm_watchdog(
    seed: u64,
    detail: String,
    secs: u64,
    network: Option<Arc<Network>>,
) -> WatchdogGuard {
    if let Some(net) = &network {
        net.enable_inflight_tracking();
    }
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while Instant::now() < deadline {
            if flag.load(Ordering::Relaxed) {
                return;
            }
            thread::sleep(Duration::from_millis(100));
        }
        eprintln!(
            "[chaos] WATCHDOG FIRED after {secs}s — reproduce with CHAOS_SEED={seed:#x}; {detail}"
        );
        if let Some(net) = &network {
            let dump = net.dump_inflight();
            if dump.is_empty() {
                eprintln!("[chaos] no RPCs in flight at watchdog expiry");
            } else {
                eprintln!("[chaos] in-flight RPC table:\n{dump}");
            }
            // The flight recorder explains *how the system got here*: the
            // last recorded events grouped into per-transaction causal
            // timelines (route → remaster → execute → commit → refresh).
            if let Some(rec) = net.recorder() {
                let timelines = rec.dump_recent_timelines(256, 8);
                if timelines.is_empty() {
                    eprintln!("[chaos] flight recorder is empty");
                } else {
                    eprintln!("[chaos] flight-recorder timelines (last 256 events):\n{timelines}");
                }
            }
        }
        std::process::exit(101);
    });
    WatchdogGuard { done }
}

/// A small-cluster config with a compressed retry policy so lost messages
/// cost milliseconds, not the production half-second attempt timeout.
pub fn chaos_config(num_sites: usize) -> SystemConfig {
    let mut config = SystemConfig::new(num_sites)
        .with_instant_network()
        .with_instant_service();
    config.network = config.network.with_retry(RetryPolicy {
        attempt_timeout: Duration::from_millis(100),
        max_attempts: 3,
        base_backoff: Duration::from_micros(200),
        max_backoff: Duration::from_millis(5),
        deadline: Duration::from_millis(300),
    });
    config
}

/// Errors a client may legitimately observe while faults are active: the
/// retry budget ran out, a link was down, routing metadata was stale, the
/// crashed site was mid-shutdown, or the routing raced a selector failover.
/// Anything else is a real bug.
pub fn tolerable(err: &DynaError) -> bool {
    matches!(
        err,
        DynaError::Timeout { .. }
            | DynaError::Network(_)
            | DynaError::NotMaster { .. }
            | DynaError::TxnAborted { .. }
            | DynaError::ShuttingDown
            | DynaError::StaleSelector { .. }
    )
}

/// Waits until every live site's clock dominates `target`.
pub fn await_convergence(system: &DynaMastSystem, target: &VersionVector, seed: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    for site in system.sites() {
        while !site.clock().current().dominates(target) {
            assert!(
                Instant::now() < deadline,
                "replicas failed to converge after healing (seed {seed:#x})"
            );
            thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Arms the streaming invariant auditor over the system's flight recorder.
/// Violation repro bundles land in `DYNA_AUDIT_DIR` when set, else under the
/// target dir so a failed CI run can upload them as artifacts.
pub fn arm_auditor(system: &DynaMastSystem, conservation: bool, detail: &str) -> Arc<AuditSink> {
    let bundle_dir = std::env::var("DYNA_AUDIT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("dynamast-audit-bundles"));
    system.arm_auditor(AuditConfig {
        conservation,
        bundle_dir: Some(bundle_dir),
        seed: chaos_seed(),
        detail: detail.to_string(),
        ..AuditConfig::default()
    })
}

/// Drains the auditor and fails the test on any confirmed invariant
/// violation. Ring wraps degrade the audit to "incomplete" (reported on
/// stderr for visibility) but are not a failure by themselves.
pub fn assert_audit_clean(sink: &AuditSink, seed: u64, detail: &str) {
    let report = sink.finish();
    if report.incomplete {
        eprintln!(
            "[audit] incomplete coverage ({} ring wraps over {} events) — {detail}",
            report.ring_wraps, report.events
        );
    }
    assert!(
        report.violations.is_empty(),
        "auditor confirmed {} invariant violation(s) (seed {seed:#x}; {detail}):\n{}",
        report.violations.len(),
        report
            .violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// SmallBank SendPayment between two checking accounts.
pub fn transfer(from: u64, to: u64, amount: i64) -> ProcCall {
    let mut args = Vec::with_capacity(8);
    args.put_i64(amount);
    ProcCall {
        proc_id: smallbank::PROC_SEND_PAYMENT,
        args: Bytes::from(args),
        write_set: vec![
            Key::new(smallbank::CHECKING, from),
            Key::new(smallbank::CHECKING, to),
        ],
        read_keys: vec![],
        read_ranges: vec![],
    }
}

/// SmallBank Balance over an account pair (snapshot pair-sum invariant).
pub fn pair_balance(a: u64, b: u64) -> ProcCall {
    ProcCall {
        proc_id: smallbank::PROC_BALANCE,
        args: Bytes::new(),
        write_set: vec![],
        read_keys: vec![
            Key::new(smallbank::CHECKING, a),
            Key::new(smallbank::CHECKING, b),
        ],
        read_ranges: vec![],
    }
}
