//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] is attached to a [`crate::Network`] and consulted on every
//! message hop (request send, reply send, replication batch). Faults are
//! decided by hashing `(plan seed, link, per-link message counter)` through a
//! splitmix64 mixer, so the *k*-th message on a given link always receives
//! the same fate for a given seed — regardless of thread scheduling. That is
//! the determinism guarantee chaos tests rely on: the fault *schedule* is a
//! pure function of the seed and the per-link traffic ordinals, even though
//! wall-clock interleaving varies run to run (FoundationDB-style simulation,
//! scoped to the network layer).
//!
//! Directed partitions are explicit state, not probability: while a
//! `(from, to)` pair is partitioned every message on that link is dropped.
//! Endpoint crash/restart is modelled one level up by
//! [`crate::Network::disconnect`] plus re-registration via
//! [`crate::Network::serve`].

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use crate::EndpointId;

/// What the plan decided for one message.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultDecision {
    /// Silently drop the message (the caller observes only a timeout).
    pub drop: bool,
    /// Deliver the message twice (at-least-once delivery).
    pub duplicate: bool,
    /// Extra transit delay added on top of the latency model.
    pub extra_delay: Duration,
}

/// A seeded, deterministic fault schedule for one network fabric.
pub struct FaultPlan {
    seed: u64,
    drop_probability: f64,
    duplicate_probability: f64,
    spike_probability: f64,
    spike: Duration,
    /// Directed blocked links; `(from, to)` blocks only that direction.
    partitions: RwLock<HashSet<(EndpointId, EndpointId)>>,
    /// Messages sent so far per link code; the ordinal keys the hash.
    counters: Mutex<HashMap<u64, u64>>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            spike_probability: 0.0,
            spike: Duration::ZERO,
            partitions: RwLock::new(HashSet::new()),
            counters: Mutex::new(HashMap::new()),
        }
    }

    /// The seed this plan hashes from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enables message drops with probability `p` per hop.
    #[must_use]
    pub fn with_drops(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_probability = p;
        self
    }

    /// Enables message duplication with probability `p` per hop.
    #[must_use]
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplicate_probability = p;
        self
    }

    /// Enables delay spikes: with probability `p` a hop takes an extra
    /// `spike` of transit time.
    #[must_use]
    pub fn with_delay_spikes(mut self, p: f64, spike: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.spike_probability = p;
        self.spike = spike;
        self
    }

    /// Blocks the directed link `from → to` until [`FaultPlan::heal`].
    pub fn partition(&self, from: EndpointId, to: EndpointId) {
        self.partitions.write().insert((from, to));
    }

    /// Blocks both directions between `a` and `b`.
    pub fn partition_pair(&self, a: EndpointId, b: EndpointId) {
        let mut guard = self.partitions.write();
        guard.insert((a, b));
        guard.insert((b, a));
    }

    /// Unblocks the directed link `from → to`.
    pub fn heal(&self, from: EndpointId, to: EndpointId) {
        self.partitions.write().remove(&(from, to));
    }

    /// Removes every partition.
    pub fn heal_all(&self) {
        self.partitions.write().clear();
    }

    /// `true` iff the directed link is currently blocked. Anonymous senders
    /// (clients have no `EndpointId`) are never inside a partition.
    pub fn is_partitioned(&self, from: Option<EndpointId>, to: Option<EndpointId>) -> bool {
        let (Some(from), Some(to)) = (from, to) else {
            return false;
        };
        self.partitions.read().contains(&(from, to))
    }

    /// Decides the fate of the next message on `from → to`, advancing that
    /// link's ordinal. Deterministic: the *k*-th call for a given link and
    /// seed always returns the same decision.
    pub fn decide(&self, from: Option<EndpointId>, to: Option<EndpointId>) -> FaultDecision {
        let link = link_code(from, to);
        let ordinal = {
            let mut counters = self.counters.lock();
            let slot = counters.entry(link).or_insert(0);
            let k = *slot;
            *slot += 1;
            k
        };
        let mut state = self
            .seed
            .wrapping_add(link.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(ordinal.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let drop = unit(splitmix64(&mut state)) < self.drop_probability;
        let duplicate = !drop && unit(splitmix64(&mut state)) < self.duplicate_probability;
        let extra_delay = if unit(splitmix64(&mut state)) < self.spike_probability {
            self.spike
        } else {
            Duration::ZERO
        };
        FaultDecision {
            drop,
            duplicate,
            extra_delay,
        }
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &format_args!("{:#x}", self.seed))
            .field("drop_probability", &self.drop_probability)
            .field("duplicate_probability", &self.duplicate_probability)
            .field("spike_probability", &self.spike_probability)
            .field("spike", &self.spike)
            .field("partitions", &*self.partitions.read())
            .finish()
    }
}

/// Enumerated crash points inside the dynamic mastering protocol (§III-B).
///
/// A [`CrashSwitch`] armed with one of these kills the selector at a precise
/// step of a remaster, so failover tests can exercise every half-completed
/// state the promotion path must repair: release not yet sent, release
/// durable but grant not yet sent (the release-without-grant window), grant
/// sent but the reply to the client lost, and so on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Before the Release RPC leaves the selector: the remaster is chosen
    /// but nothing has been sent; the old master still owns the partition.
    BeforeReleaseSend,
    /// After the Release reply is settled: the old master has revoked and
    /// logged the release, but no Grant has been sent — the
    /// release-without-grant window recovery must re-grant out of.
    AfterReleaseAck,
    /// Between settling the release and sending the Grant RPC (the same
    /// durable window as [`CrashPoint::AfterReleaseAck`], but crossed on the
    /// grant half of the protocol, after `rel_vv` is in hand).
    BeforeGrantSend,
    /// After the Grant RPC is sent: the grantee may or may not have logged
    /// the grant by the time the standby promotes.
    AfterGrantSend,
    /// After the remaster fully settled, before the routing decision is
    /// returned: mastership moved but the client never learns where to.
    BeforeClientReply,
}

impl CrashPoint {
    /// Every enumerated crash point, in protocol order (drives sweep tests).
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::BeforeReleaseSend,
        CrashPoint::AfterReleaseAck,
        CrashPoint::BeforeGrantSend,
        CrashPoint::AfterGrantSend,
        CrashPoint::BeforeClientReply,
    ];

    /// Stable numeric code mixed into the trigger hash.
    pub fn code(self) -> u64 {
        match self {
            CrashPoint::BeforeReleaseSend => 1,
            CrashPoint::AfterReleaseAck => 2,
            CrashPoint::BeforeGrantSend => 3,
            CrashPoint::AfterGrantSend => 4,
            CrashPoint::BeforeClientReply => 5,
        }
    }
}

/// A deterministic selector kill switch, [`FaultPlan`]-style.
///
/// The switch is armed for one crash point; the selector calls
/// [`CrashSwitch::should_crash`] each time execution passes any crash point.
/// The switch fires on the *k*-th pass over its armed point, where `k` is
/// derived by hashing `(seed, crash point)` through the same splitmix64
/// mixer as [`FaultPlan::decide`] — so for a given `(seed, point)` pair the
/// selector always dies on the same remaster ordinal, bit-for-bit, no matter
/// how threads interleave. Once fired it stays fired: every later pass (any
/// point) reports `true`, freezing the crashed selector's protocol activity.
pub struct CrashSwitch {
    point: CrashPoint,
    trigger: u64,
    passes: AtomicU64,
    fired: AtomicBool,
}

impl CrashSwitch {
    /// How many passes over the armed point are allowed before firing
    /// (bounded so sweeps trigger within a short workload prefix).
    const TRIGGER_WINDOW: u64 = 8;

    /// Arms a switch for `point`, deriving the trigger ordinal from
    /// `(seed, point)`.
    pub fn new(seed: u64, point: CrashPoint) -> Self {
        let mut state = seed.wrapping_add(point.code().wrapping_mul(0xD1B5_4A32_D192_ED03));
        let trigger = splitmix64(&mut state) % Self::TRIGGER_WINDOW;
        CrashSwitch {
            point,
            trigger,
            passes: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        }
    }

    /// Reports whether the selector must die now. Counts a pass only when
    /// `at` matches the armed point; fires when that pass count reaches the
    /// derived trigger ordinal.
    pub fn should_crash(&self, at: CrashPoint) -> bool {
        if self.fired.load(Ordering::Acquire) {
            return true;
        }
        if at != self.point {
            return false;
        }
        let pass = self.passes.fetch_add(1, Ordering::AcqRel);
        if pass == self.trigger {
            self.fired.store(true, Ordering::Release);
            return true;
        }
        false
    }

    /// `true` once the switch has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// The armed crash point.
    pub fn point(&self) -> CrashPoint {
        self.point
    }

    /// The derived trigger ordinal (diagnostics: printed with the seed so a
    /// failing sweep run can be replayed).
    pub fn trigger_ordinal(&self) -> u64 {
        self.trigger
    }
}

impl fmt::Debug for CrashSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashSwitch")
            .field("point", &self.point)
            .field("trigger", &self.trigger)
            .field("passes", &self.passes.load(Ordering::Relaxed))
            .field("fired", &self.fired())
            .finish()
    }
}

/// Stable numeric code for an endpoint; `None` (anonymous client) gets its
/// own code so client links hash distinctly from any site link.
fn endpoint_code(endpoint: Option<EndpointId>) -> u64 {
    match endpoint {
        None => u64::MAX,
        Some(EndpointId::Selector) => 1 << 32,
        Some(EndpointId::Site(i)) => (3 << 32) | u64::from(i),
    }
}

fn link_code(from: Option<EndpointId>, to: Option<EndpointId>) -> u64 {
    endpoint_code(from)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(endpoint_code(to))
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform float in `[0, 1)`.
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    const LINK_A: (Option<EndpointId>, Option<EndpointId>) =
        (Some(EndpointId::Site(0)), Some(EndpointId::Site(1)));
    const LINK_B: (Option<EndpointId>, Option<EndpointId>) =
        (Some(EndpointId::Site(1)), Some(EndpointId::Site(0)));

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_drops(0.2)
            .with_duplication(0.2)
            .with_delay_spikes(0.1, Duration::from_millis(1))
    }

    #[test]
    fn same_seed_same_link_same_schedule() {
        let a = plan(42);
        let b = plan(42);
        let schedule_a: Vec<_> = (0..256).map(|_| a.decide(LINK_A.0, LINK_A.1)).collect();
        let schedule_b: Vec<_> = (0..256).map(|_| b.decide(LINK_A.0, LINK_A.1)).collect();
        assert_eq!(schedule_a, schedule_b);
        // The schedule actually exercises every fault kind.
        assert!(schedule_a.iter().any(|d| d.drop));
        assert!(schedule_a.iter().any(|d| d.duplicate));
        assert!(schedule_a.iter().any(|d| !d.extra_delay.is_zero()));
        assert!(schedule_a.iter().any(|d| *d == FaultDecision::default()));
    }

    #[test]
    fn different_seeds_or_links_diverge() {
        let a = plan(42);
        let b = plan(43);
        let on_a: Vec<_> = (0..256).map(|_| a.decide(LINK_A.0, LINK_A.1)).collect();
        let on_b: Vec<_> = (0..256).map(|_| b.decide(LINK_A.0, LINK_A.1)).collect();
        assert_ne!(on_a, on_b, "seed must matter");
        let reverse: Vec<_> = (0..256).map(|_| a.decide(LINK_B.0, LINK_B.1)).collect();
        assert_ne!(on_a, reverse, "link direction must matter");
    }

    #[test]
    fn per_link_schedules_are_interleaving_independent() {
        // Two threads hammer two different links concurrently; each link's
        // schedule must match the single-threaded reference.
        let concurrent = std::sync::Arc::new(plan(7));
        let mut handles = Vec::new();
        for link in [LINK_A, LINK_B] {
            let plan = std::sync::Arc::clone(&concurrent);
            handles.push(thread::spawn(move || {
                (0..128)
                    .map(|_| plan.decide(link.0, link.1))
                    .collect::<Vec<_>>()
            }));
        }
        let observed: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let reference = plan(7);
        for (link, got) in [LINK_A, LINK_B].into_iter().zip(&observed) {
            let want: Vec<_> = (0..128).map(|_| reference.decide(link.0, link.1)).collect();
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn partitions_are_directed_and_healable() {
        let plan = FaultPlan::new(1);
        let (a, b) = (EndpointId::Site(0), EndpointId::Site(1));
        plan.partition(a, b);
        assert!(plan.is_partitioned(Some(a), Some(b)));
        assert!(!plan.is_partitioned(Some(b), Some(a)), "directed");
        assert!(!plan.is_partitioned(None, Some(b)), "clients unaffected");
        plan.heal(a, b);
        assert!(!plan.is_partitioned(Some(a), Some(b)));
        plan.partition_pair(a, b);
        assert!(plan.is_partitioned(Some(a), Some(b)));
        assert!(plan.is_partitioned(Some(b), Some(a)));
        plan.heal_all();
        assert!(!plan.is_partitioned(Some(a), Some(b)));
    }

    #[test]
    fn zero_probability_plan_is_a_no_op() {
        let plan = FaultPlan::new(9);
        for _ in 0..64 {
            assert_eq!(plan.decide(LINK_A.0, LINK_A.1), FaultDecision::default());
        }
    }

    #[test]
    fn crash_switch_is_deterministic_per_seed_and_point() {
        for point in CrashPoint::ALL {
            let a = CrashSwitch::new(0xFEED, point);
            let b = CrashSwitch::new(0xFEED, point);
            assert_eq!(a.trigger_ordinal(), b.trigger_ordinal());
            // Same pass sequence → same firing pass.
            let fired_at = |s: &CrashSwitch| (0..16).position(|_| s.should_crash(point));
            assert_eq!(fired_at(&a), fired_at(&b));
            assert!(a.fired());
        }
        // Distinct points under one seed must not all share a trigger.
        let triggers: std::collections::HashSet<u64> = CrashPoint::ALL
            .iter()
            .map(|&p| CrashSwitch::new(0xFEED, p).trigger_ordinal())
            .collect();
        assert!(triggers.len() > 1, "triggers should vary across points");
    }

    #[test]
    fn crash_switch_ignores_other_points_until_fired() {
        let switch = CrashSwitch::new(3, CrashPoint::AfterReleaseAck);
        for _ in 0..64 {
            assert!(!switch.should_crash(CrashPoint::BeforeReleaseSend));
        }
        assert!(!switch.fired(), "other points must not advance the count");
        while !switch.should_crash(CrashPoint::AfterReleaseAck) {}
        // Once fired, every point reports a crash.
        assert!(switch.should_crash(CrashPoint::BeforeClientReply));
        assert!(switch.should_crash(CrashPoint::BeforeReleaseSend));
    }
}
