//! The site clock: site version vector maintenance.
//!
//! Wraps a site's `svv` with the waits the protocol needs:
//!
//! * **commit publication** — `svv[self]` counts the site's commits
//!   (§III-A). The clock does not number them: a commit's sequence is its
//!   slot in the site's own durable log plus one, and the fill that closes
//!   the log's visible gap publishes the whole run behind it
//!   ([`SiteClock::publish_up_to`]);
//! * **freshness waits** — transaction begin blocks until `svv` dominates the
//!   session's required vector (SSSI, §III-A), and grant blocks until the
//!   releaser's state has been applied (§III-B);
//! * **refresh admission** — the refresh applier checks the update
//!   application rule (Eq. 1) for the head of a run without blocking
//!   ([`SiteClock::admit_or_wake`]): a refused head leaves a [`Wake`] that
//!   the next svv advance fires, so the origin's feeder offers the run again
//!   then. Versions are installed outside the clock lock, and one watermark
//!   advance publishes each applied run ([`SiteClock::publish_refresh`]).
//!
//! An advance notifies the condvar (which costs one atomic load when no
//! thread is parked on it) and fires the wakes left since the last advance.
//! All waits abort with [`DynaError::ShuttingDown`] once
//! [`SiteClock::shut_down`] is called, which also fires every pending wake,
//! so feeders and blocked clients drain cleanly.

use std::sync::Arc;

use dynamast_common::ids::SiteId;
use dynamast_common::metrics::Counter;
use dynamast_common::{DynaError, Result, VersionVector};
use dynamast_replication::Wake;
use parking_lot::{Condvar, Mutex, MutexGuard};

struct ClockState {
    svv: VersionVector,
    shutting_down: bool,
    /// Refresh subscriptions waiting for the next advance.
    wakes: Vec<Wake>,
}

/// A site's version-vector clock.
pub struct SiteClock {
    site: SiteId,
    state: Mutex<ClockState>,
    changed: Condvar,
    /// Freshness waits that had to park (`site.freshness_parks`).
    parks: Option<Arc<Counter>>,
}

impl SiteClock {
    /// Creates a zeroed clock for `site` in an `m`-site system.
    pub fn new(site: SiteId, num_sites: usize) -> Self {
        Self::from_recovered(site, VersionVector::zero(num_sites))
    }

    /// Restores a clock from a recovered svv (replay recovery, §V-C).
    pub fn from_recovered(site: SiteId, svv: VersionVector) -> Self {
        SiteClock {
            site,
            state: Mutex::new(ClockState {
                svv,
                shutting_down: false,
                wakes: Vec::new(),
            }),
            changed: Condvar::new(),
            parks: None,
        }
    }

    /// Counts every freshness wait ([`SiteClock::wait_dominates`]) that
    /// parks in `parks`; a wait the svv already satisfies is not counted.
    pub fn counting_parks(mut self, parks: Option<Arc<Counter>>) -> Self {
        self.parks = parks;
        self
    }

    /// Snapshot of the current svv.
    pub fn current(&self) -> VersionVector {
        self.state.lock().svv.clone()
    }

    /// Wakes whoever waits on an advance: parked threads, and the wakes
    /// left by refused refresh heads (fired after the lock drops).
    fn advanced(&self, mut state: MutexGuard<'_, ClockState>) {
        self.changed.notify_all();
        if state.wakes.is_empty() {
            return;
        }
        let wakes = std::mem::take(&mut state.wakes);
        drop(state);
        for wake in wakes {
            wake.fire();
        }
    }

    /// Blocks until `ready(&svv)` holds, returning the svv at that moment.
    /// The first park adds one to `parks`, if given.
    fn wait_for(
        &self,
        ready: impl Fn(&VersionVector) -> bool,
        mut parks: Option<&Counter>,
    ) -> Result<VersionVector> {
        let mut state = self.state.lock();
        loop {
            if state.shutting_down {
                return Err(DynaError::ShuttingDown);
            }
            if ready(&state.svv) {
                return Ok(state.svv.clone());
            }
            if let Some(parks) = parks.take() {
                parks.inc();
            }
            self.changed.wait(&mut state);
        }
    }

    /// Blocks until the svv dominates `min`, returning the (fresh) svv as
    /// the caller's begin vector. This is both the SSSI freshness wait and
    /// the grant wait.
    pub fn wait_dominates(&self, min: &VersionVector) -> Result<VersionVector> {
        self.wait_for(|svv| svv.dominates(min), self.parks.as_deref())
    }

    /// Blocks until this site's own commits through `seq` are published,
    /// returning the svv then (a remaster reply covers its own records).
    pub fn wait_published(&self, seq: u64) -> Result<VersionVector> {
        self.wait_for(|svv| svv.get(self.site) >= seq, None)
    }

    /// Advances `svv[self]` to `seq` if it is behind, never blocking. The
    /// caller (the commit pipeline's gap-closing log fill) guarantees that
    /// every local commit with a sequence `<= seq` has already installed its
    /// versions and filled its log slot — so one call publishes a whole
    /// group-committed run, and a racing late call for an earlier run is a
    /// no-op. Monotone under races by construction.
    pub fn publish_up_to(&self, seq: u64) {
        self.publish_refresh(self.site, seq);
    }

    /// The refresh admission check: a snapshot of the svv if `admit` holds
    /// now; otherwise `wake` (if any) is left to fire at the next advance
    /// and `None` is returned. Check and registration share the clock lock,
    /// so no advance can slip between them.
    ///
    /// The applier installs versions *outside* the clock lock and advances
    /// the svv afterwards via [`SiteClock::publish_refresh`]. That is safe:
    /// versions stamped `(origin, seq)` are invisible to every snapshot
    /// until `svv[origin] >= seq`, and begin snapshots are cut from the svv
    /// — so "install, then advance" is the real invariant, not "install
    /// atomically with the advance". The svv is monotone, so once `admit`
    /// holds it holds forever and the snapshot cannot be invalidated by
    /// concurrent refreshes from other origins.
    pub fn admit_or_wake(
        &self,
        admit: impl Fn(&VersionVector) -> bool,
        wake: Option<&Wake>,
    ) -> Result<Option<VersionVector>> {
        let mut state = self.state.lock();
        if state.shutting_down {
            return Err(DynaError::ShuttingDown);
        }
        if admit(&state.svv) {
            return Ok(Some(state.svv.clone()));
        }
        if let Some(wake) = wake {
            state.wakes.push(wake.clone());
        }
        Ok(None)
    }

    /// Advances `svv[origin]` to `seq` after the corresponding versions have
    /// been installed, waking admission and freshness waiters. One call
    /// publishes a whole contiguous run of applied records (the batch
    /// applier's in-order watermark publication).
    ///
    /// Advance-only, like [`SiteClock::publish_up_to`]: a stale caller (a
    /// late batch-applier publish racing a recovery-installed svv) is a
    /// no-op. The svv is a watermark — rewinding it would resurrect Eq. 1
    /// admission for records already applied and break SSSI freshness, and a
    /// `debug_assert!` alone left release builds free to do exactly that.
    pub fn publish_refresh(&self, origin: SiteId, seq: u64) {
        let mut state = self.state.lock();
        if state.svv.get(origin) < seq {
            state.svv.set(origin, seq);
            self.advanced(state);
        }
    }

    /// Wakes every waiter with [`DynaError::ShuttingDown`] and fires every
    /// pending wake.
    pub fn shut_down(&self) {
        let mut state = self.state.lock();
        state.shutting_down = true;
        self.advanced(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn clock() -> Arc<SiteClock> {
        Arc::new(SiteClock::new(SiteId::new(0), 3))
    }

    #[test]
    fn wait_dominates_blocks_until_fresh() {
        let c = clock();
        let min = VersionVector::from_counts(vec![1, 0, 0]);
        let c2 = Arc::clone(&c);
        let min2 = min.clone();
        let waiter = thread::spawn(move || c2.wait_dominates(&min2).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished());
        c.publish_up_to(1);
        let begin = waiter.join().unwrap();
        assert!(begin.dominates(&min));
    }

    #[test]
    fn only_a_freshness_wait_that_parks_is_counted_once() {
        let parks = Arc::new(Counter::new());
        let c =
            Arc::new(SiteClock::new(SiteId::new(0), 3).counting_parks(Some(Arc::clone(&parks))));
        c.wait_dominates(&VersionVector::zero(3)).unwrap();
        assert_eq!(parks.get(), 0, "a satisfied wait does not park");
        let min = VersionVector::from_counts(vec![0, 2, 0]);
        let c2 = Arc::clone(&c);
        let waiter = thread::spawn(move || c2.wait_dominates(&min).unwrap());
        while parks.get() == 0 {
            thread::yield_now();
        }
        // Two advances wake the waiter twice; it parked as one wait.
        c.publish_refresh(SiteId::new(1), 1);
        c.publish_refresh(SiteId::new(1), 2);
        waiter.join().unwrap();
        assert_eq!(parks.get(), 1);
    }

    /// A wake on this thread with a flag the test can read.
    fn test_wake() -> Wake {
        Wake::new(thread::current())
    }

    #[test]
    fn admission_respects_update_application_rule() {
        let c = clock();
        let origin = SiteId::new(1);
        // tvv [0, 2, 0]: needs svv[1] == 1 first.
        let tvv2 = VersionVector::from_counts(vec![0, 2, 0]);
        let tvv1 = VersionVector::from_counts(vec![0, 1, 0]);
        let admit2 = |svv: &VersionVector| svv.can_apply_refresh(&tvv2, origin);
        assert_eq!(c.admit_or_wake(admit2, None).unwrap(), None, "seq 2 waits");
        let snap = c
            .admit_or_wake(|svv| svv.can_apply_refresh(&tvv1, origin), None)
            .unwrap()
            .expect("seq 1 admitted");
        assert_eq!(snap.get(origin), 0, "snapshot cut at admission time");
        c.publish_refresh(origin, 1);
        let snap = c.admit_or_wake(admit2, None).unwrap().expect("admitted");
        assert_eq!(snap.get(origin), 1);
    }

    /// A refused head leaves a wake that the next advance of *any*
    /// dimension fires once — here the cross-site dependency landing.
    #[test]
    fn refused_admission_wakes_on_the_next_advance() {
        let c = clock();
        // Record from site 1 that depends on site 2's first commit.
        let tvv = VersionVector::from_counts(vec![0, 1, 1]);
        let admit = |svv: &VersionVector| svv.can_apply_refresh(&tvv, SiteId::new(1));
        let wake = test_wake();
        assert_eq!(c.admit_or_wake(admit, Some(&wake)).unwrap(), None);
        assert!(!wake.take(), "nothing advanced yet");
        c.publish_refresh(SiteId::new(2), 1);
        assert!(wake.take(), "the advance fires the wake");
        assert!(c.admit_or_wake(admit, Some(&wake)).unwrap().is_some());
        c.publish_refresh(SiteId::new(1), 1);
        assert!(!wake.take(), "an admitted head leaves no wake");
        // Shutdown fires pending wakes and refuses admission.
        let blocked = VersionVector::from_counts(vec![0, 3, 0]);
        let admit = |svv: &VersionVector| svv.can_apply_refresh(&blocked, SiteId::new(1));
        assert_eq!(c.admit_or_wake(admit, Some(&wake)).unwrap(), None);
        c.shut_down();
        assert!(wake.take());
        assert_eq!(
            c.admit_or_wake(admit, Some(&wake)).unwrap_err(),
            DynaError::ShuttingDown
        );
    }

    /// A notify skips the condvar when nobody is parked, so a waiter that
    /// parks before an advance must still be woken — by every kind of
    /// advance, and by shutdown.
    #[test]
    fn parked_waiters_wake_on_every_advance_and_on_shutdown() {
        let c = clock();
        let parked_wait = |min: Vec<u64>| {
            let c2 = Arc::clone(&c);
            let waiter = thread::spawn(move || c2.wait_dominates(&VersionVector::from_counts(min)));
            thread::sleep(Duration::from_millis(20));
            assert!(!waiter.is_finished(), "the waiter is parked");
            waiter
        };
        let w = parked_wait(vec![2, 0, 0]);
        c.publish_up_to(2);
        assert!(w.join().unwrap().is_ok());
        let w = parked_wait(vec![2, 1, 0]);
        c.publish_refresh(SiteId::new(1), 1);
        assert!(w.join().unwrap().is_ok());
        let w = parked_wait(vec![9, 0, 0]);
        c.shut_down();
        assert_eq!(w.join().unwrap().unwrap_err(), DynaError::ShuttingDown);
    }

    #[test]
    fn publish_refresh_advances_over_a_whole_run() {
        let c = clock();
        let origin = SiteId::new(2);
        // One publication covers a contiguous run of applied records.
        c.publish_refresh(origin, 5);
        assert_eq!(c.current().get(origin), 5);
    }

    /// Regression: `publish_refresh` used to guard regression with only a
    /// `debug_assert!` and then `set` unconditionally — in release builds a
    /// stale publish silently *rewound* the svv. This test is meaningful in
    /// release mode precisely because the old guard was compiled out there.
    #[test]
    fn publish_refresh_never_rewinds_watermark() {
        let origin = SiteId::new(1);
        // A recovery-installed svv already past the stale caller's view.
        let c =
            SiteClock::from_recovered(SiteId::new(0), VersionVector::from_counts(vec![2, 7, 0]));
        // Late batch-applier publication for an earlier run: must be a no-op.
        c.publish_refresh(origin, 3);
        assert_eq!(c.current().get(origin), 7, "stale publish must not rewind");
        // Genuine advances still land.
        c.publish_refresh(origin, 9);
        assert_eq!(c.current().get(origin), 9);
    }

    #[test]
    fn shutdown_unblocks_waiters_with_error() {
        let c = clock();
        let c2 = Arc::clone(&c);
        let waiter =
            thread::spawn(move || c2.wait_dominates(&VersionVector::from_counts(vec![99, 0, 0])));
        thread::sleep(Duration::from_millis(20));
        c.shut_down();
        assert_eq!(waiter.join().unwrap().unwrap_err(), DynaError::ShuttingDown);
    }
}
