//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! minimal, API-compatible implementations of its external dependencies (see
//! `crates/shims/README.md`). This one wraps `std::sync` primitives behind
//! `parking_lot`'s non-poisoning API: `lock()`/`read()`/`write()` return
//! guards directly, and a poisoned std lock (a thread panicked while holding
//! it) is treated as still usable, matching `parking_lot` semantics.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual-exclusion lock with `parking_lot`'s non-poisoning interface.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard returned by [`Mutex::lock`].
///
/// The `Option` is always `Some` outside of [`Condvar`] waits, which
/// temporarily take the inner std guard to hand it to `std::sync::Condvar`.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// A readers-writer lock with `parking_lot`'s non-poisoning interface.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Outcome of a [`Condvar::wait_for`] call.
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` iff the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable usable with this module's [`MutexGuard`].
///
/// Like upstream's, it knows whether any thread waits on it: a notify with
/// no waiter costs one atomic load and makes no syscall (std's futex
/// condvar makes a `FUTEX_WAKE` call for every notify). That holds under
/// the condvar contract callers already keep — the state a waiter waits on
/// is changed under the mutex it waits with — because a waiter is counted
/// under that mutex before it checks and sleeps.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    /// Threads inside [`Condvar::wait`] / [`Condvar::wait_for`]. Changed
    /// only under the waiter's mutex, so a notifier that changed the state
    /// under that mutex reads every waiter that could still be asleep
    /// (release/acquire of the mutex orders the increment before the
    /// notifier's load; `Relaxed` suffices, as upstream).
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified. Spurious wakeups are possible.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(std_guard);
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let std_guard = guard.inner.take().expect("guard present");
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let (std_guard, result) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(std_guard);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one blocked waiter, if any.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes all blocked waiters, if any.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.inner.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_shared_and_exclusive() {
        let l = RwLock::new(5);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(*a + *b, 10);
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cvar.wait(&mut ready);
            }
        });
        thread::sleep(Duration::from_millis(10));
        let (lock, cvar) = &*pair;
        *lock.lock() = true;
        cvar.notify_all();
        t.join().unwrap();
    }

    /// Spins until `n` threads are counted inside a wait on `cvar`.
    fn until_parked(cvar: &Condvar, n: usize) {
        while cvar.waiters.load(Ordering::Relaxed) != n {
            thread::yield_now();
        }
    }

    #[test]
    fn notify_without_a_waiter_is_not_remembered() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let (lock, cvar) = &*pair;
        cvar.notify_one();
        cvar.notify_all();
        let mut ready = lock.lock();
        // The skipped notifies leave nothing behind: this wait sleeps out
        // its timeout.
        assert!(cvar
            .wait_for(&mut ready, Duration::from_millis(20))
            .timed_out());
        let pair2 = Arc::clone(&pair);
        let notifier = thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            until_parked(cvar, 1);
            *lock.lock() = true;
            cvar.notify_one();
        });
        while !*ready {
            cvar.wait(&mut ready);
        }
        drop(ready);
        notifier.join().unwrap();
        assert_eq!(cvar.waiters.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn parked_waiter_wakes_on_each_notify_kind_and_wait_kind() {
        for notify_all in [false, true] {
            for timed in [false, true] {
                let pair = Arc::new((Mutex::new(false), Condvar::new()));
                let pair2 = Arc::clone(&pair);
                let waiter = thread::spawn(move || {
                    let (lock, cvar) = &*pair2;
                    let mut ready = lock.lock();
                    while !*ready {
                        if timed {
                            let res = cvar.wait_for(&mut ready, Duration::from_secs(30));
                            assert!(!res.timed_out(), "woken by the notify, not the timeout");
                        } else {
                            cvar.wait(&mut ready);
                        }
                    }
                });
                let (lock, cvar) = &*pair;
                until_parked(cvar, 1);
                *lock.lock() = true;
                if notify_all {
                    cvar.notify_all();
                } else {
                    cvar.notify_one();
                }
                waiter.join().unwrap();
                assert_eq!(cvar.waiters.load(Ordering::Relaxed), 0);
            }
        }
    }

    #[test]
    fn notify_all_wakes_every_parked_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let pair = Arc::clone(&pair);
                thread::spawn(move || {
                    let (lock, cvar) = &*pair;
                    let mut ready = lock.lock();
                    while !*ready {
                        cvar.wait(&mut ready);
                    }
                })
            })
            .collect();
        let (lock, cvar) = &*pair;
        until_parked(cvar, 3);
        *lock.lock() = true;
        cvar.notify_all();
        for w in waiters {
            w.join().unwrap();
        }
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        // Two threads hand a turn back and forth through one condvar; a
        // notify skipped while the other side was about to park would hang.
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let rounds = 20_000;
        let odd = thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            for i in 0..rounds {
                let mut turn = lock.lock();
                while *turn != 2 * i + 1 {
                    cvar.wait(&mut turn);
                }
                *turn += 1;
                drop(turn);
                cvar.notify_one();
            }
        });
        let (lock, cvar) = &*pair;
        for i in 0..rounds {
            let mut turn = lock.lock();
            while *turn != 2 * i {
                cvar.wait(&mut turn);
            }
            *turn += 1;
            drop(turn);
            cvar.notify_one();
        }
        odd.join().unwrap();
        assert_eq!(*lock.lock(), 2 * rounds);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let lock = Mutex::new(());
        let cvar = Condvar::new();
        let mut g = lock.lock();
        let res = cvar.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
    }
}
