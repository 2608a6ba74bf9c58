//! Per-record exclusive write locks.
//!
//! The paper avoids transactional aborts on write–write conflicts by mutually
//! excluding writers of a record with "simple and lightweight" locks
//! (§V-A1). [`LockManager`] implements this as a striped table of held keys:
//! acquiring a lock on a held key blocks on the stripe's condition variable
//! until the holder releases.
//!
//! Deadlock freedom is the caller's responsibility and is achieved the
//! classic way: transactions acquire their whole write set in sorted key
//! order (see `acquire_all`).

use std::sync::Arc;

use dynamast_common::hash::IntSet;
use dynamast_common::ids::Key;
use parking_lot::{Condvar, Mutex};

const STRIPES: usize = 64;

fn stripe_of(key: Key) -> usize {
    // Cheap mix of table and record id; stripes only need rough balance.
    let h = key
        .record
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        ^ u64::from(key.table.raw());
    (h as usize) % STRIPES
}

struct Stripe {
    held: Mutex<IntSet<Key>>,
    released: Condvar,
}

/// A striped per-record exclusive lock table.
pub struct LockManager {
    stripes: Vec<Stripe>,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockManager {
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    held: Mutex::new(IntSet::default()),
                    released: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Blocks until `key` can be locked exclusively; returns a guard that
    /// releases on drop.
    pub fn acquire(self: &Arc<Self>, key: Key) -> LockGuard {
        let stripe = &self.stripes[stripe_of(key)];
        let mut held = stripe.held.lock();
        while held.contains(&key) {
            stripe.released.wait(&mut held);
        }
        held.insert(key);
        LockGuard {
            manager: Arc::clone(self),
            key,
        }
    }

    /// Attempts to lock `key` without blocking.
    pub fn try_acquire(self: &Arc<Self>, key: Key) -> Option<LockGuard> {
        let stripe = &self.stripes[stripe_of(key)];
        let mut held = stripe.held.lock();
        if held.contains(&key) {
            return None;
        }
        held.insert(key);
        Some(LockGuard {
            manager: Arc::clone(self),
            key,
        })
    }

    /// Acquires every key in `keys` in globally consistent (sorted,
    /// deduplicated) order, preventing deadlock between transactions with
    /// overlapping write sets.
    pub fn acquire_all(self: &Arc<Self>, keys: &[Key]) -> Vec<LockGuard> {
        let mut sorted: Vec<Key> = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.into_iter().map(|k| self.acquire(k)).collect()
    }

    /// `true` iff `key` is currently locked (diagnostics/tests only — the
    /// answer may be stale by the time the caller uses it).
    pub fn is_locked(&self, key: Key) -> bool {
        self.stripes[stripe_of(key)].held.lock().contains(&key)
    }

    fn release(&self, key: Key) {
        let stripe = &self.stripes[stripe_of(key)];
        let removed = stripe.held.lock().remove(&key);
        debug_assert!(removed, "released a lock that was not held: {key:?}");
        stripe.released.notify_all();
    }
}

/// RAII guard for one record lock.
pub struct LockGuard {
    manager: Arc<LockManager>,
    key: Key,
}

impl LockGuard {
    /// The locked key.
    pub fn key(&self) -> Key {
        self.key
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.manager.release(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::ids::TableId;
    use std::thread;
    use std::time::Duration;

    fn key(r: u64) -> Key {
        Key::new(TableId::new(0), r)
    }

    #[test]
    fn acquire_and_drop_release() {
        let lm = Arc::new(LockManager::new());
        {
            let _g = lm.acquire(key(1));
            assert!(lm.is_locked(key(1)));
            assert!(lm.try_acquire(key(1)).is_none());
        }
        assert!(!lm.is_locked(key(1)));
        assert!(lm.try_acquire(key(1)).is_some());
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let lm = Arc::new(LockManager::new());
        let _a = lm.acquire(key(1));
        let _b = lm.acquire(key(2));
        assert!(lm.is_locked(key(1)) && lm.is_locked(key(2)));
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let lm = Arc::new(LockManager::new());
        let guard = lm.acquire(key(7));
        let lm2 = Arc::clone(&lm);
        let waiter = thread::spawn(move || {
            let _g = lm2.acquire(key(7));
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "waiter should block while held");
        drop(guard);
        waiter.join().unwrap();
    }

    #[test]
    fn acquire_all_sorts_and_dedups() {
        let lm = Arc::new(LockManager::new());
        let guards = lm.acquire_all(&[key(3), key(1), key(3), key(2)]);
        assert_eq!(guards.len(), 3);
        let keys: Vec<u64> = guards.iter().map(|g| g.key().record).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_writers_serialize_without_deadlock() {
        let lm = Arc::new(LockManager::new());
        let keys: Vec<Key> = (0..8).map(key).collect();
        let counter = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for t in 0..8 {
            let lm = Arc::clone(&lm);
            let mut ks = keys.clone();
            // Different threads present the keys in different orders;
            // acquire_all must still be deadlock-free.
            ks.rotate_left(t);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    let _guards = lm.acquire_all(&ks);
                    *counter.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 8 * 50);
        for k in keys {
            assert!(!lm.is_locked(k));
        }
    }
}
