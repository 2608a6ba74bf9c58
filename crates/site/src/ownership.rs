//! Partition mastership and writer draining.
//!
//! The site manager "waits for any ongoing transactions writing the data to
//! finish before releasing mastership" (§III-B). [`Ownership`] tracks the
//! set of partitions this site masters together with a count of in-flight
//! update transactions per partition. Revoking mastership first removes the
//! partition from the mastered set — so no *new* writer can register — then
//! blocks until in-flight writers drain.

use std::collections::HashMap;
use std::sync::Arc;

use dynamast_common::ids::PartitionId;
use dynamast_common::{DynaError, Result};
use parking_lot::{Condvar, Mutex};

#[derive(Default)]
struct OwnershipInner {
    /// Mastered partitions → number of in-flight writers.
    mastered: HashMap<PartitionId, usize>,
    /// Partitions being released → writers still to drain. No longer
    /// mastered: a new writer cannot register, and the partition is not
    /// reported as mastered.
    draining: HashMap<PartitionId, usize>,
}

/// A site's mastership table.
pub struct Ownership {
    inner: Mutex<OwnershipInner>,
    drained: Condvar,
}

impl Ownership {
    /// Creates a table mastering `initial` partitions.
    pub fn new(initial: impl IntoIterator<Item = PartitionId>) -> Self {
        Ownership {
            inner: Mutex::new(OwnershipInner {
                mastered: initial.into_iter().map(|p| (p, 0)).collect(),
                draining: HashMap::new(),
            }),
            drained: Condvar::new(),
        }
    }

    /// `true` iff this site masters `partition`.
    pub fn is_mastered(&self, partition: PartitionId) -> bool {
        self.inner.lock().mastered.contains_key(&partition)
    }

    /// All currently mastered partitions (diagnostics / recovery).
    pub fn mastered_partitions(&self) -> Vec<PartitionId> {
        self.inner.lock().mastered.keys().copied().collect()
    }

    /// Number of mastered partitions.
    pub fn mastered_count(&self) -> usize {
        self.inner.lock().mastered.len()
    }

    /// Grants mastership of `partition` (idempotent).
    pub fn grant(&self, partition: PartitionId) {
        self.inner.lock().mastered.entry(partition).or_insert(0);
    }

    /// Revokes mastership and blocks until in-flight writers drain.
    ///
    /// Errors if the partition is not mastered here — the selector sent a
    /// release to the wrong site, which indicates corrupted routing state.
    pub fn revoke_and_drain(&self, partition: PartitionId) -> Result<()> {
        let mut inner = self.inner.lock();
        let Some(writers) = inner.mastered.remove(&partition) else {
            return Err(DynaError::Internal("release for unmastered partition"));
        };
        if writers > 0 {
            inner.draining.insert(partition, writers);
            while inner.draining.get(&partition).is_some_and(|&n| n > 0) {
                self.drained.wait(&mut inner);
            }
            inner.draining.remove(&partition);
        }
        Ok(())
    }

    /// Registers an update transaction writing `partitions`.
    ///
    /// With `check = true` (dynamic mastering, static partitioning), fails
    /// with [`DynaError::NotMaster`] if any partition is not mastered here —
    /// the signal that a concurrent remaster made the routing stale.
    pub fn register_writer(
        self: &Arc<Self>,
        site: dynamast_common::ids::SiteId,
        partitions: &[PartitionId],
        check: bool,
    ) -> Result<WriterGuard> {
        let mut inner = self.inner.lock();
        if check {
            for p in partitions {
                if !inner.mastered.contains_key(p) {
                    return Err(DynaError::NotMaster {
                        site,
                        partition: *p,
                    });
                }
            }
        }
        let mut registered = Vec::with_capacity(partitions.len());
        for p in partitions {
            // Unchecked writers (2PC participants already validated at
            // prepare) still count, so draining remains correct.
            if let Some(count) = inner.mastered.get_mut(p) {
                *count += 1;
                registered.push(*p);
            }
        }
        drop(inner);
        Ok(WriterGuard {
            ownership: Arc::clone(self),
            partitions: registered,
        })
    }

    fn deregister(&self, partitions: &[PartitionId]) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        for p in partitions {
            if let Some(count) = inner
                .mastered
                .get_mut(p)
                .or_else(|| inner.draining.get_mut(p))
            {
                *count = count.saturating_sub(1);
            }
        }
        drop(guard);
        self.drained.notify_all();
    }
}

/// RAII registration of an in-flight writer; deregisters on drop.
pub struct WriterGuard {
    ownership: Arc<Ownership>,
    partitions: Vec<PartitionId>,
}

impl Drop for WriterGuard {
    fn drop(&mut self) {
        self.ownership.deregister(&self.partitions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynamast_common::ids::SiteId;
    use std::thread;
    use std::time::Duration;

    fn pid(i: usize) -> PartitionId {
        PartitionId::new(i)
    }

    fn site() -> dynamast_common::ids::SiteId {
        SiteId::new(0)
    }

    #[test]
    fn initial_partitions_are_mastered() {
        let o = Ownership::new([pid(1), pid(2)]);
        assert!(o.is_mastered(pid(1)));
        assert!(!o.is_mastered(pid(3)));
        assert_eq!(o.mastered_count(), 2);
    }

    #[test]
    fn grant_adds_mastership_idempotently() {
        let o = Ownership::new([]);
        o.grant(pid(4));
        o.grant(pid(4));
        assert_eq!(o.mastered_count(), 1);
    }

    #[test]
    fn register_writer_checks_mastership() {
        let o = Arc::new(Ownership::new([pid(1)]));
        assert!(o.register_writer(site(), &[pid(1)], true).is_ok());
        match o.register_writer(site(), &[pid(1), pid(2)], true) {
            Err(err) => assert!(matches!(err, DynaError::NotMaster { .. })),
            Ok(_) => panic!("unmastered partition must be rejected"),
        }
    }

    #[test]
    fn revoke_waits_for_writers_to_drain() {
        let o = Arc::new(Ownership::new([pid(1)]));
        let guard = o.register_writer(site(), &[pid(1)], true).unwrap();
        let o2 = Arc::clone(&o);
        let revoker = thread::spawn(move || o2.revoke_and_drain(pid(1)).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert!(!revoker.is_finished(), "revoke must wait for the writer");
        // New writers cannot register once revocation started.
        assert!(o.register_writer(site(), &[pid(1)], true).is_err());
        drop(guard);
        revoker.join().unwrap();
        assert!(!o.is_mastered(pid(1)));
    }

    /// A partition whose release waits on a writer is no longer mastered,
    /// and is reported as such: no placeholder id stands in for it.
    #[test]
    fn a_draining_partition_is_not_reported_as_mastered() {
        let o = Arc::new(Ownership::new([pid(1), pid(2)]));
        let guard = o.register_writer(site(), &[pid(1)], true).unwrap();
        let o2 = Arc::clone(&o);
        let revoker = thread::spawn(move || o2.revoke_and_drain(pid(1)).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert!(!revoker.is_finished(), "revoke must wait for the writer");
        assert_eq!(o.mastered_partitions(), vec![pid(2)]);
        assert_eq!(o.mastered_count(), 1);
        drop(guard);
        revoker.join().unwrap();
        assert_eq!(o.mastered_partitions(), vec![pid(2)]);
    }

    #[test]
    fn revoke_of_unmastered_partition_errors() {
        let o = Ownership::new([]);
        assert!(o.revoke_and_drain(pid(9)).is_err());
    }

    #[test]
    fn remaster_cycle_restores_writability() {
        let o = Arc::new(Ownership::new([pid(1)]));
        o.revoke_and_drain(pid(1)).unwrap();
        o.grant(pid(1));
        assert!(o.register_writer(site(), &[pid(1)], true).is_ok());
    }

    #[test]
    fn unchecked_writers_on_unmastered_partitions_do_not_count() {
        let o = Arc::new(Ownership::new([pid(1)]));
        let g = o.register_writer(site(), &[pid(1), pid(2)], false).unwrap();
        // pid(2) is not mastered; revoking pid(1) must wait only for pid(1).
        let o2 = Arc::clone(&o);
        let revoker = thread::spawn(move || o2.revoke_and_drain(pid(1)).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert!(!revoker.is_finished());
        drop(g);
        revoker.join().unwrap();
    }
}
