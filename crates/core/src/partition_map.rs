//! The selector's partition-information table (§V-B).
//!
//! "For each partition group, DynaMast stores partition information that
//! contains the current master location and a readers-writer lock. [...] The
//! site selector acquires each accessed partition's lock in shared read mode.
//! If one site masters all partitions, then the site selector routes the
//! transaction there [...]. Otherwise, the site selector upgrades each
//! partition information lock to exclusive write mode, which prevents
//! concurrent remastering of a partition."
//!
//! Locks are always taken in ascending partition-id order, so concurrent
//! routings with overlapping partition sets cannot deadlock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dynamast_common::hash::IntMap;
use dynamast_common::ids::{PartitionId, SiteId};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Mutable per-partition state guarded by the entry's RW lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionMeta {
    /// Current master, or `None` if the partition has never been placed
    /// (DynaMast starts with no fixed placement, §VI-A1).
    pub master: Option<SiteId>,
}

/// One partition's information record.
///
/// The authoritative master lives under the RW lock; a lock-free mirror
/// (`master_cache`) serves the strategy model's partner lookups, which must
/// not take partition locks (the scoring thread already holds exclusive
/// locks on the write-set entries, and a partner may *be* one of them).
pub struct PartitionEntry {
    meta: RwLock<PartitionMeta>,
    /// `0` = unplaced, otherwise `site + 1`.
    master_cache: AtomicU64,
}

impl PartitionEntry {
    fn new(master: Option<SiteId>) -> Arc<Self> {
        Arc::new(PartitionEntry {
            meta: RwLock::new(PartitionMeta { master }),
            master_cache: AtomicU64::new(encode_master(master)),
        })
    }

    /// Current master without taking the routing lock (statistics, strategy
    /// partner lookups, diagnostics — racy by design).
    pub fn master_relaxed(&self) -> Option<SiteId> {
        decode_master(self.master_cache.load(Ordering::Relaxed))
    }

    /// Updates both the locked meta and the lock-free mirror. The caller
    /// must hold this entry's exclusive lock guard.
    pub fn set_master(&self, guard: &mut RwLockWriteGuard<'_, PartitionMeta>, master: SiteId) {
        guard.master = Some(master);
        self.master_cache
            .store(encode_master(Some(master)), Ordering::Relaxed);
    }
}

fn encode_master(master: Option<SiteId>) -> u64 {
    master.map_or(0, |s| u64::from(s.raw()) + 1)
}

fn decode_master(raw: u64) -> Option<SiteId> {
    (raw != 0).then(|| SiteId::new((raw - 1) as usize))
}

/// The concurrent partition-information table.
pub struct PartitionMap {
    entries: RwLock<IntMap<PartitionId, Arc<PartitionEntry>>>,
}

impl Default for PartitionMap {
    fn default() -> Self {
        Self::new()
    }
}

impl PartitionMap {
    /// Creates an empty map (every partition unplaced).
    pub fn new() -> Self {
        PartitionMap {
            entries: RwLock::new(IntMap::default()),
        }
    }

    /// Seeds initial mastership assignments (the Fig. 5b adaptivity
    /// experiment manually range-assigns mastership before the run; the
    /// single-master configuration seeds everything at the master site).
    pub fn seed(&self, assignments: impl IntoIterator<Item = (PartitionId, SiteId)>) {
        let mut entries = self.entries.write();
        for (p, s) in assignments {
            entries.insert(p, PartitionEntry::new(Some(s)));
        }
    }

    /// Fetches (creating if absent, as unplaced) the entries for a sorted,
    /// deduplicated partition list.
    pub fn entries_for(&self, partitions: &[PartitionId]) -> Vec<Arc<PartitionEntry>> {
        debug_assert!(
            partitions.windows(2).all(|w| w[0] < w[1]),
            "must be sorted+deduped"
        );
        {
            let entries = self.entries.read();
            if let Some(found) = partitions
                .iter()
                .map(|p| entries.get(p).cloned())
                .collect::<Option<Vec<_>>>()
            {
                return found;
            }
        }
        let mut entries = self.entries.write();
        partitions
            .iter()
            .map(|p| {
                Arc::clone(
                    entries
                        .entry(*p)
                        .or_insert_with(|| PartitionEntry::new(None)),
                )
            })
            .collect()
    }

    /// Read-only lookup without creating an entry.
    pub fn entries_for_existing(&self, partition: PartitionId) -> Option<Arc<PartitionEntry>> {
        self.entries.read().get(&partition).cloned()
    }

    /// The current master of each of `partitions` (see
    /// [`PartitionEntry::master_relaxed`]; `None` if never placed), in
    /// order, under one shared read of the table: the strategy model's
    /// partner-master queries.
    pub fn masters_relaxed(
        &self,
        partitions: impl IntoIterator<Item = PartitionId>,
    ) -> Vec<Option<SiteId>> {
        let entries = self.entries.read();
        partitions
            .into_iter()
            .map(|p| entries.get(&p).and_then(|e| e.master_relaxed()))
            .collect()
    }

    /// Locks the given entries in shared mode (routing fast path). Entries
    /// must be in ascending partition order (as produced by
    /// [`PartitionMap::entries_for`]).
    pub fn lock_shared<'a>(
        &self,
        entries: &'a [Arc<PartitionEntry>],
    ) -> Vec<RwLockReadGuard<'a, PartitionMeta>> {
        entries.iter().map(|e| e.meta.read()).collect()
    }

    /// Locks the given entries in exclusive mode (remastering path).
    pub fn lock_exclusive<'a>(
        &self,
        entries: &'a [Arc<PartitionEntry>],
    ) -> Vec<RwLockWriteGuard<'a, PartitionMeta>> {
        entries.iter().map(|e| e.meta.write()).collect()
    }

    /// Snapshot of all placements (diagnostics, recovery assertions,
    /// routing-distribution reports).
    pub fn placements(&self) -> Vec<(PartitionId, Option<SiteId>)> {
        self.entries
            .read()
            .iter()
            .map(|(p, e)| (*p, e.master_relaxed()))
            .collect()
    }

    /// Number of partitions mastered per site (Fig. 5a routing analysis).
    pub fn masters_per_site(&self, num_sites: usize) -> Vec<u64> {
        let mut counts = vec![0u64; num_sites];
        for (_, master) in self.placements() {
            if let Some(s) = master {
                counts[s.as_usize()] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn pid(i: usize) -> PartitionId {
        PartitionId::new(i)
    }

    #[test]
    fn unseen_partitions_are_unplaced() {
        let map = PartitionMap::new();
        let entries = map.entries_for(&[pid(1), pid(2)]);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].master_relaxed(), None);
    }

    #[test]
    fn entries_are_shared_across_lookups() {
        let map = PartitionMap::new();
        let a = map.entries_for(&[pid(7)]);
        {
            let mut guards = map.lock_exclusive(&a);
            a[0].set_master(&mut guards[0], SiteId::new(2));
        }
        let b = map.entries_for(&[pid(7)]);
        assert_eq!(b[0].master_relaxed(), Some(SiteId::new(2)));
    }

    #[test]
    fn seed_sets_initial_masters() {
        let map = PartitionMap::new();
        map.seed([(pid(1), SiteId::new(0)), (pid(2), SiteId::new(1))]);
        assert_eq!(map.masters_per_site(2), vec![1, 1]);
    }

    #[test]
    fn shared_locks_allow_concurrent_readers() {
        let map = PartitionMap::new();
        let entries = map.entries_for(&[pid(1)]);
        let _g1 = map.lock_shared(&entries);
        let _g2 = map.lock_shared(&entries); // would deadlock if exclusive
    }

    #[test]
    fn exclusive_lock_blocks_shared() {
        let map = Arc::new(PartitionMap::new());
        let entries = map.entries_for(&[pid(1)]);
        let guards = map.lock_exclusive(&entries);
        let map2 = Arc::clone(&map);
        let reader = thread::spawn(move || {
            let entries = map2.entries_for(&[pid(1)]);
            let _g = map2.lock_shared(&entries);
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!reader.is_finished(), "shared must wait for exclusive");
        drop(guards);
        reader.join().unwrap();
    }

    #[test]
    fn placements_reports_all_entries() {
        let map = PartitionMap::new();
        map.seed([(pid(3), SiteId::new(0))]);
        map.entries_for(&[pid(4)]);
        let mut placements = map.placements();
        placements.sort_by_key(|(p, _)| *p);
        assert_eq!(
            placements,
            vec![(pid(3), Some(SiteId::new(0))), (pid(4), None)]
        );
    }
}
