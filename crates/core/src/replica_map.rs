//! The selector's partition→replica-set table (partial replication).
//!
//! Where [`crate::partition_map`] answers "who masters this partition?",
//! `ReplicaMap` answers "who holds a copy of it?". Under full replication
//! the answer is trivially "everyone"; under `replication=partial` each
//! partition's replica set is a dynamic subset of sites, never smaller than
//! the configured floor and always containing the current master (grants
//! are preceded by copy installation when the grantee holds none).
//!
//! The map is read on every read-routing decision, so each partition's
//! replica set is a lock-free `AtomicU64` bitmask of site ids (the
//! simulated deployments are well under 64 sites). Mutations — provisioning
//! adds/drops, remaster-driven copy creation, restart reconciliation — are
//! rare and go through the same atomics with compare-and-swap loops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dynamast_common::ids::{PartitionId, SiteId};
use parking_lot::RwLock;

/// Per-partition replica sets as site bitmasks.
///
/// Partitions absent from the table implicitly hold the *default* replica
/// set ([`ReplicaMap::default_hosts`]): a deterministic floor-sized set
/// derived from the partition id, shared with the data sites' seeding so
/// selector and sites agree on initial hosting without coordination.
pub struct ReplicaMap {
    num_sites: usize,
    floor: usize,
    /// `true` = full replication: every query answers "all sites" and
    /// mutations are ignored.
    full: bool,
    entries: RwLock<HashMap<PartitionId, AtomicU64>>,
}

impl ReplicaMap {
    /// Creates a map for `num_sites` sites. `floor` is the minimum copies
    /// per partition; `full` makes the map degenerate (everyone hosts
    /// everything, the seed behavior).
    pub fn new(num_sites: usize, floor: usize, full: bool) -> Self {
        assert!(num_sites <= 64, "replica bitmask holds at most 64 sites");
        ReplicaMap {
            num_sites,
            floor: floor.clamp(2, num_sites.max(1)).min(num_sites.max(1)),
            full,
            entries: RwLock::new(HashMap::new()),
        }
    }

    /// Whether this map tracks a partial replica set (false = full
    /// replication degenerate mode).
    pub fn is_partial(&self) -> bool {
        !self.full
    }

    /// The configured copy floor.
    pub fn floor(&self) -> usize {
        if self.full {
            self.num_sites
        } else {
            self.floor
        }
    }

    fn all_mask(&self) -> u64 {
        if self.num_sites >= 64 {
            u64::MAX
        } else {
            (1u64 << self.num_sites) - 1
        }
    }

    /// Contiguous partitions share a seeding anchor in blocks of this many.
    /// Range scans span *adjacent* partitions, so anchoring per-partition
    /// (`p % num_sites`) would guarantee no site co-hosts any multi-partition
    /// range and every scan would widen the map through NotReplica repair.
    /// Block anchoring keeps whole ranges co-hosted; consecutive blocks still
    /// overlap (the anchor advances by one site per block), so ranges that
    /// straddle one block boundary are co-hosted at the shared site and load
    /// stays balanced globally.
    pub const ANCHOR_BLOCK: usize = 8;

    /// The deterministic initial replica set of `partition`: the seeding
    /// anchor site of its [`ReplicaMap::ANCHOR_BLOCK`] block plus the next
    /// `floor - 1` sites round-robin. Data sites derive their initial hosted
    /// sets from the same function, so the selector and the sites agree
    /// without any startup coordination.
    pub fn default_hosts(num_sites: usize, floor: usize, partition: PartitionId) -> Vec<SiteId> {
        let floor = floor.clamp(2, num_sites.max(1)).min(num_sites.max(1));
        let anchor = (partition.raw() as usize / Self::ANCHOR_BLOCK) % num_sites.max(1);
        (0..floor)
            .map(|i| SiteId::new((anchor + i) % num_sites.max(1)))
            .collect()
    }

    fn default_mask(&self, partition: PartitionId) -> u64 {
        let mut mask = 0u64;
        for s in Self::default_hosts(self.num_sites, self.floor, partition) {
            mask |= 1u64 << s.as_usize();
        }
        mask
    }

    /// The current replica bitmask of `partition` (bit `i` = site `i`
    /// holds a copy).
    pub fn mask(&self, partition: PartitionId) -> u64 {
        if self.full {
            return self.all_mask();
        }
        if let Some(entry) = self.entries.read().get(&partition) {
            return entry.load(Ordering::Acquire);
        }
        self.default_mask(partition)
    }

    /// Whether `site` holds a copy of `partition`.
    pub fn hosts(&self, partition: PartitionId, site: SiteId) -> bool {
        self.mask(partition) & (1u64 << site.as_usize()) != 0
    }

    /// The sites holding a copy of `partition`, ascending.
    pub fn replicas(&self, partition: PartitionId) -> Vec<SiteId> {
        let mask = self.mask(partition);
        (0..self.num_sites)
            .filter(|i| mask & (1u64 << i) != 0)
            .map(SiteId::new)
            .collect()
    }

    /// Number of copies of `partition`.
    pub fn copy_count(&self, partition: PartitionId) -> usize {
        self.mask(partition).count_ones() as usize
    }

    fn entry_op(&self, partition: PartitionId, f: impl Fn(u64) -> u64) -> u64 {
        {
            let entries = self.entries.read();
            if let Some(entry) = entries.get(&partition) {
                return entry
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |m| Some(f(m)))
                    .expect("fetch_update closure always returns Some");
            }
        }
        let mut entries = self.entries.write();
        let entry = entries
            .entry(partition)
            .or_insert_with(|| AtomicU64::new(self.default_mask(partition)));
        entry
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |m| Some(f(m)))
            .expect("fetch_update closure always returns Some")
    }

    /// Records that `site` now holds a copy of `partition`. Idempotent.
    /// No-op under full replication.
    pub fn add(&self, partition: PartitionId, site: SiteId) {
        if self.full {
            return;
        }
        self.entry_op(partition, |m| m | (1u64 << site.as_usize()));
    }

    /// Removes `site` from `partition`'s replica set, refusing to go below
    /// the floor. Returns whether the bit was actually cleared.
    pub fn remove(&self, partition: PartitionId, site: SiteId) -> bool {
        if self.full {
            return false;
        }
        let bit = 1u64 << site.as_usize();
        let prev = self.entry_op(partition, |m| {
            if m & bit != 0 && (m.count_ones() as usize) > self.floor {
                m & !bit
            } else {
                m
            }
        });
        prev & bit != 0 && (prev.count_ones() as usize) > self.floor
    }

    /// Replaces `partition`'s replica set wholesale (restart reconciliation:
    /// the checkpointed hosted set is the site's post-crash truth).
    pub fn set_mask(&self, partition: PartitionId, mask: u64) {
        if self.full {
            return;
        }
        self.entry_op(partition, |_| mask);
    }

    /// Reconciles one site's hosting claims: sets `site`'s bit on exactly
    /// the partitions in `hosted`, clearing it elsewhere (used after a
    /// restart, when copies installed since the site's last checkpoint are
    /// gone). Only partitions already tracked (or listed) are touched.
    pub fn reconcile_site(&self, site: SiteId, hosted: &[PartitionId]) {
        if self.full {
            return;
        }
        let bit = 1u64 << site.as_usize();
        let hosted_set: std::collections::HashSet<PartitionId> = hosted.iter().copied().collect();
        // Materialize rows for hosted partitions so their bit can be set.
        for p in hosted {
            self.entry_op(*p, |m| m | bit);
        }
        let entries = self.entries.read();
        for (p, entry) in entries.iter() {
            if !hosted_set.contains(p) {
                entry
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |m| {
                        // Never shrink below the floor: a lost copy the map
                        // cannot drop stays attributed until provisioning
                        // repairs it (the chaos path re-adds a real copy).
                        if m & bit != 0 && (m.count_ones() as usize) > self.floor {
                            Some(m & !bit)
                        } else {
                            Some(m)
                        }
                    })
                    .expect("fetch_update closure always returns Some");
            }
        }
    }

    /// Snapshot of every explicitly tracked partition's replica mask
    /// (partitions still on their default set are absent).
    pub fn tracked(&self) -> Vec<(PartitionId, u64)> {
        self.entries
            .read()
            .iter()
            .map(|(p, e)| (*p, e.load(Ordering::Acquire)))
            .collect()
    }

    /// Number of partitions (among `partitions`) whose copy count is at the
    /// floor, strictly between floor and all-sites, and at all-sites —
    /// the per-class replica census exported as metrics.
    pub fn census(&self, partitions: &[PartitionId]) -> (u64, u64, u64) {
        let (mut at_floor, mut partial, mut at_all) = (0u64, 0u64, 0u64);
        for p in partitions {
            let n = self.copy_count(*p);
            if n >= self.num_sites {
                at_all += 1;
            } else if n <= self.floor() {
                at_floor += 1;
            } else {
                partial += 1;
            }
        }
        (at_floor, partial, at_all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> PartitionId {
        PartitionId::new(i)
    }

    #[test]
    fn full_mode_hosts_everything_and_ignores_mutation() {
        let map = ReplicaMap::new(4, 2, true);
        assert!(!map.is_partial());
        assert_eq!(map.copy_count(pid(7)), 4);
        map.remove(pid(7), SiteId::new(1));
        assert!(map.hosts(pid(7), SiteId::new(1)));
        assert_eq!(map.floor(), 4);
    }

    #[test]
    fn default_hosts_are_deterministic_and_floor_sized() {
        let a = ReplicaMap::default_hosts(4, 2, pid(13));
        let b = ReplicaMap::default_hosts(4, 2, pid(13));
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], SiteId::new(1)); // block 13/8 = 1, then round-robin
        assert_eq!(a[1], SiteId::new(2));
    }

    #[test]
    fn default_hosts_co_host_contiguous_blocks() {
        // Every partition inside one anchor block shares the same set, and
        // consecutive blocks overlap by floor-1 sites, so a range straddling
        // one boundary still has a co-hosting site.
        let block = ReplicaMap::ANCHOR_BLOCK;
        let first = ReplicaMap::default_hosts(4, 2, pid(0));
        for p in 1..block {
            assert_eq!(ReplicaMap::default_hosts(4, 2, pid(p)), first);
        }
        let next = ReplicaMap::default_hosts(4, 2, pid(block));
        let shared: Vec<_> = first.iter().filter(|s| next.contains(s)).collect();
        assert!(!shared.is_empty(), "adjacent blocks must overlap");
    }

    #[test]
    fn untracked_partitions_report_default_hosts() {
        let map = ReplicaMap::new(4, 2, false);
        let hosts = map.replicas(pid(5));
        assert_eq!(hosts, ReplicaMap::default_hosts(4, 2, pid(5)));
        assert_eq!(map.copy_count(pid(5)), 2);
    }

    #[test]
    fn add_and_remove_respect_the_floor() {
        let map = ReplicaMap::new(4, 2, false);
        let p = pid(3);
        let defaults = ReplicaMap::default_hosts(4, 2, p);
        let extra = (0..4)
            .map(SiteId::new)
            .find(|s| !defaults.contains(s))
            .unwrap();
        map.add(p, extra);
        assert_eq!(map.copy_count(p), 3);
        assert!(map.remove(p, extra));
        assert_eq!(map.copy_count(p), 2);
        // At the floor: no further drops.
        let survivor = map.replicas(p)[0];
        assert!(!map.remove(p, survivor));
        assert_eq!(map.copy_count(p), 2);
    }

    #[test]
    fn reconcile_site_resets_hosting_claims() {
        let map = ReplicaMap::new(4, 2, false);
        let (p1, p2) = (pid(0), pid(1));
        map.add(p1, SiteId::new(3));
        map.add(p2, SiteId::new(3));
        map.add(p2, SiteId::new(2)); // 4 copies of p2 now (default {1,2}+3... )
        assert!(map.hosts(p1, SiteId::new(3)));
        // After restart S3 only claims p2.
        map.reconcile_site(SiteId::new(3), &[p2]);
        assert!(!map.hosts(p1, SiteId::new(3)));
        assert!(map.hosts(p2, SiteId::new(3)));
    }

    #[test]
    fn census_classifies_partitions() {
        let map = ReplicaMap::new(4, 2, false);
        map.add(pid(1), SiteId::new(0));
        map.add(pid(1), SiteId::new(3));
        let hosts2 = ReplicaMap::default_hosts(4, 2, pid(2));
        for s in 0..4 {
            let site = SiteId::new(s);
            if !hosts2.contains(&site) {
                map.add(pid(2), site);
            }
        }
        // pid(0): default floor set; pid(1): widened but not all; pid(2): all.
        let (at_floor, partial, at_all) = map.census(&[pid(0), pid(1), pid(2)]);
        assert_eq!((at_floor, partial, at_all), (1, 1, 1));
        // Block-affine placement defaults pid(1) to sites {0, 1}; adding the
        // already-present site 0 is a no-op, site 3 is the third copy.
        assert_eq!(map.copy_count(pid(1)), 3);
    }
}
