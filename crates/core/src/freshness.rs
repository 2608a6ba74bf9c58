//! Lock-free site-freshness cache (§IV-B).
//!
//! The selector keeps an estimate of every site's version vector to route
//! reads to sufficiently fresh replicas and to feed the strategy model's
//! delay feature (Eq. 5). These estimates are written on every release,
//! grant, and probe response and on every client report (the site that
//! answered the client last, with the client's cvv), and read on every
//! routed transaction — a hot enough path that a
//! `Mutex<Vec<VersionVector>>` serializes routers (see DESIGN.md,
//! "Selector concurrency model").
//!
//! [`FreshnessCache`] instead stores an `m × m` matrix of atomic
//! per-dimension counters. Version vectors are monotone — sites only
//! advance — so `fetch_max` per dimension is a correct merge without any
//! lock, and dominance checks read each dimension with `Acquire` loads.
//!
//! A multi-dimension read is not a single atomic snapshot: concurrent
//! observers may interleave between dimensions, so a loaded vector can mix
//! two observations; their per-dimension max is again a vector some
//! observer vouched for. Probe, release and grant replies are
//! under-estimates of the true site vv. A client report is not always: an
//! update's commit vector reaches the client before the site's group fill
//! has published it, so a reported estimate can lead the site's svv by
//! that one fill. Neither error can violate the session guarantee — every
//! begin waits at its site until the svv covers the client's cvv
//! (`SiteClock::wait_dominates`) — so a stale estimate only diverts a read
//! to a site that then waits, and a leading one only makes the read wait
//! out the rest of that fill.

use std::sync::atomic::{AtomicU64, Ordering};

use dynamast_common::ids::SiteId;
use dynamast_common::VersionVector;

/// Per-site version-vector estimates behind per-dimension atomics.
pub struct FreshnessCache {
    /// Number of sites == number of vector dimensions.
    sites: usize,
    /// Row-major `sites × sites`: entry `s * sites + d` is dimension `d` of
    /// site `s`'s estimated vv.
    entries: Vec<AtomicU64>,
}

impl FreshnessCache {
    /// A cache of `sites` all-zero estimates.
    pub fn new(sites: usize) -> Self {
        FreshnessCache {
            sites,
            entries: (0..sites * sites).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn row(&self, site: SiteId) -> &[AtomicU64] {
        let s = site.as_usize();
        &self.entries[s * self.sites..(s + 1) * self.sites]
    }

    /// Merges an observation of `site`'s vv (element-wise max, lock-free).
    pub fn observe(&self, site: SiteId, vv: &VersionVector) {
        debug_assert_eq!(vv.dims(), self.sites);
        for (entry, &version) in self.row(site).iter().zip(vv.as_slice()) {
            // `fetch_max` keeps each dimension monotone under races.
            entry.fetch_max(version, Ordering::Release);
        }
    }

    /// Whether `site`'s estimate dominates (≥ in every dimension) `cvv`.
    pub fn dominates(&self, site: SiteId, cvv: &VersionVector) -> bool {
        debug_assert_eq!(cvv.dims(), self.sites);
        self.row(site)
            .iter()
            .zip(cvv.as_slice())
            .all(|(entry, &required)| entry.load(Ordering::Acquire) >= required)
    }

    /// Materializes one site's estimated vv.
    pub fn site_vv(&self, site: SiteId) -> VersionVector {
        VersionVector::from_counts(
            self.row(site)
                .iter()
                .map(|e| e.load(Ordering::Acquire))
                .collect(),
        )
    }

    /// Materializes every site's estimated vv (for strategy scoring).
    pub fn all(&self) -> Vec<VersionVector> {
        (0..self.sites)
            .map(|s| self.site_vv(SiteId::new(s)))
            .collect()
    }

    /// Number of sites tracked.
    pub fn sites(&self) -> usize {
        self.sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vv(counts: &[u64]) -> VersionVector {
        VersionVector::from_counts(counts.to_vec())
    }

    #[test]
    fn observe_merges_element_wise_max() {
        let cache = FreshnessCache::new(3);
        cache.observe(SiteId::new(1), &vv(&[5, 0, 2]));
        cache.observe(SiteId::new(1), &vv(&[3, 4, 1]));
        assert_eq!(cache.site_vv(SiteId::new(1)), vv(&[5, 4, 2]));
        // Other sites untouched.
        assert_eq!(cache.site_vv(SiteId::new(0)), vv(&[0, 0, 0]));
    }

    #[test]
    fn dominance_matches_materialized_vector() {
        let cache = FreshnessCache::new(2);
        cache.observe(SiteId::new(0), &vv(&[3, 7]));
        assert!(cache.dominates(SiteId::new(0), &vv(&[3, 7])));
        assert!(cache.dominates(SiteId::new(0), &vv(&[0, 0])));
        assert!(!cache.dominates(SiteId::new(0), &vv(&[4, 0])));
        assert!(!cache.dominates(SiteId::new(1), &vv(&[0, 1])));
    }

    #[test]
    fn concurrent_observers_never_regress() {
        use std::sync::Arc;
        let cache = Arc::new(FreshnessCache::new(4));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        let mut counts = vec![0; 4];
                        counts[(t % 4) as usize] = i;
                        counts[((t + 1) % 4) as usize] = i / 2;
                        cache.observe(SiteId::new(0), &vv(&counts));
                    }
                });
            }
        });
        // Every dimension ends at the max any thread wrote to it.
        let merged = cache.site_vv(SiteId::new(0));
        assert_eq!(merged, vv(&[999, 999, 999, 999]));
    }
}
