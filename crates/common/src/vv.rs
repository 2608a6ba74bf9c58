//! Version vectors (paper §III-A).
//!
//! In a dynamic-mastering system with `m` sites, every site `S_i` maintains an
//! m-dimensional *site version vector* `svv_i` where `svv_i[j]` counts the
//! refresh transactions `S_i` has applied for update transactions that
//! originated at site `S_j` (and `svv_i[i]` counts locally committed update
//! transactions). Update transactions carry a *transaction version vector*
//! `tvv` that doubles as begin and commit timestamp, and each client session
//! carries a *client version vector* `cvv` used to enforce strong-session
//! snapshot isolation.
//!
//! [`VersionVector`] implements the operations the protocol needs:
//! element-wise max (merging grant responses in Algorithm 1 and advancing
//! session state), dominance tests (the SSSI freshness rule), the update
//! application rule of Eq. 1, and the L1 distance used by the
//! `f_refresh_delay` strategy feature (Eq. 5).

use std::fmt;

use crate::ids::SiteId;

crate::wire! {
    /// An m-dimensional vector of update counts, one entry per site.
    ///
    /// The partial order used throughout the protocol is element-wise:
    /// `a ≤ b` iff `a[k] ≤ b[k]` for every dimension `k`.
    ///
    /// ```
    /// use dynamast_common::{VersionVector, ids::SiteId};
    ///
    /// // Site S0 commits twice, S1 once.
    /// let mut svv = VersionVector::zero(2);
    /// svv.increment(SiteId::new(0));
    /// svv.increment(SiteId::new(0));
    /// svv.increment(SiteId::new(1));
    /// assert_eq!(svv.as_slice(), &[2, 1]);
    ///
    /// // A session that observed [1, 1] is satisfied by this site...
    /// let cvv = VersionVector::from_counts(vec![1, 1]);
    /// assert!(svv.dominates(&cvv));
    /// // ...and a refresh from S1 with commit timestamp [0, 2] can apply next.
    /// let tvv = VersionVector::from_counts(vec![0, 2]);
    /// assert!(svv.can_apply_refresh(&tvv, SiteId::new(1)));
    /// ```
    #[derive(Clone, PartialEq, Eq, Hash, Default)]
    pub struct VersionVector {
        counts: Vec<u64>,
    }
}

impl VersionVector {
    /// A zero vector with one dimension per site.
    pub fn zero(num_sites: usize) -> Self {
        VersionVector {
            counts: vec![0; num_sites],
        }
    }

    /// Builds a vector directly from per-site counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        VersionVector { counts }
    }

    /// Number of dimensions (sites).
    pub fn dims(&self) -> usize {
        self.counts.len()
    }

    /// The count for updates originating at `site`.
    pub fn get(&self, site: SiteId) -> u64 {
        self.counts[site.as_usize()]
    }

    /// Sets the count for updates originating at `site`.
    pub fn set(&mut self, site: SiteId, value: u64) {
        self.counts[site.as_usize()] = value;
    }

    /// Increments the entry for `site` and returns the new value.
    ///
    /// This is the atomic `svv_i[i] += 1` a site performs when an update
    /// transaction commits locally (the increment itself is made atomic by the
    /// caller's locking; the vector is plain data).
    pub fn increment(&mut self, site: SiteId) -> u64 {
        let slot = &mut self.counts[site.as_usize()];
        *slot += 1;
        *slot
    }

    /// Element-wise maximum, in place. Used to merge grant responses
    /// (Algorithm 1, line `out_vv = elementwise_max(...)`) and to advance a
    /// client's session vector after it observes a site's state.
    pub fn merge_max(&mut self, other: &VersionVector) {
        debug_assert_eq!(self.dims(), other.dims(), "version vector dims differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Element-wise maximum, producing a new vector.
    #[must_use]
    pub fn max_with(&self, other: &VersionVector) -> VersionVector {
        let mut out = self.clone();
        out.merge_max(other);
        out
    }

    /// `true` iff `self[k] ≥ other[k]` for all `k`.
    ///
    /// This is the SSSI freshness rule: a client with session vector `cvv`
    /// may execute at a site whose `svv` dominates `cvv`.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        debug_assert_eq!(self.dims(), other.dims(), "version vector dims differ");
        self.counts.iter().zip(&other.counts).all(|(a, b)| a >= b)
    }

    /// `true` iff `self` dominates `other` and differs in at least one entry.
    pub fn strictly_dominates(&self, other: &VersionVector) -> bool {
        self.dominates(other) && self != other
    }

    /// The update application rule (paper Eq. 1).
    ///
    /// A refresh transaction for update transaction `T` that committed at
    /// `origin` with commit timestamp `tvv` may apply at a site whose state is
    /// `self` iff
    ///
    /// * `self[k] ≥ tvv[k]` for all `k ≠ origin` (all transactions `T`
    ///   depends on have been applied), and
    /// * `self[origin] == tvv[origin] − 1` (`T` is the next transaction in
    ///   `origin`'s commit order).
    pub fn can_apply_refresh(&self, tvv: &VersionVector, origin: SiteId) -> bool {
        debug_assert_eq!(self.dims(), tvv.dims(), "version vector dims differ");
        let o = origin.as_usize();
        for k in 0..self.counts.len() {
            if k == o {
                if self.counts[k] + 1 != tvv.counts[k] {
                    return false;
                }
            } else if self.counts[k] < tvv.counts[k] {
                return false;
            }
        }
        true
    }

    /// Saturating element-wise difference summed over dimensions:
    /// `Σ_k max(0, other[k] − self[k])`.
    ///
    /// This is the `‖ max(cvv, max_i svv_i) − svv_S ‖₁` count of pending
    /// updates in the `f_refresh_delay` feature (Eq. 5): how many refresh
    /// transactions `self` still has to apply to catch up to `other`.
    pub fn lag_behind(&self, other: &VersionVector) -> u64 {
        debug_assert_eq!(self.dims(), other.dims(), "version vector dims differ");
        self.counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| b.saturating_sub(*a))
            .sum()
    }

    /// Total number of updates reflected in the vector.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Iterator over `(SiteId, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (SiteId::new(i), c))
    }

    /// Raw counts, one per site.
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }
}

impl fmt::Debug for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vv{:?}", self.counts)
    }
}

impl fmt::Display for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_to_vec, Decode, Encode};

    fn vv(counts: &[u64]) -> VersionVector {
        VersionVector::from_counts(counts.to_vec())
    }

    #[test]
    fn zero_has_all_zero_entries() {
        let v = VersionVector::zero(4);
        assert_eq!(v.dims(), 4);
        assert_eq!(v.total(), 0);
        assert!(v.dominates(&VersionVector::zero(4)));
    }

    #[test]
    fn increment_bumps_only_one_site() {
        let mut v = VersionVector::zero(3);
        assert_eq!(v.increment(SiteId::new(1)), 1);
        assert_eq!(v.increment(SiteId::new(1)), 2);
        assert_eq!(v.as_slice(), &[0, 2, 0]);
    }

    #[test]
    fn merge_max_is_elementwise() {
        let mut a = vv(&[3, 0, 5]);
        a.merge_max(&vv(&[1, 4, 5]));
        assert_eq!(a.as_slice(), &[3, 4, 5]);
    }

    #[test]
    fn dominance_is_partial() {
        let a = vv(&[2, 1]);
        let b = vv(&[1, 2]);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.max_with(&b).dominates(&a));
        assert!(a.max_with(&b).dominates(&b));
    }

    #[test]
    fn strict_dominance_excludes_equal() {
        let a = vv(&[2, 1]);
        assert!(!a.strictly_dominates(&a));
        assert!(vv(&[2, 2]).strictly_dominates(&a));
    }

    #[test]
    fn update_application_rule_example_from_paper_fig2() {
        // Three sites. T1 commits at S1: tvv = [1,0,0].
        let t1 = vv(&[1, 0, 0]);
        let s1 = SiteId::new(0);
        // S2 at [0,0,0] may apply R(T1).
        assert!(vv(&[0, 0, 0]).can_apply_refresh(&t1, s1));
        // T2 begins at S3 after R(T1): begin [1,0,0], commit tvv = [1,0,1].
        let t2 = vv(&[1, 0, 1]);
        let s3 = SiteId::new(2);
        // S2 at [0,0,0] must NOT apply R(T2) before R(T1): rule fails on k=0.
        assert!(!vv(&[0, 0, 0]).can_apply_refresh(&t2, s3));
        // After applying R(T1), S2 is at [1,0,0] and may apply R(T2).
        assert!(vv(&[1, 0, 0]).can_apply_refresh(&t2, s3));
    }

    #[test]
    fn refresh_rule_requires_exactly_next_in_origin_order() {
        let s0 = SiteId::new(0);
        let t = vv(&[5, 0]);
        assert!(vv(&[4, 0]).can_apply_refresh(&t, s0));
        // Too far behind at origin.
        assert!(!vv(&[3, 0]).can_apply_refresh(&t, s0));
        // Already applied.
        assert!(!vv(&[5, 0]).can_apply_refresh(&t, s0));
    }

    #[test]
    fn lag_behind_counts_missing_updates() {
        let s = vv(&[3, 7, 2]);
        let target = vv(&[5, 6, 4]);
        // Missing 2 from site 0 and 2 from site 2; site 1 is ahead (no credit).
        assert_eq!(s.lag_behind(&target), 4);
        assert_eq!(target.lag_behind(&target), 0);
    }

    #[test]
    fn roundtrips_through_codec() {
        let v = vv(&[1, 2, 3, u64::MAX]);
        let mut buf = bytes::BytesMut::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.encoded_len());
        let mut bytes = buf.freeze();
        let back = VersionVector::decode(&mut bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn a_dimension_count_the_input_cannot_hold_is_an_error() {
        // u32::MAX dimensions would be a 32 GiB allocation.
        assert!(VersionVector::decode(&mut &[0xff; 4][..]).is_err());
        let mut short = encode_to_vec(&vv(&[1, 2]));
        short.pop();
        assert!(VersionVector::decode(&mut &short[..]).is_err());
    }
}
