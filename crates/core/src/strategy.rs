//! The remastering benefit model (paper §IV-A, Eqs. 2–8).
//!
//! For a transaction whose write set needs remastering, the selector scores
//! every site `S` as a destination and picks the argmax of the weighted
//! linear model (Eq. 8):
//!
//! ```text
//! f_benefit(S) =  w_balance   · f_balance(S)
//!              −  w_delay     · f_refresh_delay(S)
//!              +  w_intra_txn · f_intra_txn(S)
//!              +  w_inter_txn · f_inter_txn(S)
//! ```
//!
//! (`f_refresh_delay` enters negatively: a lagging destination is a cost.)
//!
//! One transcription note: the paper's Eq. 2 prints as
//! `exp(Σ (1/m − freq))²`, but the plain sum of `(1/m − freq_i)` is
//! identically zero and the paper states the function is 0 at perfect
//! balance, so we implement the evident intent — the squared L2 distance
//! from the uniform distribution, `Σ_i (1/m − freq_i)²` — which is 0 at
//! perfect balance and grows with imbalance. The `exp` reappears exactly
//! where Eq. 4 puts it: `f_balance = Δbalance · exp(balance_rate)`.

use dynamast_common::ids::{PartitionId, SiteId};
use dynamast_common::trace::CandidateScore;
use dynamast_common::{StrategyWeights, VersionVector};

/// One co-access partner of a write-set partition, with everything
/// `single_sited` needs.
#[derive(Clone, Debug)]
pub struct CoAccess {
    /// The partner partition.
    pub partner: PartitionId,
    /// `P(partner | partition)` (conditional co-access probability).
    pub probability: f64,
    /// The partner's current master (`None` = unplaced).
    pub partner_master: Option<SiteId>,
    /// Whether the partner itself is in the transaction's write set (in
    /// which case remastering moves it along to the candidate site).
    pub in_write_set: bool,
}

/// Scoring inputs for one routing decision.
pub struct ScoreInputs<'a> {
    /// Number of sites `m`.
    pub num_sites: usize,
    /// Model weights.
    pub weights: &'a StrategyWeights,
    /// Write-set partitions with their current masters.
    pub partitions: &'a [(PartitionId, Option<SiteId>)],
    /// Write-frequency count of each write-set partition (parallel to
    /// `partitions`).
    pub partition_load: &'a [f64],
    /// Per-site total write-frequency mass under the current allocation.
    pub site_load: &'a [f64],
    /// Intra-transaction co-access partners per write-set partition.
    pub intra: &'a [Vec<CoAccess>],
    /// Inter-transaction co-access partners per write-set partition.
    pub inter: &'a [Vec<CoAccess>],
    /// Estimated svv per site (the selector's freshness cache).
    pub site_vvs: &'a [VersionVector],
    /// The requesting client's session vector.
    pub cvv: &'a VersionVector,
}

/// Squared L2 distance of the load distribution from uniform (see the
/// module-level transcription note on Eq. 2).
fn balance_dist(load: &[f64]) -> f64 {
    let total: f64 = load.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let uniform = 1.0 / load.len() as f64;
    load.iter()
        .map(|&l| {
            let d = uniform - l / total;
            d * d
        })
        .sum()
}

/// `f_balance(S)` (Eqs. 2–4): improvement in write balance from remastering
/// the write set to `S`, scaled by how imbalanced the system is.
fn f_balance(inputs: &ScoreInputs<'_>, candidate: SiteId) -> f64 {
    let before = balance_dist(inputs.site_load);
    let mut after_load = inputs.site_load.to_vec();
    for ((_, master), &load) in inputs.partitions.iter().zip(inputs.partition_load) {
        if let Some(m) = master {
            after_load[m.as_usize()] -= load;
        }
        after_load[candidate.as_usize()] += load;
    }
    let after = balance_dist(&after_load);
    let delta = before - after;
    let rate = before.max(after);
    delta * rate.exp()
}

/// `f_refresh_delay(S)` (Eq. 5): how many refresh transactions `S` must
/// apply before the transaction can begin — the L1 lag of `S`'s estimated
/// svv behind the max of the client's session vector and the releasing
/// sites' svvs.
fn f_refresh_delay(inputs: &ScoreInputs<'_>, candidate: SiteId) -> f64 {
    let mut target = inputs.cvv.clone();
    for (_, master) in inputs.partitions {
        match master {
            Some(m) if *m != candidate => target.merge_max(&inputs.site_vvs[m.as_usize()]),
            _ => {}
        }
    }
    inputs.site_vvs[candidate.as_usize()].lag_behind(&target) as f64
}

/// The `single_sited` indicator of Eqs. 6–7: +1 if remastering the write set
/// to `candidate` leaves `d1` and its partner co-located, −1 if it splits a
/// currently co-located pair apart, 0 if they are apart both before and
/// after.
fn single_sited(d1_master: Option<SiteId>, partner: &CoAccess, candidate: SiteId) -> f64 {
    let partner_after = if partner.in_write_set {
        Some(candidate)
    } else {
        partner.partner_master
    };
    let together_after = partner_after == Some(candidate);
    let together_before = match (d1_master, partner.partner_master) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    };
    if together_after {
        1.0
    } else if together_before {
        -1.0
    } else {
        0.0
    }
}

/// `f_intra_txn` / `f_inter_txn` (Eqs. 6–7): probability-weighted
/// localization score over co-access partners.
fn f_localization(
    partitions: &[(PartitionId, Option<SiteId>)],
    partners: &[Vec<CoAccess>],
    candidate: SiteId,
) -> f64 {
    let mut score = 0.0;
    for ((_, master), coaccesses) in partitions.iter().zip(partners) {
        for partner in coaccesses {
            score += partner.probability * single_sited(*master, partner, candidate);
        }
    }
    score
}

/// Scores every site as a remastering destination (Eq. 8), keeping the four
/// weighted feature terms separate so the decision can be explained — the
/// flight recorder stores these per-candidate tables in `RemasterDecision`
/// events. `reachable` is initialised `true`; the caller masks out sites it
/// cannot reach.
pub fn score_sites_detailed(inputs: &ScoreInputs<'_>) -> Vec<CandidateScore> {
    debug_assert_eq!(inputs.partitions.len(), inputs.partition_load.len());
    debug_assert_eq!(inputs.partitions.len(), inputs.intra.len());
    debug_assert_eq!(inputs.partitions.len(), inputs.inter.len());
    let w = inputs.weights;
    (0..inputs.num_sites)
        .map(|i| {
            let s = SiteId::new(i);
            let balance = if w.balance != 0.0 {
                w.balance * f_balance(inputs, s)
            } else {
                0.0
            };
            let delay = if w.delay != 0.0 {
                w.delay * f_refresh_delay(inputs, s)
            } else {
                0.0
            };
            let intra = if w.intra_txn != 0.0 {
                w.intra_txn * f_localization(inputs.partitions, inputs.intra, s)
            } else {
                0.0
            };
            let inter = if w.inter_txn != 0.0 {
                w.inter_txn * f_localization(inputs.partitions, inputs.inter, s)
            } else {
                0.0
            };
            CandidateScore {
                site: i as u32,
                balance,
                delay,
                intra,
                inter,
                total: balance - delay + intra + inter,
                reachable: true,
            }
        })
        .collect()
}

/// Scores every site as a remastering destination (Eq. 8). Returns one
/// `f_benefit` value per site.
pub fn score_sites(inputs: &ScoreInputs<'_>) -> Vec<f64> {
    score_sites_detailed(inputs)
        .into_iter()
        .map(|c| c.total)
        .collect()
}

/// Scores a write set as one remastering unit and confirms its destination
/// (the routing slow path's Eq. 8 decision).
///
/// Partners inside the write set use `in_write_set: true`, so localization
/// treats them as moving together, and the shared Eq. 8 feature inputs —
/// the before/after balance distance, the candidate's svv lag target, the
/// localization sums — are computed once per candidate site for the whole
/// set.
///
/// `unreachable[i]` masks site `i` out of the argmax; if every site is
/// masked the mask is ignored (with nowhere reachable, pick on merit and
/// let the RPC layer surface the failure). Returns the confirmed destination and the per-candidate table
/// for the flight recorder.
pub fn confirm_group_destination(
    inputs: &ScoreInputs<'_>,
    unreachable: &[bool],
) -> (SiteId, Vec<CandidateScore>) {
    debug_assert_eq!(unreachable.len(), inputs.num_sites);
    let mut candidates = score_sites_detailed(inputs);
    if unreachable.iter().any(|u| !u) {
        for (candidate, &masked) in candidates.iter_mut().zip(unreachable) {
            if masked {
                candidate.reachable = false;
            }
        }
    }
    let scores: Vec<f64> = candidates
        .iter()
        .map(|c| {
            if c.reachable {
                c.total
            } else {
                f64::NEG_INFINITY
            }
        })
        .collect();
    (best_site(&scores), candidates)
}

/// Argmax with deterministic low-site tie-breaking.
pub fn best_site(scores: &[f64]) -> SiteId {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s > scores[best] {
            best = i;
        }
    }
    SiteId::new(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> PartitionId {
        PartitionId::new(i)
    }

    fn site(i: usize) -> SiteId {
        SiteId::new(i)
    }

    #[allow(clippy::too_many_arguments)]
    fn base_inputs<'a>(
        weights: &'a StrategyWeights,
        partitions: &'a [(PartitionId, Option<SiteId>)],
        partition_load: &'a [f64],
        site_load: &'a [f64],
        intra: &'a [Vec<CoAccess>],
        inter: &'a [Vec<CoAccess>],
        site_vvs: &'a [VersionVector],
        cvv: &'a VersionVector,
    ) -> ScoreInputs<'a> {
        ScoreInputs {
            num_sites: site_load.len(),
            weights,
            partitions,
            partition_load,
            site_load,
            intra,
            inter,
            site_vvs,
            cvv,
        }
    }

    fn zero_vvs(m: usize) -> Vec<VersionVector> {
        (0..m).map(|_| VersionVector::zero(m)).collect()
    }

    #[test]
    fn balance_dist_zero_at_uniform() {
        assert_eq!(balance_dist(&[5.0, 5.0]), 0.0);
        assert!(balance_dist(&[10.0, 0.0]) > 0.0);
        assert_eq!(balance_dist(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn balance_prefers_least_loaded_site() {
        let weights = StrategyWeights {
            balance: 1.0,
            delay: 0.0,
            intra_txn: 0.0,
            inter_txn: 0.0,
        };
        let partitions = [(pid(1), None)];
        let load = [1.0];
        let site_load = [10.0, 2.0];
        let intra = vec![vec![]];
        let inter = vec![vec![]];
        let vvs = zero_vvs(2);
        let cvv = VersionVector::zero(2);
        let inputs = base_inputs(
            &weights,
            &partitions,
            &load,
            &site_load,
            &intra,
            &inter,
            &vvs,
            &cvv,
        );
        let scores = score_sites(&inputs);
        assert!(
            scores[1] > scores[0],
            "underloaded site must score higher: {scores:?}"
        );
        assert_eq!(best_site(&scores), site(1));
    }

    #[test]
    fn delay_penalizes_lagging_sites() {
        let weights = StrategyWeights {
            balance: 0.0,
            delay: 1.0,
            intra_txn: 0.0,
            inter_txn: 0.0,
        };
        // Partition mastered at site 0; candidates 1 and 2 differ in lag.
        let partitions = [(pid(1), Some(site(0)))];
        let load = [1.0];
        let site_load = [0.0, 0.0, 0.0];
        let intra = vec![vec![]];
        let inter = vec![vec![]];
        let vvs = vec![
            VersionVector::from_counts(vec![10, 0, 0]),
            VersionVector::from_counts(vec![9, 0, 0]), // lags releaser by 1
            VersionVector::from_counts(vec![2, 0, 0]), // lags by 8
        ];
        let cvv = VersionVector::zero(3);
        let inputs = base_inputs(
            &weights,
            &partitions,
            &load,
            &site_load,
            &intra,
            &inter,
            &vvs,
            &cvv,
        );
        let scores = score_sites(&inputs);
        assert!(scores[1] > scores[2], "{scores:?}");
        // The current master has no lag at all.
        assert!(scores[0] > scores[1], "{scores:?}");
    }

    #[test]
    fn single_sited_matches_paper_semantics() {
        let partner_apart = CoAccess {
            partner: pid(2),
            probability: 1.0,
            partner_master: Some(site(1)),
            in_write_set: false,
        };
        // Moving d1 (at site 0) to site 1 joins them: +1.
        assert_eq!(single_sited(Some(site(0)), &partner_apart, site(1)), 1.0);
        // Moving d1 to site 2 leaves them apart (were apart): 0.
        assert_eq!(single_sited(Some(site(0)), &partner_apart, site(2)), 0.0);
        let partner_together = CoAccess {
            partner: pid(2),
            probability: 1.0,
            partner_master: Some(site(0)),
            in_write_set: false,
        };
        // d1 and partner both at site 0; moving d1 to 1 splits them: −1.
        assert_eq!(
            single_sited(Some(site(0)), &partner_together, site(1)),
            -1.0
        );
        // Keeping d1 at site 0 keeps them together: +1.
        assert_eq!(single_sited(Some(site(0)), &partner_together, site(0)), 1.0);
        // Partner in the write set moves along: always together: +1.
        let partner_moving = CoAccess {
            partner: pid(2),
            probability: 1.0,
            partner_master: Some(site(1)),
            in_write_set: true,
        };
        assert_eq!(single_sited(Some(site(0)), &partner_moving, site(2)), 1.0);
    }

    #[test]
    fn intra_localization_pulls_toward_partners() {
        let weights = StrategyWeights {
            balance: 0.0,
            delay: 0.0,
            intra_txn: 1.0,
            inter_txn: 0.0,
        };
        let partitions = [(pid(1), Some(site(0)))];
        let load = [1.0];
        let site_load = [0.0, 0.0];
        // A frequently co-accessed partner lives at site 1.
        let intra = vec![vec![CoAccess {
            partner: pid(2),
            probability: 0.9,
            partner_master: Some(site(1)),
            in_write_set: false,
        }]];
        let inter = vec![vec![]];
        let vvs = zero_vvs(2);
        let cvv = VersionVector::zero(2);
        let inputs = base_inputs(
            &weights,
            &partitions,
            &load,
            &site_load,
            &intra,
            &inter,
            &vvs,
            &cvv,
        );
        let scores = score_sites(&inputs);
        assert!(scores[1] > scores[0], "{scores:?}");
        assert!((scores[1] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn combined_model_respects_weights() {
        // Heavy balance weight overrides localization preference.
        let weights = StrategyWeights {
            balance: 1_000_000.0,
            delay: 0.0,
            intra_txn: 1.0,
            inter_txn: 0.0,
        };
        let partitions = [(pid(1), Some(site(0)))];
        let load = [5.0];
        let site_load = [100.0, 0.0];
        let intra = vec![vec![CoAccess {
            partner: pid(2),
            probability: 1.0,
            partner_master: Some(site(0)),
            in_write_set: false,
        }]];
        let inter = vec![vec![]];
        let vvs = zero_vvs(2);
        let cvv = VersionVector::zero(2);
        let inputs = base_inputs(
            &weights,
            &partitions,
            &load,
            &site_load,
            &intra,
            &inter,
            &vvs,
            &cvv,
        );
        let scores = score_sites(&inputs);
        assert_eq!(
            best_site(&scores),
            site(1),
            "balance must dominate: {scores:?}"
        );
    }

    #[test]
    fn group_destination_shares_features_and_masks_unreachable() {
        let weights = StrategyWeights {
            balance: 1.0,
            delay: 0.0,
            intra_txn: 1.0,
            inter_txn: 0.0,
        };
        // A write set of two partitions, both at the overloaded site 0,
        // co-accessed with each other (in-group partners move together).
        let partitions = [(pid(1), Some(site(0))), (pid(2), Some(site(0)))];
        let load = [3.0, 3.0];
        let site_load = [20.0, 1.0, 1.0];
        let intra = vec![
            vec![CoAccess {
                partner: pid(2),
                probability: 1.0,
                partner_master: Some(site(0)),
                in_write_set: true,
            }],
            vec![CoAccess {
                partner: pid(1),
                probability: 1.0,
                partner_master: Some(site(0)),
                in_write_set: true,
            }],
        ];
        let inter = vec![vec![], vec![]];
        let vvs = zero_vvs(3);
        let cvv = VersionVector::zero(3);
        let inputs = base_inputs(
            &weights,
            &partitions,
            &load,
            &site_load,
            &intra,
            &inter,
            &vvs,
            &cvv,
        );
        let (dest, cands) = confirm_group_destination(&inputs, &[false, false, false]);
        // Balance pulls the group off site 0, tie-break toward site 1; the
        // per-candidate table matches the shared scoring exactly.
        assert_eq!(dest, site(1));
        let reference = score_sites_detailed(&inputs);
        assert_eq!(cands.len(), reference.len());
        for (c, r) in cands.iter().zip(&reference) {
            assert_eq!(c.total, r.total);
        }
        // Masking site 1 re-routes the group to site 2.
        let (dest, cands) = confirm_group_destination(&inputs, &[false, true, false]);
        assert_eq!(dest, site(2));
        assert!(!cands[1].reachable);
        // All-unreachable ignores the mask instead of picking garbage.
        let (dest, _) = confirm_group_destination(&inputs, &[true, true, true]);
        assert_eq!(dest, site(1));
    }

    #[test]
    fn best_site_breaks_ties_toward_lowest_id() {
        assert_eq!(best_site(&[1.0, 1.0, 0.5]), site(0));
        assert_eq!(best_site(&[0.0, 2.0, 2.0]), site(1));
    }

    #[test]
    fn detailed_scores_decompose_the_total() {
        let weights = StrategyWeights {
            balance: 2.0,
            delay: 1.0,
            intra_txn: 1.5,
            inter_txn: 0.5,
        };
        let partitions = [(pid(1), Some(site(0)))];
        let load = [1.0];
        let site_load = [4.0, 1.0];
        let intra = vec![vec![CoAccess {
            partner: pid(2),
            probability: 0.8,
            partner_master: Some(site(1)),
            in_write_set: false,
        }]];
        let inter = vec![vec![CoAccess {
            partner: pid(3),
            probability: 0.4,
            partner_master: Some(site(0)),
            in_write_set: false,
        }]];
        let vvs = vec![
            VersionVector::from_counts(vec![5, 0]),
            VersionVector::from_counts(vec![1, 0]),
        ];
        let cvv = VersionVector::zero(2);
        let inputs = base_inputs(
            &weights,
            &partitions,
            &load,
            &site_load,
            &intra,
            &inter,
            &vvs,
            &cvv,
        );
        let detailed = score_sites_detailed(&inputs);
        let flat = score_sites(&inputs);
        assert_eq!(detailed.len(), 2);
        for (c, total) in detailed.iter().zip(&flat) {
            assert_eq!(c.total, *total);
            assert!(
                (c.balance - c.delay + c.intra + c.inter - c.total).abs() < 1e-12,
                "features must sum to the total: {c:?}"
            );
            assert!(c.reachable);
        }
        // Site 1 lags the releaser (site 0) by 4, so it pays a delay penalty
        // site 0 does not; the co-access partner at site 1 pulls intra there.
        assert!(detailed[1].delay > detailed[0].delay);
        assert!(detailed[1].intra > detailed[0].intra);
        assert!(detailed[0].inter > detailed[1].inter);
    }
}
