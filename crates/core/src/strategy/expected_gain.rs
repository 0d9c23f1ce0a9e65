//! The expected-gain strategy (EG) — a probabilistic extension (§7).
//!
//! The paper's future work proposes "lookahead strategies using
//! probabilistic graphical models". This module implements the natural
//! first step: instead of the skyline over worst/best cases
//! `(min(u⁺,u⁻), max(u⁺,u⁻))`, rank tuples by the *expected* number of
//! tuples rendered uninformative,
//!
//! ```text
//! EG(t) = p(t)·u⁺ + (1 − p(t))·u⁻
//! ```
//!
//! where `p(t)` is the probability that the user labels `t` positively
//! under a uniform prior over the consistent predicates `C(S)`. The
//! counts `|C(S)|` and `|{θ ∈ C(S) | θ selects t}|` are computed *exactly*
//! by inclusion–exclusion over the negative examples:
//!
//! ```text
//! C(S) = P(T(S⁺)) \ ⋃_{t′∈S⁻} P(T(S⁺) ∩ T(t′))
//! ```
//!
//! so `|C(S)| = Σ_{N ⊆ S⁻} (−1)^{|N|} 2^{|T(S⁺) ∩ ⋂_{t′∈N} T(t′)|}`, and the
//! selecting count is the same sum with every term further intersected
//! with `T(t)`. Exponential in `|S⁻|`, so beyond
//! [`ExpectedGain::MAX_NEGATIVES`] the strategy falls back to the
//! uninformed prior `p = ½` (which ranks by `(u⁺ + u⁻)/2`).
//!
//! The gains `u⁺`/`u⁻` come from the state's incremental entropy
//! computation (shared with L1S through the same version-stamped cache).

use crate::error::Result;
use crate::state::InferenceState;
use crate::strategy::{cached_move, Strategy, CACHE_KEY_EG};
use crate::universe::ClassId;
use jqi_relation::BitSet;

/// EG: picks the informative tuple with maximal expected information gain
/// under a uniform prior over consistent predicates.
#[derive(Debug, Clone, Default)]
pub struct ExpectedGain;

impl ExpectedGain {
    /// Inclusion–exclusion is `O(2^{|S⁻|})`; beyond this many negative
    /// examples the label probability falls back to ½.
    pub const MAX_NEGATIVES: usize = 16;

    /// Creates the strategy.
    pub fn new() -> Self {
        ExpectedGain
    }
}

/// `Σ_{N ⊆ negs} (−1)^{|N|} 2^{|base ∩ ⋂ N|}` as an f64 (counts can exceed
/// u64 for wide Ω; f64 keeps the ratios we need).
fn count_down_set(base: &BitSet, negs: &[&BitSet]) -> f64 {
    let k = negs.len();
    debug_assert!(k <= ExpectedGain::MAX_NEGATIVES);
    let mut total = 0.0f64;
    for mask in 0u32..(1u32 << k) {
        let mut inter = base.clone();
        for (i, neg) in negs.iter().enumerate() {
            if mask >> i & 1 == 1 {
                inter.intersect_with(neg);
            }
        }
        let term = 2f64.powi(inter.len() as i32);
        if mask.count_ones() % 2 == 0 {
            total += term;
        } else {
            total -= term;
        }
    }
    total
}

/// The probability that class `c` is labeled positive under a uniform
/// prior over `C(S)`. Returns `None` when `|S⁻|` exceeds the
/// inclusion–exclusion budget.
pub fn positive_probability(state: &InferenceState, c: ClassId) -> Option<f64> {
    let (negs, total) = sorted_negatives_and_total(state)?;
    Some(selecting_probability(state, c, &negs, total))
}

/// The candidate-invariant part of the label probability: the negative
/// signatures in **canonical (class-id) order** and `|C(S)|`. Hoisted out
/// of the per-candidate loop by [`ExpectedGain::select`]; `None` when the
/// inclusion–exclusion budget is exceeded or `C(S)` is empty.
///
/// Canonical order, NOT labeling order: the inclusion–exclusion terms are
/// summed in f64, so the summation order must be a function of the
/// negative *set* for EG's move to be cacheable under the
/// `(T(S⁺), neg mask)` key — two sessions that labeled the same negatives
/// in different orders must compute bit-identical gains.
fn sorted_negatives_and_total(state: &InferenceState) -> Option<(Vec<&BitSet>, f64)> {
    if state.negatives().len() > ExpectedGain::MAX_NEGATIVES {
        return None;
    }
    let universe = state.universe();
    let mut neg_ids: Vec<ClassId> = state.negatives().to_vec();
    neg_ids.sort_unstable();
    let negs: Vec<&BitSet> = neg_ids.iter().map(|&g| universe.sig(g)).collect();
    let total = count_down_set(state.theta_possible(), &negs);
    if total <= 0.0 {
        return None; // inconsistent or empty C(S): probability undefined
    }
    Some((negs, total))
}

/// `|{θ ∈ C(S) : θ selects c}| / |C(S)|` given the hoisted invariants:
/// predicates selecting `c` are `θ ⊆ T(S⁺) ∩ T(c)`, minus the same union
/// of negative down-sets.
fn selecting_probability(state: &InferenceState, c: ClassId, negs: &[&BitSet], total: f64) -> f64 {
    let base_sel = state.theta_possible().intersection(state.universe().sig(c));
    (count_down_set(&base_sel, negs) / total).clamp(0.0, 1.0)
}

impl ExpectedGain {
    /// The uncached expected-gain selection over the current state. The
    /// candidate-invariant half of the probability (sorted negatives,
    /// `|C(S)|`) is computed once, not per informative class.
    fn select(&self, state: &InferenceState) -> Option<ClassId> {
        let prior = sorted_negatives_and_total(state);
        let mut best: Option<(f64, ClassId)> = None;
        for c in state.informative() {
            let (u_pos, u_neg) = state.gain_pair(c);
            let p = match &prior {
                Some((negs, total)) => selecting_probability(state, c, negs, *total),
                None => 0.5,
            };
            let gain = p * u_pos as f64 + (1.0 - p) * u_neg as f64;
            if best.is_none_or(|(bg, bc)| gain > bg || (gain == bg && c < bc)) {
                best = Some((gain, c));
            }
        }
        best.map(|(_, c)| c)
    }
}

impl Strategy for ExpectedGain {
    fn name(&self) -> &str {
        "EG"
    }

    fn next(&mut self, state: &InferenceState) -> Result<Option<ClassId>> {
        // The probabilities and gains are deterministic functions of the
        // derived state (the inclusion–exclusion sum iterates the negative
        // set order-independently), so EG's move is served from the shared
        // universe-level decision cache like the other deterministic
        // strategies.
        Ok(cached_move(CACHE_KEY_EG, state, || self.select(state)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_inference, PredicateOracle};
    use crate::paper::example_2_1;
    use crate::sample::Label;
    use crate::universe::Universe;
    use std::sync::Arc;

    #[test]
    fn probability_is_one_for_certain_positive() {
        use jqi_relation::{InstanceBuilder, Value};
        // Single tuple with T = Ω: every consistent predicate selects it.
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        b.row_r(&[Value::int(1)]);
        b.row_p(&[Value::int(1)]);
        let u = Arc::new(Universe::build(b.build().unwrap()));
        let state = InferenceState::new(Arc::clone(&u));
        assert_eq!(positive_probability(&state, 0), Some(1.0));
    }

    #[test]
    fn probability_shrinks_with_signature() {
        // Empty sample on Example 2.1: C(S) = P(Ω), |Ω| = 6, so the
        // probability that θ ⊆ T(t) is 2^{|T(t)|}/2^6.
        let u = Arc::new(Universe::build(example_2_1()));
        let state = InferenceState::new(Arc::clone(&u));
        for c in 0..u.num_classes() {
            let expect = 2f64.powi(u.sig(c).len() as i32) / 64.0;
            let got = positive_probability(&state, c).unwrap();
            assert!((got - expect).abs() < 1e-12, "class {c}: {got} vs {expect}");
        }
    }

    #[test]
    fn probability_respects_negatives() {
        // After labeling the ∅-signature tuple negative, C(S) loses only
        // the empty predicate: |C(S)| = 2^6 − 1.
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let c_empty = (0..u.num_classes()).find(|&c| u.sig(c).is_empty()).unwrap();
        state.apply(c_empty, Label::Negative).unwrap();
        let c_one = (0..u.num_classes()).find(|&c| u.sig(c).len() == 1).unwrap();
        // θ ⊆ T(t) with |T| = 1: 2 predicates, minus the empty one = 1.
        let got = positive_probability(&state, c_one).unwrap();
        assert!((got - 1.0 / 63.0).abs() < 1e-12);
    }

    #[test]
    fn eg_infers_correctly_on_all_goals() {
        let u = Arc::new(Universe::build(example_2_1()));
        let goals = crate::lattice::non_nullable_predicates(&u, 10_000).unwrap();
        for goal in &goals {
            let mut oracle = PredicateOracle::new(goal.clone());
            let run = run_inference(&u, Box::new(ExpectedGain::new()), &mut oracle).unwrap();
            assert_eq!(
                u.instance().equijoin(&run.predicate),
                u.instance().equijoin(goal),
            );
        }
    }

    #[test]
    fn eg_is_competitive_with_l1s_on_average() {
        let u = Arc::new(Universe::build(example_2_1()));
        let goals = crate::lattice::non_nullable_predicates(&u, 10_000).unwrap();
        let mut eg_total = 0usize;
        let mut l1s_total = 0usize;
        for goal in &goals {
            let mut o1 = PredicateOracle::new(goal.clone());
            eg_total += run_inference(&u, Box::new(ExpectedGain::new()), &mut o1)
                .unwrap()
                .interactions;
            let mut o2 = PredicateOracle::new(goal.clone());
            l1s_total += run_inference(&u, Box::new(crate::strategy::Lookahead::l1s()), &mut o2)
                .unwrap()
                .interactions;
        }
        // Not a theorem; a guardrail that the probabilistic ranking is in
        // the same league as the paper's L1S (within 25% on this instance).
        assert!(
            (eg_total as f64) <= l1s_total as f64 * 1.25,
            "EG {eg_total} vs L1S {l1s_total}"
        );
    }

    #[test]
    fn move_is_independent_of_negative_label_order() {
        // The decision cache serves EG's move under a (T(S⁺), neg mask)
        // key, so two sessions that labeled the same negative SET in
        // different ORDERS must compute bit-identical probabilities and
        // the same move — the f64 inclusion–exclusion sum must not depend
        // on labeling order. Cache disabled: compare raw computation.
        let u = Arc::new(Universe::build(example_2_1()).with_decision_cache_budget(0));
        let probe = InferenceState::new(Arc::clone(&u));
        let n1 = probe.nth_informative(0).unwrap();
        let n2 = probe.nth_informative(3).unwrap();
        let mut a = InferenceState::new(Arc::clone(&u));
        let mut b = InferenceState::new(Arc::clone(&u));
        a.apply(n1, Label::Negative).unwrap();
        a.apply(n2, Label::Negative).unwrap();
        b.apply(n2, Label::Negative).unwrap();
        b.apply(n1, Label::Negative).unwrap();
        assert!(a.is_consistent() && b.is_consistent());
        for c in a.informative() {
            let pa = positive_probability(&a, c);
            let pb = positive_probability(&b, c);
            assert!(
                pa == pb,
                "probability depends on labeling order for class {c}: {pa:?} vs {pb:?}"
            );
        }
        let mut eg_a = ExpectedGain::new();
        let mut eg_b = ExpectedGain::new();
        assert_eq!(eg_a.next(&a).unwrap(), eg_b.next(&b).unwrap());
    }

    #[test]
    fn inclusion_exclusion_matches_enumeration() {
        // Cross-check count_down_set against brute force on Example 2.1.
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        state
            .apply(u.class_of(1, 1).unwrap(), Label::Positive)
            .unwrap();
        state
            .apply(u.class_of(0, 2).unwrap(), Label::Negative)
            .unwrap();
        let sample = state.as_sample();
        let nbits = u.omega_len();
        let brute = (0u64..(1 << nbits))
            .filter(|&mask| {
                let theta = BitSet::from_iter(nbits, (0..nbits).filter(|&b| mask >> b & 1 == 1));
                sample.admits(&u, &theta)
            })
            .count() as f64;
        let negs: Vec<&BitSet> = state.negatives().iter().map(|&g| u.sig(g)).collect();
        let ie = count_down_set(state.theta_possible(), &negs);
        assert_eq!(ie, brute);
    }
}
