//! The top-down local strategy (TD, Algorithm 3).

use crate::error::Result;
use crate::lattice::maximal_among;
use crate::state::InferenceState;
use crate::strategy::bottom_up::min_signature_informative;
use crate::strategy::{cached_move, Strategy, CACHE_KEY_TD};
use crate::universe::ClassId;

/// TD: while there is no positive example, presents tuples whose signature
/// is `⊆`-maximal (descending the lattice from Ω); once a positive example
/// arrives, behaves like bottom-up.
///
/// A negative answer on a maximal node prunes everything below it
/// (Lemma 3.4 with `T(S⁺) = Ω`), so TD infers the goal Ω — the worst case
/// for BU — after labeling only the maximal classes. The paper's line 2
/// quantifies over all of `D` (`∄ t′ ∈ D. T(t) ⊊ T(t′)`); we take maximality
/// among *informative* signatures, which coincides whenever a maximal class
/// is still informative and remains well-defined in the corner case where
/// the unique maximal signature is Ω itself (certain-positive from the
/// start, hence never informative).
#[derive(Debug, Clone, Default)]
pub struct TopDown;

impl TopDown {
    /// Creates the strategy.
    pub fn new() -> Self {
        TopDown
    }
}

impl TopDown {
    /// The uncached Algorithm 3 selection over the current state.
    fn select(&self, state: &InferenceState) -> Option<ClassId> {
        if !state.positives().is_empty() {
            // Lines 3–5: with a positive example the goal is non-nullable;
            // switch to the bottom-up order.
            return min_signature_informative(state);
        }
        // Lines 1–2: an informative class whose signature is maximal among
        // informative signatures; prefer larger signatures, then smaller id.
        //
        // With the static closure available, `c` is maximal among the
        // informative classes iff no *other* informative signature contains
        // it — distinct classes have distinct signatures, so containment is
        // proper — i.e. iff `|up(c) ∧ open| = 1`: one popcount per
        // candidate instead of the bucketed subset scans of
        // [`maximal_among`].
        let universe = state.universe();
        let closure = universe.closure();
        let best = if closure.has_static_masks() {
            let open = state.informative_mask();
            state
                .informative()
                .filter(|&c| {
                    let up = closure.up(c).expect("static masks present");
                    jqi_relation::bitset::count_and(up, open.words()) == 1
                })
                .min_by_key(|&c| (usize::MAX - universe.sig_size(c), c))
        } else {
            let informative: Vec<ClassId> = state.informative().collect();
            maximal_among(universe, &informative)
                .into_iter()
                .min_by_key(|&c| (usize::MAX - universe.sig_size(c), c))
        };
        debug_assert!(
            best.is_some() || !state.any_informative(),
            "maximality over informative classes always has a witness"
        );
        best
    }
}

impl Strategy for TopDown {
    fn name(&self) -> &str {
        "TD"
    }

    fn next(&mut self, state: &InferenceState) -> Result<Option<ClassId>> {
        // TD is deterministic and parameterless; its move is served from
        // the shared universe-level decision cache in both phases. The
        // phase bit the cache helper folds in matters for TD in
        // particular: its branch on "any positive yet?" is not captured by
        // T(S⁺) alone.
        Ok(cached_move(CACHE_KEY_TD, state, || self.select(state)))
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
    fn first_picks_are_maximal_nodes() {
        // §4.3: TD first asks about tuples corresponding to ⊆-maximal
        // predicates, e.g. {(A1,B1),(A1,B2),(A2,B3)} = (t4,t1').
        let u = Arc::new(Universe::build(example_2_1()));
        let state = InferenceState::new(Arc::clone(&u));
        let mut td = TopDown::new();
        let c = td.next(&state).unwrap().unwrap();
        let maximal = crate::lattice::maximal_classes(&u);
        assert!(maximal.contains(&c));
        assert_eq!(u.sig(c).len(), 3, "size-3 nodes are preferred first");
    }

    #[test]
    fn goal_omega_labels_only_maximal_classes() {
        // If the user answers all-negative, TD infers Ω after labeling the
        // seven maximal classes — not all twelve (BU's worst case).
        let u = Arc::new(Universe::build(example_2_1()));
        let mut oracle = PredicateOracle::new(u.omega());
        let run = run_inference(&u, Box::new(TopDown::new()), &mut oracle).unwrap();
        assert_eq!(run.interactions, crate::lattice::maximal_classes(&u).len());
        assert_eq!(run.interactions, 7);
        assert_eq!(run.predicate, u.omega());
    }

    #[test]
    fn switches_to_bottom_up_after_a_positive() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let mut td = TopDown::new();
        let c = td.next(&state).unwrap().unwrap();
        state.apply(c, Label::Positive).unwrap();
        let c2 = td.next(&state).unwrap().unwrap();
        // BU choice: smallest informative signature.
        let bu = min_signature_informative(&state).unwrap();
        assert_eq!(c2, bu);
    }

    #[test]
    fn agrees_with_bu_for_all_positive_history() {
        let u = Arc::new(Universe::build(example_2_1()));
        let goal = crate::predicate_from_names(u.instance(), &[("A1", "B1")]).unwrap();
        let mut oracle_td = PredicateOracle::new(goal.clone());
        let mut oracle_bu = PredicateOracle::new(goal.clone());
        let td = run_inference(&u, Box::new(TopDown::new()), &mut oracle_td).unwrap();
        let bu = run_inference(
            &u,
            Box::new(crate::strategy::BottomUp::new()),
            &mut oracle_bu,
        )
        .unwrap();
        assert_eq!(
            u.instance().equijoin(&td.predicate),
            u.instance().equijoin(&bu.predicate)
        );
    }
}
