//! The bottom-up local strategy (BU, Algorithm 2).

use crate::error::Result;
use crate::state::InferenceState;
use crate::strategy::{cached_move, Strategy, CACHE_KEY_BU};
use crate::universe::ClassId;

/// BU: navigates the lattice from the most general predicate `∅` upward,
/// always presenting an informative tuple with minimal `|T(t)|`.
///
/// Discovers small goal predicates (especially `∅`) in very few questions,
/// but degenerates when the user answers only negatively: in the worst case
/// it visits every T-equivalence class. Ties on `|T(t)|` break toward the
/// smallest class id so runs are deterministic.
#[derive(Debug, Clone, Default)]
pub struct BottomUp;

impl BottomUp {
    /// Creates the strategy.
    pub fn new() -> Self {
        BottomUp
    }
}

/// Shared by BU and the positive-phase of TD: the informative class with the
/// smallest signature. One pass over the maintained informative mask, using
/// the universe's precomputed signature sizes.
pub(crate) fn min_signature_informative(state: &InferenceState) -> Option<ClassId> {
    let universe = state.universe();
    state
        .informative()
        .min_by_key(|&c| (universe.sig_size(c), c))
}

impl Strategy for BottomUp {
    fn name(&self) -> &str {
        "BU"
    }

    fn next(&mut self, state: &InferenceState) -> Result<Option<ClassId>> {
        // Deterministic and parameterless: served from the shared
        // universe-level decision cache in both phases. The scan itself is
        // one pass over the open mask, but a fleet of sessions sharing a
        // universe repeats the same states endlessly and a cache probe is
        // O(mask words) regardless of how many classes are open.
        Ok(cached_move(CACHE_KEY_BU, state, || {
            min_signature_informative(state)
        }))
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
    fn first_pick_is_the_empty_signature_tuple() {
        // §4.3: on Example 2.1, BU first asks about (t3,t1') with T = ∅.
        let u = Arc::new(Universe::build(example_2_1()));
        let state = InferenceState::new(Arc::clone(&u));
        let mut bu = BottomUp::new();
        let c = bu.next(&state).unwrap().unwrap();
        assert_eq!(u.representative(c), (2, 0));
        assert!(u.sig(c).is_empty());
    }

    #[test]
    fn second_pick_is_the_size_one_node() {
        // §4.3: after a negative answer on ∅, BU selects (t2,t1') with
        // T = {(A1,B3)}.
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let mut bu = BottomUp::new();
        let c0 = bu.next(&state).unwrap().unwrap();
        state.apply(c0, Label::Negative).unwrap();
        let c1 = bu.next(&state).unwrap().unwrap();
        assert_eq!(u.representative(c1), (1, 0));
        assert_eq!(u.sig(c1).len(), 1);
    }

    #[test]
    fn empty_goal_takes_one_interaction() {
        // §5.3: the goal ∅ is inferred by BU with a single question.
        let u = Arc::new(Universe::build(example_2_1()));
        let goal = u.instance().pairs().bottom();
        let mut oracle = PredicateOracle::new(goal.clone());
        let run = run_inference(&u, Box::new(BottomUp::new()), &mut oracle).unwrap();
        assert_eq!(run.interactions, 1);
        assert_eq!(
            u.instance().equijoin(&run.predicate),
            u.instance().equijoin(&goal)
        );
    }

    #[test]
    fn all_negative_worst_case_visits_every_class() {
        // With goal Ω (nothing selected — no tuple has T = Ω here), the user
        // answers negatively throughout and BU labels all 12 classes.
        let u = Arc::new(Universe::build(example_2_1()));
        let goal = u.omega();
        let mut oracle = PredicateOracle::new(goal);
        let run = run_inference(&u, Box::new(BottomUp::new()), &mut oracle).unwrap();
        assert_eq!(run.interactions, 12);
    }
}
