//! The minimax-optimal strategy (§4.1).
//!
//! The paper observes that an optimal strategy exists "by employing the
//! standard construction of a minimax tree" but is exponential. We build it
//! anyway — with memoization over labeled-state vectors — as a quality
//! yardstick for the heuristics on small instances: property tests assert
//! that no heuristic ever beats the optimal worst case, and the `optimal_gap`
//! benchmark measures how close TD / L2S come.
//!
//! The game: the algorithm picks an informative class, the adversary (the
//! worst-case user) picks a label; the cost of a state is the number of
//! questions until no informative tuple remains. Because a class is
//! informative exactly when both labels keep the sample consistent, every
//! adversary answer is realizable by some goal predicate. Game-tree nodes
//! are explored via [`InferenceState::speculate`], so each node pays an
//! O(delta) incremental update rather than a from-scratch re-derivation.

use crate::error::{InferenceError, Result};
use crate::sample::Label;
use crate::state::InferenceState;
use crate::strategy::Strategy;
use crate::universe::{ClassId, Universe};
use std::collections::HashMap;
use std::sync::Arc;

/// Default cap on the number of informative classes the optimal strategy
/// will consider (the state space is `O(3^classes)`).
pub const DEFAULT_CLASS_LIMIT: usize = 14;

/// Canonical memo key: one byte per class (0 unlabeled, 1 positive,
/// 2 negative).
fn state_key(state: &InferenceState) -> Vec<u8> {
    (0..state.num_classes())
        .map(|c| match state.label(c) {
            None => 0,
            Some(Label::Positive) => 1,
            Some(Label::Negative) => 2,
        })
        .collect()
}

/// Worst-case number of interactions from `state` under optimal play,
/// with the optimal first question.
fn minimax(
    state: &InferenceState,
    memo: &mut HashMap<Vec<u8>, (u32, Option<ClassId>)>,
) -> (u32, Option<ClassId>) {
    let key = state_key(state);
    if let Some(&hit) = memo.get(&key) {
        return hit;
    }
    let result = if !state.any_informative() {
        (0, None)
    } else {
        let mut best: Option<(u32, ClassId)> = None;
        // Iterate a copy: speculation borrows the state immutably anyway,
        // but the candidate list must outlive each branch.
        let informative: Vec<ClassId> = state.informative().collect();
        for c in informative {
            let mut worst = 0u32;
            for alpha in Label::BOTH {
                let s = state.speculate(c, alpha);
                debug_assert!(
                    s.is_consistent(),
                    "both labels of an informative class keep consistency"
                );
                let (cost, _) = minimax(&s, memo);
                worst = worst.max(cost);
            }
            let total = 1 + worst;
            if best.is_none_or(|(b, bc)| total < b || (total == b && c < bc)) {
                best = Some((total, c));
            }
        }
        let (cost, class) = best.expect("informative set nonempty");
        (cost, Some(class))
    };
    memo.insert(key, result);
    result
}

/// The worst-case-optimal number of interactions for `universe` starting
/// from the empty sample.
///
/// Fails with [`InferenceError::UniverseTooLarge`] when there are more than
/// `limit` classes.
pub fn optimal_worst_case(universe: &Arc<Universe>, limit: usize) -> Result<u32> {
    let classes = universe.num_classes();
    if classes > limit {
        return Err(InferenceError::UniverseTooLarge { classes, limit });
    }
    let state = InferenceState::new(Arc::clone(universe));
    let mut memo = HashMap::new();
    Ok(minimax(&state, &mut memo).0)
}

/// The worst-case number of interactions a *deterministic* strategy needs
/// on `universe`, over all adversary (consistent-user) answer sequences —
/// computed by exploring the full binary game tree.
///
/// This is the quantity [`optimal_worst_case`] lower-bounds for every
/// strategy. Exponential in the number of classes; a yardstick for small
/// instances. Stateful strategies (e.g. [`crate::strategy::Random`]) would
/// leak RNG state across branches and give meaningless results.
pub fn strategy_worst_case(universe: &Arc<Universe>, strategy: &mut dyn Strategy) -> Result<u32> {
    fn rec(strategy: &mut dyn Strategy, state: &InferenceState) -> Result<u32> {
        match strategy.next(state)? {
            None => Ok(0),
            Some(c) => {
                let mut worst = 0u32;
                for alpha in Label::BOTH {
                    let s = state.speculate(c, alpha);
                    worst = worst.max(rec(strategy, &s)?);
                }
                Ok(1 + worst)
            }
        }
    }
    rec(strategy, &InferenceState::new(Arc::clone(universe)))
}

/// OPT: plays the minimax-optimal strategy, caching the game tree across
/// calls within one run.
#[derive(Debug, Clone)]
pub struct Optimal {
    limit: usize,
    memo: HashMap<Vec<u8>, (u32, Option<ClassId>)>,
}

impl Default for Optimal {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimal {
    /// Creates the strategy with [`DEFAULT_CLASS_LIMIT`].
    pub fn new() -> Self {
        Self::with_limit(DEFAULT_CLASS_LIMIT)
    }

    /// Creates the strategy with an explicit class-count cap.
    pub fn with_limit(limit: usize) -> Self {
        Optimal {
            limit,
            memo: HashMap::new(),
        }
    }
}

impl Strategy for Optimal {
    fn name(&self) -> &str {
        "OPT"
    }

    fn next(&mut self, state: &InferenceState) -> Result<Option<ClassId>> {
        // OPT stays off the universe-level decision cache: it is restricted
        // to tiny universes anyway, carries its own game-tree memo that
        // amortizes across the whole run, and its error path (the class
        // limit) does not fit the cache's infallible-value shape.
        let classes = state.num_classes();
        if classes > self.limit {
            return Err(InferenceError::UniverseTooLarge {
                classes,
                limit: self.limit,
            });
        }
        let (_, class) = minimax(state, &mut self.memo);
        Ok(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_inference, AdversarialOracle, PredicateOracle};
    use crate::paper::{example_2_1, example_3_3};
    use crate::strategy::{BottomUp, Lookahead, TopDown};
    use crate::universe::Universe;

    #[test]
    fn trivial_universe_costs_zero() {
        // Example 3.3: the single product tuple has T = Ω = {(A1,B1),(A2,B1)},
        // certain-positive from the start, so no question is ever needed.
        let u = Arc::new(Universe::build(example_3_3()));
        assert_eq!(optimal_worst_case(&u, 14).unwrap(), 0);
    }

    #[test]
    fn example_2_1_optimal_worst_case() {
        let u = Arc::new(Universe::build(example_2_1()));
        let opt = optimal_worst_case(&u, 14).unwrap();
        // Sanity bounds: at least ⌈log2⌉ of distinguishable outcomes, at
        // most the class count.
        assert!(opt >= 4, "12 classes cannot be resolved in < 4 questions");
        assert!(opt <= 12);
        // No deterministic heuristic beats OPT in its true worst case (the
        // maximum over all consistent answer sequences). L2S is excluded
        // here only because its game tree is slow in debug builds; the
        // property test covers it on smaller instances.
        for mut strategy in [
            Box::new(BottomUp::new()) as Box<dyn Strategy>,
            Box::new(TopDown::new()),
            Box::new(Lookahead::l1s()),
        ] {
            let wc = strategy_worst_case(&u, strategy.as_mut()).unwrap();
            assert!(
                wc >= opt,
                "{} worst case {} < OPT {}",
                strategy.name(),
                wc,
                opt
            );
        }
        // The lazy adversarial oracle is *weaker* than the minimax
        // adversary, so heuristics may finish under `opt` against it — but
        // the run must still be consistent and halt.
        let mut adversary = AdversarialOracle::new();
        let run = run_inference(&u, Box::new(TopDown::new()), &mut adversary).unwrap();
        assert!(run.sample.is_consistent(&u));
    }

    #[test]
    fn optimal_strategy_attains_its_own_bound() {
        let u = Arc::new(Universe::build(example_2_1()));
        let bound = optimal_worst_case(&u, 14).unwrap();
        let mut adversary = AdversarialOracle::new();
        let run = run_inference(&u, Box::new(Optimal::new()), &mut adversary).unwrap();
        assert_eq!(run.interactions as u32, bound);
    }

    #[test]
    fn optimal_infers_correct_predicates_too() {
        let u = Arc::new(Universe::build(example_2_1()));
        let goal = crate::predicate_from_names(u.instance(), &[("A1", "B1")]).unwrap();
        let mut oracle = PredicateOracle::new(goal.clone());
        let run = run_inference(&u, Box::new(Optimal::new()), &mut oracle).unwrap();
        assert_eq!(
            u.instance().equijoin(&run.predicate),
            u.instance().equijoin(&goal)
        );
    }

    #[test]
    fn limit_is_enforced() {
        let u = Arc::new(Universe::build(example_2_1()));
        assert!(matches!(
            optimal_worst_case(&u, 5),
            Err(InferenceError::UniverseTooLarge {
                classes: 12,
                limit: 5
            })
        ));
        let mut opt = Optimal::with_limit(5);
        let state = InferenceState::new(Arc::clone(&u));
        assert!(opt.next(&state).is_err());
    }
}
