//! The general inference algorithm (Algorithm 1) and user oracles.
//!
//! [`run_inference`] drives a [`Strategy`] against an [`Oracle`] until the
//! halt condition Γ holds (no informative tuple remains), verifying
//! consistency after every answer exactly as Algorithm 1 lines 6–7, and
//! returns the most specific consistent predicate `T(S⁺)`.
//!
//! Oracles model the user:
//!
//! * [`PredicateOracle`] labels consistently with a goal predicate θG — the
//!   honest user of the paper (and of its experiments).
//! * [`FnOracle`] wraps a closure, for custom user models.
//! * [`AdversarialOracle`] answers so as to maximize the number of remaining
//!   questions cheaply (it always answers "−" unless "+" is forced to keep
//!   consistency); used to probe worst cases.

use crate::error::{InferenceError, Result};
use crate::sample::{Label, Sample};
use crate::state::InferenceState;
use crate::strategy::Strategy;
use crate::universe::{ClassId, Universe};
use jqi_relation::BitSet;

/// A source of labels: the (possibly simulated) user.
pub trait Oracle {
    /// Labels the representative tuple of class `c`.
    fn label(&mut self, universe: &Universe, c: ClassId) -> Label;
}

/// Labels consistently with a fixed goal predicate θG: positive iff
/// `θG ⊆ T(t)`.
#[derive(Debug, Clone)]
pub struct PredicateOracle {
    goal: BitSet,
}

impl PredicateOracle {
    /// Creates the oracle for goal `θG`.
    pub fn new(goal: BitSet) -> Self {
        PredicateOracle { goal }
    }

    /// The goal predicate.
    pub fn goal(&self) -> &BitSet {
        &self.goal
    }
}

impl Oracle for PredicateOracle {
    fn label(&mut self, universe: &Universe, c: ClassId) -> Label {
        if self.goal.is_subset(universe.sig(c)) {
            Label::Positive
        } else {
            Label::Negative
        }
    }
}

/// Wraps a closure as an oracle.
pub struct FnOracle<F: FnMut(&Universe, ClassId) -> Label>(pub F);

impl<F: FnMut(&Universe, ClassId) -> Label> Oracle for FnOracle<F> {
    fn label(&mut self, universe: &Universe, c: ClassId) -> Label {
        (self.0)(universe, c)
    }
}

/// A lazy adversary: answers "−" whenever some consistent predicate rejects
/// the tuple, i.e. whenever "−" keeps the sample consistent.
///
/// For an informative tuple both answers keep consistency, so this oracle
/// effectively always answers "−" on the tuples a (correct) strategy asks
/// about — the user whose goal turns out to be the instance-equivalent of Ω.
/// It maintains a shadow sample to decide the forced cases when driven with
/// non-informative questions.
#[derive(Debug, Default)]
pub struct AdversarialOracle {
    shadow: Option<Sample>,
}

impl AdversarialOracle {
    /// Creates the adversary.
    pub fn new() -> Self {
        AdversarialOracle { shadow: None }
    }
}

impl Oracle for AdversarialOracle {
    fn label(&mut self, universe: &Universe, c: ClassId) -> Label {
        let shadow = self.shadow.get_or_insert_with(|| Sample::new(universe));
        let mut trial = shadow.clone();
        let label =
            if trial.add(universe, c, Label::Negative).is_ok() && trial.is_consistent(universe) {
                Label::Negative
            } else {
                Label::Positive
            };
        if label == Label::Negative {
            *shadow = trial;
        } else {
            let _ = shadow.add(universe, c, Label::Positive);
        }
        label
    }
}

/// The outcome of one inference run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The inferred predicate `T(S⁺)` — the most specific predicate
    /// consistent with the user's labels (instance-equivalent to the goal).
    pub predicate: BitSet,
    /// Number of questions asked (`|S|`).
    pub interactions: usize,
    /// The questions and answers, in order.
    pub history: Vec<(ClassId, Label)>,
    /// The final sample.
    pub sample: Sample,
}

/// Algorithm 1: repeatedly asks the strategy for a tuple, the oracle for its
/// label, and stops when no informative tuple remains. Errors if the oracle
/// produces an inconsistent labeling (lines 6–7).
///
/// One [`InferenceState`] is threaded through the whole run: each answer is
/// applied incrementally (O(affected classes)), the strategy reads the
/// maintained candidate set, and the halt/consistency checks are O(1) reads
/// — nothing in the loop rescans Ω.
///
/// Note the paper's remark (§4.1): a strategy that asks only *informative*
/// tuples can never trigger the inconsistency error, because a tuple is
/// informative precisely when both labels keep the sample consistent. The
/// check still guards custom strategies that may re-ask certain tuples.
pub fn run_inference(
    universe: &Universe,
    strategy: &mut dyn Strategy,
    oracle: &mut dyn Oracle,
) -> Result<RunResult> {
    let mut state = InferenceState::new(universe);
    while let Some(c) = strategy.next(&state)? {
        let label = oracle.label(universe, c);
        state.apply(c, label)?;
        if !state.is_consistent() {
            return Err(InferenceError::InconsistentSample { class: c });
        }
    }
    Ok(RunResult {
        predicate: state.theta_possible().clone(),
        interactions: state.len(),
        history: state.history().to_vec(),
        sample: state.as_sample(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{example_2_1, flight_hotel};
    use crate::strategy::{BottomUp, Lookahead, Random, Strategy, TopDown};
    use crate::universe::Universe;

    /// The introduction's scenario: distinguishing Q1 from Q2 on the
    /// flight & hotel instance.
    #[test]
    fn flight_hotel_q1_vs_q2() {
        let inst = flight_hotel();
        let q1 = crate::predicate_from_names(&inst, &[("To", "City")]).unwrap();
        let q2 =
            crate::predicate_from_names(&inst, &[("To", "City"), ("Airline", "Discount")]).unwrap();
        let u = Universe::build(inst);
        for goal in [q1, q2] {
            for mut strategy in [
                Box::new(BottomUp::new()) as Box<dyn Strategy>,
                Box::new(TopDown::new()),
                Box::new(Lookahead::l1s()),
                Box::new(Lookahead::l2s()),
                Box::new(Random::new(3)),
            ] {
                let mut oracle = PredicateOracle::new(goal.clone());
                let run = run_inference(&u, strategy.as_mut(), &mut oracle).unwrap();
                assert_eq!(
                    u.instance().equijoin(&run.predicate),
                    u.instance().equijoin(&goal),
                    "strategy {} missed the goal",
                    strategy.name()
                );
            }
        }
    }

    /// §3.3: with only negative answers the returned predicate is Ω
    /// (instance-equivalent to the goal).
    #[test]
    fn all_negative_returns_omega() {
        let u = Universe::build(example_2_1());
        let goal = u.omega(); // selects nothing on this instance
        let mut oracle = PredicateOracle::new(goal);
        let run = run_inference(&u, &mut TopDown::new(), &mut oracle).unwrap();
        assert_eq!(run.predicate, u.omega());
        assert!(u.instance().equijoin(&run.predicate).is_empty());
    }

    /// A strategy asking arbitrary (possibly certain) tuples paired with a
    /// dishonest oracle trips the consistency check of lines 6–7.
    #[test]
    fn dishonest_oracle_raises_inconsistency() {
        let u = Universe::build(example_2_1());
        // Script: ask (t2,t2') — answered + → T(S⁺) = {(A1,B1),(A2,B3)};
        // then ask (t4,t1') whose T ⊇ T(S⁺): the dishonest "−" answer
        // makes the sample inconsistent.
        let c_pos = u.class_of(1, 1).unwrap();
        let c_neg = u.class_of(3, 0).unwrap();
        struct Scripted(Vec<ClassId>);
        impl Strategy for Scripted {
            fn name(&self) -> &str {
                "scripted"
            }
            fn next(&mut self, _: &InferenceState<'_>) -> Result<Option<ClassId>> {
                Ok(self.0.pop())
            }
        }
        let mut strategy = Scripted(vec![c_neg, c_pos]); // popped back-first
        let mut oracle = FnOracle(move |_: &Universe, c: usize| {
            if c == c_pos {
                Label::Positive
            } else {
                Label::Negative
            }
        });
        let e = run_inference(&u, &mut strategy, &mut oracle).unwrap_err();
        assert_eq!(e, InferenceError::InconsistentSample { class: c_neg });
    }

    /// With informative-only strategies the inconsistency branch is
    /// unreachable (§4.1): even a maximally erratic oracle yields a
    /// consistent final sample.
    #[test]
    fn informative_only_strategies_never_error() {
        let u = Universe::build(example_2_1());
        let mut flip = 0u32;
        let mut erratic = FnOracle(move |_: &Universe, _| {
            flip += 1;
            if flip.is_multiple_of(2) {
                Label::Positive
            } else {
                Label::Negative
            }
        });
        let run = run_inference(&u, &mut BottomUp::new(), &mut erratic).unwrap();
        assert!(run.sample.is_consistent(&u));
    }

    #[test]
    fn history_and_interactions_agree() {
        let u = Universe::build(example_2_1());
        let goal = crate::predicate_from_names(u.instance(), &[("A1", "B1")]).unwrap();
        let mut oracle = PredicateOracle::new(goal);
        let run = run_inference(&u, &mut Lookahead::l1s(), &mut oracle).unwrap();
        assert_eq!(run.history.len(), run.interactions);
        assert_eq!(run.sample.len(), run.interactions);
        // Labels in the history match the final sample.
        for (c, label) in &run.history {
            assert_eq!(run.sample.label(*c), Some(*label));
        }
    }

    #[test]
    fn adversarial_oracle_is_consistent() {
        let u = Universe::build(example_2_1());
        let mut adversary = AdversarialOracle::new();
        let run = run_inference(&u, &mut TopDown::new(), &mut adversary).unwrap();
        assert!(run.sample.is_consistent(&u));
        // The lazy adversary ends at Ω on this instance.
        assert_eq!(run.predicate, u.omega());
    }
}
