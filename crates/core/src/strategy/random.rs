//! The random baseline strategy (RND).

use crate::error::Result;
use crate::state::InferenceState;
use crate::strategy::Strategy;
use crate::universe::ClassId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// RND: picks a uniformly random informative tuple.
///
/// The paper uses RND as the baseline all other strategies are compared
/// against. The RNG is seeded explicitly so that experiments are
/// reproducible.
///
/// The choice is **memoryless**: each call seeds a fresh RNG from
/// `(seed, |S|)` instead of advancing a long-lived generator. Driven
/// normally — one answer between `next` calls — the draws still differ per
/// step, but the strategy becomes a pure function of its configuration and
/// the current state, like every other strategy in the crate. That is what
/// makes session snapshot/restore exact: replaying a session's label
/// history puts RND in precisely the position an uninterrupted run would
/// occupy, with no RNG stream offset to reconstruct.
#[derive(Debug, Clone)]
pub struct Random {
    seed: u64,
}

impl Random {
    /// Creates the strategy with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Random { seed }
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Strategy for Random {
    fn name(&self) -> &str {
        "RND"
    }

    fn next(&mut self, state: &InferenceState) -> Result<Option<ClassId>> {
        // RND deliberately bypasses the universe-level decision cache: its
        // choice depends on the per-session seed and on |S| (the history
        // length), neither of which the shared (T(S⁺), negative-mask) key
        // captures — two sessions at the same derived state must be free
        // to draw different candidates.
        let n = state.informative_len();
        if n == 0 {
            return Ok(None);
        }
        // Decorrelate consecutive steps with a splitmix64-style odd
        // multiplier; SmallRng's seeding scrambles the rest.
        let step = (state.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SmallRng::seed_from_u64(self.seed ^ step);
        let i = rng.gen_range(0..n);
        // Word-skipping select straight off the informative mask: the i-th
        // set bit is the same class the old materialized list held at [i].
        Ok(state.nth_informative(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_2_1;
    use crate::sample::Label;
    use crate::universe::Universe;
    use std::sync::Arc;

    #[test]
    fn picks_only_informative_classes() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let mut rnd = Random::new(7);
        for _ in 0..5 {
            let c = rnd.next(&state).unwrap().expect("informative left");
            assert!(state.is_informative(c));
            state.apply(c, Label::Negative).unwrap();
            if !state.is_consistent() {
                break;
            }
        }
    }

    #[test]
    fn choice_is_a_pure_function_of_seed_and_state() {
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let mut rnd = Random::new(99);
        let a = rnd.next(&state).unwrap();
        // No hidden stream position: re-asking the same state re-draws the
        // same candidate, and a freshly built strategy (the restore path)
        // agrees with one that has been asked before.
        assert_eq!(rnd.next(&state).unwrap(), a);
        let mut restored = Random::new(99);
        assert_eq!(restored.next(&state).unwrap(), a);
        state.apply(a.unwrap(), Label::Negative).unwrap();
        assert_eq!(rnd.next(&state).unwrap(), restored.next(&state).unwrap());
    }

    #[test]
    fn different_seeds_can_disagree() {
        let u = Arc::new(Universe::build(example_2_1()));
        let state = InferenceState::new(Arc::clone(&u));
        let picks: std::collections::HashSet<_> = (0..32u64)
            .map(|seed| Random::new(seed).next(&state).unwrap())
            .collect();
        assert!(picks.len() > 1, "all 32 seeds picked the same candidate");
    }

    #[test]
    fn halts_when_nothing_informative() {
        use jqi_relation::{InstanceBuilder, Value};
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        b.row_r(&[Value::int(1)]);
        b.row_p(&[Value::int(1)]);
        let u = Arc::new(Universe::build(b.build().unwrap()));
        let state = InferenceState::new(Arc::clone(&u));
        let mut rnd = Random::new(0);
        assert_eq!(rnd.next(&state).unwrap(), None);
    }
}
