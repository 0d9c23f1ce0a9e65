//! Strategies for presenting tuples to the user (§4).
//!
//! A strategy `Υ` maps the Cartesian product and the current sample to the
//! next tuple to present. The paper proposes:
//!
//! * [`Random`] (RND) — a random informative tuple, the baseline.
//! * [`BottomUp`] (BU, Algorithm 2) — minimal `|T(t)|` first.
//! * [`TopDown`] (TD, Algorithm 3) — `⊆`-maximal signatures first, then BU.
//! * [`Lookahead`] (L1S / L2S / LkS, Algorithms 4–6) — skyline selection on
//!   tuple entropy with configurable lookahead depth.
//! * [`Optimal`] — the minimax-optimal strategy (§4.1), exponential; usable
//!   as a quality yardstick on small instances.
//! * [`ExpectedGain`] — a probabilistic extension in the spirit of the
//!   paper's future work (§7): expected gain under a uniform prior over
//!   the consistent predicates.
//!
//! All strategies restrict themselves to *informative* tuples (Theorem 3.5)
//! and are deterministic given their configuration (the random strategy
//! takes an explicit seed), which makes every experiment reproducible.

mod bottom_up;
mod expected_gain;
mod lookahead;
mod optimal;
mod random;
mod top_down;

pub use bottom_up::BottomUp;
pub use expected_gain::{positive_probability, ExpectedGain};
pub use lookahead::Lookahead;
pub use optimal::{optimal_worst_case, strategy_worst_case, Optimal, DEFAULT_CLASS_LIMIT};
pub use random::Random;
pub use top_down::TopDown;

use crate::error::Result;
use crate::state::InferenceState;
use crate::universe::ClassId;

/// Decision-cache fingerprints of the deterministic strategies (see
/// [`crate::universe::Universe::cached_decision`]). Each strategy owns a
/// distinct base key; parameterized strategies fold their parameters into
/// bits 32..62, and [`cached_move`] reserves bit 63 for the "any positive
/// yet?" phase bit.
pub(crate) const CACHE_KEY_BU: u64 = 0x4255;
pub(crate) const CACHE_KEY_TD: u64 = 0x5444;
pub(crate) const CACHE_KEY_EG: u64 = 0x4547;
pub(crate) const CACHE_KEY_LKS: u64 = 0x4c6b_5300;

/// Serves a deterministic strategy's move from the universe-level decision
/// cache, computing it with `compute` on the first probe per distinct
/// derived state.
///
/// `base_key` must fingerprint the strategy and every parameter its choice
/// depends on besides the state (lookahead depth, …); the current phase
/// — whether any positive example exists — is folded in here because
/// strategies may branch on it even when `T(S⁺)` still equals Ω (a
/// positive whose signature is all of Ω). Inconsistent states bypass the
/// cache: the derived partition stops being maintained there, so the
/// mask key no longer determines the state.
pub(crate) fn cached_move(
    base_key: u64,
    state: &InferenceState<'_>,
    compute: impl FnOnce() -> Option<ClassId>,
) -> Option<ClassId> {
    if !state.is_consistent() {
        return compute();
    }
    let key = base_key | ((!state.positives().is_empty() as u64) << 63);
    let (pos, neg) = state.decision_masks();
    state.universe().cached_decision(key, pos, neg, compute)
}

/// A strategy `Υ(D, S)` choosing the next tuple (class) to present.
///
/// Strategies read the session through the incrementally maintained
/// [`InferenceState`] — the informative candidate set, entropies, and the
/// consistent-predicate interval are all `O(1)`-or-`O(delta)` queries on
/// it, so no strategy rescans all of Ω per step.
pub trait Strategy {
    /// Short name used in reports and benchmarks (`"BU"`, `"L2S"`, …).
    fn name(&self) -> &str;

    /// The next informative class to present, or `None` when the halt
    /// condition Γ holds (no informative tuple remains).
    fn next(&mut self, state: &InferenceState<'_>) -> Result<Option<ClassId>>;
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn next(&mut self, state: &InferenceState<'_>) -> Result<Option<ClassId>> {
        (**self).next(state)
    }
}

/// A boxed, thread-safe strategy object.
///
/// [`Strategy`] is object-safe, and every strategy in the crate is `Send`,
/// so heterogeneous strategies (RND next to L2S next to BU) can live in one
/// session table and move across threads with their sessions. This is the
/// strategy type of [`crate::session::OwnedSession`].
pub type DynStrategy = Box<dyn Strategy + Send>;

/// A serializable description of a strategy: enough to rebuild it exactly.
///
/// This is what session snapshots persist — restoring a session replays
/// its label history into a strategy rebuilt from this config, and because
/// every strategy (including [`Random`], which derives its choice from
/// `(seed, |S|)` alone) is a deterministic function of its configuration
/// and the current state, the restored session continues exactly as an
/// uninterrupted one would.
///
/// The textual form round-trips through [`std::fmt::Display`] /
/// [`std::str::FromStr`]: `"RND:7"`, `"BU"`, `"TD"`, `"LKS:2"`, `"EG"`,
/// `"OPT"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StrategyConfig {
    /// Random informative tuple with the given seed.
    Rnd {
        /// The RNG seed.
        seed: u64,
    },
    /// Bottom-up (Algorithm 2).
    Bu,
    /// Top-down (Algorithm 3).
    Td,
    /// k-step lookahead skyline (Algorithms 4–6); depth 1 is L1S, 2 is L2S.
    Lks {
        /// The lookahead depth `k ≥ 1`.
        depth: usize,
    },
    /// Expected gain under a uniform prior.
    Eg,
    /// Minimax-optimal (small instances only).
    Optimal,
}

impl StrategyConfig {
    /// Instantiates the described strategy.
    pub fn build(&self) -> DynStrategy {
        match *self {
            StrategyConfig::Rnd { seed } => Box::new(Random::new(seed)),
            StrategyConfig::Bu => Box::new(BottomUp::new()),
            StrategyConfig::Td => Box::new(TopDown::new()),
            StrategyConfig::Lks { depth } => Box::new(Lookahead::new(depth)),
            StrategyConfig::Eg => Box::new(ExpectedGain::new()),
            StrategyConfig::Optimal => Box::new(Optimal::new()),
        }
    }

    /// The config describing what [`StrategyKind::build`] builds.
    pub fn from_kind(kind: StrategyKind, seed: u64) -> StrategyConfig {
        match kind {
            StrategyKind::Rnd => StrategyConfig::Rnd { seed },
            StrategyKind::Bu => StrategyConfig::Bu,
            StrategyKind::Td => StrategyConfig::Td,
            StrategyKind::L1s => StrategyConfig::Lks { depth: 1 },
            StrategyKind::L2s => StrategyConfig::Lks { depth: 2 },
            StrategyKind::Optimal => StrategyConfig::Optimal,
            StrategyKind::Eg => StrategyConfig::Eg,
        }
    }
}

impl std::fmt::Display for StrategyConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StrategyConfig::Rnd { seed } => write!(f, "RND:{seed}"),
            StrategyConfig::Bu => f.write_str("BU"),
            StrategyConfig::Td => f.write_str("TD"),
            StrategyConfig::Lks { depth } => write!(f, "LKS:{depth}"),
            StrategyConfig::Eg => f.write_str("EG"),
            StrategyConfig::Optimal => f.write_str("OPT"),
        }
    }
}

impl std::str::FromStr for StrategyConfig {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<StrategyConfig, String> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let numeric = |what: &str| -> std::result::Result<u64, String> {
            arg.ok_or_else(|| format!("strategy {head} needs a :{what}"))?
                .parse::<u64>()
                .map_err(|e| format!("bad {what} in strategy {s:?}: {e}"))
        };
        match head {
            "RND" => Ok(StrategyConfig::Rnd {
                seed: numeric("seed")?,
            }),
            "LKS" => {
                let depth = numeric("depth")? as usize;
                if depth == 0 {
                    return Err("lookahead depth must be at least 1".into());
                }
                Ok(StrategyConfig::Lks { depth })
            }
            "BU" | "TD" | "EG" | "OPT" if arg.is_some() => {
                Err(format!("strategy {head} takes no argument, got {s:?}"))
            }
            "BU" => Ok(StrategyConfig::Bu),
            "TD" => Ok(StrategyConfig::Td),
            "EG" => Ok(StrategyConfig::Eg),
            "OPT" => Ok(StrategyConfig::Optimal),
            other => Err(format!("unknown strategy {other:?}")),
        }
    }
}

/// A dynamic catalogue of the paper's strategies, used by the experiment
/// harness to iterate over all of them uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Random informative tuple (baseline).
    Rnd,
    /// Bottom-up local strategy (Algorithm 2).
    Bu,
    /// Top-down local strategy (Algorithm 3).
    Td,
    /// One-step lookahead skyline (Algorithm 4).
    L1s,
    /// Two-step lookahead skyline (Algorithm 6).
    L2s,
    /// Minimax-optimal (small instances only).
    Optimal,
    /// Expected-gain under a uniform prior over consistent predicates
    /// (a probabilistic extension beyond the paper — §7 future work).
    Eg,
}

impl StrategyKind {
    /// The five strategies compared throughout §5, in the paper's order.
    pub const PAPER: [StrategyKind; 5] = [
        StrategyKind::Bu,
        StrategyKind::Td,
        StrategyKind::L1s,
        StrategyKind::L2s,
        StrategyKind::Rnd,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Rnd => "RND",
            StrategyKind::Bu => "BU",
            StrategyKind::Td => "TD",
            StrategyKind::L1s => "L1S",
            StrategyKind::L2s => "L2S",
            StrategyKind::Optimal => "OPT",
            StrategyKind::Eg => "EG",
        }
    }

    /// Instantiates the strategy; `seed` only affects [`Random`].
    pub fn build(self, seed: u64) -> DynStrategy {
        StrategyConfig::from_kind(self, seed).build()
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_inference, PredicateOracle};
    use crate::paper::example_2_1;
    use crate::universe::Universe;

    /// Every catalogued strategy infers an instance-equivalent predicate on
    /// Example 2.1, for every non-nullable goal.
    #[test]
    fn all_strategies_reach_equivalent_predicates() {
        let u = Universe::build(example_2_1());
        let goals = crate::lattice::non_nullable_predicates(&u, 10_000).unwrap();
        for kind in [
            StrategyKind::Rnd,
            StrategyKind::Bu,
            StrategyKind::Td,
            StrategyKind::L1s,
            StrategyKind::L2s,
        ] {
            for goal in &goals {
                let mut strategy = kind.build(42);
                let mut oracle = PredicateOracle::new(goal.clone());
                let run = run_inference(&u, strategy.as_mut(), &mut oracle).unwrap();
                assert_eq!(
                    u.instance().equijoin(&run.predicate),
                    u.instance().equijoin(goal),
                    "{kind} failed on goal {goal:?}"
                );
            }
        }
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(StrategyKind::Rnd.to_string(), "RND");
        assert_eq!(StrategyKind::L2s.to_string(), "L2S");
        assert_eq!(StrategyKind::PAPER.len(), 5);
    }
}
