//! Interactive inference of equijoin predicates from labeled tuples.
//!
//! This crate implements the core contribution of *Interactive Inference of
//! Join Queries* (Bonifati, Ciucanu, Staworko — EDBT 2014): a user who
//! cannot write queries labels tuples of the Cartesian product `R × P` as
//! positive or negative examples, and the system infers the equijoin
//! predicate `θ ⊆ attrs(R) × attrs(P)` the user has in mind while asking for
//! as few labels as possible.
//!
//! The building blocks map one-to-one onto the paper:
//!
//! * [`universe`] — the Cartesian product partitioned into *T-equivalence
//!   classes* (tuples sharing the most specific predicate `T(t)`), which is
//!   the granularity at which every other component reasons.
//! * [`sample`] — labeled examples, `T(S⁺)`, and PTIME consistency checking
//!   (§3.1).
//! * [`certain`] — certain / uninformative tuples (Lemmas 3.2–3.4,
//!   Theorem 3.5).
//! * [`lattice`] — the lattice of join predicates, maximal nodes, and the
//!   *join ratio* instance-complexity measure (§4.2, §5.3).
//! * [`entropy`] — tuple entropy, dominance, skylines, and the k-step
//!   lookahead generalization (§4.4).
//! * [`state`] — the incremental [`InferenceState`]: the consistent-predicate
//!   interval, class partition, and entropy caches, updated in O(affected
//!   classes) per label instead of re-derived from scratch per step.
//! * [`strategy`] — RND, BU, TD, L1S, L2S, LkS, and the minimax-optimal
//!   strategy (§4), all reading the session through [`InferenceState`].
//! * [`engine`] — the general inference algorithm (Algorithm 1) driven by an
//!   [`engine::Oracle`].
//! * [`session`] — a step-by-step API for embedding the loop in a real
//!   interactive application.
//!
//! # Example: inferring the flight & hotel query of the paper's introduction
//!
//! ```
//! use jqi_core::paper::flight_hotel;
//! use jqi_core::universe::Universe;
//! use jqi_core::engine::{run_inference, PredicateOracle};
//! use jqi_core::strategy::TopDown;
//!
//! let inst = flight_hotel();
//! // Goal Q2: Flight.To = Hotel.City ∧ Flight.Airline = Hotel.Discount
//! let goal = jqi_core::predicate_from_names(
//!     &inst,
//!     &[("To", "City"), ("Airline", "Discount")],
//! ).unwrap();
//! let universe = Universe::build(inst);
//! let mut oracle = PredicateOracle::new(goal.clone());
//! let run = run_inference(&universe, &mut TopDown::new(), &mut oracle).unwrap();
//! // The inferred predicate selects exactly the same tuples as the goal.
//! assert_eq!(
//!     universe.instance().equijoin(&run.predicate),
//!     universe.instance().equijoin(&goal),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certain;
mod chunked;
pub mod delta;
pub mod engine;
pub mod entropy;
pub mod error;
pub mod ingest;
pub mod lattice;
pub mod paper;
pub mod paths;
pub mod sample;
pub mod session;
pub mod state;
pub mod strategy;
pub mod universe;

pub use delta::{DeltaError, EditOp, RowEdit, UniverseDelta};
pub use entropy::Entropy;
pub use error::{InferenceError, Result};
pub use ingest::{IngestOptions, IngestStats};
pub use sample::{Label, Sample};
pub use session::{Candidate, OwnedSession, Session};
pub use state::{ClassState, InferenceState};
pub use strategy::{DynStrategy, Strategy, StrategyConfig, StrategyKind};
pub use universe::{ClassId, DecisionCacheStats, Universe, DEFAULT_DECISION_CACHE_BYTES};

use jqi_relation::{BitSet, Instance};

/// Builds a join predicate from `(R-attribute, P-attribute)` name pairs.
///
/// This is the main entry point for constructing goal predicates in tests,
/// benchmarks and applications.
pub fn predicate_from_names(
    instance: &Instance,
    pairs: &[(&str, &str)],
) -> jqi_relation::Result<BitSet> {
    let mut theta = instance.pairs().bottom();
    for (a, b) in pairs {
        theta.insert(instance.pair_index_by_name(a, b)?);
    }
    Ok(theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_2_1;

    #[test]
    fn predicate_from_names_builds_expected_bits() {
        let inst = example_2_1();
        let theta = predicate_from_names(&inst, &[("A1", "B1"), ("A2", "B3")]).unwrap();
        assert_eq!(theta.len(), 2);
        assert!(theta.contains(inst.pair_index(0, 0)));
        assert!(theta.contains(inst.pair_index(1, 2)));
    }

    #[test]
    fn predicate_from_names_rejects_unknown() {
        let inst = example_2_1();
        assert!(predicate_from_names(&inst, &[("A1", "Bogus")]).is_err());
        assert!(predicate_from_names(&inst, &[("Bogus", "B1")]).is_err());
    }
}
