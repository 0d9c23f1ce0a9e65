//! # join-query-inference
//!
//! A complete Rust implementation of *Interactive Inference of Join
//! Queries* (Angela Bonifati, Radu Ciucanu, Sławek Staworko — EDBT 2014):
//! a user who cannot write queries labels tuples of the Cartesian product
//! `R × P` as positive or negative examples, and the system infers the
//! equijoin predicate the user has in mind while asking as few questions as
//! possible — with no knowledge of schemas or integrity constraints.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`relation`] ([`jqi_relation`]) — typed values, schemas, relations,
//!   two-relation instances, the pair space Ω, equijoin/semijoin
//!   evaluation, CSV I/O.
//! * [`core`] ([`jqi_core`]) — the paper's theory (most specific predicates,
//!   consistency, certain/uninformative tuples, entropy) and the
//!   interaction strategies (RND, BU, TD, L1S, L2S, LkS, minimax-optimal),
//!   plus the inference engine and a step-by-step session API.
//! * [`semijoin`] ([`jqi_semijoin`]) — §6: the NP-complete semijoin
//!   consistency problem, an exact solver, the 3SAT reduction, a DPLL SAT
//!   solver, and greedy heuristics.
//! * [`datagen`] ([`jqi_datagen`]) — the synthetic generator of §5.2 and a
//!   TPC-H-shaped generator standing in for `dbgen` (§5.1).
//! * [`server`] ([`jqi_server`]) — a concurrent multi-session inference
//!   service: a sharded thread-safe session table over one shared
//!   universe, class-addressed batched answers, and session
//!   snapshot/restore by deterministic replay — plus the HTTP/JSON
//!   gateway ([`jqi_server::http`]) with multi-universe tenancy.
//! * [`net`] ([`jqi_net`]) — the dependency-free HTTP/1.1 transport the
//!   gateway runs on: an epoll + thread-pool server and a tiny
//!   keep-alive client.
//!
//! # Quickstart
//!
//! ```
//! use join_query_inference::prelude::*;
//! use std::sync::Arc;
//!
//! // Two tables the user cannot write a join query over.
//! let mut b = InstanceBuilder::new();
//! b.relation_r("Flight", &["From", "To", "Airline"]);
//! b.relation_p("Hotel", &["City", "Discount"]);
//! b.row_r(&[Value::str("Paris"), Value::str("Lille"), Value::str("AF")]);
//! b.row_r(&[Value::str("Lille"), Value::str("NYC"), Value::str("AA")]);
//! b.row_p(&[Value::str("Lille"), Value::str("AF")]);
//! b.row_p(&[Value::str("NYC"), Value::str("AA")]);
//! let instance = b.build().unwrap();
//!
//! // The "user": labels pairs according to the hidden query
//! // Flight.To = Hotel.City.
//! let goal = predicate_from_names(&instance, &[("To", "City")]).unwrap();
//! let universe = Arc::new(Universe::build(instance));
//! let mut oracle = PredicateOracle::new(goal.clone());
//!
//! // Infer with the top-down strategy.
//! let run = run_inference(&universe, Box::new(TopDown::new()), &mut oracle).unwrap();
//! assert_eq!(
//!     universe.instance().equijoin(&run.predicate),
//!     universe.instance().equijoin(&goal),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use jqi_core as core;
pub use jqi_datagen as datagen;
pub use jqi_net as net;
pub use jqi_relation as relation;
pub use jqi_semijoin as semijoin;
pub use jqi_server as server;

/// One-stop imports for applications embedding the inference loop.
pub mod prelude {
    pub use jqi_core::engine::{
        run_inference, AdversarialOracle, FnOracle, Oracle, PredicateOracle, RunResult,
    };
    pub use jqi_core::session::{Candidate, Session};
    pub use jqi_core::strategy::{
        BottomUp, DynStrategy, Lookahead, Optimal, Random, Strategy, StrategyConfig, TopDown,
    };
    pub use jqi_core::universe::Universe;
    pub use jqi_core::{predicate_from_names, ClassState, InferenceState, Label, Sample};
    pub use jqi_relation::{BitSet, Instance, InstanceBuilder, Value};
    pub use jqi_server::{ServerConfig, SessionManager, SessionSnapshot};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        use crate::prelude::*;
        let u = Universe::build(jqi_core::paper::example_2_1());
        assert_eq!(u.num_classes(), 12);
        assert_eq!(StrategyConfig::paper(0).len(), 5);
        let _ = Label::Positive;
    }
}
