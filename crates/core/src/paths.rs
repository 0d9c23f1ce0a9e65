//! Join-path inference (§7 future work: "extend our approach … to join
//! paths").
//!
//! A *join path* chains `k ≥ 2` relations `R₁ – R₂ – … – R_k`; the goal is
//! one equijoin predicate per adjacent pair. Because the paper's theory is
//! formulated for exactly two relations, a path decomposes into `k − 1`
//! independent two-relation inference problems — each hop gets its own
//! Cartesian product, sample, and strategy run, and the user is asked to
//! label pairs of *adjacent* tuples (never full path tuples, whose number
//! would be the product of all cardinalities).
//!
//! ```
//! use jqi_core::paths::PathBuilder;
//! use jqi_core::strategy::StrategyConfig;
//! use jqi_relation::Value;
//!
//! // City → Flight → Hotel: two hops.
//! let mut b = PathBuilder::new();
//! b.relation("City", &["Name"], vec![vec![Value::str("Paris")]]);
//! b.relation(
//!     "Flight",
//!     &["From", "To"],
//!     vec![vec![Value::str("Paris"), Value::str("Lille")]],
//! );
//! b.relation("Hotel", &["HCity"], vec![vec![Value::str("Lille")]]);
//! let path = b.build().unwrap();
//! assert_eq!(path.num_hops(), 2);
//!
//! // Hidden goals: Name = From, then To = HCity.
//! let goals = vec![
//!     path.predicate_from_names(0, &[("Name", "From")]).unwrap(),
//!     path.predicate_from_names(1, &[("To", "HCity")]).unwrap(),
//! ];
//! let run = path.infer_with_goals(&goals, &StrategyConfig::Td).unwrap();
//! assert_eq!(run.predicates.len(), 2);
//! assert_eq!(path.count_path_tuples(&run.predicates), 1);
//! ```

use crate::engine::{run_inference, PredicateOracle};
use crate::error::Result;
use crate::strategy::StrategyConfig;
use crate::universe::Universe;
use jqi_relation::{BitSet, Instance, Interner, Relation, RelationError, Schema, Value};
use std::sync::Arc;

/// Builder collecting the relations of a join path in order.
#[derive(Default)]
pub struct PathBuilder {
    interner: Arc<Interner>,
    relations: Vec<Relation>,
    error: Option<RelationError>,
}

impl PathBuilder {
    /// Starts an empty path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a relation with its rows. Adjacent relations must have
    /// disjoint attribute names (the two-relation assumption per hop).
    pub fn relation(&mut self, name: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> &mut Self {
        if self.error.is_some() {
            return self;
        }
        match Schema::new(name, attrs) {
            Ok(schema) => {
                let mut rel = Relation::new(schema);
                for row in rows {
                    if let Err(e) = rel.push_row(&self.interner, &row) {
                        self.error = Some(e);
                        return self;
                    }
                }
                self.relations.push(rel);
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Finishes the path: one [`Universe`] per adjacent pair.
    pub fn build(self) -> jqi_relation::Result<JoinPath> {
        if let Some(e) = self.error {
            return Err(e);
        }
        assert!(
            self.relations.len() >= 2,
            "a join path needs at least two relations"
        );
        let mut hops = Vec::with_capacity(self.relations.len() - 1);
        for pair in self.relations.windows(2) {
            let instance = Instance::new(self.interner.clone(), pair[0].clone(), pair[1].clone())?;
            hops.push(Arc::new(Universe::build(instance)));
        }
        Ok(JoinPath { hops })
    }
}

/// A chain of two-relation inference problems.
#[derive(Debug, Clone)]
pub struct JoinPath {
    hops: Vec<Arc<Universe>>,
}

/// The outcome of inferring a whole path.
#[derive(Debug, Clone)]
pub struct PathRun {
    /// One inferred predicate per hop, in path order.
    pub predicates: Vec<BitSet>,
    /// Questions asked per hop.
    pub interactions_per_hop: Vec<usize>,
}

impl PathRun {
    /// Total number of questions across all hops.
    pub fn total_interactions(&self) -> usize {
        self.interactions_per_hop.iter().sum()
    }
}

impl JoinPath {
    /// Number of hops (`k − 1` for `k` relations).
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// The universe of hop `h`.
    pub fn hop(&self, h: usize) -> &Universe {
        &self.hops[h]
    }

    /// Builds a goal predicate for hop `h` from attribute-name pairs.
    pub fn predicate_from_names(
        &self,
        h: usize,
        pairs: &[(&str, &str)],
    ) -> jqi_relation::Result<BitSet> {
        crate::predicate_from_names(self.hops[h].instance(), pairs)
    }

    /// Infers every hop against goal-predicate oracles, with a fresh
    /// strategy built from `config` per hop.
    pub fn infer_with_goals(&self, goals: &[BitSet], config: &StrategyConfig) -> Result<PathRun> {
        assert_eq!(goals.len(), self.hops.len(), "one goal per hop");
        let mut predicates = Vec::with_capacity(self.hops.len());
        let mut interactions = Vec::with_capacity(self.hops.len());
        for (universe, goal) in self.hops.iter().zip(goals) {
            let mut oracle = PredicateOracle::new(goal.clone());
            let run = run_inference(universe, config.build(), &mut oracle)?;
            predicates.push(run.predicate);
            interactions.push(run.interactions);
        }
        Ok(PathRun {
            predicates,
            interactions_per_hop: interactions,
        })
    }

    /// Counts the tuples of the full path join
    /// `R₁ ⋈θ₁ R₂ ⋈θ₂ … ⋈θ_{k−1} R_k` without materializing it, by
    /// dynamic programming over per-hop selected pairs.
    pub fn count_path_tuples(&self, predicates: &[BitSet]) -> u64 {
        assert_eq!(predicates.len(), self.hops.len(), "one predicate per hop");
        // counts[j] = number of partial path tuples ending at row j of the
        // current relation.
        let first = self.hops[0].instance();
        let mut counts: Vec<u64> = vec![0; first.p().len()];
        for (ri, pi) in first.equijoin(&predicates[0]) {
            let _ = ri;
            counts[pi] += 1;
        }
        for (h, universe) in self.hops.iter().enumerate().skip(1) {
            let inst = universe.instance();
            let mut next: Vec<u64> = vec![0; inst.p().len()];
            for (ri, pi) in inst.equijoin(&predicates[h]) {
                next[pi] += counts[ri];
            }
            counts = next;
        }
        counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three relations wired City → Flight → Hotel.
    fn city_flight_hotel() -> JoinPath {
        let mut b = PathBuilder::new();
        b.relation(
            "City",
            &["Name", "Country"],
            vec![
                vec![Value::str("Paris"), Value::str("FR")],
                vec![Value::str("Lille"), Value::str("FR")],
                vec![Value::str("NYC"), Value::str("US")],
            ],
        );
        b.relation(
            "Flight",
            &["From", "To", "Airline"],
            vec![
                vec![Value::str("Paris"), Value::str("Lille"), Value::str("AF")],
                vec![Value::str("Lille"), Value::str("NYC"), Value::str("AA")],
                vec![Value::str("NYC"), Value::str("Paris"), Value::str("AA")],
                vec![Value::str("Paris"), Value::str("NYC"), Value::str("AF")],
            ],
        );
        b.relation(
            "Hotel",
            &["HCity", "Discount"],
            vec![
                vec![Value::str("NYC"), Value::str("AA")],
                vec![Value::str("Paris"), Value::str("None")],
                vec![Value::str("Lille"), Value::str("AF")],
            ],
        );
        b.build().expect("well-formed path")
    }

    #[test]
    fn hops_are_independent_universes() {
        let path = city_flight_hotel();
        assert_eq!(path.num_hops(), 2);
        assert_eq!(path.hop(0).instance().r().schema().name(), "City");
        assert_eq!(path.hop(1).instance().p().schema().name(), "Hotel");
    }

    #[test]
    fn inference_recovers_both_hops() {
        let path = city_flight_hotel();
        let goals = vec![
            path.predicate_from_names(0, &[("Name", "From")]).unwrap(),
            path.predicate_from_names(1, &[("To", "HCity")]).unwrap(),
        ];
        for config in [
            StrategyConfig::Bu,
            StrategyConfig::Td,
            StrategyConfig::Lks { depth: 2 },
        ] {
            let run = path.infer_with_goals(&goals, &config).unwrap();
            for (h, (inferred, goal)) in run.predicates.iter().zip(&goals).enumerate() {
                let inst = path.hop(h).instance();
                assert_eq!(
                    inst.equijoin(inferred),
                    inst.equijoin(goal),
                    "{config} missed hop {h}"
                );
            }
            assert!(run.total_interactions() >= 2);
        }
    }

    #[test]
    fn path_count_matches_brute_force() {
        let path = city_flight_hotel();
        let goals = vec![
            path.predicate_from_names(0, &[("Name", "From")]).unwrap(),
            path.predicate_from_names(1, &[("To", "HCity")]).unwrap(),
        ];
        // Brute force: for each (city, flight, hotel) triple, check both
        // joins via the per-hop instances.
        let i0 = path.hop(0).instance();
        let i1 = path.hop(1).instance();
        let mut expect = 0u64;
        for c in 0..i0.r().len() {
            for f in 0..i0.p().len() {
                if !i0.selects(&goals[0], c, f) {
                    continue;
                }
                for h in 0..i1.p().len() {
                    if i1.selects(&goals[1], f, h) {
                        expect += 1;
                    }
                }
            }
        }
        assert_eq!(path.count_path_tuples(&goals), expect);
        // Sanity: the City→Flight→Hotel chain via city names has joins.
        assert!(expect > 0);
    }

    #[test]
    fn empty_predicates_count_full_product() {
        let path = city_flight_hotel();
        let empties = vec![
            path.hop(0).instance().pairs().bottom(),
            path.hop(1).instance().pairs().bottom(),
        ];
        // ∅ selects everything: 3 · 4 · 3 path tuples.
        assert_eq!(path.count_path_tuples(&empties), 36);
    }

    #[test]
    fn builder_rejects_bad_rows() {
        let mut b = PathBuilder::new();
        b.relation("A", &["X"], vec![vec![Value::int(1), Value::int(2)]]);
        b.relation("B", &["Y"], vec![]);
        assert!(b.build().is_err());
    }

    #[test]
    fn builder_rejects_overlapping_adjacent_attrs() {
        let mut b = PathBuilder::new();
        b.relation("A", &["X"], vec![]);
        b.relation("B", &["X"], vec![]);
        assert!(b.build().is_err());
    }

    #[test]
    #[should_panic(expected = "at least two relations")]
    fn single_relation_path_rejected() {
        let mut b = PathBuilder::new();
        b.relation("A", &["X"], vec![]);
        let _ = b.build();
    }
}
