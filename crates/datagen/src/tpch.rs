//! A TPC-H-shaped data generator (substitute for `dbgen`, §5.1).
//!
//! The paper evaluates its strategies on TPC-H with five goal join
//! predicates that correspond to key–foreign-key relationships:
//!
//! 1. `Part[Partkey] = Partsupp[Partkey]`
//! 2. `Supplier[Suppkey] = Partsupp[Suppkey]`
//! 3. `Customer[Custkey] = Orders[Custkey]`
//! 4. `Orders[Orderkey] = Lineitem[Orderkey]`
//! 5. `Partsupp[Partkey] = Lineitem[Partkey] ∧ Partsupp[Suppkey] = Lineitem[Suppkey]`
//!
//! The strategies never see these constraints — they reason purely over the
//! value-equality patterns of the data. What makes the benchmark hard is
//! that *non-key* attributes collide with keys ("a value 15 … may as well
//! represent a key, a size, a price, or a quantity"). This generator
//! reproduces exactly that: six tables with the TPC-H PK–FK wiring and
//! deliberately small, overlapping integer domains for the non-key columns,
//! at laptop scale. Absolute cardinalities differ from `dbgen`'s (the
//! algorithms operate on T-equivalence classes, whose count depends on the
//! equality *pattern*, not on raw row counts); the shape of the results —
//! which strategy needs fewest interactions per join — is preserved.

use jqi_core::predicate_from_names;
use jqi_relation::{BitSet, Instance, InstanceBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Relative dataset scale, standing in for the paper's TPC-H scale factors
/// (the paper reports SF = 1 and SF = 100000; we keep the ratio of product
/// sizes meaningful while staying laptop-sized).
///
/// The scale is a continuous multiplier on the base row counts, so sweeps
/// can probe any point between (or beyond) the named presets:
///
/// ```
/// use jqi_datagen::tpch::TpchScale;
/// assert_eq!(TpchScale::Small, TpchScale::new(1.0));
/// assert!(TpchScale::new(2.5).sf() > TpchScale::Small.sf());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TpchScale {
    sf: f64,
}

#[allow(non_upper_case_globals)] // presets keep their historical variant names
impl TpchScale {
    /// Mirrors the SF = 1 column of Figure 6.
    pub const Small: TpchScale = TpchScale { sf: 1.0 };
    /// Mirrors the SF = 100000 column of Figure 6 (denser key reuse, larger
    /// product).
    pub const Large: TpchScale = TpchScale { sf: 6.0 };
    /// The `scaling` benchmark's ≥10⁷-product-tuple workload (Join 4's
    /// Orders × Lineitem product exceeds 10⁷). Not part of the paper's
    /// figures ([`TpchScale::ALL`] stays the paper's two scales).
    pub const Huge: TpchScale = TpchScale { sf: 100.0 };

    /// Both of the paper's scales, in the paper's order.
    pub const ALL: [TpchScale; 2] = [TpchScale::Small, TpchScale::Large];

    /// An arbitrary continuous scale. Values below ~`1.0` shrink the base
    /// tables (row counts are clamped to at least one row per table).
    pub fn new(sf: f64) -> Self {
        assert!(sf.is_finite() && sf > 0.0, "scale factor must be positive");
        TpchScale { sf }
    }

    /// The continuous scale factor.
    pub fn sf(self) -> f64 {
        self.sf
    }

    /// Scales a base row count, keeping every table non-empty.
    fn rows(self, base: usize) -> usize {
        ((base as f64 * self.sf).round() as usize).max(1)
    }

    /// Display name used in reports.
    pub fn name(self) -> String {
        if self == TpchScale::Small {
            "SF=small".to_string()
        } else if self == TpchScale::Large {
            "SF=large".to_string()
        } else if self == TpchScale::Huge {
            "SF=huge".to_string()
        } else {
            format!("SF={}", self.sf)
        }
    }
}

impl std::fmt::Display for TpchScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// The five goal joins of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchJoin {
    /// `Part[Partkey] = Partsupp[Partkey]`.
    Join1,
    /// `Supplier[Suppkey] = Partsupp[Suppkey]`.
    Join2,
    /// `Customer[Custkey] = Orders[Custkey]`.
    Join3,
    /// `Orders[Orderkey] = Lineitem[Orderkey]`.
    Join4,
    /// `Partsupp[Partkey,Suppkey] = Lineitem[Partkey,Suppkey]` (size 2).
    Join5,
}

impl TpchJoin {
    /// All five joins, in the paper's order.
    pub const ALL: [TpchJoin; 5] = [
        TpchJoin::Join1,
        TpchJoin::Join2,
        TpchJoin::Join3,
        TpchJoin::Join4,
        TpchJoin::Join5,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            TpchJoin::Join1 => "Join 1",
            TpchJoin::Join2 => "Join 2",
            TpchJoin::Join3 => "Join 3",
            TpchJoin::Join4 => "Join 4",
            TpchJoin::Join5 => "Join 5",
        }
    }

    /// The size `|θG|` of the goal predicate (1 for Joins 1–4, 2 for Join 5).
    pub fn goal_size(self) -> usize {
        match self {
            TpchJoin::Join5 => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for TpchJoin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One goal-join workload: the two-relation instance plus the goal
/// predicate the simulated user has in mind.
#[derive(Debug, Clone)]
pub struct TpchWorkload {
    /// Which of the five joins this is.
    pub join: TpchJoin,
    /// The two-relation instance (R = the first relation of the join).
    pub instance: Instance,
    /// The goal predicate θG over the instance's pair space.
    pub goal: BitSet,
}

/// Plain row structs for the six generated tables. Keys are dense
/// `0..n`; foreign keys reference existing rows; non-key columns draw from
/// small domains that overlap the key ranges.
#[derive(Debug, Clone)]
pub struct TpchTables {
    scale: TpchScale,
    /// `(partkey, size, container, mfg)`.
    pub parts: Vec<(i64, i64, i64, i64)>,
    /// `(suppkey, nation, acctbal)`.
    pub suppliers: Vec<(i64, i64, i64)>,
    /// `(partkey, suppkey, availqty, supplycost)`.
    pub partsupps: Vec<(i64, i64, i64, i64)>,
    /// `(custkey, nation, acctbal)`.
    pub customers: Vec<(i64, i64, i64)>,
    /// `(orderkey, custkey, shippriority, status)`.
    pub orders: Vec<(i64, i64, i64, i64)>,
    /// `(orderkey, partkey, suppkey, linenumber, quantity)`.
    pub lineitems: Vec<(i64, i64, i64, i64, i64)>,
}

impl TpchTables {
    /// Generates the six tables at `scale` with the given seed.
    pub fn generate(scale: TpchScale, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_part = scale.rows(20);
        let n_supp = scale.rows(8);
        let n_cust = scale.rows(12);
        let n_ord = scale.rows(25);

        let parts: Vec<(i64, i64, i64, i64)> = (0..n_part)
            .map(|key| {
                (
                    key as i64,
                    rng.gen_range(1..=50),
                    rng.gen_range(0..40),
                    rng.gen_range(1..=5),
                )
            })
            .collect();
        let suppliers: Vec<(i64, i64, i64)> = (0..n_supp)
            .map(|key| (key as i64, rng.gen_range(0..25), rng.gen_range(0..100)))
            .collect();
        // Each part is supplied by two distinct suppliers, as in TPC-H's
        // 1:4 partsupp fanout (reduced to 1:2 at this scale).
        let mut partsupps: Vec<(i64, i64, i64, i64)> = Vec::with_capacity(2 * n_part);
        for &(pk, ..) in &parts {
            let s1 = rng.gen_range(0..n_supp) as i64;
            // At sub-unit scales a table can shrink to a single supplier, in
            // which case the second (distinct) partsupp entry is dropped.
            let s2 = (n_supp > 1)
                .then(|| (s1 + 1 + rng.gen_range(0..n_supp as i64 - 1)) % n_supp as i64);
            for sk in std::iter::once(s1).chain(s2) {
                partsupps.push((pk, sk, rng.gen_range(0..=100), rng.gen_range(0..=100)));
            }
        }
        let customers: Vec<(i64, i64, i64)> = (0..n_cust)
            .map(|key| (key as i64, rng.gen_range(0..25), rng.gen_range(0..100)))
            .collect();
        let orders: Vec<(i64, i64, i64, i64)> = (0..n_ord)
            .map(|key| {
                (
                    key as i64,
                    rng.gen_range(0..n_cust) as i64,
                    rng.gen_range(0..=1),
                    rng.gen_range(0..=2),
                )
            })
            .collect();
        // Each order has 1–3 lineitems, each referencing a partsupp pair so
        // that Join 5 (the composite key) has matches.
        let mut lineitems: Vec<(i64, i64, i64, i64, i64)> = Vec::new();
        for &(ok, ..) in &orders {
            let n_lines = rng.gen_range(1..=3);
            for line in 1..=n_lines {
                let &(pk, sk, ..) = &partsupps[rng.gen_range(0..partsupps.len())];
                lineitems.push((ok, pk, sk, line, rng.gen_range(1..=50)));
            }
        }
        TpchTables {
            scale,
            parts,
            suppliers,
            partsupps,
            customers,
            orders,
            lineitems,
        }
    }

    /// The scale the tables were generated at.
    pub fn scale(&self) -> TpchScale {
        self.scale
    }

    /// Builds the two-relation instance and goal predicate for `join`.
    pub fn workload(&self, join: TpchJoin) -> TpchWorkload {
        let mut b = InstanceBuilder::new();
        let goal_pairs: Vec<(&str, &str)> = match join {
            TpchJoin::Join1 => {
                b.relation_r("Part", &["P_PartKey", "P_Size", "P_Container", "P_Mfg"]);
                b.relation_p(
                    "Partsupp",
                    &["PS_PartKey", "PS_SuppKey", "PS_AvailQty", "PS_SupplyCost"],
                );
                for &(k, s, c, m) in &self.parts {
                    b.row_r_ints(&[k, s, c, m]);
                }
                for &(pk, sk, q, c) in &self.partsupps {
                    b.row_p_ints(&[pk, sk, q, c]);
                }
                vec![("P_PartKey", "PS_PartKey")]
            }
            TpchJoin::Join2 => {
                b.relation_r("Supplier", &["S_SuppKey", "S_Nation", "S_AcctBal"]);
                b.relation_p(
                    "Partsupp",
                    &["PS_PartKey", "PS_SuppKey", "PS_AvailQty", "PS_SupplyCost"],
                );
                for &(k, n, a) in &self.suppliers {
                    b.row_r_ints(&[k, n, a]);
                }
                for &(pk, sk, q, c) in &self.partsupps {
                    b.row_p_ints(&[pk, sk, q, c]);
                }
                vec![("S_SuppKey", "PS_SuppKey")]
            }
            TpchJoin::Join3 => {
                b.relation_r("Customer", &["C_CustKey", "C_Nation", "C_AcctBal"]);
                b.relation_p(
                    "Orders",
                    &["O_OrderKey", "O_CustKey", "O_ShipPriority", "O_Status"],
                );
                for &(k, n, a) in &self.customers {
                    b.row_r_ints(&[k, n, a]);
                }
                for &(ok, ck, sp, st) in &self.orders {
                    b.row_p_ints(&[ok, ck, sp, st]);
                }
                vec![("C_CustKey", "O_CustKey")]
            }
            TpchJoin::Join4 => {
                b.relation_r(
                    "Orders",
                    &["O_OrderKey", "O_CustKey", "O_ShipPriority", "O_Status"],
                );
                b.relation_p(
                    "Lineitem",
                    &[
                        "L_OrderKey",
                        "L_PartKey",
                        "L_SuppKey",
                        "L_LineNumber",
                        "L_Quantity",
                    ],
                );
                for &(ok, ck, sp, st) in &self.orders {
                    b.row_r_ints(&[ok, ck, sp, st]);
                }
                for &(ok, pk, sk, ln, q) in &self.lineitems {
                    b.row_p_ints(&[ok, pk, sk, ln, q]);
                }
                vec![("O_OrderKey", "L_OrderKey")]
            }
            TpchJoin::Join5 => {
                b.relation_r(
                    "Partsupp",
                    &["PS_PartKey", "PS_SuppKey", "PS_AvailQty", "PS_SupplyCost"],
                );
                b.relation_p(
                    "Lineitem",
                    &[
                        "L_OrderKey",
                        "L_PartKey",
                        "L_SuppKey",
                        "L_LineNumber",
                        "L_Quantity",
                    ],
                );
                for &(pk, sk, q, c) in &self.partsupps {
                    b.row_r_ints(&[pk, sk, q, c]);
                }
                for &(ok, pk, sk, ln, q) in &self.lineitems {
                    b.row_p_ints(&[ok, pk, sk, ln, q]);
                }
                vec![("PS_PartKey", "L_PartKey"), ("PS_SuppKey", "L_SuppKey")]
            }
        };
        let instance = b.build().expect("TPC-H workload instance is well-formed");
        let goal = predicate_from_names(&instance, &goal_pairs).expect("goal attributes exist");
        TpchWorkload {
            join,
            instance,
            goal,
        }
    }

    /// All five workloads at this scale.
    pub fn workloads(&self) -> Vec<TpchWorkload> {
        TpchJoin::ALL.iter().map(|&j| self.workload(j)).collect()
    }
}

/// Convenience: generate tables and the workload for one join directly.
pub fn workload(scale: TpchScale, join: TpchJoin, seed: u64) -> TpchWorkload {
    TpchTables::generate(scale, seed).workload(join)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_core::engine::{run_inference, PredicateOracle};
    use jqi_core::strategy::TopDown;
    use jqi_core::universe::Universe;
    use std::sync::Arc;

    #[test]
    fn tables_have_expected_shapes() {
        let t = TpchTables::generate(TpchScale::Small, 1);
        assert_eq!(t.parts.len(), 20);
        assert_eq!(t.suppliers.len(), 8);
        assert_eq!(t.partsupps.len(), 40);
        assert_eq!(t.customers.len(), 12);
        assert_eq!(t.orders.len(), 25);
        assert!(!t.lineitems.is_empty());
        let large = TpchTables::generate(TpchScale::Large, 1);
        assert_eq!(large.parts.len(), 120);
    }

    #[test]
    fn foreign_keys_reference_existing_rows() {
        let t = TpchTables::generate(TpchScale::Small, 2);
        let n_part = t.parts.len() as i64;
        let n_supp = t.suppliers.len() as i64;
        let n_cust = t.customers.len() as i64;
        let n_ord = t.orders.len() as i64;
        for &(pk, sk, ..) in &t.partsupps {
            assert!((0..n_part).contains(&pk));
            assert!((0..n_supp).contains(&sk));
        }
        for &(_, ck, ..) in &t.orders {
            assert!((0..n_cust).contains(&ck));
        }
        for &(ok, pk, sk, ..) in &t.lineitems {
            assert!((0..n_ord).contains(&ok));
            assert!((0..n_part).contains(&pk));
            assert!((0..n_supp).contains(&sk));
        }
    }

    #[test]
    fn partsupp_suppliers_are_distinct_per_part() {
        let t = TpchTables::generate(TpchScale::Small, 3);
        for pair in t.partsupps.chunks(2) {
            assert_eq!(pair[0].0, pair[1].0, "same part");
            assert_ne!(pair[0].1, pair[1].1, "distinct suppliers");
        }
    }

    #[test]
    fn goal_joins_are_nonempty() {
        let t = TpchTables::generate(TpchScale::Small, 4);
        for w in t.workloads() {
            let selected = w.instance.equijoin(&w.goal);
            assert!(!selected.is_empty(), "{} selects nothing", w.join);
            assert_eq!(w.goal.len(), w.join.goal_size());
        }
    }

    #[test]
    fn keys_collide_with_non_key_attributes() {
        // The benchmark's difficulty: some non-key column shares values with
        // the key columns, producing signatures with extra accidental pairs.
        let w = workload(TpchScale::Small, TpchJoin::Join1, 5);
        let u = Universe::build(w.instance.clone());
        let has_extra = u
            .sigs()
            .iter()
            .any(|sig| sig.len() >= 2 && w.goal.is_subset(sig));
        assert!(
            has_extra,
            "expected at least one tuple matching the key AND an accidental pair"
        );
    }

    #[test]
    fn inference_recovers_each_goal_join() {
        let t = TpchTables::generate(TpchScale::Small, 6);
        for w in t.workloads() {
            let u = Arc::new(Universe::build(w.instance.clone()));
            let mut oracle = PredicateOracle::new(w.goal.clone());
            let run = run_inference(&u, Box::new(TopDown::new()), &mut oracle).unwrap();
            assert_eq!(
                u.instance().equijoin(&run.predicate),
                u.instance().equijoin(&w.goal),
                "TD failed to recover {}",
                w.join
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchTables::generate(TpchScale::Small, 10);
        let b = TpchTables::generate(TpchScale::Small, 10);
        assert_eq!(a.lineitems, b.lineitems);
        assert_eq!(a.partsupps, b.partsupps);
    }

    #[test]
    fn names_and_sizes() {
        assert_eq!(TpchJoin::Join5.to_string(), "Join 5");
        assert_eq!(TpchJoin::Join5.goal_size(), 2);
        assert_eq!(TpchJoin::Join1.goal_size(), 1);
        assert_eq!(TpchScale::Small.to_string(), "SF=small");
        assert_eq!(TpchScale::ALL.len(), 2);
        assert_eq!(TpchScale::Huge.to_string(), "SF=huge");
    }

    #[test]
    fn continuous_scale_interpolates_and_clamps() {
        let half = TpchTables::generate(TpchScale::new(0.5), 1);
        assert_eq!(half.parts.len(), 10);
        assert_eq!(half.suppliers.len(), 4);
        let tiny = TpchTables::generate(TpchScale::new(0.001), 1);
        assert!(!tiny.parts.is_empty(), "row counts clamp to ≥ 1");
        assert!(!tiny.orders.is_empty());
        assert_eq!(TpchScale::new(2.5).name(), "SF=2.5");
        assert_eq!(TpchScale::new(1.0), TpchScale::Small);
        assert!(TpchScale::Small < TpchScale::Large);
    }

    #[test]
    fn huge_scale_reaches_ten_million_product_tuples() {
        // Join 4 (Orders × Lineitem) is the scaling sweep's largest TPC-H
        // point; table generation alone must stay cheap.
        let t = TpchTables::generate(TpchScale::Huge, 1);
        let product = t.orders.len() as u64 * t.lineitems.len() as u64;
        assert!(product >= 10_000_000, "Join 4 product {product} below 10^7");
    }
}
