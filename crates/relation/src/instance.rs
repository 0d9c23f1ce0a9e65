//! Two-relation database instances and the attribute-pair space Ω.
//!
//! An [`Instance`] is the paper's `I = (Rᴵ, Pᴵ)`: two relations with disjoint
//! attribute sets sharing one value interner. The instance also owns the
//! *pair space* `Ω = attrs(R) × attrs(P)` over which every join predicate is
//! a bit set, and computes the most specific predicate
//! `T(t) = {(Ai,Bj) | tR[Ai] = tP[Bj]}` for tuples of the Cartesian product.

use crate::bitset::BitSet;
use crate::error::{RelationError, Result};
use crate::interner::{Interner, Symbol};
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// The space of attribute pairs `Ω = attrs(R) × attrs(P)`.
///
/// Pair `(Ai, Bj)` is addressed by the dense index `i·m + j` where `m` is the
/// arity of `P`. Join predicates are [`BitSet`]s of capacity [`PairSpace::len`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSpace {
    n: usize,
    m: usize,
}

impl PairSpace {
    /// Creates the pair space for relations of arity `n` (R) and `m` (P).
    pub fn new(n: usize, m: usize) -> Self {
        PairSpace { n, m }
    }

    /// Arity of `R`.
    pub fn arity_r(&self) -> usize {
        self.n
    }

    /// Arity of `P`.
    pub fn arity_p(&self) -> usize {
        self.m
    }

    /// `|Ω| = n·m`.
    pub fn len(&self) -> usize {
        self.n * self.m
    }

    /// Whether Ω is empty (one of the relations has arity 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense index of the pair `(Ai, Bj)`.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n && j < self.m);
        i * self.m + j
    }

    /// Inverse of [`PairSpace::index`].
    #[inline]
    pub fn decode(&self, k: usize) -> (usize, usize) {
        debug_assert!(k < self.len());
        (k / self.m, k % self.m)
    }

    /// The full predicate Ω (the most specific join predicate).
    pub fn omega(&self) -> BitSet {
        BitSet::full(self.len())
    }

    /// Computes `T(t)` for a product tuple given as two raw interned-symbol
    /// rows (the [`crate::interner::Symbol`] indices), without going through
    /// an [`Instance`]. Same dense layout and semantics as
    /// [`Instance::signature_into`]; `out` is cleared first.
    ///
    /// This is the delta-maintenance primitive: incremental universe
    /// updates pair an edited row against opposite-side profile
    /// representatives held outside any materialized relation.
    pub fn signature_of_into(&self, r: &[u32], p: &[u32], out: &mut BitSet) {
        debug_assert_eq!(r.len(), self.n);
        debug_assert_eq!(p.len(), self.m);
        debug_assert_eq!(out.capacity(), self.len());
        for w in out.words_mut() {
            *w = 0;
        }
        for (i, &vr) in r.iter().enumerate() {
            for (j, &vp) in p.iter().enumerate() {
                if vr == vp {
                    out.insert(self.index(i, j));
                }
            }
        }
    }

    /// The empty predicate ∅ (the most general join predicate).
    pub fn bottom(&self) -> BitSet {
        BitSet::empty(self.len())
    }
}

/// A database instance `I = (Rᴵ, Pᴵ)` with a shared interner.
///
/// Each relation sits behind its own [`Arc`]: cloning an instance shares
/// both, and a write ([`Instance::push_symbol_row`],
/// [`Instance::overwrite_symbol_row`]) copies only the side it changes.
#[derive(Debug, Clone)]
pub struct Instance {
    interner: Arc<Interner>,
    r: Arc<Relation>,
    p: Arc<Relation>,
    pairs: PairSpace,
}

impl Instance {
    /// Assembles an instance from two relations that were interned through
    /// `interner`. Fails if the attribute sets overlap (the paper assumes
    /// `attrs(R) ∩ attrs(P) = ∅`).
    pub fn new(interner: Arc<Interner>, r: Relation, p: Relation) -> Result<Self> {
        for a in r.schema().attrs() {
            if p.schema().attrs().contains(a) {
                return Err(RelationError::OverlappingAttributes {
                    attribute: a.clone(),
                });
            }
        }
        let pairs = PairSpace::new(r.schema().arity(), p.schema().arity());
        Ok(Instance {
            interner,
            r: Arc::new(r),
            p: Arc::new(p),
            pairs,
        })
    }

    /// The shared value interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// A clone of the interner handle (shared with streaming producers).
    pub fn interner_handle(&self) -> Arc<Interner> {
        Arc::clone(&self.interner)
    }

    /// Relation `R`.
    pub fn r(&self) -> &Relation {
        &self.r
    }

    /// Relation `P`.
    pub fn p(&self) -> &Relation {
        &self.p
    }

    /// The attribute-pair space Ω.
    pub fn pairs(&self) -> PairSpace {
        self.pairs
    }

    /// Dense pair index for `(Ai, Bj)` by position.
    pub fn pair_index(&self, i: usize, j: usize) -> usize {
        self.pairs.index(i, j)
    }

    /// Dense pair index for `(a, b)` by attribute name.
    pub fn pair_index_by_name(&self, a: &str, b: &str) -> Result<usize> {
        let i = self.r.schema().attr_index(a)?;
        let j = self.p.schema().attr_index(b)?;
        Ok(self.pairs.index(i, j))
    }

    /// Human-readable name of pair index `k`, e.g. `"Flight.To=Hotel.City"`.
    pub fn pair_name(&self, k: usize) -> String {
        let (i, j) = self.pairs.decode(k);
        format!(
            "{}.{}={}.{}",
            self.r.schema().name(),
            self.r.schema().attr_name(i),
            self.p.schema().name(),
            self.p.schema().attr_name(j)
        )
    }

    /// Formats a predicate bit set as a set of named equalities.
    pub fn predicate_string(&self, theta: &BitSet) -> String {
        if theta.is_empty() {
            return "{}".to_string();
        }
        let parts: Vec<String> = theta.iter().map(|k| self.pair_name(k)).collect();
        format!("{{{}}}", parts.join(" ∧ "))
    }

    /// `|D| = |R| · |P|`, the size of the Cartesian product.
    pub fn product_size(&self) -> u64 {
        self.r.len() as u64 * self.p.len() as u64
    }

    /// Computes `T(t)` for the product tuple `t = (R[ri], P[pi])`:
    /// the set of attribute pairs on which the two tuples agree.
    pub fn signature(&self, ri: usize, pi: usize) -> BitSet {
        let mut sig = self.pairs.bottom();
        self.signature_into(ri, pi, &mut sig);
        sig
    }

    /// Like [`Instance::signature`] but reuses `out` (cleared first).
    pub fn signature_into(&self, ri: usize, pi: usize, out: &mut BitSet) {
        debug_assert_eq!(out.capacity(), self.pairs.len());
        out.words_mut().fill(0);
        let tr = &self.r.rows()[ri];
        let tp = &self.p.rows()[pi];
        for i in 0..self.pairs.n {
            let vr = tr.get(i);
            for j in 0..self.pairs.m {
                if vr == tp.get(j) {
                    out.insert(self.pairs.index(i, j));
                }
            }
        }
    }

    /// Whether product tuple `(ri, pi)` is selected by `theta`,
    /// i.e. `θ ⊆ T(t)`.
    pub fn selects(&self, theta: &BitSet, ri: usize, pi: usize) -> bool {
        let tr = &self.r.rows()[ri];
        let tp = &self.p.rows()[pi];
        theta.iter().all(|k| {
            let (i, j) = self.pairs.decode(k);
            tr.get(i) == tp.get(j)
        })
    }

    /// Evaluates the equijoin `R ⋈θ P`, returning row-index pairs.
    pub fn equijoin(&self, theta: &BitSet) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for ri in 0..self.r.len() {
            for pi in 0..self.p.len() {
                if self.selects(theta, ri, pi) {
                    out.push((ri, pi));
                }
            }
        }
        out
    }

    /// Evaluates the semijoin `R ⋉θ P`, returning R-row indices.
    pub fn semijoin(&self, theta: &BitSet) -> Vec<usize> {
        let mut out = Vec::new();
        for ri in 0..self.r.len() {
            if (0..self.p.len()).any(|pi| self.selects(theta, ri, pi)) {
                out.push(ri);
            }
        }
        out
    }

    /// The symbols occurring in **both** relations — the only values that
    /// can contribute a bit to any signature `T(t)`. Computed by
    /// intersecting the two relations' interned symbol sets; capacity is
    /// the interner's current size.
    pub fn shared_symbols(&self) -> BitSet {
        let cap = self.interner.len();
        let mut set = self.r.symbol_set(cap);
        set.intersect_with(&self.p.symbol_set(cap));
        set
    }

    /// Appends an already-interned row of raw symbol ids to `side`,
    /// returning the new row's index within that relation. Arity-checked.
    ///
    /// Delta maintenance appends the representative row of each
    /// newly-created join profile here, so class representatives always
    /// point at materialized instance rows.
    pub fn push_symbol_row(&mut self, side: crate::stream::Side, syms: &[u32]) -> Result<usize> {
        let rel = Arc::make_mut(match side {
            crate::stream::Side::R => &mut self.r,
            crate::stream::Side::P => &mut self.p,
        });
        let tuple = Tuple::new(syms.iter().map(|&s| Symbol(s)).collect::<Vec<_>>());
        rel.push_tuple(tuple)?;
        Ok(rel.len() - 1)
    }

    /// Overwrites row `index` of `side` with raw symbol ids (arity- and
    /// bounds-checked). Used when a join profile's representative row is
    /// deleted but the profile survives: the instance row is repointed at a
    /// surviving row of the same profile, which provably preserves every
    /// signature computed against it.
    pub fn overwrite_symbol_row(
        &mut self,
        side: crate::stream::Side,
        index: usize,
        syms: &[u32],
    ) -> Result<()> {
        let tuple = Tuple::new(syms.iter().map(|&s| Symbol(s)).collect::<Vec<_>>());
        let rel = match side {
            crate::stream::Side::R => &mut self.r,
            crate::stream::Side::P => &mut self.p,
        };
        Arc::make_mut(rel).overwrite_row(index, tuple)
    }

    /// Iterates over all product tuples as `(ri, pi)` pairs.
    pub fn product(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let pl = self.p.len();
        (0..self.r.len()).flat_map(move |ri| (0..pl).map(move |pi| (ri, pi)))
    }

    /// Resolves a product tuple into its concatenated values (for display).
    pub fn product_tuple_values(&self, ri: usize, pi: usize) -> Vec<Value> {
        let mut vs = self.r.rows()[ri].resolve(&self.interner);
        vs.extend(self.p.rows()[pi].resolve(&self.interner));
        vs
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Instance[{} ({} rows) × {} ({} rows), |Ω|={}]",
            self.r.schema(),
            self.r.len(),
            self.p.schema(),
            self.p.len(),
            self.pairs.len()
        )
    }
}

/// Builder assembling an [`Instance`] step by step.
///
/// ```
/// use jqi_relation::{InstanceBuilder, Value};
/// let mut b = InstanceBuilder::new();
/// b.relation_r("R", &["A1", "A2"]);
/// b.relation_p("P", &["B1"]);
/// b.row_r(&[Value::int(0), Value::int(1)]);
/// b.row_p(&[Value::int(1)]);
/// let inst = b.build().unwrap();
/// assert_eq!(inst.product_size(), 1);
/// ```
#[derive(Default)]
pub struct InstanceBuilder {
    interner: Arc<Interner>,
    r: Option<Relation>,
    p: Option<Relation>,
    error: Option<RelationError>,
}

impl InstanceBuilder {
    /// Starts an empty builder with a fresh interner.
    pub fn new() -> Self {
        Self::default()
    }

    fn record<T>(&mut self, r: Result<T>) {
        if let (Err(e), None) = (r, &self.error) {
            self.error = Some(e);
        }
    }

    /// Declares relation `R`.
    pub fn relation_r(&mut self, name: &str, attrs: &[&str]) -> &mut Self {
        match crate::schema::Schema::new(name, attrs) {
            Ok(s) => self.r = Some(Relation::new(s)),
            Err(e) => self.record::<()>(Err(e)),
        }
        self
    }

    /// Declares relation `P`.
    pub fn relation_p(&mut self, name: &str, attrs: &[&str]) -> &mut Self {
        match crate::schema::Schema::new(name, attrs) {
            Ok(s) => self.p = Some(Relation::new(s)),
            Err(e) => self.record::<()>(Err(e)),
        }
        self
    }

    /// Appends a row to `R`.
    pub fn row_r(&mut self, values: &[Value]) -> &mut Self {
        match (&mut self.r, &self.error) {
            (Some(rel), None) => {
                let res = rel.push_row(&self.interner, values);
                self.record(res);
            }
            (None, None) => self.error = Some(RelationError::MissingRelation { which: "R" }),
            _ => {}
        }
        self
    }

    /// Appends a row to `P`.
    pub fn row_p(&mut self, values: &[Value]) -> &mut Self {
        match (&mut self.p, &self.error) {
            (Some(rel), None) => {
                let res = rel.push_row(&self.interner, values);
                self.record(res);
            }
            (None, None) => self.error = Some(RelationError::MissingRelation { which: "P" }),
            _ => {}
        }
        self
    }

    /// Appends an integer row to `R`.
    pub fn row_r_ints(&mut self, values: &[i64]) -> &mut Self {
        let vals: Vec<Value> = values.iter().map(|&i| Value::Int(i)).collect();
        self.row_r(&vals)
    }

    /// Appends an integer row to `P`.
    pub fn row_p_ints(&mut self, values: &[i64]) -> &mut Self {
        let vals: Vec<Value> = values.iter().map(|&i| Value::Int(i)).collect();
        self.row_p(&vals)
    }

    /// Finishes, returning the instance or the first recorded error.
    pub fn build(self) -> Result<Instance> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let r = self
            .r
            .ok_or(RelationError::MissingRelation { which: "R" })?;
        let p = self
            .p
            .ok_or(RelationError::MissingRelation { which: "P" })?;
        Instance::new(self.interner, r, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{profile_key, PROFILE_HOLE};

    /// The instance of Example 2.1 of the paper.
    pub(crate) fn example_2_1() -> Instance {
        let mut b = InstanceBuilder::new();
        b.relation_r("R0", &["A1", "A2"]);
        b.relation_p("P0", &["B1", "B2", "B3"]);
        b.row_r_ints(&[0, 1]); // t1
        b.row_r_ints(&[0, 2]); // t2
        b.row_r_ints(&[2, 2]); // t3
        b.row_r_ints(&[1, 0]); // t4
        b.row_p_ints(&[1, 1, 0]); // t1'
        b.row_p_ints(&[0, 1, 2]); // t2'
        b.row_p_ints(&[2, 0, 0]); // t3'
        b.build().unwrap()
    }

    #[test]
    fn pair_space_round_trip() {
        let ps = PairSpace::new(3, 5);
        assert_eq!(ps.len(), 15);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(ps.decode(ps.index(i, j)), (i, j));
            }
        }
    }

    #[test]
    fn signature_into_reuses_the_buffer() {
        let inst = example_2_1();
        let mut out = inst.signature(0, 0);
        let words = out.words().as_ptr();
        inst.signature_into(2, 0, &mut out);
        assert_eq!(out.words().as_ptr(), words, "signature_into reallocated");
        assert_eq!(out, inst.signature(2, 0));
    }

    #[test]
    fn example_2_1_signatures_match_figure_3() {
        let inst = example_2_1();
        let ps = inst.pairs();
        // Figure 3 of the paper, first rows:
        // T(t1,t1') = {(A1,B3),(A2,B1),(A2,B2)}
        let sig = inst.signature(0, 0);
        let expect = BitSet::from_iter(ps.len(), [ps.index(0, 2), ps.index(1, 0), ps.index(1, 1)]);
        assert_eq!(sig, expect);
        // T(t3,t1') = ∅
        assert!(inst.signature(2, 0).is_empty());
        // T(t2,t2') = {(A1,B1),(A2,B3)}
        let sig = inst.signature(1, 1);
        let expect = BitSet::from_iter(ps.len(), [ps.index(0, 0), ps.index(1, 2)]);
        assert_eq!(sig, expect);
    }

    #[test]
    fn example_2_1_joins_match_paper() {
        let inst = example_2_1();
        let ps = inst.pairs();
        // θ1 = {(A1,B1),(A2,B3)} → {(t2,t2'),(t4,t1')}
        let theta1 = BitSet::from_iter(ps.len(), [ps.index(0, 0), ps.index(1, 2)]);
        assert_eq!(inst.equijoin(&theta1), vec![(1, 1), (3, 0)]);
        assert_eq!(inst.semijoin(&theta1), vec![1, 3]);
        // θ2 = {(A2,B2)} → {(t1,t1'),(t1,t2'),(t4,t3')}
        let theta2 = BitSet::from_iter(ps.len(), [ps.index(1, 1)]);
        assert_eq!(inst.equijoin(&theta2), vec![(0, 0), (0, 1), (3, 2)]);
        assert_eq!(inst.semijoin(&theta2), vec![0, 3]);
        // θ3 = {(A2,B1),(A2,B2),(A2,B3)} → ∅
        let theta3 = BitSet::from_iter(ps.len(), [ps.index(1, 0), ps.index(1, 1), ps.index(1, 2)]);
        assert!(inst.equijoin(&theta3).is_empty());
        assert!(inst.semijoin(&theta3).is_empty());
    }

    #[test]
    fn empty_theta_selects_everything() {
        let inst = example_2_1();
        let theta = inst.pairs().bottom();
        assert_eq!(inst.equijoin(&theta).len() as u64, inst.product_size());
    }

    #[test]
    fn anti_monotonicity() {
        // θ1 ⊆ θ2 implies R ⋈θ2 P ⊆ R ⋈θ1 P  (paper §2).
        let inst = example_2_1();
        let ps = inst.pairs();
        let theta1 = BitSet::from_iter(ps.len(), [ps.index(0, 0)]);
        let theta2 = BitSet::from_iter(ps.len(), [ps.index(0, 0), ps.index(1, 2)]);
        let j1 = inst.equijoin(&theta1);
        let j2 = inst.equijoin(&theta2);
        assert!(j2.iter().all(|t| j1.contains(t)));
    }

    #[test]
    fn overlapping_attributes_rejected() {
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A", "X"]);
        b.relation_p("P", &["X"]);
        let e = b.build().unwrap_err();
        assert!(matches!(e, RelationError::OverlappingAttributes { .. }));
    }

    #[test]
    fn missing_relation_rejected() {
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        let e = b.build().unwrap_err();
        assert!(matches!(e, RelationError::MissingRelation { which: "P" }));
    }

    #[test]
    fn builder_surfaces_row_errors() {
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        b.row_r_ints(&[1, 2]); // wrong arity
        let e = b.build().unwrap_err();
        assert!(matches!(e, RelationError::ArityMismatch { .. }));
    }

    #[test]
    fn shared_symbols_and_profiles() {
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A1", "A2"]);
        b.relation_p("P", &["B1"]);
        b.row_r_ints(&[1, 7]); // 7 never occurs in P
        b.row_r_ints(&[1, 9]); // 9 never occurs in P
        b.row_r_ints(&[2, 1]);
        b.row_p_ints(&[1]);
        b.row_p_ints(&[2]);
        let inst = b.build().unwrap();
        let shared = inst.shared_symbols();
        // Shared values are {1, 2}; 7 and 9 are R-only.
        assert_eq!(shared.len(), 2);
        // Rows 0 and 1 differ only in an unmatchable symbol → same profile.
        let key = |ri: usize| profile_key(&inst.r().rows()[ri], &shared);
        let (k0, k1, k2) = (key(0), key(1), key(2));
        assert_eq!(k0, k1);
        assert_ne!(k0, k2);
        assert_eq!(k0[1], PROFILE_HOLE);
        // Equal profiles ⇒ equal signatures against every P-row.
        for pi in 0..inst.p().len() {
            assert_eq!(inst.signature(0, pi), inst.signature(1, pi));
        }
    }

    #[test]
    fn predicate_display() {
        let inst = example_2_1();
        let ps = inst.pairs();
        let theta = BitSet::from_iter(ps.len(), [ps.index(0, 0), ps.index(1, 2)]);
        assert_eq!(inst.predicate_string(&theta), "{R0.A1=P0.B1 ∧ R0.A2=P0.B3}");
        assert_eq!(inst.predicate_string(&ps.bottom()), "{}");
    }

    #[test]
    fn selects_agrees_with_signature_subset() {
        let inst = example_2_1();
        let ps = inst.pairs();
        let theta = BitSet::from_iter(ps.len(), [ps.index(0, 0)]);
        for (ri, pi) in inst.product() {
            let sig = inst.signature(ri, pi);
            assert_eq!(inst.selects(&theta, ri, pi), theta.is_subset(&sig));
        }
    }
}
