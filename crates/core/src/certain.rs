//! Certain and uninformative tuples (§3.4).
//!
//! A tuple is *uninformative* w.r.t. a sample `S` if labeling it cannot
//! shrink the set `C(S)` of consistent predicates. The paper proves
//! (Lemma 3.2) that the uninformative examples are exactly the *certain*
//! ones, which admit goal-independent PTIME characterizations:
//!
//! * **Lemma 3.3** — `t ∈ Cert⁺(S)` iff `T(S⁺) ⊆ T(t)`.
//! * **Lemma 3.4** — `t ∈ Cert⁻(S)` iff `∃ t′ ∈ S⁻ : T(S⁺) ∩ T(t) ⊆ T(t′)`.
//!
//! Together these give Theorem 3.5: testing informativeness is in PTIME.
//! This module also provides the *uninformative-tuple count* (each class
//! weighted by its multiplicity, as Figure 5 counts tuples of `R × P`) that
//! the lookahead strategies' entropy computation (§4.4) is built on.

use crate::sample::{Label, Sample};
use crate::universe::{ClassId, Universe};

/// Lemma 3.3: class `c` is certainly selected by every consistent predicate.
#[inline]
pub fn is_certain_positive(universe: &Universe, sample: &Sample, c: ClassId) -> bool {
    sample.t_pos().is_subset(universe.sig(c))
}

/// Lemma 3.4: class `c` is certainly rejected by every consistent predicate.
#[inline]
pub fn is_certain_negative(universe: &Universe, sample: &Sample, c: ClassId) -> bool {
    let tpos = sample.t_pos();
    let sig = universe.sig(c);
    sample
        .negatives()
        .iter()
        .any(|&g| tpos.intersection_is_subset(sig, universe.sig(g)))
}

/// The certain label of class `c`, if any.
pub fn certain_label(universe: &Universe, sample: &Sample, c: ClassId) -> Option<Label> {
    if is_certain_positive(universe, sample, c) {
        Some(Label::Positive)
    } else if is_certain_negative(universe, sample, c) {
        Some(Label::Negative)
    } else {
        None
    }
}

/// A tuple is *informative* iff it is unlabeled and not certain (§3.4).
#[inline]
pub fn is_informative(universe: &Universe, sample: &Sample, c: ClassId) -> bool {
    sample.label(c).is_none()
        && !is_certain_positive(universe, sample, c)
        && !is_certain_negative(universe, sample, c)
}

/// All informative classes, in class-id order (deterministic).
pub fn informative_classes(universe: &Universe, sample: &Sample) -> Vec<ClassId> {
    (0..universe.num_classes())
        .filter(|&c| is_informative(universe, sample, c))
        .collect()
}

/// Whether any informative tuple remains — the negation of the halt
/// condition Γ of Algorithm 1.
pub fn any_informative(universe: &Universe, sample: &Sample) -> bool {
    (0..universe.num_classes()).any(|c| is_informative(universe, sample, c))
}

/// Weighted count of uninformative tuples: each class counts with its
/// multiplicity, as in Figure 5 of the paper, where `u⁺`/`u⁻` count tuples
/// of the Cartesian product.
///
/// For a labeled class, the labeled representative itself is *not* counted
/// (it is part of `S`, not of `Uninf(S)` as used by Figure 5), but the
/// remaining `count − 1` tuples of its class are: they are certain.
/// For an unlabeled certain class the whole class counts.
///
/// The entropy quantities `u^α_{t,S} = |Uninf(S ∪ {(t,α)}) \ Uninf(S)|`
/// are computed as differences of this function, which is valid because
/// uninformativeness is monotone in `S` for consistent samples.
pub fn uninformative_count(universe: &Universe, sample: &Sample) -> u64 {
    let mut total = 0u64;
    for c in 0..universe.num_classes() {
        let weight = universe.count(c);
        if sample.label(c).is_some() {
            // The labeled tuple itself is an example, not an uninformative
            // tuple; its classmates are uninformative.
            total += weight.saturating_sub(1);
        } else if is_certain_positive(universe, sample, c)
            || is_certain_negative(universe, sample, c)
        {
            total += weight;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_2_1;
    use crate::sample::Label;
    use crate::universe::Universe;

    fn class_of(u: &Universe, ri: usize, pi: usize) -> ClassId {
        u.class_of(ri, pi).unwrap()
    }

    /// §3.4's example: with goal θG = {(A2,B3)} and S = {((t2,t2'),+),
    /// ((t1,t3'),−)}, the examples ((t4,t1'),+) and ((t2,t1'),−) are
    /// uninformative.
    #[test]
    fn section_3_4_uninformative_examples() {
        let u = Universe::build(example_2_1());
        let mut s = crate::Sample::new(&u);
        s.add(&u, class_of(&u, 1, 1), Label::Positive).unwrap();
        s.add(&u, class_of(&u, 0, 2), Label::Negative).unwrap();
        assert!(s.is_consistent(&u));
        // (t4,t1') has T = {(A1,B1),(A1,B2),(A2,B3)} ⊇ T(S⁺) = {(A1,B1),(A2,B3)}.
        let c41 = class_of(&u, 3, 0);
        assert!(is_certain_positive(&u, &s, c41));
        assert_eq!(certain_label(&u, &s, c41), Some(Label::Positive));
        // (t2,t1') has T = {(A1,B3)}; T(S⁺) ∩ T = ∅ ⊆ T(t1,t3') = {(A1,B2),(A1,B3)}.
        let c21 = class_of(&u, 1, 0);
        assert!(is_certain_negative(&u, &s, c21));
        assert_eq!(certain_label(&u, &s, c21), Some(Label::Negative));
        assert!(!is_informative(&u, &s, c41));
        assert!(!is_informative(&u, &s, c21));
    }

    #[test]
    fn empty_sample_everything_informative_unless_omega_signature() {
        let u = Universe::build(example_2_1());
        let s = crate::Sample::new(&u);
        // Example 2.1 has no tuple with T = Ω, so all 12 classes are informative.
        assert_eq!(informative_classes(&u, &s).len(), 12);
        assert!(any_informative(&u, &s));
        assert_eq!(uninformative_count(&u, &s), 0);
    }

    #[test]
    fn omega_signature_tuple_is_never_informative() {
        use jqi_relation::{InstanceBuilder, Value};
        // A product tuple with all values equal has T = Ω: every predicate
        // selects it, so even with an empty sample it is certain-positive.
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        b.row_r(&[Value::int(5)]);
        b.row_p(&[Value::int(5)]);
        let u = Universe::build(b.build().unwrap());
        let s = crate::Sample::new(&u);
        assert!(is_certain_positive(&u, &s, 0));
        assert!(!is_informative(&u, &s, 0));
        assert!(!any_informative(&u, &s));
    }

    #[test]
    fn labeling_a_class_makes_it_uninformative() {
        let u = Universe::build(example_2_1());
        let mut s = crate::Sample::new(&u);
        let c = class_of(&u, 0, 0);
        assert!(is_informative(&u, &s, c));
        s.add(&u, c, Label::Positive).unwrap();
        assert!(!is_informative(&u, &s, c));
    }

    /// Lemma 3.2 (Uninf = Cert) checked semantically on the small instance:
    /// a class is certain iff every predicate consistent with S gives it the
    /// same membership status, enumerated by brute force over P(Ω).
    #[test]
    fn certain_matches_brute_force_enumeration() {
        let u = Universe::build(example_2_1());
        let nbits = u.omega_len();
        assert!(nbits <= 20, "test requires small Ω");
        let mut s = crate::Sample::new(&u);
        s.add(&u, class_of(&u, 1, 1), Label::Positive).unwrap();
        s.add(&u, class_of(&u, 0, 2), Label::Negative).unwrap();

        // Enumerate all θ ⊆ Ω consistent with s.
        let consistent: Vec<jqi_relation::BitSet> = (0u64..(1 << nbits))
            .map(|mask| {
                jqi_relation::BitSet::from_iter(nbits, (0..nbits).filter(|&b| mask >> b & 1 == 1))
            })
            .filter(|theta| s.admits(&u, theta))
            .collect();
        assert!(!consistent.is_empty());

        for c in 0..u.num_classes() {
            let sig = u.sig(c);
            let always_in = consistent.iter().all(|t| t.is_subset(sig));
            let never_in = consistent.iter().all(|t| !t.is_subset(sig));
            assert_eq!(
                is_certain_positive(&u, &s, c),
                always_in,
                "Cert⁺ mismatch for class {c}"
            );
            assert_eq!(
                is_certain_negative(&u, &s, c),
                never_in,
                "Cert⁻ mismatch for class {c}"
            );
        }
    }

    #[test]
    fn uninformative_count_modes() {
        use jqi_relation::{InstanceBuilder, Value};
        // Two R rows with value 1 → the {A=B} class has multiplicity 2.
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        b.row_r(&[Value::int(1)]);
        b.row_r(&[Value::int(1)]);
        b.row_r(&[Value::int(2)]);
        b.row_p(&[Value::int(1)]);
        let u = Universe::build(b.build().unwrap());
        assert_eq!(u.num_classes(), 2);
        let mut s = crate::Sample::new(&u);
        let c_match = (0..2).find(|&c| !u.sig(c).is_empty()).unwrap();
        s.add(&u, c_match, Label::Positive).unwrap();
        // The classmate of the labeled tuple is uninformative (1), and the
        // ∅-class is NOT certain (T(S⁺)={A=B} ⊄ ∅, no negatives).
        assert_eq!(uninformative_count(&u, &s), 1);
    }
}
