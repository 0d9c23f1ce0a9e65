//! Integration tests pinning every worked example of the paper:
//! Figures 1–5, Examples 2.1/3.1/3.3, the §3.4 and §4.3/§4.4 walkthroughs.

use join_query_inference::core::certain::{certain_label, informative_classes};
use join_query_inference::core::entropy::{entropy, entropy2, Entropy};
use join_query_inference::core::lattice::{join_ratio, LatticeStats};
use join_query_inference::core::paper::{example_2_1, example_3_3, flight_hotel, pair};
use join_query_inference::prelude::*;

fn class(u: &Universe, figure_3_pair: (usize, usize)) -> usize {
    let (i, j) = figure_3_pair;
    u.class_of(i, j).expect("every product tuple has a class")
}

/// Figure 2: the Cartesian product of Flight × Hotel has twelve tuples; Q1
/// and Q2 of the introduction select {3,4,8,10} and {3,4} respectively, and
/// tuple (8) distinguishes them.
#[test]
fn figures_1_and_2() {
    let inst = flight_hotel();
    assert_eq!(inst.product_size(), 12);
    let q1 = predicate_from_names(&inst, &[("To", "City")]).unwrap();
    let q2 = predicate_from_names(&inst, &[("To", "City"), ("Airline", "Discount")]).unwrap();
    // Figure 2 numbering: tuple k = (row k) of the product in row-major
    // order, 1-based: (ri, pi) = ((k-1)/3, (k-1)%3).
    let tuple = |k: usize| ((k - 1) / 3, (k - 1) % 3);
    let j1 = inst.equijoin(&q1);
    let j2 = inst.equijoin(&q2);
    assert_eq!(j1, vec![tuple(3), tuple(4), tuple(8), tuple(10)]);
    assert_eq!(j2, vec![tuple(3), tuple(4)]);
    // Labeling (3) + keeps both queries consistent; (8) separates them.
    assert!(j1.contains(&tuple(3)) && j2.contains(&tuple(3)));
    assert!(j1.contains(&tuple(8)) && !j2.contains(&tuple(8)));
}

/// Example 2.1: the three joins computed in the paper.
#[test]
fn example_2_1_joins() {
    let inst = example_2_1();
    let theta1 = predicate_from_names(&inst, &[("A1", "B1"), ("A2", "B3")]).unwrap();
    let theta2 = predicate_from_names(&inst, &[("A2", "B2")]).unwrap();
    let theta3 = predicate_from_names(&inst, &[("A2", "B1"), ("A2", "B2"), ("A2", "B3")]).unwrap();
    assert_eq!(inst.equijoin(&theta1), vec![pair(2, 2), pair(4, 1)]);
    assert_eq!(inst.semijoin(&theta1), vec![1, 3]);
    assert_eq!(
        inst.equijoin(&theta2),
        vec![pair(1, 1), pair(1, 2), pair(4, 3)]
    );
    assert_eq!(inst.semijoin(&theta2), vec![0, 3]);
    assert!(inst.equijoin(&theta3).is_empty());
    assert!(inst.semijoin(&theta3).is_empty());
}

/// Figure 3: all twelve signatures, transcribed.
#[test]
fn figure_3_signatures() {
    let inst = example_2_1();
    let sig = |i: usize, j: usize, pairs: &[(&str, &str)]| {
        let expect = predicate_from_names(&inst, pairs).unwrap();
        let (ri, pi) = pair(i, j);
        assert_eq!(inst.signature(ri, pi), expect, "T(t{i},t{j}')");
    };
    sig(1, 1, &[("A1", "B3"), ("A2", "B1"), ("A2", "B2")]);
    sig(1, 2, &[("A1", "B1"), ("A2", "B2")]);
    sig(1, 3, &[("A1", "B2"), ("A1", "B3")]);
    sig(2, 1, &[("A1", "B3")]);
    sig(2, 2, &[("A1", "B1"), ("A2", "B3")]);
    sig(2, 3, &[("A1", "B2"), ("A1", "B3"), ("A2", "B1")]);
    sig(3, 1, &[]);
    sig(3, 2, &[("A1", "B3"), ("A2", "B3")]);
    sig(3, 3, &[("A1", "B1"), ("A2", "B1")]);
    sig(4, 1, &[("A1", "B1"), ("A1", "B2"), ("A2", "B3")]);
    sig(4, 2, &[("A1", "B2"), ("A2", "B1")]);
    sig(4, 3, &[("A2", "B2"), ("A2", "B3")]);
}

/// Example 3.1: S0 is consistent with most specific predicate θ0; S0' is
/// inconsistent.
#[test]
fn example_3_1_consistency() {
    let inst = example_2_1();
    let universe = Universe::build(inst);
    let mut s0 = Sample::new(&universe);
    s0.add(&universe, class(&universe, pair(2, 2)), Label::Positive)
        .unwrap();
    s0.add(&universe, class(&universe, pair(4, 1)), Label::Positive)
        .unwrap();
    s0.add(&universe, class(&universe, pair(3, 2)), Label::Negative)
        .unwrap();
    let theta0 = s0.check_consistent(&universe).expect("S0 is consistent");
    let expect = predicate_from_names(universe.instance(), &[("A1", "B1"), ("A2", "B3")]).unwrap();
    assert_eq!(theta0, expect);

    let mut s0p = Sample::new(&universe);
    s0p.add(&universe, class(&universe, pair(1, 2)), Label::Positive)
        .unwrap();
    s0p.add(&universe, class(&universe, pair(1, 3)), Label::Positive)
        .unwrap();
    s0p.add(&universe, class(&universe, pair(3, 1)), Label::Negative)
        .unwrap();
    assert!(!s0p.is_consistent(&universe));
}

/// §3.3: the single-tuple instance returns an instance-equivalent (not
/// syntactically equal) predicate.
#[test]
fn section_3_3_instance_equivalence() {
    let inst = example_3_3();
    let goal = predicate_from_names(&inst, &[("A1", "B1")]).unwrap();
    let universe = Universe::build(inst);
    let mut oracle = PredicateOracle::new(goal.clone());
    let run = run_inference(&universe, &mut BottomUp::new(), &mut oracle).unwrap();
    // T(S⁺) = {(A1,B1),(A2,B1)} ⊋ θG, yet equivalent over the instance.
    assert_eq!(run.predicate.len(), 2);
    assert!(goal.is_subset(&run.predicate));
    assert_eq!(
        universe.instance().equijoin(&run.predicate),
        universe.instance().equijoin(&goal)
    );
}

/// §3.4's uninformative examples with goal {(A2,B3)}.
#[test]
fn section_3_4_uninformative() {
    let universe = Universe::build(example_2_1());
    let mut s = Sample::new(&universe);
    s.add(&universe, class(&universe, pair(2, 2)), Label::Positive)
        .unwrap();
    s.add(&universe, class(&universe, pair(1, 3)), Label::Negative)
        .unwrap();
    assert_eq!(
        certain_label(&universe, &s, class(&universe, pair(4, 1))),
        Some(Label::Positive)
    );
    assert_eq!(
        certain_label(&universe, &s, class(&universe, pair(2, 1))),
        Some(Label::Negative)
    );
}

/// §5.3: Example 2.1's join ratio is 2 (1 signature of size 0, 1 of size 1,
/// 7 of size 2, 3 of size 3).
#[test]
fn section_5_3_join_ratio() {
    let universe = Universe::build(example_2_1());
    assert_eq!(join_ratio(&universe), 2.0);
    let stats = LatticeStats::of(&universe);
    assert_eq!(stats.size_histogram, vec![1, 1, 7, 3]);
}

/// §4.3 walkthrough: BU asks (t3,t1') first; on the lattice of Figure 4,
/// labeling (t1,t3') positive renders (t2,t3') uninformative, labeling it
/// negative renders (t2,t1') and (t3,t1') uninformative.
#[test]
fn section_4_3_lattice_pruning() {
    let universe = Universe::build(example_2_1());
    // Positive case.
    let mut sp = Sample::new(&universe);
    sp.add(&universe, class(&universe, pair(1, 3)), Label::Positive)
        .unwrap();
    assert_eq!(
        certain_label(&universe, &sp, class(&universe, pair(2, 3))),
        Some(Label::Positive),
        "(t2,t3') ⊇ {{(A1,B2),(A1,B3)}} becomes certain-positive"
    );
    // Negative case.
    let mut sn = Sample::new(&universe);
    sn.add(&universe, class(&universe, pair(1, 3)), Label::Negative)
        .unwrap();
    assert_eq!(
        certain_label(&universe, &sn, class(&universe, pair(2, 1))),
        Some(Label::Negative)
    );
    assert_eq!(
        certain_label(&universe, &sn, class(&universe, pair(3, 1))),
        Some(Label::Negative)
    );
}

/// §4.4's entropy² walkthrough: with S = {((t1,t3'),+), ((t3,t1'),−)},
/// five informative tuples remain and entropy²((t2,t1')) = (3,3).
#[test]
fn section_4_4_entropy2_walkthrough() {
    let universe = Universe::build(example_2_1());
    let mut s = Sample::new(&universe);
    s.add(&universe, class(&universe, pair(1, 3)), Label::Positive)
        .unwrap();
    s.add(&universe, class(&universe, pair(3, 1)), Label::Negative)
        .unwrap();
    let informative = informative_classes(&universe, &s);
    assert_eq!(informative.len(), 5);
    let e2 = entropy2(&universe, &s, class(&universe, pair(2, 1)));
    assert_eq!(e2, Entropy { lo: 3, hi: 3 });
}

/// Figure 5 consistency with Lemma 3.3/3.4 counting: spot-check the
/// unambiguous rows (the (t2,t1') row is corrected, see jqi-core's entropy
/// tests for the full table and the typo discussion).
#[test]
fn figure_5_spot_checks() {
    let universe = Universe::build(example_2_1());
    let s = Sample::new(&universe);
    let e = |p: (usize, usize)| entropy(&universe, &s, class(&universe, p));
    assert_eq!(e(pair(3, 1)), Entropy { lo: 0, hi: 11 }); // the ∅ tuple
    assert_eq!(e(pair(2, 2)), Entropy { lo: 1, hi: 1 });
    assert_eq!(e(pair(2, 3)), Entropy { lo: 0, hi: 4 });
    assert_eq!(e(pair(1, 2)), Entropy { lo: 0, hi: 1 });
}

/// The introduction's promise: positive examples alone cannot separate
/// Q2 ⊆ Q1; a negative example is necessary.
#[test]
fn negative_examples_are_necessary() {
    let inst = flight_hotel();
    let q1 = predicate_from_names(&inst, &[("To", "City")]).unwrap();
    let q2 = predicate_from_names(&inst, &[("To", "City"), ("Airline", "Discount")]).unwrap();
    let universe = Universe::build(inst);
    // Label all of Q2's tuples positive — Q1 remains consistent too.
    let mut s = Sample::new(&universe);
    for (ri, pi) in universe.instance().equijoin(&q2) {
        let c = universe.class_of(ri, pi).unwrap();
        if s.label(c).is_none() {
            s.add(&universe, c, Label::Positive).unwrap();
        }
    }
    assert!(s.admits(&universe, &q1));
    assert!(s.admits(&universe, &q2));
    // Tuple (8) = (NYC,Paris,AA,Paris,None) labeled negative kills Q1.
    let c8 = universe.class_of(2, 1).unwrap();
    s.add(&universe, c8, Label::Negative).unwrap();
    assert!(!s.admits(&universe, &q1));
    assert!(s.admits(&universe, &q2));
}
