//! Tuple entropy, dominance and skylines (§4.4).
//!
//! The *entropy* of an informative tuple `t` w.r.t. a sample `S` is the pair
//! `(min(u⁺,u⁻), max(u⁺,u⁻))` where `u^α` is the number of tuples that
//! become uninformative if `t` is labeled `α`. Lookahead strategies pick the
//! tuple whose entropy sits on the skyline with the best worst case.
//!
//! `entropy2` (Algorithm 5) extends the measure one step further: the
//! quantity of information obtained by labeling `t` *and then any other
//! tuple*, with all counts taken relative to the original sample. The
//! `(∞,∞)` value encodes "labeling `t` with this label ends the inference".
//! [`entropy_k`] generalizes the construction to arbitrary depth.

use crate::certain::{informative_classes, uninformative_count};
use crate::sample::{Label, Sample};
use crate::universe::{ClassId, Universe};

/// The entropy pair `(min(u⁺,u⁻), max(u⁺,u⁻))`. `u64::MAX` encodes ∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Entropy {
    /// `min(u⁺, u⁻)` — the guaranteed information gain.
    pub lo: u64,
    /// `max(u⁺, u⁻)` — the optimistic information gain.
    pub hi: u64,
}

/// The `(∞, ∞)` entropy of Algorithm 5 line 4: labeling the tuple with this
/// label leaves no informative tuple, finishing the inference.
pub const ENTROPY_INF: Entropy = Entropy {
    lo: u64::MAX,
    hi: u64::MAX,
};

impl Entropy {
    /// Normalizes `(u⁺, u⁻)` into a `(min, max)` pair.
    pub fn of(u_pos: u64, u_neg: u64) -> Entropy {
        Entropy {
            lo: u_pos.min(u_neg),
            hi: u_pos.max(u_neg),
        }
    }

    /// §4.4 dominance: `e` dominates `e′` iff `e.lo ≥ e′.lo ∧ e.hi ≥ e′.hi`.
    pub fn dominates(&self, other: &Entropy) -> bool {
        self.lo >= other.lo && self.hi >= other.hi
    }
}

impl std::fmt::Display for Entropy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = |v: u64| {
            if v == u64::MAX {
                "∞".to_string()
            } else {
                v.to_string()
            }
        };
        write!(f, "({},{})", d(self.lo), d(self.hi))
    }
}

/// The skyline of a set of entropies: those not dominated by any *other*
/// entropy value in the set (duplicates collapse to one).
pub fn skyline(entropies: &[Entropy]) -> Vec<Entropy> {
    let mut out: Vec<Entropy> = Vec::new();
    for &e in entropies {
        if out.contains(&e) {
            continue;
        }
        if entropies.iter().any(|o| *o != e && o.dominates(&e)) {
            continue;
        }
        out.push(e);
    }
    out
}

/// Selects per Algorithm 4 lines 2–4: let `m = max{min(e)}`; return the
/// skyline entropy with `min(e) = m`. Among entries with `lo = m` the one
/// with maximal `hi` is never dominated, so it is the skyline witness.
pub fn select_best(entropies: &[(ClassId, Entropy)]) -> Option<(ClassId, Entropy)> {
    let m = entropies.iter().map(|(_, e)| e.lo).max()?;
    entropies
        .iter()
        .filter(|(_, e)| e.lo == m)
        .max_by(|(ca, ea), (cb, eb)| ea.hi.cmp(&eb.hi).then(cb.cmp(ca)))
        .copied()
}

/// `u^α_{t,S}`: how many tuples become uninformative if class `c` is labeled
/// `α` (relative to a precomputed `base = uninformative_count(S)`).
fn gain(universe: &Universe, sample: &Sample, base: u64, c: ClassId, alpha: Label) -> u64 {
    let mut s = sample.clone();
    s.add(universe, c, alpha).expect("class must be unlabeled");
    uninformative_count(universe, &s).saturating_sub(base)
}

/// The one-step entropy of informative class `c` w.r.t. `sample`.
pub fn entropy(universe: &Universe, sample: &Sample, c: ClassId) -> Entropy {
    let base = uninformative_count(universe, sample);
    entropy_with_base(universe, sample, base, c)
}

/// Like [`entropy`] with the base count supplied by the caller (so that
/// computing all entropies shares one base computation).
pub fn entropy_with_base(universe: &Universe, sample: &Sample, base: u64, c: ClassId) -> Entropy {
    let u_pos = gain(universe, sample, base, c, Label::Positive);
    let u_neg = gain(universe, sample, base, c, Label::Negative);
    Entropy::of(u_pos, u_neg)
}

/// Entropies of all informative classes.
pub fn all_entropies(universe: &Universe, sample: &Sample) -> Vec<(ClassId, Entropy)> {
    let base = uninformative_count(universe, sample);
    informative_classes(universe, sample)
        .into_iter()
        .map(|c| (c, entropy_with_base(universe, sample, base, c)))
        .collect()
}

/// Algorithm 5: the two-step entropy of informative class `c`.
pub fn entropy2(universe: &Universe, sample: &Sample, c: ClassId) -> Entropy {
    entropy_k(universe, sample, c, 2)
}

/// The k-step generalization of Algorithm 5 (`entropyᵏ`); `k = 1` is the
/// plain [`entropy`], `k = 2` is Algorithm 5 verbatim. All uninformative
/// counts are relative to the original sample, per lines 8–9.
///
/// Complexity is `O(|classes|^(k−1))` entropy evaluations; the paper uses
/// `k = 2` as "a good trade-off between keeping a relatively low computation
/// time and minimizing the number of interactions".
pub fn entropy_k(universe: &Universe, sample: &Sample, c: ClassId, k: usize) -> Entropy {
    assert!(k >= 1, "lookahead depth must be at least 1");
    let base = uninformative_count(universe, sample);
    entropy_rel(universe, sample, base, c, k)
}

/// Recursive worker: depth-`k` entropy of `c` w.r.t. the *current* sample,
/// with uninformative counts measured against `base` (the original sample's
/// count, per Algorithm 5 lines 8–9).
fn entropy_rel(universe: &Universe, current: &Sample, base: u64, c: ClassId, k: usize) -> Entropy {
    if k == 1 {
        let u_pos = gain(universe, current, base, c, Label::Positive);
        let u_neg = gain(universe, current, base, c, Label::Negative);
        return Entropy::of(u_pos, u_neg);
    }
    let mut per_label: [Entropy; 2] = [ENTROPY_INF; 2];
    for (idx, alpha) in Label::BOTH.into_iter().enumerate() {
        let mut s1 = current.clone();
        s1.add(universe, c, alpha).expect("class must be unlabeled");
        let informative = informative_classes(universe, &s1);
        if informative.is_empty() {
            // Line 4: e_α = (∞, ∞) — labeling ends the inference.
            per_label[idx] = ENTROPY_INF;
            continue;
        }
        let entries: Vec<(ClassId, Entropy)> = informative
            .into_iter()
            .map(|t2| (t2, entropy_rel(universe, &s1, base, t2, k - 1)))
            .collect();
        // Lines 11–12: skyline element with min(e) = max of mins.
        per_label[idx] = select_best(&entries).expect("entries nonempty").1;
    }
    // Lines 13–14: return e_α with the smaller min (worst case over labels).
    if per_label[0].lo <= per_label[1].lo {
        per_label[0]
    } else {
        per_label[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_2_1;
    use crate::universe::Universe;

    fn class_of(u: &Universe, ri: usize, pi: usize) -> ClassId {
        u.class_of(ri, pi).unwrap()
    }

    #[test]
    fn dominance_examples_from_the_paper() {
        // "(1,2) dominates (1,1) and (0,2), but not (2,2) nor (0,3)."
        let e12 = Entropy { lo: 1, hi: 2 };
        assert!(e12.dominates(&Entropy { lo: 1, hi: 1 }));
        assert!(e12.dominates(&Entropy { lo: 0, hi: 2 }));
        assert!(!e12.dominates(&Entropy { lo: 2, hi: 2 }));
        assert!(!e12.dominates(&Entropy { lo: 0, hi: 3 }));
    }

    /// Figure 5: entropies of all 12 tuples of Example 2.1 for the empty
    /// sample.
    ///
    /// One deviation: for (t2,t1') with T = {(A1,B3)} the paper prints
    /// u⁺ = 2, but Lemma 3.3 gives exactly four supersets of {(A1,B3)}
    /// among the signatures of Figure 3 — (t1,t1'), (t1,t3'), (t2,t3') and
    /// (t3,t2') — so u⁺ = 4 and the entropy is (1,4). The paper's own
    /// Algorithm 5 worked example (§4.4) is consistent with our counting
    /// (see `algorithm_5_worked_example`), so we treat the printed 2 as a
    /// typo.
    #[test]
    fn figure_5_entropies() {
        let u = Universe::build(example_2_1());
        let s = crate::Sample::new(&u);
        let expected: Vec<((usize, usize), (u64, u64))> = vec![
            ((0, 0), (0, 2)),
            ((0, 1), (0, 1)),
            ((0, 2), (1, 2)),
            ((1, 0), (1, 4)), // paper prints (1,2); see doc comment
            ((1, 1), (1, 1)),
            ((1, 2), (0, 4)),
            ((2, 0), (0, 11)),
            ((2, 1), (0, 2)),
            ((2, 2), (0, 1)),
            ((3, 0), (0, 2)),
            ((3, 1), (1, 1)),
            ((3, 2), (0, 1)),
        ];
        for ((ri, pi), (lo, hi)) in expected {
            let c = class_of(&u, ri, pi);
            let e = entropy(&u, &s, c);
            assert_eq!(
                (e.lo, e.hi),
                (lo, hi),
                "entropy mismatch for tuple (t{},t{}')",
                ri + 1,
                pi + 1
            );
        }
    }

    /// The paper states the Figure 5 skyline is {(1,2),(0,11)}; with the
    /// corrected (t2,t1') entropy (1,4) — see `figure_5_entropies` — the
    /// skyline is {(1,4),(0,11)}, since (1,4) dominates (1,2).
    #[test]
    fn figure_5_skyline() {
        let u = Universe::build(example_2_1());
        let s = crate::Sample::new(&u);
        let es: Vec<Entropy> = all_entropies(&u, &s).into_iter().map(|(_, e)| e).collect();
        let mut sky = skyline(&es);
        sky.sort_by_key(|e| (e.lo, e.hi));
        assert_eq!(
            sky,
            vec![Entropy { lo: 0, hi: 11 }, Entropy { lo: 1, hi: 4 }]
        );
    }

    /// §4.4: L1S on the empty sample picks a tuple with maximal min-entropy.
    /// The paper names (t1,t3') and (t2,t1') as the candidates; with the
    /// corrected counting, (t2,t1') with entropy (1,4) wins the skyline
    /// tie-break over (t1,t3') with (1,2).
    #[test]
    fn l1s_choice_on_empty_sample() {
        let u = Universe::build(example_2_1());
        let s = crate::Sample::new(&u);
        let entries = all_entropies(&u, &s);
        let (c, e) = select_best(&entries).unwrap();
        assert_eq!(e, Entropy { lo: 1, hi: 4 });
        let (ri, pi) = u.representative(c);
        assert_eq!(
            (ri, pi),
            (1, 0),
            "expected (t2,t1'), got (t{},t{}')",
            ri + 1,
            pi + 1
        );
    }

    /// The worked entropy² example of §4.4: with
    /// S = {((t1,t3'),+), ((t3,t1'),−)}, entropy²((t2,t1')) = (3,3).
    #[test]
    fn algorithm_5_worked_example() {
        let u = Universe::build(example_2_1());
        let mut s = crate::Sample::new(&u);
        s.add(&u, class_of(&u, 0, 2), crate::Label::Positive)
            .unwrap();
        s.add(&u, class_of(&u, 2, 0), crate::Label::Negative)
            .unwrap();
        // Five informative tuples remain: (t1,t1'),(t2,t1'),(t3,t2'),(t4,t1'),(t4,t2').
        let inf = informative_classes(&u, &s);
        let reps: Vec<(usize, usize)> = inf.iter().map(|&c| u.representative(c)).collect();
        let expected = vec![(0, 0), (1, 0), (2, 1), (3, 0), (3, 1)];
        assert_eq!(
            {
                let mut r = reps.clone();
                r.sort();
                r
            },
            expected
        );
        let e2 = entropy2(&u, &s, class_of(&u, 1, 0));
        assert_eq!(e2, Entropy { lo: 3, hi: 3 });
    }

    #[test]
    fn entropy_k1_equals_entropy() {
        let u = Universe::build(example_2_1());
        let s = crate::Sample::new(&u);
        for c in 0..u.num_classes() {
            assert_eq!(entropy(&u, &s, c), entropy_k(&u, &s, c, 1));
        }
    }

    #[test]
    fn skyline_of_equal_entropies_is_singleton() {
        let es = vec![Entropy { lo: 1, hi: 2 }, Entropy { lo: 1, hi: 2 }];
        assert_eq!(skyline(&es), vec![Entropy { lo: 1, hi: 2 }]);
    }

    #[test]
    fn select_best_is_deterministic_lowest_class_wins_ties() {
        let entries = vec![
            (4, Entropy { lo: 1, hi: 3 }),
            (2, Entropy { lo: 1, hi: 3 }),
            (7, Entropy { lo: 0, hi: 9 }),
        ];
        let (c, e) = select_best(&entries).unwrap();
        assert_eq!(e, Entropy { lo: 1, hi: 3 });
        assert_eq!(c, 2, "ties broken toward the smallest class id");
    }

    #[test]
    fn infinite_entropy_display() {
        assert_eq!(ENTROPY_INF.to_string(), "(∞,∞)");
        assert_eq!(Entropy::of(2, 1).to_string(), "(1,2)");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn entropies() -> impl Strategy<Value = Vec<Entropy>> {
            prop::collection::vec(
                (0u64..30, 0u64..30).prop_map(|(a, b)| Entropy::of(a, b)),
                1..25,
            )
        }

        proptest! {
            /// The skyline is an antichain…
            #[test]
            fn skyline_is_an_antichain(es in entropies()) {
                let sky = skyline(&es);
                for (i, a) in sky.iter().enumerate() {
                    for (j, b) in sky.iter().enumerate() {
                        if i != j {
                            prop_assert!(!a.dominates(b) || a == b);
                        }
                    }
                }
            }

            /// …that covers the whole set: every entropy is dominated by
            /// (or equal to) some skyline element.
            #[test]
            fn skyline_covers_everything(es in entropies()) {
                let sky = skyline(&es);
                prop_assert!(!sky.is_empty());
                for e in &es {
                    prop_assert!(
                        sky.iter().any(|s| s.dominates(e)),
                        "{e} not covered"
                    );
                }
            }

            /// select_best returns a skyline element maximizing the min
            /// component.
            #[test]
            fn select_best_is_on_the_skyline(es in entropies()) {
                let entries: Vec<(usize, Entropy)> =
                    es.iter().copied().enumerate().collect();
                let (_, best) = select_best(&entries).expect("nonempty");
                let sky = skyline(&es);
                prop_assert!(sky.contains(&best));
                let max_min = es.iter().map(|e| e.lo).max().expect("nonempty");
                prop_assert_eq!(best.lo, max_min);
            }

            /// Dominance is reflexive and transitive on arbitrary triples.
            #[test]
            fn dominance_is_a_preorder(
                a in (0u64..30, 0u64..30),
                b in (0u64..30, 0u64..30),
                c in (0u64..30, 0u64..30),
            ) {
                let (ea, eb, ec) = (
                    Entropy::of(a.0, a.1),
                    Entropy::of(b.0, b.1),
                    Entropy::of(c.0, c.1),
                );
                prop_assert!(ea.dominates(&ea));
                if ea.dominates(&eb) && eb.dominates(&ec) {
                    prop_assert!(ea.dominates(&ec));
                }
            }
        }
    }
}
