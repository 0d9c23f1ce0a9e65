//! The lattice of join predicates (§4.2) and the join ratio (§5.3).
//!
//! The lattice is `(P(Ω), ⊆)` with `∅` at the bottom (most general) and `Ω`
//! at the top (most specific). A predicate `θ` is *non-nullable* iff it
//! selects at least one tuple, i.e. iff `θ ⊆ T(t)` for some product tuple
//! `t` — equivalently, iff `θ` is a subset of some class signature. The
//! strategies navigate this sub-lattice; this module provides its structure:
//! maximal nodes, enumeration of non-nullable predicates, and the *join
//! ratio*, the paper's instance-complexity measure.

use crate::error::{InferenceError, Result};
use crate::universe::{ClassId, Universe};
use jqi_relation::BitSet;
use std::collections::HashSet;

/// Classes whose signature is `⊆`-maximal among all class signatures.
///
/// These correspond to the `⊆`-maximal non-nullable join predicates the
/// top-down strategy (Algorithm 3, line 2) asks the user to label first.
pub fn maximal_classes(universe: &Universe) -> Vec<ClassId> {
    let all: Vec<ClassId> = (0..universe.num_classes()).collect();
    maximal_among(universe, &all)
}

/// The `⊆`-maximal classes among `classes`, returned in ascending class-id
/// order.
///
/// Size-bucketed scan instead of the former full-pairwise one: a proper
/// subset is strictly smaller, so a candidate only needs testing against
/// strictly larger signatures — and among those, only against the ones
/// already known maximal (domination is transitive: if `T(c) ⊊ T(o)` and
/// `o` is itself dominated, some maximal class dominates `c` too). Buckets
/// are processed in descending size; the largest bucket is maximal outright
/// since distinct equal-size signatures cannot contain one another.
pub fn maximal_among(universe: &Universe, classes: &[ClassId]) -> Vec<ClassId> {
    let mut by_size: Vec<ClassId> = classes.to_vec();
    by_size.sort_by_key(|&c| (std::cmp::Reverse(universe.sig_size(c)), c));
    let mut maximal: Vec<ClassId> = Vec::new();
    let mut i = 0usize;
    while i < by_size.len() {
        let size = universe.sig_size(by_size[i]);
        // Everything currently in `maximal` has strictly larger signature.
        let larger = maximal.len();
        let mut j = i;
        while j < by_size.len() && universe.sig_size(by_size[j]) == size {
            let c = by_size[j];
            let dominated = maximal[..larger]
                .iter()
                // Sizes differ, so plain subset ⇔ proper subset here.
                .any(|&m| universe.sig(c).is_subset(universe.sig(m)));
            if !dominated {
                maximal.push(c);
            }
            j += 1;
        }
        i = j;
    }
    maximal.sort_unstable();
    maximal
}

/// The join ratio of an instance (§5.3): the average size of the distinct
/// most-specific predicates `N = {θ | ∃t ∈ D. T(t) = θ}`.
///
/// Example 2.1 has twelve distinct signatures of sizes
/// `0,1,2×7,3×3`, hence join ratio `(0 + 1 + 7·2 + 3·3)/12 = 2`.
/// Returns `0.0` for an empty product.
pub fn join_ratio(universe: &Universe) -> f64 {
    let n = universe.num_classes();
    if n == 0 {
        return 0.0;
    }
    let total: usize = universe.sigs().iter().map(BitSet::len).sum();
    total as f64 / n as f64
}

/// Summary statistics of the non-nullable part of the lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeStats {
    /// Number of distinct signatures `|N|` (T-equivalence classes).
    pub num_classes: usize,
    /// Total number of product tuples `|D|`.
    pub product_size: u64,
    /// The join ratio (§5.3).
    pub join_ratio: f64,
    /// Histogram of signature sizes: `size_histogram[s]` = number of
    /// distinct signatures with exactly `s` pairs.
    pub size_histogram: Vec<usize>,
    /// Number of `⊆`-maximal signatures.
    pub num_maximal: usize,
}

impl LatticeStats {
    /// Computes the statistics of `universe`.
    pub fn of(universe: &Universe) -> Self {
        let max_size = universe.sigs().iter().map(BitSet::len).max().unwrap_or(0);
        let mut size_histogram = vec![0usize; max_size + 1];
        for sig in universe.sigs() {
            size_histogram[sig.len()] += 1;
        }
        LatticeStats {
            num_classes: universe.num_classes(),
            product_size: universe.total_tuples(),
            join_ratio: join_ratio(universe),
            size_histogram,
            num_maximal: maximal_classes(universe).len(),
        }
    }
}

/// Enumerates all non-nullable join predicates — every `θ ⊆ T(t)` for some
/// tuple `t` — deduplicated.
///
/// The count can be exponential in the largest signature size (the paper
/// notes all of `P(Ω)` is non-nullable when two fully-equal rows exist), so
/// the enumeration aborts with [`InferenceError::UniverseTooLarge`] once more
/// than `limit` distinct predicates have been produced.
pub fn non_nullable_predicates(universe: &Universe, limit: usize) -> Result<Vec<BitSet>> {
    let mut seen: HashSet<BitSet> = HashSet::new();
    let mut out: Vec<BitSet> = Vec::new();
    let nbits = universe.omega_len();
    for sig in universe.sigs() {
        let pairs: Vec<usize> = sig.iter().collect();
        let k = pairs.len();
        assert!(k < 64, "signature too wide to enumerate subsets");
        for mask in 0u64..(1u64 << k) {
            let theta = BitSet::from_iter(
                nbits,
                pairs
                    .iter()
                    .enumerate()
                    .filter(|(b, _)| mask >> *b & 1 == 1)
                    .map(|(_, &p)| p),
            );
            if seen.insert(theta.clone()) {
                out.push(theta);
                if out.len() > limit {
                    return Err(InferenceError::UniverseTooLarge {
                        classes: out.len(),
                        limit,
                    });
                }
            }
        }
    }
    // Deterministic order: by size, then lexicographic on words.
    out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    Ok(out)
}

/// Non-nullable predicates grouped by size, as the synthetic experiments
/// (§5.2) use them: `groups[s]` holds all goal predicates with `|θG| = s`.
pub fn goals_by_size(universe: &Universe, limit: usize) -> Result<Vec<Vec<BitSet>>> {
    let all = non_nullable_predicates(universe, limit)?;
    let max = all.iter().map(BitSet::len).max().unwrap_or(0);
    let mut groups: Vec<Vec<BitSet>> = vec![Vec::new(); max + 1];
    for theta in all {
        let s = theta.len();
        groups[s].push(theta);
    }
    Ok(groups)
}

/// Renders the non-nullable lattice (plus Ω) as a Graphviz DOT graph —
/// Figure 4 of the paper for Example 2.1.
///
/// Nodes are non-nullable predicates; nodes with a corresponding tuple
/// (some `t` with `T(t) = θ`) are drawn boxed, as in the figure. Edges are
/// the Hasse covers of the `⊆` order restricted to the drawn nodes, with Ω
/// added on top. Aborts like [`non_nullable_predicates`] if the lattice
/// exceeds `limit` nodes.
pub fn hasse_dot(universe: &Universe, limit: usize) -> Result<String> {
    let mut nodes = non_nullable_predicates(universe, limit)?;
    let omega = universe.omega();
    if !nodes.contains(&omega) {
        nodes.push(omega);
    }
    let instance = universe.instance();
    let sig_set: HashSet<&BitSet> = universe.sigs().iter().collect();
    let label = |theta: &BitSet| -> String {
        if theta.is_empty() {
            "∅".to_string()
        } else if theta == &universe.omega() && !sig_set.contains(theta) {
            "Ω".to_string()
        } else {
            theta
                .iter()
                .map(|k| {
                    let (i, j) = instance.pairs().decode(k);
                    format!(
                        "({},{})",
                        instance.r().schema().attr_name(i),
                        instance.p().schema().attr_name(j)
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        }
    };
    let mut out = String::from("digraph lattice {\n  rankdir=BT;\n");
    for (id, theta) in nodes.iter().enumerate() {
        let shape = if sig_set.contains(theta) {
            "box"
        } else {
            "ellipse"
        };
        out.push_str(&format!(
            "  n{id} [shape={shape}, label=\"{}\"];\n",
            label(theta)
        ));
    }
    // Hasse covers: θa → θb iff θa ⊊ θb with nothing strictly between.
    for (a, ta) in nodes.iter().enumerate() {
        for (b, tb) in nodes.iter().enumerate() {
            if !ta.is_proper_subset(tb) {
                continue;
            }
            let covered = nodes
                .iter()
                .any(|tc| ta.is_proper_subset(tc) && tc.is_proper_subset(tb));
            if !covered {
                out.push_str(&format!("  n{a} -> n{b};\n"));
            }
        }
    }
    out.push_str("}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::example_2_1;
    use crate::universe::Universe;

    #[test]
    fn example_2_1_join_ratio_is_two() {
        let u = Universe::build(example_2_1());
        assert_eq!(join_ratio(&u), 2.0);
    }

    #[test]
    fn example_2_1_maximal_nodes_match_figure_4() {
        // Figure 4's top boxed row: the three size-3 signatures are maximal,
        // and every other signature is below one of them... in fact the three
        // size-3 ones plus any size-2 signature not contained in them.
        let u = Universe::build(example_2_1());
        let maxc = maximal_classes(&u);
        let mut sizes: Vec<usize> = maxc.iter().map(|&c| u.sig(c).len()).collect();
        sizes.sort();
        // Figure 4: maximal nodes are the three of size 3 and the size-2
        // nodes {(A1,B1),(A2,B1)}, {(A1,B1),(A2,B2)}, {(A1,B3),(A2,B3)},
        // {(A2,B2),(A2,B3)} (each not contained in any size-3 signature).
        assert_eq!(sizes, vec![2, 2, 2, 2, 3, 3, 3]);
        // Every non-maximal signature is a proper subset of some maximal one.
        for c in 0..u.num_classes() {
            if !maxc.contains(&c) {
                assert!(
                    maxc.iter().any(|&mc| u.sig(c).is_proper_subset(u.sig(mc))),
                    "class {c} should be dominated"
                );
            }
        }
    }

    #[test]
    fn maximal_among_matches_full_pairwise_scan() {
        // The size-bucketed scan must agree with the naive definition on
        // arbitrary subsets, including ones whose maxima sit in middle
        // buckets.
        let u = Universe::build(example_2_1());
        let subsets: Vec<Vec<ClassId>> = vec![
            (0..u.num_classes()).collect(),
            (0..u.num_classes()).step_by(2).collect(),
            vec![0],
            vec![],
            (0..u.num_classes())
                .filter(|&c| u.sig_size(c) <= 2)
                .collect(),
        ];
        for subset in subsets {
            let naive: Vec<ClassId> = subset
                .iter()
                .copied()
                .filter(|&c| !subset.iter().any(|&o| u.sig(c).is_proper_subset(u.sig(o))))
                .collect();
            assert_eq!(maximal_among(&u, &subset), naive, "subset {subset:?}");
        }
    }

    #[test]
    fn non_nullable_enumeration_matches_brute_force() {
        let u = Universe::build(example_2_1());
        let got = non_nullable_predicates(&u, 10_000).unwrap();
        // Brute force: θ over all P(Ω) with Ω of 6 bits, keep those with a
        // selecting tuple.
        let nbits = u.omega_len();
        let mut expect = 0usize;
        for mask in 0u64..(1 << nbits) {
            let theta = BitSet::from_iter(nbits, (0..nbits).filter(|&b| mask >> b & 1 == 1));
            if u.sigs().iter().any(|sig| theta.is_subset(sig)) {
                expect += 1;
            }
        }
        assert_eq!(got.len(), expect);
        // Sorted by size and deduplicated.
        assert!(got.windows(2).all(|w| w[0].len() <= w[1].len()));
        let set: HashSet<&BitSet> = got.iter().collect();
        assert_eq!(set.len(), got.len());
    }

    #[test]
    fn enumeration_respects_limit() {
        let u = Universe::build(example_2_1());
        let e = non_nullable_predicates(&u, 3).unwrap_err();
        assert!(matches!(e, InferenceError::UniverseTooLarge { .. }));
    }

    #[test]
    fn goals_by_size_partitions() {
        let u = Universe::build(example_2_1());
        let groups = goals_by_size(&u, 10_000).unwrap();
        // The empty predicate is the only size-0 goal.
        assert_eq!(groups[0].len(), 1);
        assert!(groups[0][0].is_empty());
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, non_nullable_predicates(&u, 10_000).unwrap().len());
        for (s, group) in groups.iter().enumerate() {
            assert!(group.iter().all(|t| t.len() == s));
        }
    }

    #[test]
    fn stats_are_consistent() {
        let u = Universe::build(example_2_1());
        let st = LatticeStats::of(&u);
        assert_eq!(st.num_classes, 12);
        assert_eq!(st.product_size, 12);
        assert_eq!(st.join_ratio, 2.0);
        // 1 of size 0, 1 of size 1, 7 of size 2, 3 of size 3 (§5.3).
        assert_eq!(st.size_histogram, vec![1, 1, 7, 3]);
        assert_eq!(st.num_maximal, 7);
    }

    #[test]
    fn figure_4_dot_rendering() {
        let u = Universe::build(example_2_1());
        let dot = hasse_dot(&u, 10_000).unwrap();
        // The full non-nullable lattice: ∅, six size-1 nodes, twelve
        // size-2, three size-3, plus Ω — 23 nodes, of which the twelve
        // signatures are boxed. (Figure 4 draws a subset of the size-2
        // layer — only the boxed ones — for readability; the node/box
        // distinction is the same.)
        let node_count = dot.matches("shape=").count();
        let boxed = dot.matches("shape=box").count();
        assert_eq!(node_count, 23);
        assert_eq!(boxed, 12, "one boxed node per T-equivalence class");
        assert!(dot.contains("label=\"∅\""));
        assert!(dot.contains("label=\"Ω\""));
        assert!(dot.contains("rankdir=BT"));
        // Hasse property spot check: ∅ (n0, smallest in sorted order) has
        // outgoing edges only to size-1 nodes — never directly to size ≥ 2.
        let preds = non_nullable_predicates(&u, 10_000).unwrap();
        assert!(preds[0].is_empty());
        for line in dot.lines().filter(|l| l.contains("n0 ->")) {
            let target: usize = line
                .trim()
                .trim_start_matches("n0 -> n")
                .trim_end_matches(';')
                .parse()
                .unwrap();
            assert_eq!(preds[target].len(), 1, "non-cover edge from ∅: {line}");
        }
    }

    #[test]
    fn empty_universe_stats() {
        use jqi_relation::InstanceBuilder;
        let mut b = InstanceBuilder::new();
        b.relation_r("R", &["A"]);
        b.relation_p("P", &["B"]);
        let u = Universe::build(b.build().unwrap());
        assert_eq!(join_ratio(&u), 0.0);
        let st = LatticeStats::of(&u);
        assert_eq!(st.num_classes, 0);
        assert_eq!(st.size_histogram, vec![0]);
    }
}
