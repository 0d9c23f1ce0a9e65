//! Lookahead skyline strategies (L1S, L2S, LkS — Algorithms 4–6).

use crate::entropy::{Entropy, ENTROPY_INF};
use crate::error::Result;
use crate::sample::Label;
use crate::state::InferenceState;
use crate::strategy::{cached_move, Strategy, CACHE_KEY_LKS};
use crate::universe::ClassId;

/// LkS: the k-step lookahead skyline strategy.
///
/// For each informative tuple it computes the depth-`k` entropy
/// (Algorithm 5 for `k = 2`) and returns a tuple whose entropy lies on the
/// skyline with maximal guaranteed gain (Algorithm 4/6 lines 2–4).
/// `k = 1` is the paper's L1S, `k = 2` its L2S; larger `k` approaches the
/// minimax-optimal strategy at exponentially growing cost (§4.4: "if k is
/// greater than the total number of informative tuples … the strategy
/// becomes optimal and thus inefficient").
///
/// Depth-1 entropies come straight from the state's mask-compressed gain
/// computation (a popcount/weight-fold of closure masks per candidate, no
/// walk of the informative set); deeper lookahead branches on
/// [`InferenceState::speculate_into`] — a few machine words copied into a
/// per-depth scratch pool plus a word-OR apply per hypothetical label,
/// never a fresh allocation per node. The candidate ordering pass computes
/// each class's raw `(u⁺, u⁻)` pair once and threads it into the recursion,
/// so no gain is computed twice for the same node.
///
/// The deep recursion is **branch-and-bound** pruned, without changing any
/// result: candidates at each node are ordered by their depth-1 entropy
/// (best first) so a strong incumbent is established early, and a
/// candidate's subtree is abandoned as soon as one of its two label
/// branches proves its guaranteed gain cannot beat the incumbent — the
/// node's value is the *minimum* over the two labels, so the untried label
/// cannot raise it. Pruned candidates are exactly those that would have
/// lost the skyline selection anyway, hence selections and reported
/// entropies are identical to the exhaustive recursion (property-tested in
/// `tests/properties.rs`).
#[derive(Debug, Clone)]
pub struct Lookahead {
    depth: usize,
    name: String,
}

impl Lookahead {
    /// A k-step lookahead strategy counting uninformative tuples.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "lookahead depth must be at least 1");
        Lookahead {
            depth,
            name: format!("L{depth}S"),
        }
    }

    /// The one-step lookahead skyline strategy (Algorithm 4).
    pub fn l1s() -> Self {
        Self::new(1)
    }

    /// The two-step lookahead skyline strategy (Algorithm 6).
    pub fn l2s() -> Self {
        Self::new(2)
    }

    /// The configured lookahead depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The uncached Algorithm 4/6 selection over the current state.
    fn select(&self, state: &InferenceState) -> Option<ClassId> {
        if self.depth == 1 {
            // Streaming Algorithm 4: track the select_best incumbent while
            // sweeping the informative mask, no entry vector.
            let mut best: Option<(ClassId, Entropy)> = None;
            for t in state.informative() {
                update_best(&mut best, t, state.entropy(t));
            }
            return best.map(|(c, _)| c);
        }
        // Deep lookahead selects through the same bounded scan the inner
        // nodes use — pruned candidates are exactly those select_best over
        // the exhaustive entropies would have rejected.
        let base = state.uninformative_count();
        let mut scratch = Scratch::new(self.depth);
        best_successor(state, base, self.depth, 0, u64::MAX, &mut scratch).map(|(c, _)| c)
    }

    /// Entropies of all informative classes at the configured depth.
    ///
    /// Every value is the exact Algorithm 5 result: branch-and-bound only
    /// happens *inside* each class's recursion, against incumbents whose
    /// defeat is already decided.
    pub fn entropies(&self, state: &InferenceState) -> Vec<(ClassId, Entropy)> {
        if self.depth == 1 {
            state.entropies()
        } else {
            let base = state.uninformative_count();
            let mut scratch = Scratch::new(self.depth);
            state
                .informative()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|c| {
                    let pair = state.gain_pair(c);
                    (
                        c,
                        entropy_rel(state, base, c, pair, self.depth, 0, &mut scratch),
                    )
                })
                .collect()
        }
    }
}

/// Per-depth scratch buffers for the lookahead recursion: speculation
/// states and candidate orderings are taken from the pool at each node and
/// returned afterwards, so a whole depth-k evaluation performs O(k)
/// allocations (first touch per level) instead of O(visited nodes).
/// Orderings carry the raw `(u⁺, u⁻)` pair so the recursion never
/// recomputes a gain the ordering pass already paid for.
/// One node's candidate ordering: class and its raw `(u⁺, u⁻)` pair.
type Ordering = Vec<(ClassId, (u64, u64))>;

struct Scratch {
    states: Vec<Option<InferenceState>>,
    orders: Vec<Option<Ordering>>,
}

impl Scratch {
    fn new(depth: usize) -> Self {
        Scratch {
            states: (0..=depth).map(|_| None).collect(),
            orders: (0..=depth).map(|_| None).collect(),
        }
    }
}

/// Incumbent update replicating [`select_best`]'s ordering exactly:
/// maximal `lo`, then maximal `hi`, then the smallest class id.
fn update_best(best: &mut Option<(ClassId, Entropy)>, t: ClassId, e: Entropy) {
    let better = match *best {
        None => true,
        Some((bc, be)) => {
            e.lo > be.lo || (e.lo == be.lo && (e.hi > be.hi || (e.hi == be.hi && t < bc)))
        }
    };
    if better {
        *best = Some((t, e));
    }
}

/// Algorithm 4/6 lines 2–4 at depth `k` over the informative classes of
/// `s`: `select_best` of the depth-`k` entropies, with two α/β-style
/// relaxations licensed by the caller (a min-node over the two labels):
///
/// * `alpha` — values below it are irrelevant to the caller (its own
///   incumbent already beats them): candidate subtrees are pruned against
///   `max(alpha, incumbent)`, and if *every* candidate lands below `alpha`
///   the returned value is merely an upper bound that still satisfies
///   `lo < alpha`, which is all the caller needs to abandon its branch.
/// * `beta` — once the incumbent's guaranteed gain exceeds it, the caller's
///   minimum is decided by its other label branch: stop scanning and
///   return the incumbent (a lower bound of the true maximum with
///   `lo > beta`, which is all the caller needs).
///
/// With `alpha = 0, beta = u64::MAX` the result is the exact
/// [`select_best`] over exact entropies. Returns `None` iff no informative
/// class remains.
fn best_successor(
    s: &InferenceState,
    base: u64,
    k: usize,
    alpha: u64,
    beta: u64,
    scratch: &mut Scratch,
) -> Option<(ClassId, Entropy)> {
    if !s.any_informative() {
        return None;
    }
    if k == 1 {
        // Leaf level: the one-step entropies *are* the depth-1 values
        // relative to the original sample, shifted by the uninformative
        // tuples accumulated since — popcount folds over the closure masks.
        let shift = s.uninformative_count().saturating_sub(base);
        let mut best: Option<(ClassId, Entropy)> = None;
        for t in s.informative() {
            let e1 = s.entropy(t);
            let e = Entropy {
                lo: e1.lo + shift,
                hi: e1.hi + shift,
            };
            update_best(&mut best, t, e);
            if e.lo > beta {
                break; // β-cut: the caller's min is its other label branch
            }
        }
        return best;
    }
    // Candidates ordered by depth-1 entropy, best first: strong candidates
    // establish a high incumbent early, so weaker subtrees prune sooner.
    let mut order = scratch.orders[k].take().unwrap_or_default();
    order.clear();
    order.extend(s.informative().map(|t| (t, s.gain_pair(t))));
    order.sort_by(|(ca, pa), (cb, pb)| {
        let (ea, eb) = (Entropy::of(pa.0, pa.1), Entropy::of(pb.0, pb.1));
        eb.lo.cmp(&ea.lo).then(eb.hi.cmp(&ea.hi)).then(ca.cmp(cb))
    });
    let mut best: Option<(ClassId, Entropy)> = None;
    // The maximum over candidates that fell below `alpha` — only reported
    // when NO candidate reaches `alpha`, as the sub-`alpha` upper bound.
    let mut below_alpha: Option<(ClassId, Entropy)> = None;
    for &(t, pair) in order.iter() {
        let cutoff = best.map_or(alpha, |(_, e)| e.lo);
        let e = entropy_rel(s, base, t, pair, k, cutoff, scratch);
        if e.lo < cutoff {
            // Pruned, or exactly evaluated and strictly worse.
            update_best(&mut below_alpha, t, e);
            continue;
        }
        update_best(&mut best, t, e);
        if e.lo > beta {
            break; // β-cut: the caller's min is its other label branch
        }
    }
    scratch.orders[k] = Some(order);
    best.or(below_alpha)
}

/// Depth-`k` entropy of `c` w.r.t. the *current* state, with uninformative
/// counts measured against `base` (the original sample's count, per
/// Algorithm 5 lines 8–9). `pair` is `c`'s one-step `(u⁺, u⁻)` against the
/// current state, already computed by the caller's ordering pass.
///
/// `cutoff` is the caller's incumbent guaranteed gain. The node's value is
/// the minimum over its two label branches, so as soon as one branch comes
/// back below `cutoff` the node is abandoned and an upper bound of the true
/// value (still `< cutoff`) is returned — the caller discards it. Pass `0`
/// to force the exact value.
fn entropy_rel(
    current: &InferenceState,
    base: u64,
    c: ClassId,
    pair: (u64, u64),
    k: usize,
    cutoff: u64,
    scratch: &mut Scratch,
) -> Entropy {
    let (g_pos, g_neg) = pair;
    if k == 1 {
        // u^α relative to the ORIGINAL sample: the current absolute count
        // plus the incremental gain of this labeling, minus the base.
        let here = current.uninformative_count();
        return Entropy::of(
            (here + g_pos).saturating_sub(base),
            (here + g_neg).saturating_sub(base),
        );
    }
    // Try the label with the smaller one-step gain first: it is the
    // likelier minimum, so a sub-cutoff branch is discovered before the
    // second subtree is explored at all.
    let order = if g_pos <= g_neg {
        [Label::Positive, Label::Negative]
    } else {
        [Label::Negative, Label::Positive]
    };
    let mut per_label: [Entropy; 2] = [ENTROPY_INF; 2];
    let mut first_lo = u64::MAX;
    for (round, &alpha) in order.iter().enumerate() {
        let mut slot = scratch.states[k].take();
        match slot.as_mut() {
            Some(st) => current.speculate_into(c, alpha, st),
            None => slot = Some(current.speculate(c, alpha)),
        }
        let s1 = slot.as_ref().expect("slot was just populated");
        let idx = match alpha {
            Label::Positive => 0,
            Label::Negative => 1,
        };
        // The first branch inherits the caller's floor; the second also
        // gets the first's value as a ceiling — once it provably exceeds
        // it, this node's minimum is the first branch regardless.
        per_label[idx] = match best_successor(s1, base, k - 1, cutoff, first_lo, scratch) {
            // Lines 11–12: skyline element with min(e) = max of mins.
            Some((_, e)) => e,
            // Line 4: e_α = (∞, ∞) — labeling ends the inference.
            None => ENTROPY_INF,
        };
        scratch.states[k] = slot;
        if round == 0 {
            if per_label[idx].lo < cutoff {
                return per_label[idx];
            }
            first_lo = per_label[idx].lo;
        }
    }
    // Lines 13–14: return e_α with the smaller min (worst case over labels).
    if per_label[0].lo <= per_label[1].lo {
        per_label[0]
    } else {
        per_label[1]
    }
}

impl Strategy for Lookahead {
    fn name(&self) -> &str {
        &self.name
    }

    fn next(&mut self, state: &InferenceState) -> Result<Option<ClassId>> {
        // The selection is a deterministic function of the derived state,
        // so it is served from the universe-level decision cache in *both*
        // phases: a server running thousands of sessions over one shared
        // universe pays each full-candidate-set lookahead — the most
        // expensive question of a session — exactly once per distinct
        // `(T(S⁺), negative mask)` state, not once per session. The key
        // folds the depth in, so each depth has its own fingerprints.
        let key = CACHE_KEY_LKS | (self.depth as u64) << 32;
        Ok(cached_move(key, state, || self.select(state)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_inference, PredicateOracle};
    use crate::entropy::select_best;
    use crate::paper::example_2_1;
    use crate::universe::Universe;
    use std::sync::Arc;

    #[test]
    fn l1s_first_choice_matches_section_4_4() {
        // §4.4 (with the Figure 5 typo corrected, see entropy::tests):
        // L1S picks (t2,t1'), whose entropy (1,4) has the maximal min.
        let u = Arc::new(Universe::build(example_2_1()));
        let state = InferenceState::new(Arc::clone(&u));
        let mut l1s = Lookahead::l1s();
        let c = l1s.next(&state).unwrap().unwrap();
        assert_eq!(u.representative(c), (1, 0));
    }

    #[test]
    fn deep_entropies_match_the_scratch_recursion() {
        // entropy_rel over speculated states must agree with the reference
        // entropy_k over cloned samples (Algorithm 5 semantics).
        let u = Arc::new(Universe::build(example_2_1()));
        let mut state = InferenceState::new(Arc::clone(&u));
        state
            .apply(u.class_of(0, 2).unwrap(), crate::Label::Positive)
            .unwrap();
        state
            .apply(u.class_of(2, 0).unwrap(), crate::Label::Negative)
            .unwrap();
        let sample = state.as_sample();
        for k in [1usize, 2] {
            let strategy = Lookahead::new(k);
            for (c, e) in strategy.entropies(&state) {
                assert_eq!(
                    e,
                    crate::entropy::entropy_k(&u, &sample, c, k),
                    "depth-{k} entropy diverges for class {c}"
                );
            }
        }
    }

    #[test]
    fn pruned_depth_3_matches_scratch_recursion_and_selection() {
        // On a synthetic instance with nontrivial branching, the bounded
        // recursion must reproduce the exhaustive entropy_k values AND the
        // exhaustive select_best choice, at depths 2 and 3.
        use jqi_datagen_free::tiny_synthetic;
        let u = Arc::new(Universe::build(tiny_synthetic()));
        let mut state = InferenceState::new(Arc::clone(&u));
        let first = state.nth_informative(0).unwrap();
        state.apply(first, crate::Label::Negative).unwrap();
        let sample = state.as_sample();
        for k in [2usize, 3] {
            let mut strategy = Lookahead::new(k);
            let entries = strategy.entropies(&state);
            for &(c, e) in &entries {
                assert_eq!(
                    e,
                    crate::entropy::entropy_k(&u, &sample, c, k),
                    "depth-{k} entropy diverges for class {c}"
                );
            }
            let picked = strategy.next(&state).unwrap();
            assert_eq!(
                picked,
                select_best(&entries).map(|(c, _)| c),
                "depth-{k} pruned selection diverges from exhaustive select_best"
            );
        }
    }

    /// A small instance with duplicate rows and mixed overlap, built
    /// without depending on `jqi_datagen` (which depends on this crate).
    mod jqi_datagen_free {
        use jqi_relation::{Instance, InstanceBuilder};

        pub fn tiny_synthetic() -> Instance {
            let mut b = InstanceBuilder::new();
            b.relation_r("R", &["A1", "A2"]);
            b.relation_p("P", &["B1", "B2"]);
            let r_rows: [[i64; 2]; 7] = [[0, 1], [0, 1], [1, 2], [2, 0], [1, 1], [3, 2], [2, 2]];
            let p_rows: [[i64; 2]; 6] = [[1, 0], [1, 0], [2, 1], [0, 2], [3, 3], [2, 0]];
            for r in r_rows {
                b.row_r_ints(&r);
            }
            for p in p_rows {
                b.row_p_ints(&p);
            }
            b.build().expect("well-formed")
        }
    }

    #[test]
    fn names_follow_the_paper() {
        assert_eq!(Lookahead::l1s().name(), "L1S");
        assert_eq!(Lookahead::l2s().name(), "L2S");
        assert_eq!(Lookahead::new(3).name(), "L3S");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_depth_rejected() {
        Lookahead::new(0);
    }

    #[test]
    fn l2s_beats_rnd_on_average() {
        // The paper's empirical claim (§5.3) is about averages: across all
        // non-nullable goals (and several RND seeds), L2S needs fewer
        // interactions than the random baseline.
        let u = Arc::new(Universe::build(example_2_1()));
        let goals = crate::lattice::non_nullable_predicates(&u, 10_000).unwrap();
        let mut l2s_total = 0usize;
        let mut rnd_total = 0usize;
        let seeds = [1u64, 2, 3, 4, 5];
        for goal in &goals {
            let mut o = PredicateOracle::new(goal.clone());
            l2s_total += run_inference(&u, Box::new(Lookahead::l2s()), &mut o)
                .unwrap()
                .interactions
                * seeds.len();
            for &seed in &seeds {
                let mut o = PredicateOracle::new(goal.clone());
                rnd_total +=
                    run_inference(&u, Box::new(crate::strategy::Random::new(seed)), &mut o)
                        .unwrap()
                        .interactions;
            }
        }
        assert!(
            l2s_total < rnd_total,
            "L2S mean {} not better than RND mean {}",
            l2s_total as f64 / (goals.len() * seeds.len()) as f64,
            rnd_total as f64 / (goals.len() * seeds.len()) as f64
        );
    }

    #[test]
    fn depth_accessor() {
        assert_eq!(Lookahead::l2s().depth(), 2);
    }
}
