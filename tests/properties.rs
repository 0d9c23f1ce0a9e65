//! Property-based tests (proptest) on the core invariants of the paper.

use join_query_inference::prelude::*;
use join_query_inference::semijoin::consistency::{
    exists_consistent_brute_force, find_consistent_semijoin,
};
use join_query_inference::semijoin::sample::SemijoinSample;
use proptest::prelude::*;
// Our inference `Strategy` trait collides with proptest's generator trait;
// inside this file, `Strategy` means proptest's.
use proptest::strategy::Strategy;
use std::sync::Arc;

/// Proptest generator for a small random instance: R (2 attrs), P (2
/// attrs), up to 5 rows each, values in 0..4.
fn small_instance() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(prop::array::uniform2(0i64..4), 1..5),
        prop::collection::vec(prop::array::uniform2(0i64..4), 1..5),
    )
        .prop_map(|(r_rows, p_rows)| {
            let mut b = InstanceBuilder::new();
            b.relation_r("R", &["A1", "A2"]);
            b.relation_p("P", &["B1", "B2"]);
            for r in &r_rows {
                b.row_r_ints(r);
            }
            for p in &p_rows {
                b.row_p_ints(p);
            }
            b.build().expect("well-formed")
        })
}

/// A goal predicate over Ω (|Ω| = 4 for the 2×2 instances).
fn goal_mask() -> impl Strategy<Value = u8> {
    0u8..16
}

/// Like [`small_instance`], but duplicate-heavy: rows are drawn from small
/// pools with repetition (values in 0..3, up to 12 rows per relation drawn
/// from ≤4 distinct rows), so profile deduplication has real work to do.
fn duplicate_heavy_instance() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(prop::array::uniform2(0i64..3), 1..4),
        prop::collection::vec(0usize..4, 1..12),
        prop::collection::vec(prop::array::uniform2(0i64..3), 1..4),
        prop::collection::vec(0usize..4, 1..12),
    )
        .prop_map(|(r_pool, r_picks, p_pool, p_picks)| {
            let mut b = InstanceBuilder::new();
            b.relation_r("R", &["A1", "A2"]);
            b.relation_p("P", &["B1", "B2"]);
            for &i in &r_picks {
                b.row_r_ints(&r_pool[i % r_pool.len()]);
            }
            for &j in &p_picks {
                b.row_p_ints(&p_pool[j % p_pool.len()]);
            }
            b.build().expect("well-formed")
        })
}

fn mask_to_theta(nbits: usize, mask: u8) -> BitSet {
    BitSet::from_iter(nbits, (0..nbits).filter(|&b| mask >> b & 1 == 1))
}

/// Asserts that an [`InferenceState`] agrees with the from-scratch
/// recomputation via `certain.rs` / `entropy.rs` on every derived quantity.
fn assert_state_matches_scratch(state: &InferenceState, sample: &Sample) {
    use join_query_inference::core::certain;
    let universe = state.universe();
    assert_eq!(state.is_consistent(), sample.is_consistent(universe));
    assert_eq!(state.theta_possible(), sample.t_pos());
    if !state.is_consistent() {
        return; // the partition is only defined for consistent samples
    }
    assert_eq!(
        state.informative().collect::<Vec<_>>(),
        certain::informative_classes(universe, sample),
        "informative sets diverge"
    );
    assert_eq!(
        state.informative_len(),
        certain::informative_classes(universe, sample).len(),
        "maintained informative popcount diverges"
    );
    assert_eq!(
        state.any_informative(),
        certain::any_informative(universe, sample)
    );
    assert_eq!(
        state.uninformative_count(),
        certain::uninformative_count(universe, sample),
        "uninformative counts diverge"
    );
    for c in 0..universe.num_classes() {
        assert_eq!(
            state.label(c),
            sample.label(c),
            "labels diverge for class {c}"
        );
        if sample.label(c).is_none() {
            assert_eq!(
                state.class_state(c).certain_label(),
                certain::certain_label(universe, sample, c),
                "certain labels diverge for class {c}"
            );
        }
    }
    // One-step entropies of the informative classes.
    for c in state.informative() {
        assert_eq!(
            state.entropy(c),
            join_query_inference::core::entropy::entropy(universe, sample, c),
            "one-step entropy diverges for class {c}"
        );
    }
    // Spot-check the depth-2 lookahead recursion over speculated states
    // against Algorithm 5's reference implementation (bounded: it is
    // quadratic in the informative set).
    if state.informative_len() <= 10 {
        let l2s = Lookahead::l2s();
        for (c, e) in l2s.entropies(state).into_iter().take(3) {
            assert_eq!(
                e,
                join_query_inference::core::entropy::entropy_k(universe, sample, c, 2),
                "two-step entropy diverges for class {c}"
            );
        }
    }
}

/// Tentpole equivalence on the paper's own instance: a retraction-free
/// replay of Example 2.1 (every class labeled by the goal oracle of the
/// worked example, in class order) keeps the incremental state equal to the
/// from-scratch derivation after every single label.
#[test]
fn example_2_1_replay_matches_from_scratch() {
    use join_query_inference::core::paper::example_2_1;
    let universe = Arc::new(Universe::build(example_2_1()));
    // The goal of Example 3.1: θ0 = {(A1,B1),(A2,B3)}.
    let goal = predicate_from_names(universe.instance(), &[("A1", "B1"), ("A2", "B3")])
        .expect("paper attributes exist");
    let mut state = InferenceState::new(Arc::clone(&universe));
    let mut sample = Sample::new(&universe);
    assert_state_matches_scratch(&state, &sample);
    for c in 0..universe.num_classes() {
        if !state.is_informative(c) {
            continue; // replay is retraction-free: only informative asks
        }
        let label = if goal.is_subset(universe.sig(c)) {
            Label::Positive
        } else {
            Label::Negative
        };
        state
            .apply(c, label)
            .expect("informative class is unlabeled");
        sample.add(&universe, c, label).expect("mirrored");
        assert!(state.is_consistent(), "goal labels stay consistent");
        assert_state_matches_scratch(&state, &sample);
    }
    assert!(
        !state.any_informative(),
        "replay must exhaust informativeness"
    );
    assert_eq!(
        universe.instance().equijoin(state.theta_possible()),
        universe.instance().equijoin(&goal),
    );
}

/// A deterministic instance with > 64 T-equivalence classes, so every
/// class-index mask of the inference state spans multiple words.
fn multiword_class_instance() -> Instance {
    let mut b = InstanceBuilder::new();
    b.relation_r("R", &["A1", "A2", "A3"]);
    b.relation_p("P", &["B1", "B2", "B3"]);
    for i in 0..40i64 {
        b.row_r_ints(&[i % 5, (i * 3) % 4, (i * 7) % 6]);
    }
    for j in 0..30i64 {
        b.row_p_ints(&[(j * 2) % 5, j % 4, (j * 5) % 6]);
    }
    b.build().expect("well-formed")
}

/// Multi-word class masks: the mask-compressed state must track the
/// from-scratch specs bit-for-bit when the partition masks span several
/// words (> 64 classes), through a full goal-driven replay.
#[test]
fn mask_state_matches_scratch_beyond_64_classes() {
    let universe = Arc::new(Universe::build(multiword_class_instance()));
    assert!(
        universe.num_classes() > 64,
        "want multi-word class masks, got {} classes",
        universe.num_classes()
    );
    let goal = BitSet::from_iter(universe.omega_len(), [0usize, 4]);
    let mut state = InferenceState::new(Arc::clone(&universe));
    let mut sample = Sample::new(&universe);
    let mut step = 0usize;
    while let Some(c) = state.nth_informative(0) {
        let label = if goal.is_subset(universe.sig(c)) {
            Label::Positive
        } else {
            Label::Negative
        };
        state.apply(c, label).expect("informative class");
        sample.add(&universe, c, label).expect("mirrored");
        // The full cross-check is cubic-ish in classes; sample it.
        if step.is_multiple_of(13) {
            assert_state_matches_scratch(&state, &sample);
        }
        step += 1;
    }
    assert_state_matches_scratch(&state, &sample);
}

/// Proptest generator for a wide instance: `R` with one attribute, `P`
/// with m = 70 — every Ω-mask (signatures, θ bounds) spans two words, the
/// regression surface of the former `m ≤ 64` limit.
fn wide_instance() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(0i64..4, 1..4),
        prop::collection::vec(prop::collection::vec(0i64..4, 70..71), 1..4),
    )
        .prop_map(|(r_rows, p_rows)| {
            let mut b = InstanceBuilder::new();
            let p_attrs: Vec<String> = (0..70).map(|j| format!("B{j}")).collect();
            let p_refs: Vec<&str> = p_attrs.iter().map(String::as_str).collect();
            b.relation_r("R", &["A1"]);
            b.relation_p("P", &p_refs);
            for &r in &r_rows {
                b.row_r_ints(&[r]);
            }
            for p in &p_rows {
                b.row_p_ints(p);
            }
            b.build().expect("well-formed")
        })
}

proptest! {
    /// Satellite equivalence at m = 70 (multi-word Ω): after ANY label
    /// sequence, the mask-compressed `InferenceState` equals the
    /// from-scratch recomputation via `certain.rs` / `entropy.rs`.
    #[test]
    fn mask_state_matches_scratch_on_wide_instances(
        inst in wide_instance(),
        labels in prop::collection::vec(0u8..3, 0..8),
    ) {
        let universe = Arc::new(Universe::build(inst));
        let mut state = InferenceState::new(Arc::clone(&universe));
        let mut sample = Sample::new(&universe);
        for (c, &l) in labels.iter().enumerate().take(universe.num_classes()) {
            let label = match l {
                0 => continue,
                1 => Label::Positive,
                _ => Label::Negative,
            };
            if sample.label(c).is_some() {
                continue;
            }
            sample.add(&universe, c, label).expect("unlabeled");
            state.apply(c, label).expect("mirrored");
            assert_state_matches_scratch(&state, &sample);
            if !state.is_consistent() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite equivalence on duplicate-heavy `ScaledConfig` instances:
    /// class weights are real multiplicities, so the weighted
    /// uninformative counts and gains exercise the tuple-mode folds.
    #[test]
    fn mask_state_matches_scratch_on_scaled_config(
        seed in 0u64..1000,
        labels in prop::collection::vec(0u8..3, 0..10),
    ) {
        use join_query_inference::datagen::ScaledConfig;
        let cfg = ScaledConfig::new(3, 3, 120, 90, 10, 8, 6);
        let universe = Arc::new(Universe::build(cfg.generate(seed)));
        prop_assert!(universe.total_tuples() == 120 * 90);
        let mut state = InferenceState::new(Arc::clone(&universe));
        let mut sample = Sample::new(&universe);
        for (i, &l) in labels.iter().enumerate() {
            let label = match l {
                0 => continue,
                1 => Label::Positive,
                _ => Label::Negative,
            };
            // Spread the labels over the class range.
            let c = (i * 7) % universe.num_classes().max(1);
            if sample.label(c).is_some() {
                continue;
            }
            sample.add(&universe, c, label).expect("unlabeled");
            state.apply(c, label).expect("mirrored");
            assert_state_matches_scratch(&state, &sample);
            if !state.is_consistent() {
                break;
            }
        }
    }
}

proptest! {
    /// The deduplicated (and parallel) `Universe::build` equals the naive
    /// sequential row-pair reference build on duplicate-heavy random
    /// instances class by class, in id order: the same signature, count
    /// and representative for every class id, at every worker count. The
    /// reference computes each row pair's signature directly, sharing no
    /// code with the profile-pair kernel.
    #[test]
    fn dedup_parallel_build_matches_rowpair_reference(
        inst in duplicate_heavy_instance(),
    ) {
        let reference = Universe::build_rowpair_reference(inst.clone());
        prop_assert_eq!(reference.total_tuples(), inst.product_size());
        let mut builds = vec![Universe::build(inst.clone())];
        for threads in [1usize, 2, 3, 4] {
            builds.push(Universe::build_with_parallelism(inst.clone(), threads));
        }
        for u in &builds {
            prop_assert_eq!(u.sigs(), reference.sigs());
            prop_assert_eq!(u.counts(), reference.counts());
            for c in 0..reference.num_classes() {
                prop_assert_eq!(u.representative(c), reference.representative(c));
            }
            prop_assert_eq!(u.fingerprint(), reference.fingerprint());
        }
        // Representatives belong to the class they represent, and class_of
        // agrees with the signature partition for every product tuple.
        let fast = &builds[0];
        for c in 0..fast.num_classes() {
            let (ri, pi) = fast.representative(c);
            prop_assert_eq!(&inst.signature(ri, pi), fast.sig(c));
        }
        for (ri, pi) in inst.product() {
            let c = fast.class_of(ri, pi).expect("every tuple has a class");
            prop_assert_eq!(fast.sig(c), &inst.signature(ri, pi));
        }
    }

    /// The branch-and-bound LkS recursion is exact: pruned entropies and
    /// selections match the exhaustive Algorithm 5 recursion over cloned
    /// samples, at depths 2 and 3, from arbitrary reachable states.
    #[test]
    fn pruned_lks_matches_unpruned_recursion(
        inst in duplicate_heavy_instance(),
        labels in prop::collection::vec(0u8..3, 0..4),
    ) {
        let universe = Arc::new(Universe::build(inst));
        let mut state = InferenceState::new(Arc::clone(&universe));
        for (c, &l) in labels.iter().enumerate().take(universe.num_classes()) {
            let label = match l {
                0 => continue,
                1 => Label::Positive,
                _ => Label::Negative,
            };
            if state.is_informative(c) {
                state.apply(c, label).expect("informative is unlabeled");
            }
        }
        prop_assert!(state.is_consistent(), "goal-free labels of informative classes stay consistent");
        let sample = state.as_sample();
        prop_assume!(state.informative_len() <= 8);
        for k in [2usize, 3] {
            let mut strategy = Lookahead::new(k);
            let entries = strategy.entropies(&state);
            for &(c, e) in &entries {
                prop_assert_eq!(
                    e,
                    join_query_inference::core::entropy::entropy_k(&universe, &sample, c, k),
                    "depth-{} entropy diverges for class {}", k, c
                );
            }
            // Inference `Strategy` is shadowed by proptest's in this file;
            // call `next` fully qualified.
            let picked = join_query_inference::core::strategy::Strategy::next(
                &mut strategy,
                &state,
            )
            .expect("strategies are infallible");
            let exhaustive = join_query_inference::core::entropy::select_best(&entries)
                .map(|(c, _)| c);
            prop_assert_eq!(picked, exhaustive, "depth-{} selection diverges", k);
        }
    }

    /// Tentpole equivalence: after ANY label sequence (including labels on
    /// certain classes and inconsistent labelings), the incremental
    /// `InferenceState` equals the from-scratch recomputation via
    /// `certain.rs` / `entropy.rs`.
    #[test]
    fn incremental_state_matches_from_scratch(
        inst in small_instance(),
        labels in prop::collection::vec(0u8..3, 0..10),
    ) {
        let universe = Arc::new(Universe::build(inst));
        let mut state = InferenceState::new(Arc::clone(&universe));
        let mut sample = Sample::new(&universe);
        for (c, &l) in labels.iter().enumerate().take(universe.num_classes()) {
            let label = match l {
                0 => continue,
                1 => Label::Positive,
                _ => Label::Negative,
            };
            if sample.label(c).is_some() {
                continue;
            }
            sample.add(&universe, c, label).expect("unlabeled");
            state.apply(c, label).expect("mirrored");
            assert_state_matches_scratch(&state, &sample);
            if !state.is_consistent() {
                break; // both representations agree it's inconsistent
            }
        }
    }

    /// The interval `[θ_certain, θ_possible]` brackets every consistent
    /// predicate, tightly: θ_certain is the meet and θ_possible the join
    /// of C(S), verified by brute-force enumeration.
    #[test]
    fn state_interval_is_the_consistent_hull(
        inst in small_instance(),
        labels in prop::collection::vec(0u8..3, 0..8),
    ) {
        let universe = Arc::new(Universe::build(inst));
        let mut state = InferenceState::new(Arc::clone(&universe));
        for (c, &l) in labels.iter().enumerate().take(universe.num_classes()) {
            let label = match l {
                0 => continue,
                1 => Label::Positive,
                _ => Label::Negative,
            };
            let hypothetical = state.speculate(c, label);
            if hypothetical.is_consistent() {
                state = hypothetical;
            }
        }
        prop_assert!(state.is_consistent());
        let sample = state.as_sample();
        let nbits = universe.omega_len();
        let consistent: Vec<BitSet> = (0u16..(1 << nbits))
            .map(|mask| BitSet::from_iter(nbits, (0..nbits).filter(|&b| mask >> b & 1 == 1)))
            .filter(|theta| sample.admits(&universe, theta))
            .collect();
        prop_assert!(!consistent.is_empty());
        let (lo, hi) = state.interval();
        let mut meet = consistent[0].clone();
        let mut join = consistent[0].clone();
        for theta in &consistent {
            prop_assert!(lo.is_subset(theta), "θ_certain outside a consistent θ");
            prop_assert!(theta.is_subset(&hi), "consistent θ outside θ_possible");
            meet.intersect_with(theta);
            join.union_with(theta);
        }
        prop_assert_eq!(meet, lo, "θ_certain must be the meet of C(S)");
        prop_assert_eq!(join, hi, "θ_possible must be the join of C(S)");
    }

    /// Anti-monotonicity (§2): θ1 ⊆ θ2 ⇒ R ⋈θ2 P ⊆ R ⋈θ1 P and likewise
    /// for semijoins.
    #[test]
    fn join_is_anti_monotone(inst in small_instance(), m1 in goal_mask(), m2 in goal_mask()) {
        let nbits = inst.pairs().len();
        let t1 = mask_to_theta(nbits, m1 & m2); // t1 ⊆ t2 by construction
        let t2 = mask_to_theta(nbits, m2);
        let j1 = inst.equijoin(&t1);
        let j2 = inst.equijoin(&t2);
        prop_assert!(j2.iter().all(|t| j1.contains(t)));
        let s1 = inst.semijoin(&t1);
        let s2 = inst.semijoin(&t2);
        prop_assert!(s2.iter().all(|t| s1.contains(t)));
    }

    /// T is the most specific selector: θ selects t iff θ ⊆ T(t).
    #[test]
    fn signature_characterizes_selection(inst in small_instance(), m in goal_mask()) {
        let nbits = inst.pairs().len();
        let theta = mask_to_theta(nbits, m);
        for (ri, pi) in inst.product() {
            let sig = inst.signature(ri, pi);
            prop_assert_eq!(inst.selects(&theta, ri, pi), theta.is_subset(&sig));
        }
    }

    /// §3.1 soundness & completeness of consistency checking: the sample
    /// labeled by ANY goal predicate is consistent, and T(S⁺) is consistent
    /// with it.
    #[test]
    fn goal_labeled_samples_are_consistent(inst in small_instance(), m in goal_mask()) {
        let nbits = inst.pairs().len();
        let goal = mask_to_theta(nbits, m);
        let universe = Universe::build(inst);
        let mut sample = Sample::new(&universe);
        for c in 0..universe.num_classes() {
            let label = if goal.is_subset(universe.sig(c)) {
                Label::Positive
            } else {
                Label::Negative
            };
            sample.add(&universe, c, label).expect("fresh class");
        }
        prop_assert!(sample.is_consistent(&universe));
        let tpos = sample.t_pos();
        // T(S⁺) selects exactly the goal's selection (instance equivalence).
        prop_assert_eq!(
            universe.instance().equijoin(tpos),
            universe.instance().equijoin(&goal)
        );
    }

    /// Lemma 3.2 semantics: a class is certain-positive iff *every*
    /// consistent predicate selects it, certain-negative iff none does
    /// (checked by brute-force enumeration of C(S)).
    #[test]
    fn certain_tuples_match_brute_force(
        inst in small_instance(),
        labels in prop::collection::vec(0u8..3, 0..6),
    ) {
        let universe = Universe::build(inst);
        let mut sample = Sample::new(&universe);
        for (c, &l) in labels.iter().enumerate().take(universe.num_classes()) {
            let label = match l {
                0 => continue,
                1 => Label::Positive,
                _ => Label::Negative,
            };
            let mut trial = sample.clone();
            if trial.add(&universe, c, label).is_ok() && trial.is_consistent(&universe) {
                sample = trial;
            }
        }
        let nbits = universe.omega_len();
        let consistent: Vec<BitSet> = (0u16..(1 << nbits))
            .map(|mask| BitSet::from_iter(nbits, (0..nbits).filter(|&b| mask >> b & 1 == 1)))
            .filter(|theta| sample.admits(&universe, theta))
            .collect();
        prop_assert!(!consistent.is_empty());
        for c in 0..universe.num_classes() {
            let sig = universe.sig(c);
            let always = consistent.iter().all(|t| t.is_subset(sig));
            let never = consistent.iter().all(|t| !t.is_subset(sig));
            prop_assert_eq!(
                join_query_inference::core::certain::is_certain_positive(&universe, &sample, c),
                always
            );
            prop_assert_eq!(
                join_query_inference::core::certain::is_certain_negative(&universe, &sample, c),
                never
            );
        }
    }

    /// Every strategy infers an instance-equivalent predicate for every
    /// goal, and never exceeds the number of classes in interactions.
    #[test]
    fn inference_is_correct_and_bounded(inst in small_instance(), m in goal_mask(), seed in 0u64..1000) {
        let nbits = inst.pairs().len();
        let goal = mask_to_theta(nbits, m);
        let universe = Arc::new(Universe::build(inst));
        for config in StrategyConfig::paper(seed).into_iter().chain([StrategyConfig::Eg]) {
            let mut oracle = PredicateOracle::new(goal.clone());
            let run = run_inference(&universe, config.build(), &mut oracle)
                .expect("goal oracles are consistent");
            prop_assert_eq!(
                universe.instance().equijoin(&run.predicate),
                universe.instance().equijoin(&goal)
            );
            prop_assert!(run.interactions <= universe.num_classes());
            // No question was wasted on an already-certain tuple: replaying
            // the history, every asked class is informative at ask time.
            let mut replay = Sample::new(&universe);
            for &(c, label) in &run.history {
                prop_assert!(
                    join_query_inference::core::certain::is_informative(&universe, &replay, c),
                    "asked an uninformative class"
                );
                replay.add(&universe, c, label).expect("fresh");
            }
        }
    }

    /// The minimax-optimal worst case lower-bounds every deterministic
    /// heuristic's true worst case (maximum over all consistent answer
    /// sequences, i.e. the full adversary game tree).
    #[test]
    fn optimal_is_a_lower_bound(inst in small_instance()) {
        use join_query_inference::core::strategy::{optimal_worst_case, strategy_worst_case};
        let universe = Arc::new(Universe::build(inst));
        prop_assume!(universe.num_classes() <= 8);
        let opt = optimal_worst_case(&universe, 8).expect("small universe");
        for config in [StrategyConfig::Bu, StrategyConfig::Td, StrategyConfig::Lks { depth: 1 }] {
            let mut strategy = config.build();
            let wc = strategy_worst_case(&universe, strategy.as_mut())
                .expect("deterministic strategy");
            prop_assert!(wc >= opt, "{} worst case {} < OPT {}", strategy.name(), wc, opt);
        }
        // And OPT attains its own bound.
        let mut optimal = Optimal::with_limit(8);
        let wc = strategy_worst_case(&universe, &mut optimal).expect("fits limit");
        prop_assert_eq!(wc, opt);
    }

    /// The exact CONS⋉ solver agrees with brute-force enumeration and its
    /// witness is semantically consistent.
    #[test]
    fn semijoin_solver_matches_brute_force(
        inst in small_instance(),
        labels in prop::collection::vec(0u8..3, 0..5),
    ) {
        let rows = inst.r().len();
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for (r, &l) in labels.iter().enumerate().take(rows) {
            match l {
                1 => pos.push(r),
                2 => neg.push(r),
                _ => {}
            }
        }
        let sample = SemijoinSample::from_rows(pos, neg);
        let exact = find_consistent_semijoin(&inst, &sample);
        let brute = exists_consistent_brute_force(&inst, &sample);
        prop_assert_eq!(exact.is_some(), brute);
        if let Some(theta) = exact {
            prop_assert!(sample.admits(&inst, &theta));
        }
    }

    /// TPC-H generator invariants hold for every seed: dense keys, valid
    /// foreign keys, nonempty goal joins for all five workloads.
    #[test]
    fn tpch_generator_invariants(seed in 0u64..10_000) {
        use join_query_inference::datagen::tpch::{TpchScale, TpchTables};
        let t = TpchTables::generate(TpchScale::Small, seed);
        let n_part = t.parts.len() as i64;
        let n_supp = t.suppliers.len() as i64;
        let n_ord = t.orders.len() as i64;
        for &(pk, sk, ..) in &t.partsupps {
            prop_assert!((0..n_part).contains(&pk));
            prop_assert!((0..n_supp).contains(&sk));
        }
        for &(ok, pk, sk, ln, q) in &t.lineitems {
            prop_assert!((0..n_ord).contains(&ok));
            prop_assert!((0..n_part).contains(&pk));
            prop_assert!((0..n_supp).contains(&sk));
            prop_assert!((1..=3).contains(&ln));
            prop_assert!((1..=50).contains(&q));
        }
        for w in t.workloads() {
            prop_assert!(!w.instance.equijoin(&w.goal).is_empty(), "{} empty", w.join);
        }
    }

    /// Synthetic generator invariants for arbitrary configurations.
    #[test]
    fn synthetic_generator_invariants(
        attrs_r in 1usize..4,
        attrs_p in 1usize..4,
        rows in 1usize..20,
        values in 1u32..12,
        seed in 0u64..1000,
    ) {
        use join_query_inference::datagen::SyntheticConfig;
        let cfg = SyntheticConfig::new(attrs_r, attrs_p, rows, values);
        let inst = cfg.generate(seed);
        prop_assert_eq!(inst.r().len(), rows);
        prop_assert_eq!(inst.p().len(), rows);
        prop_assert_eq!(inst.pairs().len(), attrs_r * attrs_p);
        for row in inst.r().rows().iter().chain(inst.p().rows()) {
            for v in row.resolve(inst.interner()) {
                let i = v.as_int().expect("ints only");
                prop_assert!((0..values as i64).contains(&i));
            }
        }
        // Regeneration with the same seed is identical.
        let again = cfg.generate(seed);
        for (a, b) in inst.r().rows().iter().zip(again.r().rows()) {
            prop_assert_eq!(a.symbols(), b.symbols());
        }
    }

    /// BitSet algebra laws on the sizes the predicates actually use.
    #[test]
    fn bitset_laws(
        xs in prop::collection::btree_set(0usize..130, 0..20),
        ys in prop::collection::btree_set(0usize..130, 0..20),
    ) {
        let a = BitSet::from_iter(130, xs.iter().copied());
        let b = BitSet::from_iter(130, ys.iter().copied());
        let inter = a.intersection(&b);
        let union = a.union(&b);
        prop_assert!(inter.is_subset(&a) && inter.is_subset(&b));
        prop_assert!(a.is_subset(&union) && b.is_subset(&union));
        prop_assert_eq!(inter.len() + union.len(), a.len() + b.len());
        // intersection_is_subset ≡ naive composition, on a third set.
        let c = BitSet::from_iter(130, xs.iter().map(|&x| (x * 7) % 130));
        prop_assert_eq!(
            a.intersection_is_subset(&b, &c),
            a.intersection(&b).is_subset(&c)
        );
        // Iteration is sorted and round-trips.
        let back: Vec<usize> = a.iter().collect();
        let expect: Vec<usize> = xs.into_iter().collect();
        prop_assert_eq!(back, expect);
    }
}

/// The strategy configs the universe-level decision cache covers.
fn deterministic_configs() -> Vec<StrategyConfig> {
    vec![
        StrategyConfig::Bu,
        StrategyConfig::Td,
        StrategyConfig::Lks { depth: 1 },
        StrategyConfig::Lks { depth: 2 },
        StrategyConfig::Eg,
    ]
}

/// Drives goal-oracle sessions over `cached` and `uncached` in lock-step,
/// asserting the cached move equals the cache-free reference at every
/// step. Runs two passes over the cached universe so the second pass is
/// served from a populated cache.
fn assert_cached_moves_match(cached: &Arc<Universe>, uncached: &Arc<Universe>, goal: &BitSet) {
    use join_query_inference::core::strategy::Strategy as InferenceStrategy;
    for config in deterministic_configs() {
        for pass in 0..2 {
            let mut s_cached = config.build();
            let mut s_uncached = config.build();
            let mut st_cached = InferenceState::new(Arc::clone(cached));
            let mut st_uncached = InferenceState::new(Arc::clone(uncached));
            let mut step = 0usize;
            loop {
                let a = InferenceStrategy::next(s_cached.as_mut(), &st_cached)
                    .expect("deterministic strategies are infallible");
                let b = InferenceStrategy::next(s_uncached.as_mut(), &st_uncached)
                    .expect("deterministic strategies are infallible");
                assert_eq!(
                    a, b,
                    "cached move diverges from uncached for {config} at step {step} (pass {pass})"
                );
                let Some(c) = a else { break };
                let label = if goal.is_subset(cached.sig(c)) {
                    Label::Positive
                } else {
                    Label::Negative
                };
                st_cached.apply(c, label).expect("informative class");
                st_uncached.apply(c, label).expect("informative class");
                step += 1;
                assert!(step <= cached.num_classes() + 1, "runaway session");
            }
        }
    }
    let stats = cached.decision_cache_stats();
    assert!(stats.hits > 0, "the second pass must hit the cache");
    assert!(stats.bytes <= stats.budget_bytes.max(1));
}

proptest! {
    /// Tentpole equivalence: for every deterministic strategy, in BOTH
    /// phases (all-negative openings and below-Ω positive states), the
    /// move served through the universe-level decision cache equals the
    /// move computed without any cache — across arbitrary instances and
    /// goals, including repeat sessions over the same warm universe.
    #[test]
    fn cached_moves_match_uncached(inst in small_instance(), m in goal_mask()) {
        let goal = mask_to_theta(inst.pairs().len(), m);
        let cached = Arc::new(Universe::build(inst.clone()));
        let uncached = Arc::new(Universe::build(inst).with_decision_cache_budget(0));
        assert_cached_moves_match(&cached, &uncached, &goal);
    }

    /// The same equivalence under byte-budget pressure: a cache big enough
    /// for only a few entries keeps evicting mid-session, and every probe
    /// must still return exactly the uncached move.
    #[test]
    fn cached_moves_match_uncached_under_eviction(
        inst in small_instance(),
        m in goal_mask(),
    ) {
        let goal = mask_to_theta(inst.pairs().len(), m);
        // ~1 KiB: a handful of entries, so inserts keep evicting the
        // oldest ones, including entries hit moments before.
        let cached = Arc::new(Universe::build(inst.clone()).with_decision_cache_budget(1 << 10));
        let uncached = Arc::new(Universe::build(inst).with_decision_cache_budget(0));
        for config in deterministic_configs() {
            use join_query_inference::core::strategy::Strategy as InferenceStrategy;
            let mut s_cached = config.build();
            let mut s_uncached = config.build();
            let mut st_cached = InferenceState::new(Arc::clone(&cached));
            let mut st_uncached = InferenceState::new(Arc::clone(&uncached));
            loop {
                let a = InferenceStrategy::next(s_cached.as_mut(), &st_cached).unwrap();
                let b = InferenceStrategy::next(s_uncached.as_mut(), &st_uncached).unwrap();
                prop_assert_eq!(a, b, "eviction-pressure move diverges for {}", config);
                let Some(c) = a else { break };
                let label = if goal.is_subset(cached.sig(c)) {
                    Label::Positive
                } else {
                    Label::Negative
                };
                st_cached.apply(c, label).unwrap();
                st_uncached.apply(c, label).unwrap();
            }
        }
        let stats = cached.decision_cache_stats();
        prop_assert!(stats.bytes <= 1 << 10, "cache exceeded its byte budget");
    }
}

/// Multi-word **negative masks** (> 64 classes): cached ≡ uncached for
/// every deterministic strategy on an instance whose class masks span
/// several words, driven by goals that exercise both phases.
#[test]
fn cached_moves_match_uncached_beyond_64_classes() {
    let inst = multiword_class_instance();
    let cached = Arc::new(Universe::build(inst.clone()));
    let uncached = Arc::new(Universe::build(inst).with_decision_cache_budget(0));
    assert!(cached.num_classes() > 64, "want multi-word class masks");
    // Ω itself (all-negative answers, pure negative phase) and a small
    // predicate (positives arrive, θ shrinks below Ω).
    let nbits = cached.omega_len();
    for goal in [cached.omega(), BitSet::from_iter(nbits, [0usize, 4])] {
        assert_cached_moves_match(&cached, &uncached, &goal);
    }
}

/// Multi-word **Ω** (m = 70, two words per signature/θ): cached ≡ uncached
/// with positive-phase keys that carry a genuinely multi-word T(S⁺).
#[test]
fn cached_moves_match_uncached_on_wide_omega() {
    let mut b = InstanceBuilder::new();
    let p_attrs: Vec<String> = (0..70).map(|j| format!("B{j}")).collect();
    let p_refs: Vec<&str> = p_attrs.iter().map(String::as_str).collect();
    b.relation_r("R", &["A1"]);
    b.relation_p("P", &p_refs);
    for r in [0i64, 1, 2] {
        b.row_r_ints(&[r]);
    }
    for s in 0..3i64 {
        let row: Vec<i64> = (0..70).map(|j| (j as i64 + s) % 4).collect();
        b.row_p_ints(&row);
    }
    let inst = b.build().expect("well-formed");
    let cached = Arc::new(Universe::build(inst.clone()));
    let uncached = Arc::new(Universe::build(inst).with_decision_cache_budget(0));
    assert!(cached.omega_len() > 64, "want multi-word Ω");
    let goal = BitSet::from_iter(cached.omega_len(), [1usize, 67]);
    assert_cached_moves_match(&cached, &uncached, &goal);
}

// ---------------------------------------------------------------------------
// Streaming ingestion ≡ materialized build
// ---------------------------------------------------------------------------

use join_query_inference::core::IngestOptions;
use join_query_inference::relation::{RowChunk, Side, StreamSchema};

/// The instance's rows re-cut into side-tagged chunks of `chunk_rows`,
/// plus the matching [`StreamSchema`] (same interner, same schemas), so a
/// streamed build sees byte-identical input to the materialized one.
fn chunked(inst: &Instance, chunk_rows: usize) -> (StreamSchema, Vec<RowChunk>) {
    let schema = StreamSchema::new(
        inst.interner_handle(),
        inst.r().schema().clone(),
        inst.p().schema().clone(),
    )
    .expect("instance schemas are disjoint");
    let mut chunks = Vec::new();
    for rows in inst.r().rows().chunks(chunk_rows) {
        chunks.push(RowChunk {
            side: Side::R,
            rows: rows.to_vec(),
        });
    }
    for rows in inst.p().rows().chunks(chunk_rows) {
        chunks.push(RowChunk {
            side: Side::P,
            rows: rows.to_vec(),
        });
    }
    (schema, chunks)
}

/// Asserts a streamed universe is indistinguishable from the materialized
/// one everywhere the inference layer looks: class count and order,
/// signatures, weights, profile counts, closure masks, and representative
/// tuples (compared by content — the streamed instance holds one row per
/// distinct profile, so row *indices* legitimately differ).
fn assert_universes_equivalent(materialized: &Universe, streamed: &Universe) {
    assert_eq!(streamed.num_classes(), materialized.num_classes());
    assert_eq!(streamed.sigs(), materialized.sigs());
    assert_eq!(streamed.counts(), materialized.counts());
    assert_eq!(streamed.total_tuples(), materialized.total_tuples());
    assert_eq!(
        streamed.distinct_r_profiles(),
        materialized.distinct_r_profiles()
    );
    assert_eq!(
        streamed.distinct_p_profiles(),
        materialized.distinct_p_profiles()
    );
    let (mc, sc) = (materialized.closure(), streamed.closure());
    assert_eq!(sc.classes(), mc.classes());
    for b in 0..materialized.omega_len() {
        assert_eq!(sc.members(b), mc.members(b), "members mask of Ω-bit {b}");
    }
    assert_eq!(sc.has_static_masks(), mc.has_static_masks());
    for c in 0..mc.classes() {
        assert_eq!(sc.up(c), mc.up(c), "up mask of class {c}");
        assert_eq!(sc.down(c), mc.down(c), "down mask of class {c}");
        let (mri, mpi) = materialized.representative(c);
        let (sri, spi) = streamed.representative(c);
        // Both instances share one interner, so symbol-level equality is
        // value-level equality.
        assert_eq!(
            streamed.instance().r().rows()[sri].symbols(),
            materialized.instance().r().rows()[mri].symbols(),
            "R representative of class {c}"
        );
        assert_eq!(
            streamed.instance().p().rows()[spi].symbols(),
            materialized.instance().p().rows()[mpi].symbols(),
            "P representative of class {c}"
        );
    }
}

/// Streaming options for `threads` workers, with or without live tables.
fn ingest_options(threads: usize, live: bool) -> IngestOptions {
    IngestOptions {
        live,
        ..IngestOptions::with_threads(threads)
    }
}

/// Streams `inst` at every (thread count × chunk size × live) combination
/// and checks each result against `Universe::build`.
fn assert_streaming_matches_build(inst: Instance) {
    let materialized = Universe::build(inst.clone());
    for threads in [1usize, 2, 8] {
        for chunk_rows in [1usize, 7, 4096] {
            for live in [false, true] {
                let (schema, chunks) = chunked(&inst, chunk_rows);
                let (streamed, stats) = Universe::build_streaming(
                    schema,
                    || chunks.clone().into_iter(),
                    &ingest_options(threads, live),
                );
                assert_eq!(stats.rows_r as usize, inst.r().len());
                assert_eq!(stats.rows_p as usize, inst.p().len());
                assert_eq!(streamed.is_live(), live);
                assert_universes_equivalent(&materialized, &streamed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole equivalence: `Universe::build_streaming` ≡
    /// `Universe::build` — identical class signatures, ids, counts,
    /// closure masks, and representative tuples — on duplicate-heavy
    /// instances, for 1/2/8 ingestion threads × chunk sizes {1, 7, 4096},
    /// with and without live tables.
    #[test]
    fn streamed_build_matches_materialized(inst in duplicate_heavy_instance()) {
        assert_streaming_matches_build(inst);
    }
}

/// The same equivalence on duplicate-heavy `ScaledConfig` instances (the
/// scaling sweep's generator, where profile deduplication collapses
/// thousands of rows into ≤ 2⁶ profiles per side).
#[test]
fn streamed_build_matches_materialized_on_scaled_config() {
    use join_query_inference::datagen::ScaledConfig;
    for seed in [1u64, 0x5CA1E] {
        let inst = ScaledConfig::new(3, 3, 200, 200, 8, 8, 12).generate(seed);
        assert_streaming_matches_build(inst);
    }
}

/// The same equivalence on TPC-H small (Join 3, Customer ⋈ Orders — the
/// low-duplication end where nearly every row is its own profile).
#[test]
fn streamed_build_matches_materialized_on_tpch_small() {
    use join_query_inference::datagen::tpch::{workload, TpchJoin, TpchScale};
    let w = workload(TpchScale::Small, TpchJoin::Join3, 7);
    assert_streaming_matches_build(w.instance);
}

/// End-to-end: the `SfStream` chunk generator (parallel workers, bounded
/// channels) streamed into `build_streaming` equals materializing the
/// same stream and running `Universe::build`, for several worker counts,
/// with and without live tables.
#[test]
fn sf_stream_streamed_matches_materialized() {
    use join_query_inference::datagen::stream::{SfConfig, SfJoin, SfStream};
    let config = SfConfig::new(0.0005, 11).with_chunk_rows(128);
    for join in [SfJoin::CustomerOrders, SfJoin::OrdersLineitem] {
        let stream = SfStream::new(config, join).expect("well-formed stream schema");
        let materialized = Universe::build(stream.materialize().expect("well-formed rows"));
        for (threads, gen_workers) in [(1usize, 1usize), (2, 3), (8, 2)] {
            for live in [false, true] {
                let (streamed, stats) = Universe::build_streaming(
                    stream.schema().clone(),
                    || stream.par_chunks(gen_workers, 2),
                    &ingest_options(threads, live),
                );
                assert!(stats.rows_r > 0 && stats.rows_p > 0);
                assert_eq!(streamed.is_live(), live);
                assert_universes_equivalent(&materialized, &streamed);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental universe maintenance ≡ rebuild of the edited instance
// ---------------------------------------------------------------------------

use join_query_inference::core::{ClassId, DeltaError, UniverseDelta};
use join_query_inference::relation::{Relation, Tuple};
use std::collections::{BTreeMap, BTreeSet};

/// One abstract edit: side, insert-or-delete, row material (inserts draw
/// values overlapping the instance pool — recombining live symbols — and
/// past it, so genuinely fresh and newly-shared symbols appear too), and
/// an index seed (deletes pick a surviving row with it).
type AbstractEdit = (u8, u8, [i64; 2], usize);

fn edit_scripts() -> impl Strategy<Value = Vec<AbstractEdit>> {
    prop::collection::vec(
        (0u8..2, 0u8..2, prop::array::uniform2(0i64..6), 0usize..64),
        1..10,
    )
}

/// Folds an abstract script into a concrete [`UniverseDelta`] against
/// `inst`, mirroring every edit on plain row lists (the rebuild oracle's
/// input). A delete aimed at an emptied side falls back to an insert, so
/// every generated script is valid by construction.
fn concrete_delta(
    inst: &Instance,
    script: &[AbstractEdit],
) -> (UniverseDelta, Vec<Tuple>, Vec<Tuple>) {
    let (r, p) = (inst.r().rows().to_vec(), inst.p().rows().to_vec());
    fold_script(inst, r, p, script)
}

/// [`concrete_delta`] against the rows `r` and `p` (interned through
/// `inst`'s interner) instead of `inst`'s own.
fn fold_script(
    inst: &Instance,
    mut r: Vec<Tuple>,
    mut p: Vec<Tuple>,
    script: &[AbstractEdit],
) -> (UniverseDelta, Vec<Tuple>, Vec<Tuple>) {
    let mut delta = UniverseDelta::new();
    for &(on_r, insert, vals, pick) in script {
        let (side, rows) = if on_r == 1 {
            (Side::R, &mut r)
        } else {
            (Side::P, &mut p)
        };
        if insert == 1 || rows.is_empty() {
            let row = Tuple::intern(inst.interner(), &[Value::int(vals[0]), Value::int(vals[1])]);
            delta.insert(side, row.clone());
            rows.push(row);
        } else {
            let row = rows.remove(pick % rows.len());
            delta.delete(side, row);
        }
    }
    (delta, r, p)
}

/// `Universe::build` of the edited rows, sharing the original interner
/// (so symbol-level comparisons against the delta result are value-level
/// comparisons), with the decision cache sized by `cache_bytes`.
fn rebuild_edited(inst: &Instance, r: Vec<Tuple>, p: Vec<Tuple>, cache_bytes: usize) -> Universe {
    let mut rr = Relation::new(inst.r().schema().clone());
    for t in r {
        rr.push_tuple(t).expect("edited rows keep the schema arity");
    }
    let mut pp = Relation::new(inst.p().schema().clone());
    for t in p {
        pp.push_tuple(t).expect("edited rows keep the schema arity");
    }
    let edited = Instance::new(inst.interner_handle(), rr, pp).expect("schemas are disjoint");
    Universe::build(edited).with_decision_cache_budget(cache_bytes)
}

/// Class structure keyed by signature words rather than class id: the
/// count, and the up/down closure sets expressed as signature sets. Two
/// universes with equal maps are indistinguishable to the inference
/// layer up to class relabeling.
#[allow(clippy::type_complexity)]
fn class_structure(
    u: &Universe,
) -> BTreeMap<Vec<u64>, (u64, BTreeSet<Vec<u64>>, BTreeSet<Vec<u64>>)> {
    let n = u.num_classes();
    let sig_words = |c: usize| u.sig(c as ClassId).words().to_vec();
    let mask_sigs = |mask: &[u64]| -> BTreeSet<Vec<u64>> {
        (0..n)
            .filter(|&t| mask[t / 64] >> (t % 64) & 1 == 1)
            .map(sig_words)
            .collect()
    };
    (0..n)
        .map(|c| {
            let up = u
                .closure()
                .up(c as ClassId)
                .map(mask_sigs)
                .unwrap_or_default();
            let down = u
                .closure()
                .down(c as ClassId)
                .map(mask_sigs)
                .unwrap_or_default();
            (sig_words(c), (u.count(c as ClassId), up, down))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite equivalence: `Universe::apply_delta` over a random edit
    /// script equals `Universe::build` of the edited instance — same
    /// signature multiset, counts, and closure structure — on
    /// duplicate-heavy instances where deletes retire whole profiles and
    /// inserts mint new ones. The same script applied to the live
    /// streaming build of the instance lands on the same universe.
    #[test]
    fn delta_applied_matches_rebuild_of_edited_instance(
        inst in duplicate_heavy_instance(),
        script in edit_scripts(),
        chunk_rows in 1usize..9,
    ) {
        let base = Universe::build(inst.clone());
        let (delta, r, p) = concrete_delta(&inst, &script);
        let applied = base.apply_delta(&delta).expect("folded scripts are valid");
        let rebuilt = rebuild_edited(&inst, r, p, 0);

        let (schema, chunks) = chunked(&inst, chunk_rows);
        let (live_base, _) = Universe::build_streaming(
            schema,
            || chunks.clone().into_iter(),
            &ingest_options(1, true),
        );
        let live_applied = live_base.apply_delta(&delta).expect("folded scripts are valid");
        prop_assert_eq!(
            class_structure(&live_applied),
            class_structure(&rebuilt),
            "live-base class structure diverged from the from-scratch build"
        );
        prop_assert_eq!(live_applied.sigs(), applied.sigs());
        prop_assert_eq!(live_applied.counts(), applied.counts());
        prop_assert_eq!(live_applied.fingerprint(), applied.fingerprint());

        prop_assert_eq!(applied.epoch(), 1);
        prop_assert!(applied.fingerprint() != base.fingerprint());
        prop_assert_eq!(applied.total_tuples(), rebuilt.total_tuples());
        prop_assert_eq!(applied.num_classes(), rebuilt.num_classes());
        prop_assert_eq!(
            class_structure(&applied),
            class_structure(&rebuilt),
            "class structure diverged from the from-scratch build"
        );
        // Profiles are grouped under the grow-only shared-symbol relation,
        // so the delta result may split rows a fresh build would merge —
        // never the other way round.
        prop_assert!(applied.distinct_r_profiles() >= rebuilt.distinct_r_profiles());
        prop_assert!(applied.distinct_p_profiles() >= rebuilt.distinct_p_profiles());
        // Every representative must live in the class it represents.
        for c in 0..applied.num_classes() {
            let (ri, pi) = applied.representative(c as ClassId);
            prop_assert_eq!(applied.class_of(ri, pi), Some(c as ClassId));
        }
    }
}

/// `inst` with `filler` extra R rows of fresh, pairwise distinct values,
/// so the live tables span several copy-on-write chunks (a chunk holds
/// 4096 records).
fn with_filler(inst: &Instance, filler: usize) -> Instance {
    let mut r = Relation::new(inst.r().schema().clone());
    for t in inst.r().rows() {
        r.push_tuple(t.clone()).expect("same schema");
    }
    for k in 0..filler as i64 {
        let values = [Value::int(1000 + 2 * k), Value::int(1001 + 2 * k)];
        r.push_tuple(Tuple::intern(inst.interner(), &values))
            .expect("arity 2");
    }
    Instance::new(inst.interner_handle(), r, inst.p().clone()).expect("schemas are disjoint")
}

/// Everything a delta may change about a live universe, by value.
#[allow(clippy::type_complexity)]
fn live_view(
    u: &Universe,
) -> (
    Option<(u64, u64)>,
    Vec<usize>,
    u64,
    u64,
    Vec<BitSet>,
    Vec<u64>,
) {
    (
        u.live_row_counts(),
        // By member: the capacity follows the shared interner, which the
        // scripts grow.
        u.live_shared_symbols()
            .map(|s| s.iter().collect())
            .unwrap_or_default(),
        u.content_fingerprint(),
        u.epoch(),
        u.sigs().to_vec(),
        u.counts().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Copy-on-write isolation: a delta result and a plain clone share
    /// their live tables' chunks with the universe they came from, and no
    /// write through either ever shows in it. Two lineages diverge from
    /// one live universe `U` by further deltas; `U` keeps its row counts,
    /// shared symbols, content fingerprint and epoch throughout, and
    /// re-applying the first script to `U` afterwards lands on the same
    /// universe as before. A script that fails with `MissingRow` on its
    /// last edit, after its earlier edits have written chunks, leaves `U`
    /// and every clone as they were.
    #[test]
    fn delta_clones_share_chunks_but_never_writes(
        inst in duplicate_heavy_instance(),
        filler in 0usize..9000,
        script in edit_scripts(),
        left in edit_scripts(),
        right in edit_scripts(),
    ) {
        let inst = with_filler(&inst, filler);
        let (schema, chunks) = chunked(&inst, 64);
        let (u, _) = Universe::build_streaming(
            schema,
            || chunks.clone().into_iter(),
            &ingest_options(1, true),
        );
        let base = live_view(&u);

        let (delta, r, p) = concrete_delta(&inst, &script);
        let applied = u.apply_delta(&delta).expect("folded scripts are valid");
        let first = live_view(&applied);
        prop_assert_eq!(&live_view(&u), &base);

        // Left lineage: onward from the delta result. Right lineage: the
        // same script from a plain clone of `U`, then other edits.
        let (d_left, _, _) = fold_script(&inst, r.clone(), p.clone(), &left);
        let left_next = applied.apply_delta(&d_left).expect("folded scripts are valid");
        let clone = u.clone();
        let again = clone.apply_delta(&delta).expect("folded scripts are valid");
        prop_assert_eq!(&live_view(&again), &first);
        let (d_right, _, _) = fold_script(&inst, r, p, &right);
        let right_next = again.apply_delta(&d_right).expect("folded scripts are valid");
        prop_assert_eq!(live_view(&u), base.clone());
        prop_assert_eq!(live_view(&clone), base.clone());
        prop_assert_eq!(live_view(&applied), first.clone());
        prop_assert_eq!(live_view(&again), first.clone());
        prop_assert_eq!(left_next.epoch(), 2);
        prop_assert_eq!(right_next.epoch(), 2);

        // Re-applying the first script from `U` after all that.
        let replayed = u.apply_delta(&delta).expect("folded scripts are valid");
        prop_assert_eq!(replayed.fingerprint(), applied.fingerprint());
        prop_assert_eq!(live_view(&replayed), first.clone());

        // A rejected script: valid edits, then a delete of a row that was
        // never there.
        let absent = Tuple::intern(inst.interner(), &[Value::int(-1), Value::int(-1)]);
        for (from, valid) in [(&u, &delta), (&clone, &delta), (&applied, &d_left)] {
            let mut rejected = valid.clone();
            rejected.delete(Side::R, absent.clone());
            let last = rejected.len() - 1;
            let before = live_view(from);
            let err = from.apply_delta(&rejected).expect_err("the last delete misses");
            prop_assert!(
                matches!(err, DeltaError::MissingRow { index, .. } if index == last),
                "{:?}",
                err
            );
            prop_assert_eq!(live_view(from), before);
        }
        prop_assert_eq!(live_view(&u), base);
        prop_assert_eq!(live_view(&applied), first);
    }
}

/// Regression: a move cached on the pre-delta universe is never served
/// after `apply_delta`. The delta result starts with an empty decision
/// cache, its epoch is folded into the cache key and the fingerprint,
/// and its cached moves still equal the uncached reference over the
/// edited data.
#[test]
fn post_delta_universe_serves_no_stale_cached_moves() {
    let mut b = InstanceBuilder::new();
    b.relation_r("R", &["A1", "A2"]);
    b.relation_p("P", &["B1", "B2"]);
    for r in [[0i64, 1], [0, 2], [2, 2], [1, 0]] {
        b.row_r_ints(&r);
    }
    for p in [[1i64, 1], [0, 1], [2, 0]] {
        b.row_p_ints(&p);
    }
    let inst = b.build().expect("well-formed");
    let base = Arc::new(Universe::build(inst.clone()));

    // Warm the pre-delta cache (the lock-step driver runs two passes, so
    // the second is served from the cache).
    let goal = mask_to_theta(inst.pairs().len(), 0b0101);
    let uncached = rebuild_edited(&inst, inst.r().rows().to_vec(), inst.p().rows().to_vec(), 0);
    assert_cached_moves_match(&base, &Arc::new(uncached), &goal);
    let warm = base.decision_cache_stats();
    assert!(warm.hits > 0 && warm.entries > 0, "pre-delta cache is warm");

    // A structural delta: (2,1) recombines live symbols into signatures
    // the base universe has no class for.
    let mut delta = UniverseDelta::new();
    let row = Tuple::intern(inst.interner(), &[Value::int(2), Value::int(1)]);
    delta.insert(Side::R, row.clone());
    let applied = Arc::new(base.apply_delta(&delta).expect("valid edit"));
    assert_eq!(applied.epoch(), 1);
    assert_ne!(applied.fingerprint(), base.fingerprint());

    // Nothing cached before the delta survives into the result: the
    // cache starts empty, and the epoch in the key makes even an
    // accidental carry-over unmatchable.
    let fresh = applied.decision_cache_stats();
    assert_eq!(fresh.hits, 0, "no pre-delta cached move was served");
    assert_eq!(fresh.entries, 0, "the post-delta cache starts empty");

    // And the post-delta universe's cached moves equal the uncached
    // reference built from scratch over the edited rows.
    let mut r = inst.r().rows().to_vec();
    r.push(row);
    let rebuilt_uncached = rebuild_edited(&inst, r, inst.p().rows().to_vec(), 0);
    assert_cached_moves_match(&applied, &Arc::new(rebuilt_uncached), &goal);
}
