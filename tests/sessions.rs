//! Integration tests for the step-by-step `Session` API: equivalence with
//! the batch engine, early stopping, and misuse handling.

use join_query_inference::core::session::Session;
use join_query_inference::datagen::SyntheticConfig;
use join_query_inference::prelude::*;
use std::sync::Arc;

/// Algorithm 1 written out over `InferenceState` alone, without `Session`:
/// ask the strategy, apply the goal's label, check consistency. The
/// reference that sessions and the engine (itself a `Session`) are
/// compared with.
fn reference_run(
    universe: &Arc<Universe>,
    mut strategy: DynStrategy,
    goal: &BitSet,
) -> InferenceState {
    let mut state = InferenceState::new(Arc::clone(universe));
    while let Some(c) = strategy.next(&state).unwrap() {
        let label = if goal.is_subset(universe.sig(c)) {
            Label::Positive
        } else {
            Label::Negative
        };
        state.apply(c, label).unwrap();
        assert!(
            state.is_consistent(),
            "class {c:?} made the sample inconsistent"
        );
    }
    state
}

/// Driving a session manually, and the batch engine, both produce
/// byte-identical history, predicate and interaction count to the
/// reference loop, for every paper strategy on random instances.
#[test]
fn session_equals_engine_for_every_strategy() {
    for seed in 0..4u64 {
        let universe = Arc::new(Universe::build(
            SyntheticConfig::new(2, 3, 12, 5).generate(seed),
        ));
        let goals = join_query_inference::core::lattice::goals_by_size(&universe, 100_000).unwrap();
        let goal = goals
            .iter()
            .rev()
            .find_map(|g| g.first())
            .expect("some goal")
            .clone();
        // RND must use the same seed in both runs to stay comparable.
        for config in StrategyConfig::paper(seed) {
            let reference = reference_run(&universe, config.build(), &goal);
            let mut oracle = PredicateOracle::new(goal.clone());
            let engine_run = run_inference(&universe, config.build(), &mut oracle).unwrap();
            assert_eq!(
                &engine_run.history[..],
                reference.history(),
                "{config} engine"
            );
            assert_eq!(&engine_run.predicate, reference.theta_possible());

            let mut session = Session::with_config(Arc::clone(&universe), &config);
            while let Some(candidate) = session.next().unwrap() {
                let label = if goal.is_subset(universe.sig(candidate.class)) {
                    Label::Positive
                } else {
                    Label::Negative
                };
                session.answer(label).unwrap();
            }
            assert!(session.is_done());
            assert_eq!(session.history(), reference.history(), "{config} history");
            assert_eq!(&session.inferred_predicate(), reference.theta_possible());
            assert_eq!(session.interactions(), reference.len());
            assert_eq!(engine_run.interactions, reference.len());
        }
    }
}

/// Stopping early returns T(S⁺) — usable, monotonically more specific
/// with more positive answers, and always consistent with the answers.
#[test]
fn early_stop_predicates_are_consistent_prefixes() {
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(3, 3, 15, 6).generate(9),
    ));
    let goals = join_query_inference::core::lattice::goals_by_size(&universe, 100_000).unwrap();
    let goal = goals
        .iter()
        .rev()
        .find_map(|g| g.first())
        .expect("some goal")
        .clone();
    let mut session = Session::new(Arc::clone(&universe), Box::new(Lookahead::l1s()));
    let mut previous = universe.omega();
    while let Some(candidate) = session.next().unwrap() {
        let label = if goal.is_subset(universe.sig(candidate.class)) {
            Label::Positive
        } else {
            Label::Negative
        };
        session.answer(label).unwrap();
        let current = session.inferred_predicate();
        // T(S⁺) only loses pairs over time (intersection of signatures).
        assert!(current.is_subset(&previous));
        assert!(session.sample().is_consistent(&universe));
        previous = current;
    }
    // At the end, instance-equivalent to the goal.
    assert_eq!(
        universe.instance().equijoin(&previous),
        universe.instance().equijoin(&goal)
    );
}

/// Misuse is rejected with the documented errors, and the session stays
/// usable afterwards.
#[test]
fn misuse_errors_do_not_poison_the_session() {
    use join_query_inference::core::InferenceError;
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 2, 8, 4).generate(1),
    ));
    let mut session = Session::new(Arc::clone(&universe), Box::new(TopDown::new()));
    assert_eq!(
        session.answer(Label::Positive).unwrap_err(),
        InferenceError::NoPendingCandidate
    );
    let first = session.next().unwrap().expect("something informative");
    assert_eq!(
        session.next().unwrap_err(),
        InferenceError::CandidateAlreadyPending
    );
    session.answer(Label::Negative).unwrap();
    // Still progresses normally.
    let second = session.next().unwrap().expect("more informative tuples");
    assert_ne!(first.class, second.class);
    session.answer(Label::Negative).unwrap();
    assert!(session.interactions() == 2);
}

/// `known_label` grows monotonically: once a class is decided (labeled or
/// certain) it stays decided with the same label.
#[test]
fn known_labels_are_stable() {
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 3, 10, 4).generate(4),
    ));
    let goals = join_query_inference::core::lattice::goals_by_size(&universe, 100_000).unwrap();
    let goal = goals
        .iter()
        .rev()
        .find_map(|g| g.first())
        .expect("some goal")
        .clone();
    let mut session = Session::new(Arc::clone(&universe), Box::new(BottomUp::new()));
    let mut decided: Vec<Option<Label>> = vec![None; universe.num_classes()];
    while let Some(candidate) = session.next().unwrap() {
        let label = if goal.is_subset(universe.sig(candidate.class)) {
            Label::Positive
        } else {
            Label::Negative
        };
        session.answer(label).unwrap();
        for (c, slot) in decided.iter_mut().enumerate() {
            let now = session.known_label(c);
            if let Some(prev) = *slot {
                assert_eq!(now, Some(prev), "class {c} flipped its decided label");
            } else {
                *slot = now;
            }
        }
    }
    // Everything is decided at the end.
    assert!(decided.iter().all(Option::is_some));
}
