//! Integration tests spanning the workspace crates: generators → universe →
//! strategies → engine, plus CSV ingestion.

use join_query_inference::datagen::tpch::{TpchScale, TpchTables};
use join_query_inference::datagen::{SyntheticConfig, PAPER_CONFIGS};
use join_query_inference::prelude::*;
use join_query_inference::relation::csv::{relation_from_csv, relation_to_csv};
use join_query_inference::relation::{Instance, Interner};
use std::sync::Arc;

/// Every paper strategy recovers every TPC-H goal join on generated data,
/// at both scales.
#[test]
fn tpch_joins_recovered_by_all_strategies() {
    for scale in [TpchScale::Small, TpchScale::Large] {
        let tables = TpchTables::generate(scale, 11);
        for w in tables.workloads() {
            let universe = Arc::new(Universe::build(w.instance.clone()));
            for config in StrategyConfig::paper(1) {
                let mut oracle = PredicateOracle::new(w.goal.clone());
                let run = run_inference(&universe, config.build(), &mut oracle)
                    .expect("consistent oracle");
                assert_eq!(
                    universe.instance().equijoin(&run.predicate),
                    universe.instance().equijoin(&w.goal),
                    "{config} missed {} at {scale}",
                    w.join
                );
            }
        }
    }
}

/// On synthetic data, inference converges for goals of every size and the
/// inferred predicate is always the most specific consistent one.
#[test]
fn synthetic_goals_of_every_size_converge() {
    let cfg = SyntheticConfig::new(2, 3, 25, 10);
    let universe = Arc::new(Universe::build(cfg.generate(3)));
    let groups = join_query_inference::core::lattice::goals_by_size(&universe, 200_000).unwrap();
    for goals in &groups {
        for goal in goals.iter().take(5) {
            let mut oracle = PredicateOracle::new(goal.clone());
            let run = run_inference(&universe, Box::new(TopDown::new()), &mut oracle).unwrap();
            assert_eq!(
                universe.instance().equijoin(&run.predicate),
                universe.instance().equijoin(goal),
            );
            assert!(run.sample.is_consistent(&universe));
            assert!(!join_query_inference::core::certain::any_informative(
                &universe,
                &run.sample
            ));
        }
    }
}

/// The halt condition is tight: after a full run, *every* unlabeled class is
/// certain, with the label the goal predicate would give it.
#[test]
fn after_halt_every_class_is_certain_with_the_true_label() {
    let cfg = SyntheticConfig::new(3, 3, 20, 8);
    let universe = Arc::new(Universe::build(cfg.generate(5)));
    let goal = {
        // Pick a nonempty signature as goal so the join is non-trivial.
        let c = (0..universe.num_classes())
            .max_by_key(|&c| universe.sig(c).len())
            .expect("classes exist");
        universe.sig(c).clone()
    };
    let mut oracle = PredicateOracle::new(goal.clone());
    let run = run_inference(&universe, Box::new(Lookahead::l1s()), &mut oracle).unwrap();
    for c in 0..universe.num_classes() {
        let truth = if goal.is_subset(universe.sig(c)) {
            Label::Positive
        } else {
            Label::Negative
        };
        let known = run.sample.label(c).or_else(|| {
            join_query_inference::core::certain::certain_label(&universe, &run.sample, c)
        });
        assert_eq!(known, Some(truth), "class {c} not resolved correctly");
    }
}

/// CSV round trip feeds the whole pipeline: parse two tables, infer a join.
#[test]
fn csv_to_inference_pipeline() {
    let interner = Arc::new(Interner::new());
    let flights = "From,To,Airline\nParis,Lille,AF\nLille,NYC,AA\nNYC,Paris,AA\nParis,NYC,AF\n";
    let hotels = "City,Discount\nNYC,AA\nParis,None\nLille,AF\n";
    let r = relation_from_csv(&interner, "Flight", flights).unwrap();
    let p = relation_from_csv(&interner, "Hotel", hotels).unwrap();
    // Round trip preserves content.
    assert_eq!(relation_to_csv(&interner, &r), flights);
    let instance = Instance::new(interner, r, p).unwrap();
    let goal = predicate_from_names(&instance, &[("To", "City")]).unwrap();
    let universe = Arc::new(Universe::build(instance));
    let mut oracle = PredicateOracle::new(goal.clone());
    let run = run_inference(&universe, Box::new(TopDown::new()), &mut oracle).unwrap();
    assert_eq!(
        universe.instance().equijoin(&run.predicate),
        universe.instance().equijoin(&goal)
    );
}

/// Different strategies may ask different questions but always agree on the
/// semantics of the result (instance equivalence — §3.3).
#[test]
fn strategies_agree_semantically_pairwise() {
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 4, 15, 6).generate(13),
    ));
    let groups = join_query_inference::core::lattice::goals_by_size(&universe, 200_000).unwrap();
    let goals: Vec<_> = groups.iter().flat_map(|g| g.iter().take(3)).collect();
    for goal in goals {
        let mut results = Vec::new();
        for config in StrategyConfig::paper(17) {
            let mut oracle = PredicateOracle::new(goal.clone());
            let run = run_inference(&universe, config.build(), &mut oracle).unwrap();
            results.push(universe.instance().equijoin(&run.predicate));
        }
        for pair in results.windows(2) {
            assert_eq!(pair[0], pair[1], "strategies disagree on goal {goal:?}");
        }
    }
}

/// The average interaction counts reproduce the paper's headline ordering
/// on synthetic data: the informed strategies beat RND, and TD dominates BU
/// for size-2 goals (§5.3).
#[test]
fn figure_7_shape_td_beats_bu_on_size_2_goals() {
    let cfg = PAPER_CONFIGS[1]; // (3,3,50,100)
    let mut bu_total = 0usize;
    let mut td_total = 0usize;
    let mut goals_seen = 0usize;
    for seed in 0..3u64 {
        let universe = Arc::new(Universe::build(cfg.generate(seed)));
        let groups =
            join_query_inference::core::lattice::goals_by_size(&universe, 500_000).unwrap();
        let Some(size2) = groups.get(2) else { continue };
        for goal in size2.iter().take(6) {
            goals_seen += 1;
            for (config, total) in [
                (StrategyConfig::Bu, &mut bu_total),
                (StrategyConfig::Td, &mut td_total),
            ] {
                let mut oracle = PredicateOracle::new(goal.clone());
                *total += run_inference(&universe, config.build(), &mut oracle)
                    .unwrap()
                    .interactions;
            }
        }
    }
    assert!(goals_seen > 0, "no size-2 goals found");
    assert!(
        td_total < bu_total,
        "TD ({td_total}) should beat BU ({bu_total}) on size-2 goals"
    );
}
