//! Concurrency tests: the shared interner is the only synchronized piece
//! of the substrate (parking_lot RwLock); everything downstream is
//! immutable after construction and safely shareable across threads.

use join_query_inference::prelude::*;
use join_query_inference::relation::{Interner, Symbol};
use std::sync::Arc;
use std::thread;

/// Many threads interning overlapping value sets agree on every symbol.
#[test]
fn interner_is_thread_safe_and_canonical() {
    let interner = Arc::new(Interner::new());
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let interner = Arc::clone(&interner);
            thread::spawn(move || {
                let mut symbols = Vec::new();
                // Overlapping ranges so every value is interned by several
                // threads racing each other.
                for i in 0..200i64 {
                    let v = Value::int((i + t) % 150);
                    symbols.push((v.clone(), interner.intern(&v)));
                }
                symbols
            })
        })
        .collect();
    let mut all: Vec<(Value, Symbol)> = Vec::new();
    for h in handles {
        all.extend(h.join().expect("no panics"));
    }
    // Canonical: equal values always got the same symbol, across threads.
    for (v, s) in &all {
        assert_eq!(interner.get(v), Some(*s));
        assert_eq!(&interner.resolve(*s), v);
    }
    assert!(interner.len() <= 150 + 8);
}

/// A built universe is immutable and can drive inference runs from many
/// threads simultaneously (e.g. a crowdsourcing backend fanning out
/// sessions).
#[test]
fn parallel_inference_runs_share_one_universe() {
    use join_query_inference::datagen::SyntheticConfig;
    let universe = Arc::new(Universe::build(
        SyntheticConfig::new(2, 3, 15, 6).generate(2),
    ));
    let goals = join_query_inference::core::lattice::goals_by_size(&universe, 100_000)
        .unwrap()
        .into_iter()
        .flatten()
        .take(8)
        .collect::<Vec<_>>();
    let handles: Vec<_> = goals
        .into_iter()
        .map(|goal| {
            let universe = Arc::clone(&universe);
            thread::spawn(move || {
                let mut oracle = PredicateOracle::new(goal.clone());
                let run = run_inference(&universe, Box::new(TopDown::new()), &mut oracle)
                    .expect("consistent oracle");
                assert_eq!(
                    universe.instance().equijoin(&run.predicate),
                    universe.instance().equijoin(&goal)
                );
                run.interactions
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().expect("no panics") >= 1);
    }
}
