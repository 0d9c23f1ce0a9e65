//! Crowdsourcing cost estimation (§1, §7).
//!
//! The paper motivates minimizing interactions by crowdsourcing economics:
//! every label is a paid microtask. This example prices the inference of a
//! hidden join on synthetic data under each strategy, at a fixed cost per
//! label, and shows the skyline strategies' savings — including the
//! worst-case guarantee against an adversarial (maximally unhelpful)
//! worker.
//!
//! Run with `cargo run --release --example crowdsourcing_cost`.

use join_query_inference::datagen::SyntheticConfig;
use join_query_inference::prelude::*;
use std::sync::Arc;

const CENTS_PER_LABEL: f64 = 5.0;

fn main() {
    let cfg = SyntheticConfig::new(3, 3, 50, 100);
    println!("dataset: synthetic {cfg}, hidden joins of size 1..=3");
    println!("microtask price: {CENTS_PER_LABEL} ¢/label");
    println!();

    let universe = Arc::new(Universe::build(cfg.generate(7)));
    let groups = join_query_inference::core::lattice::goals_by_size(&universe, 200_000)
        .expect("lattice fits in memory");

    println!(
        "{:>6} {:>7} {:>9} {:>9} {:>11}",
        "|θG|", "goals", "strategy", "labels", "cost"
    );
    for size in 1..=3usize {
        let Some(goals) = groups.get(size) else {
            continue;
        };
        let sample: Vec<_> = goals.iter().take(10).collect();
        if sample.is_empty() {
            continue;
        }
        for config in StrategyConfig::paper(99) {
            let name = config.build().name().to_string();
            let mut total = 0usize;
            for goal in &sample {
                let mut oracle = PredicateOracle::new((*goal).clone());
                let run = run_inference(&universe, config.build(), &mut oracle)
                    .expect("consistent oracle");
                total += run.interactions;
            }
            let mean = total as f64 / sample.len() as f64;
            println!(
                "{:>6} {:>7} {:>9} {:>9.1} {:>10.1}¢",
                size,
                sample.len(),
                name,
                mean,
                mean * CENTS_PER_LABEL
            );
        }
        println!();
    }

    // Worst-case budget: an adversarial worker on the paper's Example 2.1.
    let tiny = Arc::new(Universe::build(
        join_query_inference::core::paper::example_2_1(),
    ));
    let optimal =
        join_query_inference::core::strategy::optimal_worst_case(&tiny, 14).expect("12 classes");
    println!(
        "worst-case budget on Example 2.1: {} labels ({}¢) under the \
         minimax-optimal strategy",
        optimal,
        optimal as f64 * CENTS_PER_LABEL
    );
    for strategy in [
        Box::new(BottomUp::new()) as DynStrategy,
        Box::new(TopDown::new()),
        Box::new(Lookahead::l2s()),
    ] {
        let name = strategy.name().to_string();
        let mut adversary = AdversarialOracle::new();
        let run =
            run_inference(&tiny, strategy, &mut adversary).expect("adversary stays consistent");
        println!(
            "  {:>3} against an adversarial worker: {} labels ({}¢)",
            name,
            run.interactions,
            run.interactions as f64 * CENTS_PER_LABEL
        );
    }
}
