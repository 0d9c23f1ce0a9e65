//! Reverse-engineering key–foreign-key joins on TPC-H-shaped data (§5.1).
//!
//! The system knows nothing about primary or foreign keys; it discovers the
//! five TPC-H joins purely from membership answers, and we compare how many
//! questions each strategy needs — a miniature of Figure 6.
//!
//! Run with `cargo run --release --example tpch_reverse_engineering`.

use join_query_inference::datagen::tpch::{TpchJoin, TpchScale, TpchTables};
use join_query_inference::prelude::*;
use std::sync::Arc;

fn main() {
    let tables = TpchTables::generate(TpchScale::Small, 2024);
    println!("strategy interactions per TPC-H join (goal never revealed):");
    println!();
    print!("{:8}", "join");
    for config in StrategyConfig::paper(42) {
        print!(" {:>5}", config.build().name());
    }
    println!("  inferred predicate (most specific, via TD)");

    for join in TpchJoin::ALL {
        let w = tables.workload(join);
        let universe = Arc::new(Universe::build(w.instance.clone()));
        print!("{:8}", join.name());
        let mut td_predicate = None;
        for config in StrategyConfig::paper(42) {
            let mut oracle = PredicateOracle::new(w.goal.clone());
            let run = run_inference(&universe, config.build(), &mut oracle)
                .expect("goal oracles are consistent");
            // Every strategy must land on an instance-equivalent predicate.
            assert_eq!(
                universe.instance().equijoin(&run.predicate),
                universe.instance().equijoin(&w.goal),
            );
            if config == StrategyConfig::Td {
                td_predicate = Some(run.predicate.clone());
            }
            print!(" {:>5}", run.interactions);
        }
        let inferred = td_predicate.expect("TD ran");
        println!("  {}", w.instance.predicate_string(&inferred));
    }
    println!();
    println!(
        "note: the inferred predicate can be more specific than the PK–FK\n\
         join when the instance cannot distinguish them (§3.3 instance-\n\
         equivalence) — exactly the paper's point about unknown constraints."
    );
}
