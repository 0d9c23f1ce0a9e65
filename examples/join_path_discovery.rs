//! Join-path discovery across three relations (§7 future work).
//!
//! A data-integration user chains City → Flight → Hotel without knowing
//! any schema: each adjacent pair is inferred independently with the
//! paper's machinery, and the full path join is counted at the end.
//!
//! Run with `cargo run --example join_path_discovery`.

use join_query_inference::core::paths::PathBuilder;
use join_query_inference::prelude::*;

fn main() {
    let mut b = PathBuilder::new();
    b.relation(
        "City",
        &["Name", "Country"],
        vec![
            vec![Value::str("Paris"), Value::str("FR")],
            vec![Value::str("Lille"), Value::str("FR")],
            vec![Value::str("NYC"), Value::str("US")],
        ],
    );
    b.relation(
        "Flight",
        &["From", "To", "Airline"],
        vec![
            vec![Value::str("Paris"), Value::str("Lille"), Value::str("AF")],
            vec![Value::str("Lille"), Value::str("NYC"), Value::str("AA")],
            vec![Value::str("NYC"), Value::str("Paris"), Value::str("AA")],
            vec![Value::str("Paris"), Value::str("NYC"), Value::str("AF")],
        ],
    );
    b.relation(
        "Hotel",
        &["HCity", "Discount"],
        vec![
            vec![Value::str("NYC"), Value::str("AA")],
            vec![Value::str("Paris"), Value::str("None")],
            vec![Value::str("Lille"), Value::str("AF")],
        ],
    );
    let path = b.build().expect("well-formed path");

    // The user's hidden intent: departures from a listed city, arriving at
    // the hotel's city.
    let goals = vec![
        path.predicate_from_names(0, &[("Name", "From")])
            .expect("hop 0 attrs"),
        path.predicate_from_names(1, &[("To", "HCity")])
            .expect("hop 1 attrs"),
    ];

    println!("inferring a {}-hop join path:", path.num_hops());
    for config in [StrategyConfig::Td, StrategyConfig::Lks { depth: 2 }] {
        let run = path
            .infer_with_goals(&goals, &config)
            .expect("consistent oracles");
        println!("\nstrategy {}:", config.build().name());
        for (h, theta) in run.predicates.iter().enumerate() {
            println!(
                "  hop {h}: {} ({} questions)",
                path.hop(h).instance().predicate_string(theta),
                run.interactions_per_hop[h]
            );
        }
        println!(
            "  total: {} questions; full path join has {} tuples",
            run.total_interactions(),
            path.count_path_tuples(&run.predicates)
        );
    }
}
