//! Quickstart: infer the flight & hotel join of the paper's introduction.
//!
//! Reproduces the scenario of Figures 1–2: a travel-agency employee wants
//! flight & hotel packages but cannot write the join; the system asks her
//! to label a handful of flight–hotel pairs and infers the predicate.
//!
//! Run with `cargo run --example quickstart`.

use join_query_inference::prelude::*;
use std::sync::Arc;

fn main() {
    // Figure 1's instance.
    let mut b = InstanceBuilder::new();
    b.relation_r("Flight", &["From", "To", "Airline"]);
    b.relation_p("Hotel", &["City", "Discount"]);
    b.row_r(&[Value::str("Paris"), Value::str("Lille"), Value::str("AF")]);
    b.row_r(&[Value::str("Lille"), Value::str("NYC"), Value::str("AA")]);
    b.row_r(&[Value::str("NYC"), Value::str("Paris"), Value::str("AA")]);
    b.row_r(&[Value::str("Paris"), Value::str("NYC"), Value::str("AF")]);
    b.row_p(&[Value::str("NYC"), Value::str("AA")]);
    b.row_p(&[Value::str("Paris"), Value::str("None")]);
    b.row_p(&[Value::str("Lille"), Value::str("AF")]);
    let instance = b.build().expect("well-formed instance");
    println!("{instance}");
    println!();

    // The user's hidden query is Q2: packages whose hotel is in the flight's
    // destination AND offers a discount for the flight's airline.
    let goal = predicate_from_names(&instance, &[("To", "City"), ("Airline", "Discount")])
        .expect("attributes exist");

    let universe = Arc::new(Universe::build(instance));
    println!(
        "Cartesian product: {} tuples in {} equivalence classes",
        universe.total_tuples(),
        universe.num_classes()
    );
    println!();

    // Drive a session with the top-down strategy; the "user" answers
    // according to the hidden query. The session co-owns the universe, so
    // it could as well be stored in a table or moved to another thread.
    let mut session = Session::new(Arc::clone(&universe), Box::new(TopDown::new()));
    while let Some(candidate) = session.next().expect("strategy never fails") {
        let selected = goal.is_subset(universe.sig(candidate.class));
        let label = if selected {
            Label::Positive
        } else {
            Label::Negative
        };
        let values: Vec<String> = candidate
            .values(&universe)
            .iter()
            .map(|v| v.to_string())
            .collect();
        println!(
            "  Q{}: ({})  →  {}",
            session.interactions() + 1,
            values.join(", "),
            label
        );
        session.answer(label).expect("consistent labels");
    }

    let inferred = session.inferred_predicate();
    println!();
    println!(
        "Inferred after {} questions: {}",
        session.interactions(),
        universe.instance().predicate_string(&inferred)
    );
    println!(
        "Selected packages: {:?}",
        universe.instance().equijoin(&inferred)
    );
    assert_eq!(
        universe.instance().equijoin(&inferred),
        universe.instance().equijoin(&goal),
        "inferred predicate must be instance-equivalent to the goal"
    );
}
