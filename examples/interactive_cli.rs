//! A real interactive session on the terminal: YOU are the user.
//!
//! Loads the flight & hotel instance (or two CSV files given as arguments),
//! presents tuples chosen by the L2S strategy, and infers the join from
//! your y/n answers. This is the paper's Algorithm 1 with a human oracle.
//!
//! ```text
//! cargo run --example interactive_cli                      # flight & hotel
//! cargo run --example interactive_cli r.csv p.csv          # your own data
//! ```
//!
//! Answer `y` (positive), `n` (negative), or `q` to stop early and accept
//! the most specific predicate consistent with the answers so far.

use join_query_inference::prelude::*;
use join_query_inference::relation::csv::relation_from_csv;
use join_query_inference::relation::{Instance, Interner};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn load_instance() -> Instance {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => join_query_inference::core::paper::flight_hotel(),
        [r_path, p_path] => {
            let interner = Arc::new(Interner::new());
            let r_text = std::fs::read_to_string(r_path).expect("readable R csv");
            let p_text = std::fs::read_to_string(p_path).expect("readable P csv");
            let r = relation_from_csv(&interner, "R", &r_text).expect("valid R csv");
            let p = relation_from_csv(&interner, "P", &p_text).expect("valid P csv");
            Instance::new(interner, r, p).expect("disjoint attribute names")
        }
        _ => {
            eprintln!("usage: interactive_cli [R.csv P.csv]");
            std::process::exit(2);
        }
    }
}

fn main() {
    let instance = load_instance();
    println!("{instance}");
    let header: Vec<String> = instance
        .r()
        .schema()
        .attrs()
        .iter()
        .chain(instance.p().schema().attrs())
        .cloned()
        .collect();
    println!("columns: {}", header.join(" | "));
    println!("label each proposed tuple: y = belongs to your join, n = does not, q = stop\n");

    // The owned-session API: the session co-owns the universe through an
    // Arc (no borrow), exactly as a long-running server would hold it.
    let universe = Arc::new(Universe::build(instance));
    let mut session =
        Session::with_config(Arc::clone(&universe), &StrategyConfig::Lks { depth: 2 });
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();

    loop {
        let candidate = match session.next() {
            Ok(Some(c)) => c,
            Ok(None) => break,
            Err(e) => {
                eprintln!("error: could not pick the next tuple: {e}");
                std::process::exit(1);
            }
        };
        let values: Vec<String> = candidate
            .values(&universe)
            .iter()
            .map(|v| v.to_string())
            .collect();
        print!("({})  [y/n/q] ", values.join(" | "));
        std::io::stdout().flush().expect("flush stdout");
        let answer = lines.next().and_then(Result::ok).unwrap_or_default();
        let label = match answer.trim() {
            "y" | "Y" => Label::Positive,
            "q" | "Q" | "" => break,
            _ => Label::Negative,
        };
        if let Err(e) = session.answer(label) {
            // A clean stop, not a panic: with informative-only strategies
            // this is unreachable, but custom data or future strategies
            // deserve a real message (Algorithm 1 lines 6–7).
            eprintln!();
            eprintln!("error: {e}");
            eprintln!("your answers admit no equijoin predicate — stopping early");
            break;
        }
    }

    let theta = session.inferred_predicate();
    println!();
    println!(
        "after {} answers the inferred join predicate is:\n  {}",
        session.interactions(),
        universe.instance().predicate_string(&theta)
    );
    let result = universe.instance().equijoin(&theta);
    println!(
        "it selects {} of the {} product tuples",
        result.len(),
        universe.total_tuples()
    );
}
