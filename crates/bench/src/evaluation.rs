//! The whole evaluation as one document, and its counts.
//!
//! [`all`] runs every experiment once, in paper order, and is what
//! `paper_experiments all --json` prints. [`counts`] splits the timing
//! fields off it; what is left (interactions, join ratios, class counts,
//! semijoin disagreements, optimal gaps) is a deterministic function of
//! the code and the parameters, committed as `BENCH_paper.json` at the
//! repository root and compared exactly by this module's test.
//!
//! Regenerate the committed file, and explain each moved cell, whenever a
//! change moves a count:
//!
//! ```text
//! cargo run -p jqi_bench --bin paper_experiments --release -- all --counts > BENCH_paper.json
//! ```

use crate::fig7::Fig7Params;
use crate::json::{field, Json};
use crate::{fig6, fig7, optgap, semijoin_exp, table1};
use jqi_datagen::tpch::TpchScale;
use jqi_datagen::PAPER_CONFIGS;

/// The variable counts of the §6 semijoin sweep.
pub const SEMIJOIN_VARS: [usize; 5] = [4, 5, 6, 7, 8];

/// The §6 semijoin sweep at `params`: at least three formulas per
/// variable count.
pub fn semijoin(params: Fig7Params) -> Json {
    semijoin_exp::run(&SEMIJOIN_VARS, params.runs.max(3), params.seed)
}

/// Every experiment at `params`, in paper order: `fig6` (one report per
/// TPC-H scale), `fig7` (one per synthetic configuration), `table1`
/// (summarising those same reports), `semijoin` and `opt`.
pub fn all(params: Fig7Params) -> Json {
    let fig6 = TpchScale::ALL.map(|scale| fig6::run(scale, params.seed));
    let fig7 = PAPER_CONFIGS.map(|config| fig7::run(config, params));
    let table1 = table1::from_reports(&fig6, &fig7);
    Json::Obj(vec![
        field("fig6", Json::Arr(fig6.into())),
        field("fig7", Json::Arr(fig7.into())),
        field("table1", table1),
        field("semijoin", semijoin(params)),
        field("opt", optgap::run()),
    ])
}

/// `doc` without its timing fields — every field whose key ends in
/// `seconds`, at any depth.
pub fn counts(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(key, _)| !key.ends_with("seconds"))
                .map(|(key, value)| (key.clone(), counts(value)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(counts).collect()),
        leaf => leaf.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regenerates the evaluation at the default parameters (those of a
    /// bare `paper_experiments all`) and compares its counts, as text,
    /// with the committed `BENCH_paper.json`.
    #[test]
    fn committed_counts_match_a_fresh_run() {
        let path = format!("{}/../../BENCH_paper.json", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("BENCH_paper.json is committed");
        let fresh = counts(&all(Fig7Params::default())).to_string_pretty() + "\n";
        if let Some((line, (old, new))) = committed
            .lines()
            .zip(fresh.lines())
            .enumerate()
            .find(|(_, (old, new))| old != new)
        {
            panic!(
                "BENCH_paper.json line {}: committed {old:?}, a fresh run gives {new:?}",
                line + 1
            );
        }
        assert!(
            committed == fresh,
            "BENCH_paper.json and a fresh run differ in length or line endings"
        );
    }
}
