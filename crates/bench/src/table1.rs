//! Table 1: the per-dataset summary — Cartesian-product size, join ratio,
//! best strategy w.r.t. interactions, and the best strategy's time.

use crate::fig6;
use crate::fig7::{self, Fig7Params};
use crate::json::{arr_at, f64_at, field, num, str_at, Json};
use crate::measure::fmt_seconds;
use crate::report::{fmt_scientific, TextTable};
use jqi_datagen::tpch::TpchScale;
use jqi_datagen::PAPER_CONFIGS;

/// The measurements of a Figure 6/7 `row` with the fewest `key`
/// interactions: the first of them (ties toward the paper's listing
/// order) and all their names, as the paper lists them ("BU/TD/L2S").
pub(crate) fn best<'j>(row: &'j Json, key: &str) -> (&'j Json, String) {
    let strategies = arr_at(row, "strategies");
    let fewest = strategies
        .iter()
        .map(|m| f64_at(m, key))
        .fold(f64::INFINITY, f64::min);
    let tied: Vec<&Json> = strategies
        .iter()
        .filter(|m| f64_at(m, key) == fewest)
        .collect();
    let names: Vec<&str> = tied.iter().map(|m| str_at(m, "strategy")).collect();
    (tied[0], names.join("/"))
}

/// One Table 1 row; `sizes` is the Figure 6 row or Figure 7 report that
/// carries the workload's `product_size` and `join_ratio`.
fn row(dataset: String, workload: String, sizes: &Json, best: String, seconds: f64) -> Json {
    Json::Obj(vec![
        field("dataset", Json::Str(dataset)),
        field("workload", Json::Str(workload)),
        num("product_size", f64_at(sizes, "product_size")),
        num("join_ratio", f64_at(sizes, "join_ratio")),
        field("best", Json::Str(best)),
        num("best_seconds", seconds),
    ])
}

fn tpch_rows(report: &Json) -> Vec<Json> {
    let dataset = format!("TPC-H {}", str_at(report, "scale"));
    arr_at(report, "rows")
        .iter()
        .map(|r| {
            let (best, names) = best(r, "interactions");
            let workload = format!("{} (size {})", str_at(r, "join"), f64_at(r, "goal_size"));
            let best_text = format!("{names} ({} int.)", f64_at(best, "interactions"));
            row(
                dataset.clone(),
                workload,
                r,
                best_text,
                f64_at(best, "seconds"),
            )
        })
        .collect()
}

fn synthetic_rows(report: &Json) -> Vec<Json> {
    arr_at(report, "rows")
        .iter()
        .map(|r| {
            let (best, names) = best(r, "mean_interactions");
            let workload = format!("Joins of size {}", f64_at(r, "goal_size"));
            let best_text = format!("{names} ({:.1} int.)", f64_at(best, "mean_interactions"));
            let config = str_at(report, "config").to_string();
            row(
                config,
                workload,
                report,
                best_text,
                f64_at(best, "mean_seconds"),
            )
        })
        .collect()
}

/// Builds the full Table 1: both TPC-H scales plus the six synthetic
/// configurations, TPC-H first, as in the paper.
pub fn run(seed: u64, fig7_params: Fig7Params) -> Json {
    let mut rows = Vec::new();
    for scale in TpchScale::ALL {
        rows.extend(tpch_rows(&fig6::run(scale, seed)));
    }
    for cfg in PAPER_CONFIGS {
        rows.extend(synthetic_rows(&fig7::run(cfg, fig7_params)));
    }
    Json::Obj(vec![field("rows", Json::Arr(rows))])
}

/// Renders a [`run`] report as text.
pub fn table(report: &Json) -> TextTable {
    let mut t = TextTable::new(&[
        "dataset",
        "workload",
        "|D|",
        "join ratio",
        "best strategy",
        "time (s)",
    ]);
    for r in arr_at(report, "rows") {
        t.row(vec![
            str_at(r, "dataset").to_string(),
            str_at(r, "workload").to_string(),
            fmt_scientific(f64_at(r, "product_size") as u64),
            format!("{:.3}", f64_at(r, "join_ratio")),
            str_at(r, "best").to_string(),
            fmt_seconds(f64_at(r, "best_seconds")),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_datagen::SyntheticConfig;

    #[test]
    fn tpch_rows_cover_all_joins() {
        let report = fig6::run(TpchScale::Small, 1);
        let rows = tpch_rows(&report);
        assert_eq!(rows.len(), 5);
        assert!(str_at(&rows[0], "workload").contains("Join 1"));
        assert!(str_at(&rows[4], "workload").contains("size 2"));
        for r in &rows {
            assert!(str_at(r, "best").contains("int."));
        }
        let report = Json::Obj(vec![field("rows", Json::Arr(rows))]);
        assert_eq!(table(&report).len(), 5);
    }

    #[test]
    fn synthetic_rows_report_best_strategy() {
        let cfg = SyntheticConfig::new(2, 2, 10, 5);
        let report = fig7::run(
            cfg,
            Fig7Params {
                runs: 2,
                max_goals_per_size: 2,
                seed: 3,
            },
        );
        let rows = synthetic_rows(&report);
        assert!(!rows.is_empty());
        // The ∅ goal is solved in 1 interaction; BU must be among the best.
        let best = str_at(&rows[0], "best");
        assert!(best.contains("BU"), "got {best}");
    }
}
