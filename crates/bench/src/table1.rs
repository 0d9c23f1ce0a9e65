//! Table 1: the per-dataset summary — Cartesian-product size, join ratio,
//! best strategy w.r.t. interactions, and the best strategy's time.

use crate::fig6::{self, Fig6Report};
use crate::fig7::{self, Fig7Params, Fig7Report};
use crate::json::{self, Json, ToJson};
use crate::measure::fmt_seconds;
use crate::report::{fmt_scientific, TextTable};
use jqi_datagen::tpch::TpchScale;
use jqi_datagen::PAPER_CONFIGS;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset group ("TPC-H SF=…" or a synthetic configuration).
    pub dataset: String,
    /// Workload within the group ("Join 1 (size 1)" or "Joins of size k").
    pub workload: String,
    /// `|D|`.
    pub product_size: u64,
    /// Join ratio.
    pub join_ratio: f64,
    /// Best strategy name(s) and its interaction count.
    pub best: String,
    /// Time of the best strategy, seconds.
    pub best_seconds: f64,
}

/// The assembled Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// All rows, TPC-H first, then synthetic, as in the paper.
    pub rows: Vec<Table1Row>,
}

fn tpch_rows(report: &Fig6Report) -> Vec<Table1Row> {
    report
        .rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let best = report.best_strategy(i);
            // List every strategy tied at the minimum, as the paper does
            // ("BU/TD/L2S (2 int.)").
            let names: Vec<&str> = row
                .strategies
                .iter()
                .filter(|m| m.interactions == best.interactions)
                .map(|m| m.strategy.as_str())
                .collect();
            Table1Row {
                dataset: format!("TPC-H {}", report.scale),
                workload: format!("{} (size {})", row.join, row.goal_size),
                product_size: row.product_size,
                join_ratio: row.join_ratio,
                best: format!("{} ({} int.)", names.join("/"), best.interactions),
                best_seconds: best.seconds,
            }
        })
        .collect()
}

fn synthetic_rows(report: &Fig7Report) -> Vec<Table1Row> {
    report
        .rows
        .iter()
        .map(|row| {
            let best = row
                .strategies
                .iter()
                .min_by(|a, b| {
                    a.mean_interactions
                        .partial_cmp(&b.mean_interactions)
                        .expect("finite means")
                })
                .expect("strategies measured");
            let names: Vec<&str> = row
                .strategies
                .iter()
                .filter(|a| a.mean_interactions == best.mean_interactions)
                .map(|a| a.strategy.as_str())
                .collect();
            Table1Row {
                dataset: report.config.clone(),
                workload: format!("Joins of size {}", row.goal_size),
                product_size: report.product_size,
                join_ratio: report.join_ratio,
                best: format!("{} ({:.1} int.)", names.join("/"), best.mean_interactions),
                best_seconds: best.mean_seconds,
            }
        })
        .collect()
}

/// Builds the full Table 1: both TPC-H scales plus the six synthetic
/// configurations.
pub fn run(seed: u64, fig7_params: Fig7Params) -> Table1 {
    let mut rows = Vec::new();
    for scale in TpchScale::ALL {
        rows.extend(tpch_rows(&fig6::run(scale, seed)));
    }
    for cfg in PAPER_CONFIGS {
        rows.extend(synthetic_rows(&fig7::run(cfg, fig7_params)));
    }
    Table1 { rows }
}

impl ToJson for Table1Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("dataset".into(), Json::str(&self.dataset)),
            ("workload".into(), Json::str(&self.workload)),
            ("product_size".into(), Json::Num(self.product_size as f64)),
            ("join_ratio".into(), Json::Num(self.join_ratio)),
            ("best".into(), Json::str(&self.best)),
            ("best_seconds".into(), Json::Num(self.best_seconds)),
        ])
    }
}

impl ToJson for Table1 {
    fn to_json(&self) -> Json {
        Json::Obj(vec![("rows".into(), json::arr(&self.rows))])
    }
}

impl Table1 {
    /// Renders the summary as text.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "dataset",
            "workload",
            "|D|",
            "join ratio",
            "best strategy",
            "time (s)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.dataset.clone(),
                r.workload.clone(),
                fmt_scientific(r.product_size),
                format!("{:.3}", r.join_ratio),
                r.best.clone(),
                fmt_seconds(r.best_seconds),
            ]);
        }
        t
    }
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
        assert!(rows[0].workload.contains("Join 1"));
        assert!(rows[4].workload.contains("size 2"));
        for r in &rows {
            assert!(r.best.contains("int."));
            assert!(r.join_ratio >= 1.0 || r.join_ratio == 0.0 || r.join_ratio < 1.0);
        }
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
        assert!(rows[0].best.contains("BU"), "got {}", rows[0].best);
    }
}
