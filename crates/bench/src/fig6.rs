//! Figure 6: TPC-H experiments — interactions (6a/6b) and inference time
//! (6c/6d) for the five goal joins at two scales.

use crate::json::{self, Json, ToJson};
use crate::measure::{fmt_seconds, run_timed, Measurement};
use crate::report::TextTable;
use jqi_core::strategy::StrategyKind;
use jqi_core::universe::Universe;
use jqi_datagen::tpch::{TpchJoin, TpchScale, TpchTables};

/// One row of the Figure 6 report: all strategies on one join.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Which join (1–5).
    pub join: String,
    /// `|θG|`.
    pub goal_size: usize,
    /// `|D|` of the workload instance.
    pub product_size: u64,
    /// Join ratio of the instance (Table 1's complexity measure).
    pub join_ratio: f64,
    /// Per-strategy measurements, in [`StrategyKind::PAPER`] order.
    pub strategies: Vec<Measurement>,
}

/// The full Figure 6 experiment at one scale.
#[derive(Debug, Clone)]
pub struct Fig6Report {
    /// Which scale this was run at.
    pub scale: String,
    /// One row per join.
    pub rows: Vec<Fig6Row>,
}

/// Runs the five TPC-H joins at `scale` with every paper strategy.
pub fn run(scale: TpchScale, seed: u64) -> Fig6Report {
    let tables = TpchTables::generate(scale, seed);
    let mut rows = Vec::new();
    for join in TpchJoin::ALL {
        let w = tables.workload(join);
        let universe = Universe::build(w.instance.clone());
        let strategies: Vec<Measurement> = StrategyKind::PAPER
            .iter()
            .map(|&kind| run_timed(&universe, kind, &w.goal, seed))
            .collect();
        rows.push(Fig6Row {
            join: join.name().to_string(),
            goal_size: join.goal_size(),
            product_size: universe.total_tuples(),
            join_ratio: jqi_core::lattice::join_ratio(&universe),
            strategies,
        });
    }
    Fig6Report {
        scale: scale.name().to_string(),
        rows,
    }
}

impl ToJson for Fig6Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("join".into(), Json::str(&self.join)),
            ("goal_size".into(), Json::Num(self.goal_size as f64)),
            ("product_size".into(), Json::Num(self.product_size as f64)),
            ("join_ratio".into(), Json::Num(self.join_ratio)),
            ("strategies".into(), json::arr(&self.strategies)),
        ])
    }
}

impl ToJson for Fig6Report {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scale".into(), Json::str(&self.scale)),
            ("rows".into(), json::arr(&self.rows)),
        ])
    }
}

impl Fig6Report {
    /// Figure 6a/6b: the number-of-interactions table.
    pub fn interactions_table(&self) -> TextTable {
        let mut header = vec!["join"];
        let names: Vec<&str> = StrategyKind::PAPER.iter().map(|k| k.name()).collect();
        header.extend(names.iter());
        let mut t = TextTable::new(&header);
        for row in &self.rows {
            let mut cells = vec![row.join.clone()];
            cells.extend(row.strategies.iter().map(|m| m.interactions.to_string()));
            t.row(cells);
        }
        t
    }

    /// Figure 6c/6d: the inference-time table (seconds).
    pub fn time_table(&self) -> TextTable {
        let mut header = vec!["join"];
        let names: Vec<&str> = StrategyKind::PAPER.iter().map(|k| k.name()).collect();
        header.extend(names.iter());
        let mut t = TextTable::new(&header);
        for row in &self.rows {
            let mut cells = vec![row.join.clone()];
            cells.extend(row.strategies.iter().map(|m| fmt_seconds(m.seconds)));
            t.row(cells);
        }
        t
    }

    /// The strategy with the fewest interactions on `join` (ties toward the
    /// paper's listing order).
    pub fn best_strategy(&self, join_index: usize) -> &Measurement {
        self.rows[join_index]
            .strategies
            .iter()
            .min_by_key(|m| m.interactions)
            .expect("five strategies measured")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_five_joins_and_five_strategies() {
        let r = run(TpchScale::Small, 1);
        assert_eq!(r.rows.len(), 5);
        for row in &r.rows {
            assert_eq!(row.strategies.len(), 5);
            assert!(row.strategies.iter().all(|m| m.interactions >= 1));
        }
        assert_eq!(r.interactions_table().len(), 5);
        assert_eq!(r.time_table().len(), 5);
    }

    #[test]
    fn key_joins_are_inferred_with_few_interactions() {
        // The paper's headline shape: size-1 key joins need only a handful
        // of interactions for the best strategy (2–4 in Figure 6).
        let r = run(TpchScale::Small, 2);
        for (i, row) in r.rows.iter().enumerate() {
            let best = r.best_strategy(i);
            if row.goal_size == 1 {
                assert!(
                    best.interactions <= 12,
                    "{}: best strategy needed {} interactions",
                    row.join,
                    best.interactions
                );
            }
        }
    }

    #[test]
    fn join5_needs_more_interactions_than_join1() {
        // Figure 6: the size-2 Join 5 is consistently harder than the
        // size-1 Join 1 for the best strategy.
        let r = run(TpchScale::Small, 3);
        let b1 = r.best_strategy(0).interactions;
        let b5 = r.best_strategy(4).interactions;
        assert!(
            b5 >= b1,
            "Join 5 ({b5}) should need at least as many interactions as Join 1 ({b1})"
        );
    }
}
