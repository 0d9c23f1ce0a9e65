//! Figure 6: TPC-H experiments — interactions (6a/6b) and inference time
//! (6c/6d) for the five goal joins at two scales.

use crate::json::{f64_at, field, num, str_at, Json};
use crate::measure::{fmt_seconds, run_timed};
use crate::report::{strategy_table, TextTable};
use jqi_core::universe::Universe;
use jqi_core::StrategyConfig;
use jqi_datagen::tpch::{TpchJoin, TpchScale, TpchTables};
use std::sync::Arc;

/// Runs the five TPC-H joins at `scale` with every paper strategy: one
/// row per join, with every strategy's measurement in
/// [`StrategyConfig::paper`] order.
pub fn run(scale: TpchScale, seed: u64) -> Json {
    let tables = TpchTables::generate(scale, seed);
    let rows = TpchJoin::ALL
        .into_iter()
        .map(|join| {
            let w = tables.workload(join);
            let universe = Arc::new(Universe::build(w.instance.clone()));
            let strategies = StrategyConfig::paper(seed)
                .iter()
                .map(|config| run_timed(&universe, config, &w.goal).json())
                .collect();
            Json::Obj(vec![
                field("join", Json::str(join.name())),
                num("goal_size", join.goal_size() as f64),
                num("product_size", universe.total_tuples() as f64),
                num("join_ratio", jqi_core::lattice::join_ratio(&universe)),
                field("strategies", Json::Arr(strategies)),
            ])
        })
        .collect();
    Json::Obj(vec![
        field("scale", Json::str(scale.name())),
        field("rows", Json::Arr(rows)),
    ])
}

/// Figure 6a/6b: the number-of-interactions table of a [`run`] report.
pub fn interactions_table(report: &Json) -> TextTable {
    strategy_table(
        report,
        "join",
        |row| str_at(row, "join").to_string(),
        |m| f64_at(m, "interactions").to_string(),
    )
}

/// Figure 6c/6d: the inference-time table (seconds) of a [`run`] report.
pub fn time_table(report: &Json) -> TextTable {
    strategy_table(
        report,
        "join",
        |row| str_at(row, "join").to_string(),
        |m| fmt_seconds(f64_at(m, "seconds")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::arr_at;
    use crate::table1::best;

    #[test]
    fn report_has_five_joins_and_five_strategies() {
        let r = run(TpchScale::Small, 1);
        let rows = arr_at(&r, "rows");
        assert_eq!(rows.len(), 5);
        for row in rows {
            let strategies = arr_at(row, "strategies");
            assert_eq!(strategies.len(), 5);
            assert!(strategies.iter().all(|m| f64_at(m, "interactions") >= 1.0));
        }
        assert_eq!(interactions_table(&r).len(), 5);
        assert_eq!(time_table(&r).len(), 5);
    }

    #[test]
    fn key_joins_are_inferred_with_few_interactions() {
        // The paper's headline shape: size-1 key joins need only a handful
        // of interactions for the best strategy (2–4 in Figure 6).
        let r = run(TpchScale::Small, 2);
        for row in arr_at(&r, "rows") {
            let best = f64_at(best(row, "interactions").0, "interactions");
            if f64_at(row, "goal_size") == 1.0 {
                assert!(
                    best <= 12.0,
                    "{}: best strategy needed {best} interactions",
                    str_at(row, "join")
                );
            }
        }
    }

    #[test]
    fn join5_needs_more_interactions_than_join1() {
        // Figure 6: the size-2 Join 5 is consistently harder than the
        // size-1 Join 1 for the best strategy.
        let r = run(TpchScale::Small, 3);
        let rows = arr_at(&r, "rows");
        let b1 = f64_at(best(&rows[0], "interactions").0, "interactions");
        let b5 = f64_at(best(&rows[4], "interactions").0, "interactions");
        assert!(
            b5 >= b1,
            "Join 5 ({b5}) should need at least as many interactions as Join 1 ({b1})"
        );
    }
}
