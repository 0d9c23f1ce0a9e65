//! The optimal-gap experiment: how far each heuristic's *worst case* is
//! from the minimax-optimal bound (§4.1 says the optimal strategy exists
//! but is exponential; this quantifies what the efficient strategies give
//! up on instances small enough to compute the bound).

use crate::json::{arr_at, f64_at, field, num, str_at, Json};
use crate::report::TextTable;
use jqi_core::paper::{example_2_1, flight_hotel};
use jqi_core::strategy::{optimal_worst_case, strategy_worst_case, StrategyConfig};
use jqi_core::universe::Universe;
use std::sync::Arc;

/// Deterministic strategies whose game tree we can afford to explore.
const HEURISTICS: [StrategyConfig; 4] = [
    StrategyConfig::Bu,
    StrategyConfig::Td,
    StrategyConfig::Lks { depth: 1 },
    StrategyConfig::Eg,
];

/// Runs the experiment on the paper's two running examples: per instance,
/// its class count, the minimax-optimal worst case, and each
/// deterministic heuristic's worst case.
pub fn run() -> Json {
    let mut rows = Vec::new();
    for (name, instance) in [
        ("Example 2.1", example_2_1()),
        ("Flight × Hotel", flight_hotel()),
    ] {
        let universe = Arc::new(Universe::build(instance));
        let optimal = optimal_worst_case(&universe, 16).expect("running examples are small");
        let strategies = HEURISTICS
            .iter()
            .map(|config| {
                let mut strategy = config.build();
                let wc = strategy_worst_case(&universe, strategy.as_mut())
                    .expect("deterministic strategy on a small universe");
                Json::Obj(vec![
                    field("strategy", Json::str(strategy.name())),
                    num("worst_case", wc as f64),
                ])
            })
            .collect();
        rows.push(Json::Obj(vec![
            field("instance", Json::str(name)),
            num("classes", universe.num_classes() as f64),
            num("optimal", optimal as f64),
            field("strategies", Json::Arr(strategies)),
        ]));
    }
    Json::Obj(vec![field("rows", Json::Arr(rows))])
}

/// Renders a [`run`] report as text.
pub fn table(report: &Json) -> TextTable {
    let rows = arr_at(report, "rows");
    let mut header = vec!["instance", "classes", "OPT"];
    if let Some(first) = rows.first() {
        header.extend(
            arr_at(first, "strategies")
                .iter()
                .map(|m| str_at(m, "strategy")),
        );
    }
    let mut t = TextTable::new(&header);
    for r in rows {
        let mut cells = vec![
            str_at(r, "instance").to_string(),
            f64_at(r, "classes").to_string(),
            f64_at(r, "optimal").to_string(),
        ];
        let worst_cases = arr_at(r, "strategies").iter();
        cells.extend(worst_cases.map(|m| f64_at(m, "worst_case").to_string()));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_respect_the_lower_bound() {
        let report = run();
        let rows = arr_at(&report, "rows");
        assert_eq!(rows.len(), 2);
        for row in rows {
            let optimal = f64_at(row, "optimal");
            for m in arr_at(row, "strategies") {
                let wc = f64_at(m, "worst_case");
                assert!(
                    wc >= optimal,
                    "{} worst case {wc} below OPT {optimal} on {}",
                    str_at(m, "strategy"),
                    str_at(row, "instance")
                );
            }
        }
        assert_eq!(table(&report).len(), 2);
    }
}
