//! The optimal-gap experiment: how far each heuristic's *worst case* is
//! from the minimax-optimal bound (§4.1 says the optimal strategy exists
//! but is exponential; this quantifies what the efficient strategies give
//! up on instances small enough to compute the bound).

use crate::json::{self, Json, ToJson};
use crate::report::TextTable;
use jqi_core::paper::{example_2_1, flight_hotel};
use jqi_core::strategy::{optimal_worst_case, strategy_worst_case, StrategyKind};
use jqi_core::universe::Universe;

/// Worst cases on one instance.
#[derive(Debug, Clone)]
pub struct OptGapRow {
    /// Instance name.
    pub instance: String,
    /// Number of T-equivalence classes.
    pub classes: usize,
    /// The minimax-optimal worst case.
    pub optimal: u32,
    /// `(strategy, worst case)` for each deterministic heuristic.
    pub strategies: Vec<(String, u32)>,
}

/// The experiment across the paper's running examples.
#[derive(Debug, Clone)]
pub struct OptGapReport {
    /// One row per instance.
    pub rows: Vec<OptGapRow>,
}

/// Deterministic strategies whose game tree we can afford to explore.
const HEURISTICS: [StrategyKind; 4] = [
    StrategyKind::Bu,
    StrategyKind::Td,
    StrategyKind::L1s,
    StrategyKind::Eg,
];

/// Runs the experiment on the paper's two running examples.
pub fn run() -> OptGapReport {
    let mut rows = Vec::new();
    for (name, instance) in [
        ("Example 2.1", example_2_1()),
        ("Flight × Hotel", flight_hotel()),
    ] {
        let universe = Universe::build(instance);
        let optimal = optimal_worst_case(&universe, 16).expect("running examples are small");
        let strategies: Vec<(String, u32)> = HEURISTICS
            .iter()
            .map(|&kind| {
                let mut strategy = kind.build(0);
                let wc = strategy_worst_case(&universe, strategy.as_mut())
                    .expect("deterministic strategy on a small universe");
                (kind.name().to_string(), wc)
            })
            .collect();
        rows.push(OptGapRow {
            instance: name.to_string(),
            classes: universe.num_classes(),
            optimal,
            strategies,
        });
    }
    OptGapReport { rows }
}

impl ToJson for OptGapRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("instance".into(), Json::str(&self.instance)),
            ("classes".into(), Json::Num(self.classes as f64)),
            ("optimal".into(), Json::Num(self.optimal as f64)),
            (
                "strategies".into(),
                Json::Arr(
                    self.strategies
                        .iter()
                        .map(|(name, wc)| {
                            Json::Obj(vec![
                                ("strategy".into(), Json::str(name)),
                                ("worst_case".into(), Json::Num(*wc as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for OptGapReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![("rows".into(), json::arr(&self.rows))])
    }
}

impl OptGapReport {
    /// Renders the gaps as text.
    pub fn table(&self) -> TextTable {
        let mut header = vec!["instance".to_string(), "classes".into(), "OPT".into()];
        if let Some(first) = self.rows.first() {
            header.extend(first.strategies.iter().map(|(n, _)| n.clone()));
        }
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = TextTable::new(&refs);
        for r in &self.rows {
            let mut cells = vec![
                r.instance.clone(),
                r.classes.to_string(),
                r.optimal.to_string(),
            ];
            cells.extend(r.strategies.iter().map(|(_, wc)| wc.to_string()));
            t.row(cells);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_respect_the_lower_bound() {
        let report = run();
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            for (name, wc) in &row.strategies {
                assert!(
                    *wc >= row.optimal,
                    "{name} worst case {wc} below OPT {} on {}",
                    row.optimal,
                    row.instance
                );
            }
        }
        assert_eq!(report.table().len(), 2);
    }
}
