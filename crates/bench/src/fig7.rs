//! Figure 7: synthetic-dataset experiments — interactions and inference
//! time for the six generator configurations, grouped by `|θG|`.
//!
//! The paper uses *all* non-nullable join predicates as goals and averages
//! over 100 generated instances. The harness keeps both knobs configurable
//! (`runs`, `max_goals_per_size`) so the full protocol is reproducible but
//! the default invocation stays fast.

use crate::json::{self, Json, ToJson};
use crate::measure::{average, fmt_seconds, run_timed, Averaged, Measurement};
use crate::report::TextTable;
use jqi_core::lattice::goals_by_size;
use jqi_core::strategy::StrategyKind;
use jqi_core::universe::Universe;
use jqi_datagen::SyntheticConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of one Figure 7 experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Params {
    /// Number of generated instances averaged (the paper uses 100).
    pub runs: usize,
    /// Cap on goals per `|θG|` group per instance (goals beyond the cap are
    /// sampled deterministically from the group).
    pub max_goals_per_size: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Fig7Params {
    fn default() -> Self {
        Fig7Params {
            runs: 5,
            max_goals_per_size: 8,
            seed: 0xC0FFEE,
        }
    }
}

/// Results for one goal size `|θG|` under one configuration.
#[derive(Debug, Clone)]
pub struct Fig7SizeRow {
    /// The goal predicate size this row aggregates.
    pub goal_size: usize,
    /// Per-strategy averages, in [`StrategyKind::PAPER`] order.
    pub strategies: Vec<Averaged>,
}

/// The full Figure 7 experiment for one configuration.
#[derive(Debug, Clone)]
pub struct Fig7Report {
    /// The generator configuration, in the paper's notation.
    pub config: String,
    /// Mean join ratio across the generated instances.
    pub join_ratio: f64,
    /// `|D|` of each generated instance.
    pub product_size: u64,
    /// One row per goal size (0..=4 typically).
    pub rows: Vec<Fig7SizeRow>,
}

/// Ceiling on enumerated non-nullable goals per instance; instances whose
/// lattice is larger are skipped for the affected run (kept deterministic).
const GOAL_ENUM_LIMIT: usize = 200_000;

/// Runs the Figure 7 experiment for one synthetic configuration.
pub fn run(config: SyntheticConfig, params: Fig7Params) -> Fig7Report {
    let mut per_size: Vec<Vec<Vec<Measurement>>> = Vec::new(); // [size][strategy][run·goal]
    let mut ratio_sum = 0.0;
    let mut ratio_count = 0usize;
    let mut rng = SmallRng::seed_from_u64(params.seed);

    for run_idx in 0..params.runs {
        let inst = config.generate(params.seed.wrapping_add(run_idx as u64));
        let universe = Universe::build(inst);
        ratio_sum += jqi_core::lattice::join_ratio(&universe);
        ratio_count += 1;
        let Ok(groups) = goals_by_size(&universe, GOAL_ENUM_LIMIT) else {
            continue;
        };
        for (size, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Deterministic sample of at most `max_goals_per_size` goals.
            let mut picked: Vec<usize> = (0..group.len()).collect();
            while picked.len() > params.max_goals_per_size {
                let i = rng.gen_range(0..picked.len());
                picked.swap_remove(i);
            }
            while per_size.len() <= size {
                per_size.push(vec![Vec::new(); StrategyKind::PAPER.len()]);
            }
            for &gi in &picked {
                let goal = &group[gi];
                for (si, &kind) in StrategyKind::PAPER.iter().enumerate() {
                    per_size[size][si].push(run_timed(&universe, kind, goal, params.seed));
                }
            }
        }
    }

    let rows: Vec<Fig7SizeRow> = per_size
        .into_iter()
        .enumerate()
        .filter(|(_, per_strategy)| per_strategy.iter().all(|v| !v.is_empty()))
        .map(|(size, per_strategy)| Fig7SizeRow {
            goal_size: size,
            strategies: per_strategy.iter().map(|ms| average(ms)).collect(),
        })
        .collect();

    Fig7Report {
        config: config.to_string(),
        join_ratio: if ratio_count > 0 {
            ratio_sum / ratio_count as f64
        } else {
            0.0
        },
        product_size: config.product_size(),
        rows,
    }
}

impl ToJson for Fig7SizeRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("goal_size".into(), Json::Num(self.goal_size as f64)),
            ("strategies".into(), json::arr(&self.strategies)),
        ])
    }
}

impl ToJson for Fig7Report {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("config".into(), Json::str(&self.config)),
            ("join_ratio".into(), Json::Num(self.join_ratio)),
            ("product_size".into(), Json::Num(self.product_size as f64)),
            ("rows".into(), json::arr(&self.rows)),
        ])
    }
}

impl Fig7Report {
    /// The number-of-interactions table (Figure 7a/b/e/f/i/j style).
    pub fn interactions_table(&self) -> TextTable {
        let mut header = vec!["|θG|"];
        let names: Vec<&str> = StrategyKind::PAPER.iter().map(|k| k.name()).collect();
        header.extend(names.iter());
        let mut t = TextTable::new(&header);
        for row in &self.rows {
            let mut cells = vec![row.goal_size.to_string()];
            cells.extend(
                row.strategies
                    .iter()
                    .map(|a| format!("{:.1}", a.mean_interactions)),
            );
            t.row(cells);
        }
        t
    }

    /// The inference-time table (Figure 7c/d/g/h/k/l style).
    pub fn time_table(&self) -> TextTable {
        let mut header = vec!["|θG|"];
        let names: Vec<&str> = StrategyKind::PAPER.iter().map(|k| k.name()).collect();
        header.extend(names.iter());
        let mut t = TextTable::new(&header);
        for row in &self.rows {
            let mut cells = vec![row.goal_size.to_string()];
            cells.extend(row.strategies.iter().map(|a| fmt_seconds(a.mean_seconds)));
            t.row(cells);
        }
        t
    }

    /// The best strategy for goal size `s`, by mean interactions.
    pub fn best_strategy(&self, goal_size: usize) -> Option<&Averaged> {
        self.rows
            .iter()
            .find(|r| r.goal_size == goal_size)?
            .strategies
            .iter()
            .min_by(|a, b| {
                a.mean_interactions
                    .partial_cmp(&b.mean_interactions)
                    .expect("interaction means are finite")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig7Params {
        Fig7Params {
            runs: 2,
            max_goals_per_size: 3,
            seed: 7,
        }
    }

    #[test]
    fn tiny_config_produces_grouped_rows() {
        // A small configuration keeps the test fast while exercising the
        // whole pipeline.
        let cfg = SyntheticConfig::new(2, 2, 12, 6);
        let r = run(cfg, tiny_params());
        assert!(!r.rows.is_empty());
        // Size-0 goals (∅) are always present.
        assert_eq!(r.rows[0].goal_size, 0);
        for row in &r.rows {
            assert_eq!(row.strategies.len(), 5);
        }
        assert_eq!(r.interactions_table().len(), r.rows.len());
    }

    #[test]
    fn bu_is_best_for_the_empty_goal() {
        // §5.3: the goal ∅ is inferred with one interaction, making BU the
        // best strategy for it.
        let cfg = SyntheticConfig::new(2, 2, 12, 6);
        let r = run(cfg, tiny_params());
        let best = r.best_strategy(0).expect("size-0 row exists");
        assert_eq!(best.mean_interactions, 1.0);
    }

    #[test]
    fn join_ratio_is_positive() {
        let cfg = SyntheticConfig::new(2, 3, 10, 4);
        let r = run(cfg, tiny_params());
        assert!(r.join_ratio > 0.0);
        assert_eq!(r.product_size, 100);
    }
}
