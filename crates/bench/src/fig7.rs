//! Figure 7: synthetic-dataset experiments — interactions and inference
//! time for the six generator configurations, grouped by `|θG|`.
//!
//! The paper uses *all* non-nullable join predicates as goals and averages
//! over 100 generated instances. The harness keeps both knobs configurable
//! (`runs`, `max_goals_per_size`) so the full protocol is reproducible but
//! the default invocation stays fast.

use crate::json::{f64_at, field, num, Json};
use crate::measure::{average, fmt_seconds, run_timed, Measurement};
use crate::report::{strategy_table, TextTable};
use jqi_core::lattice::goals_by_size;
use jqi_core::universe::Universe;
use jqi_core::StrategyConfig;
use jqi_datagen::SyntheticConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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

/// Ceiling on enumerated non-nullable goals per instance; instances whose
/// lattice is larger are skipped for the affected run (kept deterministic).
const GOAL_ENUM_LIMIT: usize = 200_000;

/// Runs the Figure 7 experiment for one synthetic configuration: one row
/// per goal size `|θG|`, with every strategy's average over the sampled
/// goals of every generated instance, in [`StrategyConfig::paper`] order.
pub fn run(config: SyntheticConfig, params: Fig7Params) -> Json {
    let mut per_size: Vec<Vec<Vec<Measurement>>> = Vec::new(); // [size][strategy][run·goal]
    let mut ratio_sum = 0.0;
    let mut ratio_count = 0usize;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let strategies = StrategyConfig::paper(params.seed);

    for run_idx in 0..params.runs {
        let inst = config.generate(params.seed.wrapping_add(run_idx as u64));
        let universe = Arc::new(Universe::build(inst));
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
                per_size.push(vec![Vec::new(); strategies.len()]);
            }
            for &gi in &picked {
                let goal = &group[gi];
                for (si, config) in strategies.iter().enumerate() {
                    per_size[size][si].push(run_timed(&universe, config, goal));
                }
            }
        }
    }

    let rows = per_size
        .into_iter()
        .enumerate()
        .filter(|(_, per_strategy)| per_strategy.iter().all(|v| !v.is_empty()))
        .map(|(size, per_strategy)| {
            let strategies = per_strategy.iter().map(|ms| average(ms).json()).collect();
            Json::Obj(vec![
                num("goal_size", size as f64),
                field("strategies", Json::Arr(strategies)),
            ])
        })
        .collect();
    let join_ratio = if ratio_count > 0 {
        ratio_sum / ratio_count as f64
    } else {
        0.0
    };
    Json::Obj(vec![
        field("config", Json::str(config.to_string())),
        num("join_ratio", join_ratio),
        num("product_size", config.product_size() as f64),
        field("rows", Json::Arr(rows)),
    ])
}

/// The number-of-interactions table (Figure 7a/b/e/f/i/j style) of a
/// [`run`] report.
pub fn interactions_table(report: &Json) -> TextTable {
    strategy_table(report, "|θG|", goal_size, |a| {
        format!("{:.1}", f64_at(a, "mean_interactions"))
    })
}

/// The inference-time table (Figure 7c/d/g/h/k/l style) of a [`run`]
/// report.
pub fn time_table(report: &Json) -> TextTable {
    strategy_table(report, "|θG|", goal_size, |a| {
        fmt_seconds(f64_at(a, "mean_seconds"))
    })
}

fn goal_size(row: &Json) -> String {
    f64_at(row, "goal_size").to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::arr_at;
    use crate::table1::best;

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
        let rows = arr_at(&r, "rows");
        assert!(!rows.is_empty());
        // Size-0 goals (∅) are always present.
        assert_eq!(f64_at(&rows[0], "goal_size"), 0.0);
        for row in rows {
            assert_eq!(arr_at(row, "strategies").len(), 5);
        }
        assert_eq!(interactions_table(&r).len(), rows.len());
        assert_eq!(time_table(&r).len(), rows.len());
    }

    #[test]
    fn bu_is_best_for_the_empty_goal() {
        // §5.3: the goal ∅ is inferred with one interaction, making BU the
        // best strategy for it.
        let cfg = SyntheticConfig::new(2, 2, 12, 6);
        let r = run(cfg, tiny_params());
        let size0 = &arr_at(&r, "rows")[0];
        assert_eq!(f64_at(size0, "goal_size"), 0.0, "size-0 row exists");
        let (best, _) = best(size0, "mean_interactions");
        assert_eq!(f64_at(best, "mean_interactions"), 1.0);
    }

    #[test]
    fn join_ratio_is_positive() {
        let cfg = SyntheticConfig::new(2, 3, 10, 4);
        let r = run(cfg, tiny_params());
        assert!(f64_at(&r, "join_ratio") > 0.0);
        assert_eq!(f64_at(&r, "product_size"), 100.0);
    }
}
