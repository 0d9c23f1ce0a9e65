//! Timing a single inference run.

use crate::json::{field, num, Json};
use jqi_core::engine::{run_inference, PredicateOracle};
use jqi_core::universe::Universe;
use jqi_core::StrategyConfig;
use jqi_relation::BitSet;
use std::sync::Arc;
use std::time::Instant;

/// The outcome of one timed inference run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Strategy display name.
    pub strategy: String,
    /// Number of questions asked.
    pub interactions: usize,
    /// Wall-clock inference time in seconds.
    pub seconds: f64,
}

impl Measurement {
    /// The measurement as a report object.
    pub fn json(&self) -> Json {
        Json::Obj(vec![
            field("strategy", Json::str(&self.strategy)),
            num("interactions", self.interactions as f64),
            num("seconds", self.seconds),
        ])
    }
}

/// Runs the strategy `config` describes against the goal-predicate oracle
/// and times it.
///
/// The timer covers exactly what the paper times: the inference loop
/// (strategy computation + sample bookkeeping), not the construction of the
/// universe, which is shared by all strategies on an instance.
pub fn run_timed(universe: &Arc<Universe>, config: &StrategyConfig, goal: &BitSet) -> Measurement {
    let strategy = config.build();
    let name = strategy.name().to_string();
    let mut oracle = PredicateOracle::new(goal.clone());
    let start = Instant::now();
    let run = run_inference(universe, strategy, &mut oracle)
        .expect("goal-predicate oracles never produce inconsistent samples");
    let elapsed = start.elapsed();
    debug_assert_eq!(
        universe.instance().equijoin(&run.predicate),
        universe.instance().equijoin(goal),
        "inferred predicate must be instance-equivalent to the goal"
    );
    Measurement {
        strategy: name,
        interactions: run.interactions,
        seconds: elapsed.as_secs_f64(),
    }
}

/// Averages measurements of one strategy over several runs.
#[derive(Debug, Clone)]
pub struct Averaged {
    /// Strategy display name.
    pub strategy: String,
    /// Mean number of interactions.
    pub mean_interactions: f64,
    /// Mean inference time in seconds.
    pub mean_seconds: f64,
    /// Number of runs averaged.
    pub runs: usize,
}

impl Averaged {
    /// The average as a report object.
    pub fn json(&self) -> Json {
        Json::Obj(vec![
            field("strategy", Json::str(&self.strategy)),
            num("mean_interactions", self.mean_interactions),
            num("mean_seconds", self.mean_seconds),
            num("runs", self.runs as f64),
        ])
    }
}

/// Folds a list of measurements (all of the same strategy) into an average.
pub fn average(measurements: &[Measurement]) -> Averaged {
    assert!(!measurements.is_empty(), "cannot average zero measurements");
    let strategy = measurements[0].strategy.clone();
    debug_assert!(measurements.iter().all(|m| m.strategy == strategy));
    let n = measurements.len() as f64;
    Averaged {
        strategy,
        mean_interactions: measurements
            .iter()
            .map(|m| m.interactions as f64)
            .sum::<f64>()
            / n,
        mean_seconds: measurements.iter().map(|m| m.seconds).sum::<f64>() / n,
        runs: measurements.len(),
    }
}

/// Formats a duration in the paper's "seconds with millisecond precision"
/// style.
pub fn fmt_seconds(seconds: f64) -> String {
    if seconds < 0.0005 {
        "<0.001".to_string()
    } else {
        format!("{seconds:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jqi_core::paper::example_2_1;
    use jqi_core::predicate_from_names;

    #[test]
    fn measurement_counts_match_engine() {
        let u = Arc::new(Universe::build(example_2_1()));
        let goal = predicate_from_names(u.instance(), &[("A1", "B1")]).unwrap();
        let m = run_timed(&u, &StrategyConfig::Td, &goal);
        assert_eq!(m.strategy, "TD");
        assert!(m.interactions >= 1);
        assert!(m.seconds >= 0.0);
    }

    #[test]
    fn averaging() {
        let ms = vec![
            Measurement {
                strategy: "TD".into(),
                interactions: 2,
                seconds: 0.5,
            },
            Measurement {
                strategy: "TD".into(),
                interactions: 4,
                seconds: 1.5,
            },
        ];
        let a = average(&ms);
        assert_eq!(a.mean_interactions, 3.0);
        assert_eq!(a.mean_seconds, 1.0);
        assert_eq!(a.runs, 2);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(0.0), "<0.001");
        assert_eq!(fmt_seconds(0.0123), "0.012");
        assert_eq!(fmt_seconds(56.167), "56.167");
    }
}
