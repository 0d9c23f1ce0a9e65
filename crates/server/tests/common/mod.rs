//! Shared pieces of the fleet property tests: a seeded generator, a
//! small live universe whose rows the tests track with multiplicity, and
//! random count-only or structural edits of it.

use jqi_core::{ClassId, Label, StrategyConfig, Universe, UniverseDelta};
use jqi_relation::{BitSet, RowChunk, Side, StreamSchema, Tuple, Value};
use std::sync::Arc;

/// SplitMix64: a tiny seeded generator, so one proptest input drives a
/// whole reproducible fleet and delta schedule.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const R_ARITY: usize = 3;
const P_ARITY: usize = 2;
/// Symbols are drawn from `1..=DOMAIN`: small enough that rows join on
/// several attribute pairs, so the universe has a handful of classes.
const DOMAIN: i64 = 3;

/// The live rows of both sides, with multiplicity (one entry per copy).
#[derive(Clone)]
pub struct Rows {
    r: Vec<Vec<i64>>,
    p: Vec<Vec<i64>>,
}

impl Rows {
    /// A handful of random rows per side.
    pub fn random(rng: &mut Rng) -> Rows {
        Rows {
            r: (0..5 + rng.below(4))
                .map(|_| random_row(rng, R_ARITY))
                .collect(),
            p: (0..4 + rng.below(3))
                .map(|_| random_row(rng, P_ARITY))
                .collect(),
        }
    }

    fn side(&mut self, side: Side) -> &mut Vec<Vec<i64>> {
        match side {
            Side::R => &mut self.r,
            Side::P => &mut self.p,
        }
    }
}

fn random_row(rng: &mut Rng, arity: usize) -> Vec<i64> {
    (0..arity)
        .map(|_| 1 + rng.below(DOMAIN as usize) as i64)
        .collect()
}

pub fn live_universe(rows: &Rows) -> Arc<Universe> {
    let schema =
        StreamSchema::from_names("R", &["A1", "A2", "A3"], "P", &["B1", "B2"]).expect("schema");
    let chunk = |side: Side, rows: &[Vec<i64>]| RowChunk {
        side,
        rows: rows
            .iter()
            .map(|row| {
                let values: Vec<Value> = row.iter().map(|&v| Value::int(v)).collect();
                schema.intern_row(side, &values).expect("arity")
            })
            .collect(),
    };
    let chunks = vec![chunk(Side::R, &rows.r), chunk(Side::P, &rows.p)];
    let (universe, _) = Universe::build_streaming_live(schema, || chunks.clone().into_iter(), 1);
    Arc::new(universe)
}

fn tuple(universe: &Universe, row: &[i64]) -> Tuple {
    let values: Vec<Value> = row.iter().map(|&v| Value::int(v)).collect();
    Tuple::intern(universe.instance().interner(), &values)
}

/// One random edit, applied to `rows` as well. Count-only edits keep
/// every signature: a duplicate of a live row joins exactly as its twin
/// does, and deleting one copy of a duplicated row leaves its twin.
pub fn random_delta(
    rng: &mut Rng,
    universe: &Universe,
    rows: &mut Rows,
    count_only: bool,
) -> UniverseDelta {
    let side = if rng.chance(50) { Side::R } else { Side::P };
    let arity = match side {
        Side::R => R_ARITY,
        Side::P => P_ARITY,
    };
    let list = rows.side(side);
    let mut delta = UniverseDelta::new();
    if count_only {
        let duplicated: Vec<usize> = (0..list.len())
            .filter(|&i| list.iter().filter(|row| **row == list[i]).count() > 1)
            .collect();
        if duplicated.is_empty() || rng.chance(50) {
            let row = list[rng.below(list.len())].clone();
            delta.insert(side, tuple(universe, &row));
            list.push(row);
        } else {
            let row = list.remove(duplicated[rng.below(duplicated.len())]);
            delta.delete(side, tuple(universe, &row));
        }
    } else if list.len() > 2 && rng.chance(50) {
        let row = list.remove(rng.below(list.len()));
        delta.delete(side, tuple(universe, &row));
    } else {
        let row = random_row(rng, arity);
        delta.insert(side, tuple(universe, &row));
        list.push(row);
    }
    delta
}

pub fn strategy_mix(i: usize, seed: u64) -> StrategyConfig {
    match i % 5 {
        0 => StrategyConfig::Bu,
        1 => StrategyConfig::Td,
        2 => StrategyConfig::Lks { depth: 1 },
        3 => StrategyConfig::Eg,
        _ => StrategyConfig::Rnd { seed },
    }
}

pub fn oracle_label(universe: &Universe, goal: &BitSet, class: ClassId) -> Label {
    if goal.is_subset(universe.sig(class)) {
        Label::Positive
    } else {
        Label::Negative
    }
}
