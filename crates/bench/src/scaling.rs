//! The `scaling` benchmark: Universe construction and lookahead latency
//! across product sizes up to 10⁸ tuples.
//!
//! The paper's tractability argument is that TPC-H-scale Cartesian products
//! collapse into few distinct T-signatures; this harness records whether
//! the implementation actually delivers that — for each dataset point it
//! measures
//!
//! * the profile-deduplicated `Universe::build` (the production path),
//! * the row-pair reference build (`Universe::build_rowpair_reference`,
//!   the pre-deduplication algorithm), skipped above
//!   [`ScalingParams::reference_cap`] product tuples,
//! * first-question latency of L1S and (on small class counts) L3S.
//!
//! The `scaling` binary renders the points as a table and writes
//! `BENCH_scaling.json` at the repo root; `docs/BENCHMARKS.md` has the
//! schema.

use crate::json::{arr_at, f64_at, field, num, num_at, str_at, Json};
use jqi_core::strategy::{Lookahead, Strategy};
use jqi_core::universe::Universe;
use jqi_core::{InferenceState, IngestOptions, UniverseDelta};
use jqi_datagen::stream::{SfConfig, SfJoin, SfStream};
use jqi_datagen::tpch::{TpchJoin, TpchScale, TpchTables};
use jqi_datagen::ScaledConfig;
use jqi_relation::{Instance, RowChunk, Side, Tuple, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Sweep parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScalingParams {
    /// Run the row-pair reference build only while `|R|·|P|` is at most
    /// this (the reference is O(product) and becomes infeasible long
    /// before the deduplicated build does).
    pub reference_cap: u64,
    /// Measure L1S first-question latency only up to this many classes.
    pub l1s_class_cap: usize,
    /// Measure L3S first-question latency only up to this many classes.
    pub l3s_class_cap: usize,
    /// Generator seed.
    pub seed: u64,
    /// Hard ceiling on the tracked ingestion bytes of every streaming
    /// build the sweep makes (`None` = unlimited). CI smoke passes a
    /// ceiling so a profile-space blow-up fails the job with a message
    /// instead of OOMing the runner.
    pub ingest_byte_ceiling: Option<usize>,
}

impl Default for ScalingParams {
    fn default() -> Self {
        ScalingParams {
            reference_cap: 20_000_000,
            l1s_class_cap: 5_000,
            l3s_class_cap: 48,
            seed: 0x5CA1E,
            ingest_byte_ceiling: None,
        }
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Measures one instance (see the module docs for what is timed): one
/// `points` entry of the report.
pub fn measure_instance(
    name: String,
    kind: &str,
    instance: Instance,
    params: &ScalingParams,
) -> Json {
    let rows_r = instance.r().len();
    let rows_p = instance.p().len();
    let product_tuples = instance.product_size();

    // Sub-millisecond builds are dominated by one-shot process noise
    // (allocator warm-up, page faults): take the best of a few runs for
    // small products so the reported time — and the CI regression guard
    // riding on `build_speedup` — is stable. Large builds are long enough
    // to be stable single-shot.
    let runs = if product_tuples <= 100_000 { 3 } else { 1 };
    let timed_best = |build: &dyn Fn() -> Universe| -> (f64, Universe) {
        let mut best: Option<(f64, Universe)> = None;
        for _ in 0..runs {
            let start = Instant::now();
            let u = build();
            let elapsed = ms(start);
            if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
                best = Some((elapsed, u));
            }
        }
        best.expect("at least one run")
    };
    let (build_dedup_ms, universe) = timed_best(&|| Universe::build(instance.clone()));
    let universe = Arc::new(universe);

    let build_rowpair_ms = (product_tuples <= params.reference_cap).then(|| {
        let (elapsed, reference) =
            timed_best(&|| Universe::build_rowpair_reference(instance.clone()));
        assert_eq!(
            reference.total_tuples(),
            universe.total_tuples(),
            "reference and dedup builds disagree on {name}"
        );
        assert_eq!(
            reference.num_classes(),
            universe.num_classes(),
            "reference and dedup builds disagree on {name}"
        );
        elapsed
    });
    let build_speedup = build_rowpair_ms.map(|r| r / build_dedup_ms.max(1e-9));

    let first_step = |depth: usize, cap: usize| -> Option<f64> {
        if universe.num_classes() > cap {
            return None;
        }
        let state = InferenceState::new(Arc::clone(&universe));
        let mut strategy = Lookahead::new(depth);
        let start = Instant::now();
        let picked = strategy.next(&state).expect("strategies are infallible");
        let elapsed = ms(start);
        std::hint::black_box(picked);
        Some(elapsed)
    };
    let l1s_first_step_ms = first_step(1, params.l1s_class_cap);
    let l3s_first_step_ms = first_step(3, params.l3s_class_cap);
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::Obj(vec![
        field("name", Json::Str(name)),
        field("kind", Json::str(kind)),
        num("rows_r", rows_r as f64),
        num("rows_p", rows_p as f64),
        num("product_tuples", product_tuples as f64),
        num("distinct_r_profiles", universe.distinct_r_profiles() as f64),
        num("distinct_p_profiles", universe.distinct_p_profiles() as f64),
        num("classes", universe.num_classes() as f64),
        num("build_dedup_ms", build_dedup_ms),
        field("build_rowpair_ms", opt(build_rowpair_ms)),
        field("build_speedup", opt(build_speedup)),
        field("l1s_first_step_ms", opt(l1s_first_step_ms)),
        field("l3s_first_step_ms", opt(l3s_first_step_ms)),
        num(
            "state_bytes",
            InferenceState::new(Arc::clone(&universe)).state_bytes() as f64,
        ),
        num("closure_bytes", universe.closure().resident_bytes() as f64),
    ])
}

/// Measures one end-to-end streaming build at scale factor `sf`:
/// `Customer ⋈ Orders` chunks generated by parallel workers, folded into
/// weighted profiles by `Universe::build_streaming`, with generation and
/// folding overlapping through bounded channels, with rows never
/// materialized. One `streaming` entry of the report.
pub fn measure_streaming(sf: f64, params: &ScalingParams) -> Json {
    let config = SfConfig::new(sf, params.seed);
    let stream = SfStream::new(config, SfJoin::CustomerOrders)
        .expect("streaming workload schema is well-formed");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gen_workers = threads.clamp(1, 4);
    let options = IngestOptions {
        byte_ceiling: params.ingest_byte_ceiling,
        ..IngestOptions::with_threads(threads)
    };

    let start = Instant::now();
    let (universe, stats) = Universe::build_streaming(
        stream.schema().clone(),
        || stream.par_chunks(gen_workers, 4),
        &options,
    );
    let build_wall_ms = ms(start);

    let rows = stats.rows_r + stats.rows_p;
    let rows_per_s = rows as f64 / (build_wall_ms / 1e3).max(1e-9);
    let memory_ratio = stats.materialized_row_bytes as f64 / stats.peak_tracked_bytes.max(1) as f64;
    Json::Obj(vec![
        field(
            "name",
            Json::str(format!("streaming {} SF={sf}", stream.join().name())),
        ),
        num("sf", sf),
        num("rows_r", stats.rows_r as f64),
        num("rows_p", stats.rows_p as f64),
        num("distinct_r_profiles", stats.distinct_r as f64),
        num("distinct_p_profiles", stats.distinct_p as f64),
        num("classes", universe.num_classes() as f64),
        num("build_wall_ms", build_wall_ms),
        num("rows_per_s", rows_per_s),
        num("peak_tracked_bytes", stats.peak_tracked_bytes as f64),
        num(
            "materialized_row_bytes",
            stats.materialized_row_bytes as f64,
        ),
        num("memory_ratio", memory_ratio),
        num("threads", stats.threads as f64),
        num("gen_workers", gen_workers as f64),
    ])
}

/// Measures incremental maintenance at scale factor `sf`: a live
/// `Customer ⋈ Orders` universe absorbing (a) one fresh-key order row and
/// (b) a mixed 1 % batch (half deletes of streamed rows, half fresh-key
/// inserts), each timed against rebuilding the edited stream from
/// scratch. The applied and rebuilt universes are cross-checked for
/// agreement on class count and total tuples — the bench doubles as an
/// end-to-end equivalence assertion at a scale the unit tests never see.
/// Two `incremental` entries of the report.
pub fn measure_incremental(sf: f64, params: &ScalingParams) -> Vec<Json> {
    let config = SfConfig::new(sf, params.seed);
    let stream = SfStream::new(config, SfJoin::CustomerOrders)
        .expect("streaming workload schema is well-formed");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let schema = stream.schema().clone();
    // Both builds below run under the sweep's ingestion byte ceiling.
    let plain = IngestOptions {
        byte_ceiling: params.ingest_byte_ceiling,
        ..IngestOptions::with_threads(threads)
    };
    let live = IngestOptions {
        live: true,
        ..plain
    };

    let (base, stats) = Universe::build_streaming(schema.clone(), || stream.chunks(), &live);
    let (rows_r, rows_p) = (stats.rows_r, stats.rows_p);
    let total_rows = rows_r + rows_p;
    let live_bytes = stats.peak_tracked_bytes;

    // Edit material: the first streamed rows of each side are the delete
    // candidates; fresh-key variants of them (the key column replaced by
    // a value the generator never produces) are the inserts — new
    // customers/orders whose remaining columns recombine live symbols.
    let batch_edits = ((total_rows as usize) / 100).max(2);
    let wanted = batch_edits / 2 + 1;
    let mut sample: [Vec<Tuple>; 2] = [Vec::new(), Vec::new()];
    for chunk in stream.chunks() {
        let slot = match chunk.side {
            Side::R => 0,
            Side::P => 1,
        };
        if sample[slot].len() < wanted {
            sample[slot].extend(chunk.rows.iter().cloned());
        }
        if sample[0].len() >= wanted && sample[1].len() >= wanted {
            break;
        }
    }
    let side_of = |slot: usize| if slot == 0 { Side::R } else { Side::P };
    let fresh_variant = |slot: usize, i: usize| -> Tuple {
        let row = &sample[slot][i % sample[slot].len()];
        let mut symbols = row.symbols().to_vec();
        symbols[0] = schema
            .interner()
            .intern(&Value::int(0x7E57_0000_0000 + i as i64 * 2 + slot as i64));
        Tuple::new(symbols)
    };

    // The from-scratch alternative: regenerate the stream, skip the
    // deleted occurrences, append the inserted rows, and run the plain
    // (reps-only) streaming build — the cheapest full rebuild available.
    let rebuild = |inserts: &[(Side, Tuple)], deletes: &[(Side, Tuple)]| -> (f64, Universe) {
        let mut budget: [HashMap<Tuple, usize>; 2] = [HashMap::new(), HashMap::new()];
        for (side, row) in deletes {
            let slot = match side {
                Side::R => 0,
                Side::P => 1,
            };
            *budget[slot].entry(row.clone()).or_insert(0) += 1;
        }
        let extra: Vec<RowChunk> = [Side::R, Side::P]
            .into_iter()
            .map(|side| RowChunk {
                side,
                rows: inserts
                    .iter()
                    .filter(|(s, _)| *s == side)
                    .map(|(_, row)| row.clone())
                    .collect(),
            })
            .filter(|chunk| !chunk.is_empty())
            .collect();
        let source = || {
            let mut budget = budget.clone();
            let extra = extra.clone();
            stream
                .chunks()
                .map(move |mut chunk| {
                    let slot = match chunk.side {
                        Side::R => 0,
                        Side::P => 1,
                    };
                    if !budget[slot].is_empty() {
                        chunk.rows.retain(|row| match budget[slot].get_mut(row) {
                            Some(n) if *n > 0 => {
                                *n -= 1;
                                false
                            }
                            _ => true,
                        });
                    }
                    chunk
                })
                .chain(extra)
        };
        let start = Instant::now();
        let (universe, _) = Universe::build_streaming(schema.clone(), source, &plain);
        (ms(start), universe)
    };

    let measure =
        |name: String, inserts: Vec<(Side, Tuple)>, deletes: Vec<(Side, Tuple)>| -> Json {
            let mut delta = UniverseDelta::new();
            for (side, row) in &deletes {
                delta.delete(*side, row.clone());
            }
            for (side, row) in &inserts {
                delta.insert(*side, row.clone());
            }
            let mut best = f64::INFINITY;
            let mut applied = None;
            for _ in 0..3 {
                let start = Instant::now();
                let next = base.apply_delta(&delta).expect("edit script is valid");
                let elapsed = ms(start);
                if elapsed < best {
                    best = elapsed;
                    applied = Some(next);
                }
            }
            let applied = applied.expect("at least one run");
            let (rebuild_ms, rebuilt) = rebuild(&inserts, &deletes);
            assert_eq!(
                applied.num_classes(),
                rebuilt.num_classes(),
                "{name}: delta-applied universe disagrees with the rebuild"
            );
            assert_eq!(
                applied.total_tuples(),
                rebuilt.total_tuples(),
                "{name}: delta-applied universe disagrees with the rebuild"
            );
            Json::Obj(vec![
                field("name", Json::Str(name)),
                num("sf", sf),
                num("rows_r", rows_r as f64),
                num("rows_p", rows_p as f64),
                num("edits", delta.len() as f64),
                num("classes_before", base.num_classes() as f64),
                num("classes_after", applied.num_classes() as f64),
                num("delta_apply_ms", best),
                num("rebuild_ms", rebuild_ms),
                num("speedup", rebuild_ms / best.max(1e-9)),
                num("live_bytes", live_bytes as f64),
            ])
        };

    let join = stream.join().name();
    let single = measure(
        format!("incremental {join} SF={sf} single-row"),
        vec![(Side::P, fresh_variant(1, 0))],
        vec![],
    );
    let deletes: Vec<(Side, Tuple)> = (0..batch_edits / 2)
        .map(|i| {
            let slot = i % 2;
            (
                side_of(slot),
                sample[slot][i / 2 % sample[slot].len()].clone(),
            )
        })
        .collect();
    let inserts: Vec<(Side, Tuple)> = (0..batch_edits - deletes.len())
        .map(|i| {
            let slot = i % 2;
            (side_of(slot), fresh_variant(slot, i + 1))
        })
        .collect();
    let batch = measure(
        format!("incremental {join} SF={sf} batch-1%"),
        inserts,
        deletes,
    );
    vec![single, batch]
}

/// The synthetic duplicate-heavy sweep: products from 10⁴ to 10⁸ tuples,
/// every one collapsing into ≤ 2¹⁰ profile pairs. The 10⁶ point (1000×1000
/// rows, 32·32 distinct profiles) is the acceptance workload the README's
/// speedup claim refers to.
pub fn synthetic_sweep(tiny: bool) -> Vec<ScaledConfig> {
    if tiny {
        return vec![ScaledConfig::new(3, 3, 100, 100, 8, 8, 12)];
    }
    vec![
        ScaledConfig::new(3, 3, 100, 100, 16, 16, 12),   // 10^4
        ScaledConfig::new(3, 3, 1000, 1000, 32, 32, 12), // 10^6, acceptance
        ScaledConfig::new(3, 3, 4000, 2500, 32, 32, 12), // 10^7
        ScaledConfig::new(2, 4, 10_000, 10_000, 24, 24, 10), // 10^8
    ]
}

/// TPC-H Join 4 (Orders × Lineitem, the largest product) at the given
/// scales. Keys are near-distinct, so this is the low-duplication end of
/// the spectrum: deduplication finds few profiles to merge and must not
/// cost anything.
pub fn tpch_sweep(tiny: bool) -> Vec<TpchScale> {
    if tiny {
        return vec![TpchScale::Small];
    }
    vec![TpchScale::Small, TpchScale::Large, TpchScale::Huge]
}

/// Scale factors of the `streaming` phase: real SF 1 for the full sweep
/// (1.65 M rows end to end), SF 0.002 for CI smoke.
pub fn streaming_sweep(tiny: bool) -> Vec<f64> {
    if tiny {
        return vec![0.002];
    }
    vec![1.0]
}

/// Scale factors of the `incremental` phase: SF 0.1 (165 k rows — the
/// acceptance point for the ≥ 50× single-row speedup) for the full
/// sweep, SF 0.002 for CI smoke.
pub fn incremental_sweep(tiny: bool) -> Vec<f64> {
    if tiny {
        return vec![0.002];
    }
    vec![0.1]
}

/// Runs the full sweep; the report's schema is in `docs/BENCHMARKS.md`.
pub fn run(tiny: bool, params: ScalingParams) -> Json {
    let mut points = Vec::new();
    for cfg in synthetic_sweep(tiny) {
        let instance = cfg.generate(params.seed);
        points.push(measure_instance(
            format!("synthetic {cfg}"),
            "synthetic",
            instance,
            &params,
        ));
    }
    for scale in tpch_sweep(tiny) {
        let tables = TpchTables::generate(scale, params.seed);
        let workload = tables.workload(TpchJoin::Join4);
        points.push(measure_instance(
            format!("tpch {} {}", scale, workload.join),
            "tpch",
            workload.instance,
            &params,
        ));
    }
    let streaming = streaming_sweep(tiny)
        .into_iter()
        .map(|sf| measure_streaming(sf, &params))
        .collect();
    let incremental = incremental_sweep(tiny)
        .into_iter()
        .flat_map(|sf| measure_incremental(sf, &params))
        .collect();
    Json::Obj(vec![
        field("bench", Json::str("scaling")),
        field(
            "generated_by",
            Json::str("cargo run -p jqi_bench --bin scaling --release"),
        ),
        num("reference_cap", params.reference_cap as f64),
        num("seed", params.seed as f64),
        field("points", Json::Arr(points)),
        field("streaming", Json::Arr(streaming)),
        field("incremental", Json::Arr(incremental)),
    ])
}

/// Renders a [`run`] report as plain-text tables: the points, then the
/// streaming and incremental phases when present.
pub fn table(report: &Json) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>12} {:>9} {:>8} {:>12} {:>12} {:>9} {:>10} {:>10} {:>9}\n",
        "dataset",
        "product",
        "profiles",
        "classes",
        "dedup(ms)",
        "rowpair(ms)",
        "speedup",
        "L1S(ms)",
        "L3S(ms)",
        "state(B)"
    ));
    for p in arr_at(report, "points") {
        let n = |path: &str| f64_at(p, path);
        let opt = |path: &str| num_at(p, path).map_or("-".to_string(), |x| format!("{x:.3}"));
        out.push_str(&format!(
            "{:<44} {:>12} {:>9} {:>8} {:>12.3} {:>12} {:>9} {:>10} {:>10} {:>9}\n",
            str_at(p, "name"),
            n("product_tuples"),
            format!("{}·{}", n("distinct_r_profiles"), n("distinct_p_profiles")),
            n("classes"),
            n("build_dedup_ms"),
            opt("build_rowpair_ms"),
            num_at(p, "build_speedup").map_or("-".to_string(), |s| format!("{s:.1}x")),
            opt("l1s_first_step_ms"),
            opt("l3s_first_step_ms"),
            n("state_bytes"),
        ));
    }
    let streaming = arr_at(report, "streaming");
    if !streaming.is_empty() {
        out.push_str(&format!(
            "\n{:<40} {:>11} {:>11} {:>8} {:>11} {:>12} {:>11} {:>12} {:>8}\n",
            "streaming build",
            "rows",
            "profiles",
            "classes",
            "wall(ms)",
            "rows/s",
            "peak(B)",
            "row-mem(B)",
            "ratio"
        ));
        for s in streaming {
            let n = |path: &str| f64_at(s, path);
            out.push_str(&format!(
                "{:<40} {:>11} {:>11} {:>8} {:>11.1} {:>12.0} {:>11} {:>12} {:>7.1}x\n",
                str_at(s, "name"),
                n("rows_r") + n("rows_p"),
                format!("{}·{}", n("distinct_r_profiles"), n("distinct_p_profiles")),
                n("classes"),
                n("build_wall_ms"),
                n("rows_per_s"),
                n("peak_tracked_bytes"),
                n("materialized_row_bytes"),
                n("memory_ratio"),
            ));
        }
    }
    let incremental = arr_at(report, "incremental");
    if !incremental.is_empty() {
        out.push_str(&format!(
            "\n{:<44} {:>7} {:>9} {:>9} {:>11} {:>12} {:>9} {:>11}\n",
            "incremental maintenance",
            "edits",
            "classes",
            "apply(ms)",
            "rebuild(ms)",
            "speedup",
            "rows",
            "live(B)"
        ));
        for p in incremental {
            let n = |path: &str| f64_at(p, path);
            out.push_str(&format!(
                "{:<44} {:>7} {:>9} {:>9.3} {:>11.1} {:>11.1}x {:>9} {:>11}\n",
                str_at(p, "name"),
                n("edits"),
                format!("{}→{}", n("classes_before"), n("classes_after")),
                n("delta_apply_ms"),
                n("rebuild_ms"),
                n("speedup"),
                n("rows_r") + n("rows_p"),
                n("live_bytes"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{ci_baseline, leaf_paths};

    #[test]
    fn tiny_sweep_measures_everything() {
        let report = run(true, ScalingParams::default());
        let points = arr_at(&report, "points");
        assert_eq!(points.len(), 2);
        let synthetic = |path: &str| f64_at(&points[0], path);
        assert_eq!(str_at(&points[0], "kind"), "synthetic");
        assert_eq!(synthetic("product_tuples"), 10_000.0);
        assert!(synthetic("distinct_r_profiles") <= 8.0);
        assert!(synthetic("build_dedup_ms") > 0.0);
        for path in ["build_rowpair_ms", "build_speedup", "l1s_first_step_ms"] {
            assert!(num_at(&points[0], path).is_some(), "{path}");
        }
        assert!(synthetic("state_bytes") > 0.0);
        assert!(synthetic("closure_bytes") > 0.0);
        assert_eq!(str_at(&points[1], "kind"), "tpch");
        assert!(f64_at(&points[1], "product_tuples") > 0.0);
        let streaming = arr_at(&report, "streaming");
        assert_eq!(streaming.len(), 1);
        let s = |path: &str| f64_at(&streaming[0], path);
        assert_eq!(s("sf"), 0.002);
        assert_eq!(s("rows_r"), 300.0);
        assert_eq!(s("rows_p"), 3000.0);
        assert!(s("distinct_r_profiles") <= s("rows_r"));
        assert!(s("classes") > 0.0);
        assert!(s("build_wall_ms") > 0.0);
        assert!(s("rows_per_s") > 0.0);
        assert!(s("peak_tracked_bytes") > 0.0);
        assert!(s("materialized_row_bytes") > 0.0);
        assert!(s("threads") >= 1.0);
        let incremental = arr_at(&report, "incremental");
        assert_eq!(incremental.len(), 2);
        let single = |path: &str| f64_at(&incremental[0], path);
        let name = str_at(&incremental[0], "name");
        assert!(name.ends_with("single-row"), "{name}");
        assert_eq!(single("edits"), 1.0);
        assert!(single("classes_before") > 0.0);
        assert!(single("delta_apply_ms") > 0.0);
        assert!(single("rebuild_ms") > 0.0);
        assert!(single("speedup") > 0.0);
        assert!(single("live_bytes") > 0.0);
        let name = str_at(&incremental[1], "name");
        assert!(name.ends_with("batch-1%"), "{name}");
        assert_eq!(
            f64_at(&incremental[1], "edits"),
            33.0,
            "1% of 3300 streamed rows"
        );
        assert!(f64_at(&incremental[1], "classes_after") > 0.0);
    }

    #[test]
    fn report_renders_table_and_json() {
        let report = run(true, ScalingParams::default());
        // The report's schema is the committed baseline's, key for key and
        // in document order: `bench_guard` reads the fresh report by the
        // baseline's keys.
        assert_eq!(
            leaf_paths(&report),
            leaf_paths(&ci_baseline("bench_baseline_scaling.json")),
            "report schema differs from ci/bench_baseline_scaling.json"
        );
        let table = table(&report);
        assert!(table.contains("dataset"));
        assert!(table.contains("synthetic"));
        assert!(table.contains("streaming build"));
        assert!(table.contains("incremental maintenance"));
        let json = report.to_string_pretty();
        assert!(json.contains("\"bench\": \"scaling\""));
    }

    #[test]
    fn streaming_byte_ceiling_trips_on_blowup() {
        // An absurdly small ceiling must abort the streaming and the
        // incremental phase with a panic (the CI smoke job's OOM tripwire).
        let params = ScalingParams {
            ingest_byte_ceiling: Some(64),
            ..ScalingParams::default()
        };
        let result = std::panic::catch_unwind(|| measure_streaming(0.0005, &params));
        assert!(result.is_err());
        // The incremental phase's live build is guarded by the same ceiling.
        let result = std::panic::catch_unwind(|| measure_incremental(0.0005, &params));
        assert!(result.is_err());
    }
}
