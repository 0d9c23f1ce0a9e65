//! CI regression guard over the bench JSON reports.
//!
//! ```text
//! bench_guard --kind server|scaling --fresh PATH --baseline PATH [--factor F]
//! ```
//!
//! Compares a freshly generated (tiny, CI-sized) bench report against the
//! committed baseline under `ci/` and exits nonzero when a guarded metric
//! regressed by more than `--factor` (default 3 — CI runners vary wildly,
//! so the guard only catches order-of-magnitude regressions, not noise):
//!
//! * `--kind server` — the interactive phase's per-answer `mean_us`, the
//!   batch phase's `mean_us`, per-session derived-state bytes
//!   (`state_bytes_per_session`, a hard factor on memory, not latency),
//!   the fleet phase's warm and cold first-question `mean_us` plus the
//!   warm-over-cold speedup (`warm_speedup` must not shrink below
//!   `baseline / factor`), the hibernation tier's parked-session
//!   resident bytes (`hibernated_bytes_per_session`) and the mean wall
//!   time of a `stats()` call on the parked fleet, over one call per
//!   session (`stats_us`), and the durability tier: group-commit
//!   per-answer `mean_us` vs the baseline, `overhead_group_x` (the
//!   in-memory/WAL-on throughput ratio) against an **absolute** ceiling
//!   of `factor` (WAL-on interactive throughput must stay within 3x of
//!   in-memory on any machine), and recovery `sessions_per_sec` as a
//!   floor. In the `transport` block the HTTP request `mean_us` is
//!   guarded like the other latencies, `open_connections_peak` must not
//!   shrink, and `protocol_errors` must be zero. In the `overload` block
//!   shed `mean_us` and the accepted `p99_ratio` are held `at_most`,
//!   `goodput_per_sec` must not shrink, and `wedged` /
//!   `protocol_errors` / `client_errors` must be zero at any factor.
//! * `--kind scaling` — per dataset point matched **by name**,
//!   `build_speedup` must not shrink below `baseline / factor` and
//!   `l1s_first_step_ms` / `l3s_first_step_ms` must not exceed
//!   `baseline · factor`; per `streaming` phase point (also matched by
//!   name), `build_wall_ms` and `peak_tracked_bytes` must not exceed
//!   `baseline · factor`; per `incremental` phase point (also matched by
//!   name), `delta_apply_ms`, `rebuild_ms` (the from-scratch streaming
//!   build the delta is compared with, so a slower universe-construction
//!   kernel fails here) and `live_fold_ms` (the live build's row fold,
//!   the per-row step every live table is built with) must not exceed
//!   `baseline · factor` and the
//!   rebuild-over-apply `speedup` must not shrink below
//!   `baseline / factor`. Points present on only one side are skipped
//!   (sweeps may grow), but a block with no matched point is an error.
//!
//! Every guarded block and metric must be present on both sides: a
//! missing one is an error, never a skipped check. The one exception is
//! a scaling metric that is `null` on both sides (`l3s_first_step_ms`
//! above its class cap: measured on neither).

use jqi_bench::json::{at, num_at, Json};
use std::process::ExitCode;

struct Args {
    kind: String,
    fresh: String,
    baseline: String,
    factor: f64,
}

const USAGE: &str =
    "usage: bench_guard --kind server|scaling --fresh PATH --baseline PATH [--factor F]";

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut fresh, mut baseline) = (None, None, None);
    let mut factor = 3.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--kind" => kind = Some(value("--kind")?),
            "--fresh" => fresh = Some(value("--fresh")?),
            "--baseline" => baseline = Some(value("--baseline")?),
            "--factor" => {
                factor = value("--factor")?
                    .parse()
                    .map_err(|e| format!("bad --factor: {e}"))?;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--kind is required")?,
        fresh: fresh.ok_or("--fresh is required")?,
        baseline: baseline.ok_or("--baseline is required")?,
        factor,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Collects guard violations instead of failing fast, so one CI run shows
/// every regressed metric.
struct Guard {
    factor: f64,
    violations: Vec<String>,
    checked: usize,
}

impl Guard {
    fn new(factor: f64) -> Guard {
        Guard {
            factor,
            violations: Vec::new(),
            checked: 0,
        }
    }

    /// `fresh` must not exceed `baseline · factor` (latency-style metric).
    fn at_most(&mut self, what: &str, fresh: f64, baseline: f64) {
        self.checked += 1;
        if fresh > baseline * self.factor {
            self.violations.push(format!(
                "{what}: {fresh:.3} exceeds {:.3} ({baseline:.3} × {})",
                baseline * self.factor,
                self.factor
            ));
        }
    }

    /// `fresh` must not fall below `baseline / factor` (speedup metric).
    fn at_least(&mut self, what: &str, fresh: f64, baseline: f64) {
        self.checked += 1;
        if fresh < baseline / self.factor {
            self.violations.push(format!(
                "{what}: {fresh:.3} falls below {:.3} ({baseline:.3} / {})",
                baseline / self.factor,
                self.factor
            ));
        }
    }
}

/// The number at `path` in the fresh report and in the baseline.
fn both(fresh: &Json, baseline: &Json, path: &str) -> Result<(f64, f64), String> {
    let f = num_at(fresh, path).ok_or(format!("fresh report lacks {path}"))?;
    let b = num_at(baseline, path).ok_or(format!("baseline lacks {path}"))?;
    Ok((f, b))
}

fn guard_server(guard: &mut Guard, fresh: &Json, baseline: &Json) -> Result<(), String> {
    for name in ["interactive", "batch"] {
        let path = format!("phases.{name}.latency.mean_us");
        let (f, b) = both(fresh, baseline, &path)?;
        guard.at_most(&format!("{name} mean_us"), f, b);
    }
    let (f, b) = both(fresh, baseline, "session_memory.state_bytes_per_session")?;
    // Memory is machine-independent: a tight factor would also be fine,
    // but share the guard's knob for simplicity.
    guard.at_most("state_bytes_per_session", f, b);
    // Fleet phase: cold and warm first-question latencies individually,
    // and the warm-over-cold speedup (the decision cache's headline
    // number) as a floor.
    for (leaf, what) in [
        ("cold_first_question", "fleet cold first-question mean_us"),
        ("warm_first_question", "fleet warm first-question mean_us"),
    ] {
        let path = format!("fleet.{leaf}.mean_us");
        let (f, b) = both(fresh, baseline, &path)?;
        guard.at_most(what, f, b);
    }
    let (f, b) = both(fresh, baseline, "fleet.warm_speedup")?;
    guard.at_least("fleet warm_speedup", f, b);
    // Hibernation tier: parked-session resident bytes are
    // machine-independent like the state bytes above.
    let (f, b) = both(fresh, baseline, "hibernate.hibernated_bytes_per_session")?;
    guard.at_most("hibernated_bytes_per_session", f, b);
    // A stats() call on the parked fleet: gauge loads, not a walk.
    let (f, b) = both(fresh, baseline, "hibernate.stats_us")?;
    guard.at_most("hibernate stats_us", f, b);
    // Durability tier: group-commit answer latency against the baseline,
    // the WAL-on/in-memory ratio against an absolute ceiling (the
    // acceptance bar: group commit must stay within 3x of in-memory on
    // any machine), and recovery throughput as a floor.
    let (f, b) = both(fresh, baseline, "durability.wal_group.latency.mean_us")?;
    guard.at_most("durability wal_group mean_us", f, b);
    let f = num_at(fresh, "durability.overhead_group_x")
        .ok_or("fresh report lacks durability overhead_group_x")?;
    // Baseline 1.0: the guard's factor itself becomes the absolute bound.
    guard.at_most("durability overhead_group_x (vs in-memory)", f, 1.0);
    let (f, b) = both(fresh, baseline, "durability.recovery.sessions_per_sec")?;
    guard.at_least("durability recovery sessions_per_sec", f, b);
    // Transport phase: HTTP request latency like the other latencies.
    let (f, b) = both(fresh, baseline, "transport.request_latency.mean_us")?;
    guard.at_most("transport request mean_us", f, b);
    // Concurrency coverage is machine-independent: the fresh run must
    // hold open at least as many connections as the baseline did.
    let (f, b) = both(fresh, baseline, "transport.open_connections_peak")?;
    if f < b {
        guard.violations.push(format!(
            "transport open_connections_peak: {f:.0} below baseline {b:.0} \
             (concurrency coverage must not shrink)"
        ));
    }
    guard.checked += 1;
    // Overload phase: shed responses must stay fast, goodput under
    // overload must not shrink, and the accepted-p99 blow-up over the
    // uncontended baseline is held like a latency.
    let (f, b) = both(fresh, baseline, "overload.shed_latency.mean_us")?;
    guard.at_most("overload shed mean_us", f, b);
    let (f, b) = both(fresh, baseline, "overload.goodput_per_sec")?;
    guard.at_least("overload goodput_per_sec", f, b);
    let (f, b) = both(fresh, baseline, "overload.p99_ratio")?;
    guard.at_most("overload p99_ratio", f, b);
    // Absolute invariants, regressions at any count and any factor: a
    // clean wire, nothing wedged, no client errors. The baseline must
    // carry them too, so a report without them is never a baseline.
    for path in [
        "transport.protocol_errors",
        "overload.wedged",
        "overload.protocol_errors",
        "overload.client_errors",
    ] {
        let (f, _) = both(fresh, baseline, path)?;
        if f > 0.0 {
            guard.violations.push(format!("{path}: {f:.0} (must be 0)"));
        }
        guard.checked += 1;
    }
    Ok(())
}

fn guard_scaling(guard: &mut Guard, fresh: &Json, baseline: &Json) -> Result<(), String> {
    // Per block, matched by name: the metrics that must not shrink below
    // `baseline / factor`, then those that must not exceed `baseline ·
    // factor`. Streaming wall clock is machine-dependent (an order-of-
    // magnitude guard); its peak tracked ingestion bytes are not — a
    // blow-up there means profiles stopped collapsing. The incremental
    // rebuild-over-apply speedup is the O(delta) payoff itself, the
    // rebuild time it divides by is the universe-construction kernel's,
    // and the live fold times the live tables' per-row insert step.
    let rules: [(&str, &[&str], &[&str]); 3] = [
        (
            "points",
            &["build_speedup"],
            &["l1s_first_step_ms", "l3s_first_step_ms"],
        ),
        ("streaming", &[], &["build_wall_ms", "peak_tracked_bytes"]),
        (
            "incremental",
            &["speedup"],
            &["delta_apply_ms", "rebuild_ms", "live_fold_ms"],
        ),
    ];
    fn items<'j>(doc: &'j Json, which: &str, block: &str) -> Result<&'j [Json], String> {
        doc.get(block)
            .and_then(Json::as_arr)
            .ok_or(format!("{which} lacks {block}"))
    }
    for (block, floors, ceilings) in rules {
        let baseline_points = items(baseline, "baseline", block)?;
        let mut matched = 0usize;
        for fp in items(fresh, "fresh report", block)? {
            let name = fp.get("name").and_then(Json::as_str).unwrap_or_default();
            let Some(bp) = baseline_points
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
            else {
                continue;
            };
            matched += 1;
            // A metric a point measures only below a size cap (the L3S
            // first step) is `null` on both sides above it: not measured,
            // so not compared. `null` on one side only is an error.
            let pair = |metric: &str| match (at(fp, metric), at(bp, metric)) {
                (Some(Json::Null), Some(Json::Null)) => Ok(None),
                _ => both(fp, bp, metric)
                    .map(Some)
                    .map_err(|e| format!("{name}: {e}")),
            };
            for metric in floors {
                if let Some((f, b)) = pair(metric)? {
                    guard.at_least(&format!("{name}: {metric}"), f, b);
                }
            }
            for metric in ceilings {
                if let Some((f, b)) = pair(metric)? {
                    guard.at_most(&format!("{name}: {metric}"), f, b);
                }
            }
        }
        if matched == 0 {
            return Err(format!(
                "no {block} point matched between fresh and baseline"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run = || -> Result<Guard, String> {
        let fresh = load(&args.fresh)?;
        let baseline = load(&args.baseline)?;
        let mut guard = Guard::new(args.factor);
        match args.kind.as_str() {
            "server" => guard_server(&mut guard, &fresh, &baseline)?,
            "scaling" => guard_scaling(&mut guard, &fresh, &baseline)?,
            other => return Err(format!("unknown --kind {other:?}")),
        }
        Ok(guard)
    };
    match run() {
        Ok(guard) if guard.violations.is_empty() => {
            println!(
                "bench_guard: {} {} metrics within {}x of baseline",
                guard.checked, args.kind, args.factor
            );
            ExitCode::SUCCESS
        }
        Ok(guard) => {
            eprintln!("bench_guard: {} regression(s):", guard.violations.len());
            for v in &guard.violations {
                eprintln!("  {v}");
            }
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_guard: {msg}");
            ExitCode::FAILURE
        }
    }
}
