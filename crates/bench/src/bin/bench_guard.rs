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
//!   session (`stats_us`, when the baseline has it),
//!   and the durability tier: group-commit per-answer `mean_us` vs the
//!   baseline, `overhead_group_x` (the in-memory/WAL-on throughput
//!   ratio) against an **absolute** ceiling of `factor` (WAL-on interactive throughput
//!   must stay within 3x of in-memory on any machine), and recovery
//!   `sessions_per_sec` as a floor. When the baseline carries a
//!   `transport` block (PR 8+), the HTTP request `mean_us` is guarded
//!   like the other latencies, `open_connections_peak` must not shrink,
//!   and `protocol_errors` must be zero. When it carries an `overload`
//!   block (PR 9+), shed `mean_us` and the accepted `p99_ratio` are
//!   held `at_most`, `goodput_per_sec` must not shrink, and `wedged` /
//!   `protocol_errors` / `client_errors` must be zero at any factor.
//! * `--kind scaling` — per dataset point matched **by name**,
//!   `build_speedup` must not shrink below `baseline / factor` and
//!   `l1s_first_step_ms` / `l3s_first_step_ms` must not exceed
//!   `baseline · factor`; per `streaming` phase point (also matched by
//!   name), `build_wall_ms` and `peak_tracked_bytes` must not exceed
//!   `baseline · factor`; per `incremental` phase point (also matched by
//!   name), `delta_apply_ms` must not exceed `baseline · factor` and the
//!   rebuild-over-apply `speedup` must not shrink below
//!   `baseline / factor`. Points present on only one side are skipped
//!   (sweeps may grow, and baselines older than a phase lack its block),
//!   but zero matched points is an error.

use jqi_bench::json::{num_at, Json};
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
    // One stats() call on the parked fleet: gauge loads, not a walk.
    // Guarded only when the baseline carries it (older ones predate it).
    if let Some(b) = num_at(baseline, "hibernate.stats_us") {
        let f =
            num_at(fresh, "hibernate.stats_us").ok_or("fresh report lacks hibernate stats_us")?;
        guard.at_most("hibernate stats_us", f, b);
    }
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
    // Transport phase: guarded only when the committed baseline carries
    // it (older baselines predate the HTTP gateway — the skip-if-absent
    // posture the scaling guard uses for grown sweeps). The fresh report
    // must carry it once the baseline does.
    if baseline.get("transport").is_some() {
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
        // The wire must be clean: any protocol error in the fresh run is
        // a regression regardless of factor.
        let f = num_at(fresh, "transport.protocol_errors")
            .ok_or("fresh report lacks transport protocol_errors")?;
        if f > 0.0 {
            guard
                .violations
                .push(format!("transport protocol_errors: {f:.0} (must be 0)"));
        }
        guard.checked += 1;
    }
    // Overload phase: guarded only when the baseline carries it (older
    // baselines predate the load shedder). Shed responses must stay
    // fast, goodput under overload must not shrink, the accepted-p99
    // blow-up over the uncontended baseline is held like a latency, and
    // the absolute invariants — nothing wedged, no protocol or client
    // errors — are regressions at any count.
    if baseline.get("overload").is_some() {
        let (f, b) = both(fresh, baseline, "overload.shed_latency.mean_us")?;
        guard.at_most("overload shed mean_us", f, b);
        let (f, b) = both(fresh, baseline, "overload.goodput_per_sec")?;
        guard.at_least("overload goodput_per_sec", f, b);
        let (f, b) = both(fresh, baseline, "overload.p99_ratio")?;
        guard.at_most("overload p99_ratio", f, b);
        for must_be_zero in ["wedged", "protocol_errors", "client_errors"] {
            let f = num_at(fresh, &format!("overload.{must_be_zero}"))
                .ok_or(format!("fresh report lacks overload {must_be_zero}"))?;
            if f > 0.0 {
                guard
                    .violations
                    .push(format!("overload {must_be_zero}: {f:.0} (must be 0)"));
            }
            guard.checked += 1;
        }
    }
    Ok(())
}

fn guard_scaling(guard: &mut Guard, fresh: &Json, baseline: &Json) -> Result<(), String> {
    for (doc, which) in [(fresh, "fresh report"), (baseline, "baseline")] {
        if doc.get("points").and_then(Json::as_arr).is_none() {
            return Err(format!("{which} lacks points"));
        }
    }
    // Per block, matched by name: the metrics that must not shrink below
    // `baseline / factor`, then those that must not exceed `baseline ·
    // factor`. Streaming wall clock is machine-dependent (an order-of-
    // magnitude guard); its peak tracked ingestion bytes are not — a
    // blow-up there means profiles stopped collapsing. The incremental
    // rebuild-over-apply speedup is the O(delta) payoff itself. Blocks
    // a baseline predates (streaming, incremental) are simply empty.
    let rules: [(&str, &[&str], &[&str]); 3] = [
        (
            "points",
            &["build_speedup"],
            &["l1s_first_step_ms", "l3s_first_step_ms"],
        ),
        ("streaming", &[], &["build_wall_ms", "peak_tracked_bytes"]),
        ("incremental", &["speedup"], &["delta_apply_ms"]),
    ];
    fn items<'j>(doc: &'j Json, block: &str) -> &'j [Json] {
        doc.get(block).and_then(Json::as_arr).unwrap_or_default()
    }
    let mut matched = 0usize;
    for (block, floors, ceilings) in rules {
        for fp in items(fresh, block) {
            let Some(name) = fp.get("name").and_then(Json::as_str) else {
                continue;
            };
            let Some(bp) = items(baseline, block)
                .iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
            else {
                continue;
            };
            matched += 1;
            for metric in floors {
                if let (Some(f), Some(b)) = (num_at(fp, metric), num_at(bp, metric)) {
                    guard.at_least(&format!("{name}: {metric}"), f, b);
                }
            }
            for metric in ceilings {
                if let (Some(f), Some(b)) = (num_at(fp, metric), num_at(bp, metric)) {
                    guard.at_most(&format!("{name}: {metric}"), f, b);
                }
            }
        }
    }
    if matched == 0 {
        return Err("no dataset points matched between fresh and baseline".into());
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
