//! Runs the scaling sweep and writes `BENCH_scaling.json`.
//!
//! ```text
//! scaling [--tiny] [--out PATH] [--seed S] [--reference-cap N] [--max-ingest-bytes N]
//! ```
//!
//! * `--tiny` — CI-smoke sizes (one small synthetic + TPC-H small point,
//!   streaming at SF 0.002).
//! * `--out PATH` — where to write the JSON report
//!   (default `BENCH_scaling.json`, i.e. the repo root when invoked via
//!   `cargo run` from the workspace root).
//! * `--seed S` — generator seed.
//! * `--reference-cap N` — largest product for which the row-pair
//!   reference build is also timed.
//! * `--max-ingest-bytes N` — abort (panic) if any streaming build of the
//!   sweep (the streaming phase, and the incremental phase's live build
//!   and from-scratch rebuilds) tracks more than `N` ingestion bytes; CI
//!   smoke sets this so a profile blow-up fails loudly instead of OOMing
//!   the runner.

use jqi_bench::scaling::{run, table, ScalingParams};
use std::process::ExitCode;

struct Args {
    tiny: bool,
    out: String,
    params: ScalingParams,
}

const USAGE: &str =
    "usage: scaling [--tiny] [--out PATH] [--seed S] [--reference-cap N] [--max-ingest-bytes N]";

/// `Ok(None)` means `--help` was requested (usage already printed).
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        tiny: false,
        out: "BENCH_scaling.json".to_string(),
        params: ScalingParams::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => args.tiny = true,
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--seed" => {
                args.params.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--reference-cap" => {
                args.params.reference_cap = it
                    .next()
                    .ok_or("--reference-cap needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --reference-cap: {e}"))?;
            }
            "--max-ingest-bytes" => {
                args.params.ingest_byte_ceiling = Some(
                    it.next()
                        .ok_or("--max-ingest-bytes needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --max-ingest-bytes: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let report = run(args.tiny, args.params);
    println!("== Scaling — Universe construction and lookahead latency ==");
    print!("{}", table(&report));
    let json = report.to_string_pretty();
    if let Err(e) = std::fs::write(&args.out, json + "\n") {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);
    ExitCode::SUCCESS
}
