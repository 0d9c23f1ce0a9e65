//! Runs the server throughput benchmark and writes `BENCH_server.json`.
//!
//! ```text
//! throughput [--tiny] [--out PATH] [--threads M] [--sessions K] [--shards N] [--seed S]
//! ```
//!
//! * `--tiny` — CI-smoke sizes (2 threads × 128 sessions).
//! * `--out PATH` — where to write the JSON report
//!   (default `BENCH_server.json`, i.e. the repo root when invoked via
//!   `cargo run` from the workspace root).
//! * `--threads M` — worker threads (default 8).
//! * `--sessions K` — sessions per thread (default 128; M·K are live at
//!   once).
//! * `--shards N` — session-table shards (default 16).
//! * `--seed S` — seed for the RND sessions in the strategy mix.

use jqi_bench::throughput::{run, table, ThroughputParams};
use std::process::ExitCode;

struct Args {
    tiny: bool,
    out: String,
    params: ThroughputParams,
}

const USAGE: &str =
    "usage: throughput [--tiny] [--out PATH] [--threads M] [--sessions K] [--shards N] [--seed S]";

/// `Ok(None)` means `--help` was requested (usage already printed).
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        tiny: false,
        out: "BENCH_server.json".to_string(),
        params: ThroughputParams::default(),
    };
    let mut it = std::env::args().skip(1);
    let numeric = |flag: &str, value: Option<String>| -> Result<usize, String> {
        value
            .ok_or(format!("{flag} needs a value"))?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => args.tiny = true,
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--threads" => args.params.threads = numeric("--threads", it.next())?,
            "--sessions" => args.params.sessions_per_thread = numeric("--sessions", it.next())?,
            "--shards" => args.params.shards = numeric("--shards", it.next())?,
            "--seed" => args.params.seed = numeric("--seed", it.next())? as u64,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.params.threads == 0 || args.params.sessions_per_thread == 0 {
        return Err("--threads and --sessions must be at least 1".into());
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
    println!("== Server throughput — concurrent sessions over one universe ==");
    print!("{}", table(&report));
    let json = report.to_string_pretty();
    if let Err(e) = std::fs::write(&args.out, json + "\n") {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);
    ExitCode::SUCCESS
}
