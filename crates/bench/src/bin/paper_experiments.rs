//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! paper_experiments [fig6|fig7|table1|semijoin|opt|all] [--runs N] [--goals N]
//!                   [--seed S] [--json]
//! ```
//!
//! * `fig6` — TPC-H Joins 1–5 at both scales: interactions (Figures 6a/6b)
//!   and inference time (Figures 6c/6d).
//! * `fig7` — the six synthetic configurations grouped by `|θG|`
//!   (Figures 7a–7l).
//! * `table1` — the summary table (Table 1).
//! * `semijoin` — the §6 cross-validation sweep (CONS⋉ vs DPLL).
//! * `opt` — worst-case gap of the heuristics vs the minimax optimum.
//! * `all` — everything, in paper order.

use jqi_bench::fig7::Fig7Params;
use jqi_bench::json::str_at;
use jqi_bench::{fig6, fig7, optgap, semijoin_exp, table1};
use jqi_datagen::tpch::TpchScale;
use jqi_datagen::PAPER_CONFIGS;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Args {
    command: String,
    runs: usize,
    goals: usize,
    seed: u64,
    json: bool,
}

const USAGE: &str = "usage: paper_experiments [fig6|fig7|table1|semijoin|opt|all] \
                     [--runs N] [--goals N] [--seed S] [--json]";

/// `Ok(None)` means `--help` was requested (usage already printed).
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        command: "all".to_string(),
        runs: 5,
        goals: 8,
        seed: 0xC0FFEE,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    let mut saw_command = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "fig6" | "fig7" | "table1" | "semijoin" | "opt" | "all" => {
                if saw_command {
                    return Err("multiple commands given".to_string());
                }
                args.command = a;
                saw_command = true;
            }
            "--runs" => {
                args.runs = it
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --runs: {e}"))?;
            }
            "--goals" => {
                args.goals = it
                    .next()
                    .ok_or("--goals needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --goals: {e}"))?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--json" => args.json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(args))
}

fn fig7_params(args: &Args) -> Fig7Params {
    Fig7Params {
        runs: args.runs,
        max_goals_per_size: args.goals,
        seed: args.seed,
    }
}

fn run_fig6(args: &Args) {
    for scale in TpchScale::ALL {
        let report = fig6::run(scale, args.seed);
        if args.json {
            println!("{}", report.to_string_pretty());
            continue;
        }
        println!("== Figure 6 — TPC-H {scale}: number of interactions ==");
        print!("{}", fig6::interactions_table(&report));
        println!();
        println!("== Figure 6 — TPC-H {scale}: inference time (seconds) ==");
        print!("{}", fig6::time_table(&report));
        println!();
    }
}

fn run_fig7(args: &Args) {
    for cfg in PAPER_CONFIGS {
        let report = fig7::run(cfg, fig7_params(args));
        if args.json {
            println!("{}", report.to_string_pretty());
            continue;
        }
        println!(
            "== Figure 7 — synthetic {}: number of interactions (mean of {} runs) ==",
            str_at(&report, "config"),
            args.runs
        );
        print!("{}", fig7::interactions_table(&report));
        println!();
        println!(
            "== Figure 7 — synthetic {}: inference time (seconds) ==",
            str_at(&report, "config")
        );
        print!("{}", fig7::time_table(&report));
        println!();
    }
}

fn run_table1(args: &Args) {
    let t = table1::run(args.seed, fig7_params(args));
    if args.json {
        println!("{}", t.to_string_pretty());
        return;
    }
    println!("== Table 1 — description and summary of all experiments ==");
    print!("{}", table1::table(&t));
    println!();
}

fn run_semijoin(args: &Args) {
    let report = semijoin_exp::run(&[4, 5, 6, 7, 8], args.runs.max(3), args.seed);
    if args.json {
        println!("{}", report.to_string_pretty());
        return;
    }
    println!("== §6 / Theorem 6.1 — CONS⋉ solver vs DPLL on random 3SAT ==");
    print!("{}", semijoin_exp::table(&report));
    println!(
        "cross-validation: {}",
        if semijoin_exp::all_agree(&report) {
            "all decisions agree"
        } else {
            "DISAGREEMENT FOUND"
        }
    );
    println!();
}

fn run_optgap(args: &Args) {
    let report = optgap::run();
    if args.json {
        println!("{}", report.to_string_pretty());
        return;
    }
    println!("== Optimal gap — heuristic worst cases vs the minimax bound ==");
    print!("{}", optgap::table(&report));
    println!();
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match args.command.as_str() {
        "fig6" => run_fig6(&args),
        "fig7" => run_fig7(&args),
        "table1" => run_table1(&args),
        "semijoin" => run_semijoin(&args),
        "opt" => run_optgap(&args),
        "all" => {
            run_fig6(&args);
            run_fig7(&args);
            run_table1(&args);
            run_semijoin(&args);
            run_optgap(&args);
        }
        _ => unreachable!("validated by parse_args"),
    }
    ExitCode::SUCCESS
}
