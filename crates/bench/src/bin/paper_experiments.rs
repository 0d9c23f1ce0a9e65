//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! paper_experiments [fig6|fig7|table1|semijoin|opt|all] [--runs N] [--goals N]
//!                   [--seed S] [--json] [--counts]
//! ```
//!
//! * `fig6` — TPC-H Joins 1–5 at both scales: interactions (Figures 6a/6b)
//!   and inference time (Figures 6c/6d).
//! * `fig7` — the six synthetic configurations grouped by `|θG|`
//!   (Figures 7a–7l).
//! * `table1` — the summary table (Table 1).
//! * `semijoin` — the §6 cross-validation sweep (CONS⋉ vs DPLL).
//! * `opt` — worst-case gap of the heuristics vs the minimax optimum.
//! * `all` — everything, in paper order; under `--json`, one document
//!   with a field per experiment, `table1` summarising its `fig6` and
//!   `fig7` reports.
//!
//! `--counts` prints the JSON without its timing fields (it implies
//! `--json`); `all --counts` is the committed `BENCH_paper.json`.

use jqi_bench::fig7::Fig7Params;
use jqi_bench::json::{arr_at, at, str_at, Json};
use jqi_bench::{evaluation, fig6, fig7, optgap, semijoin_exp, table1};
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
    counts: bool,
}

const USAGE: &str = "usage: paper_experiments [fig6|fig7|table1|semijoin|opt|all] \
                     [--runs N] [--goals N] [--seed S] [--json] [--counts]";

/// `Ok(None)` means `--help` was requested (usage already printed).
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        command: "all".to_string(),
        runs: 5,
        goals: 8,
        seed: 0xC0FFEE,
        json: false,
        counts: false,
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
            "--counts" => (args.json, args.counts) = (true, true),
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

/// Prints one report as JSON, without its timing fields under `--counts`.
fn print_json(args: &Args, report: &Json) {
    let report = if args.counts {
        &evaluation::counts(report)
    } else {
        report
    };
    println!("{}", report.to_string_pretty());
}

/// Prints `report` as JSON under `--json`, else as the tables `render`
/// draws.
fn emit(args: &Args, report: &Json, render: fn(&Args, &Json)) {
    if args.json {
        print_json(args, report);
    } else {
        render(args, report);
    }
}

fn render_fig6(_: &Args, report: &Json) {
    let scale = str_at(report, "scale");
    println!("== Figure 6 — TPC-H {scale}: number of interactions ==");
    print!("{}", fig6::interactions_table(report));
    println!();
    println!("== Figure 6 — TPC-H {scale}: inference time (seconds) ==");
    print!("{}", fig6::time_table(report));
    println!();
}

fn render_fig7(args: &Args, report: &Json) {
    let config = str_at(report, "config");
    println!(
        "== Figure 7 — synthetic {config}: number of interactions (mean of {} runs) ==",
        args.runs
    );
    print!("{}", fig7::interactions_table(report));
    println!();
    println!("== Figure 7 — synthetic {config}: inference time (seconds) ==");
    print!("{}", fig7::time_table(report));
    println!();
}

fn render_table1(_: &Args, report: &Json) {
    println!("== Table 1 — description and summary of all experiments ==");
    print!("{}", table1::table(report));
    println!();
}

fn render_semijoin(_: &Args, report: &Json) {
    println!("== §6 / Theorem 6.1 — CONS⋉ solver vs DPLL on random 3SAT ==");
    print!("{}", semijoin_exp::table(report));
    println!(
        "cross-validation: {}",
        if semijoin_exp::all_agree(report) {
            "all decisions agree"
        } else {
            "DISAGREEMENT FOUND"
        }
    );
    println!();
}

fn render_optgap(_: &Args, report: &Json) {
    println!("== Optimal gap — heuristic worst cases vs the minimax bound ==");
    print!("{}", optgap::table(report));
    println!();
}

/// The tables of every report in one [`evaluation::all`] document, in
/// paper order, so text `all` runs each experiment once, as `--json` does.
fn render_all(args: &Args, doc: &Json) {
    arr_at(doc, "fig6")
        .iter()
        .for_each(|r| render_fig6(args, r));
    arr_at(doc, "fig7")
        .iter()
        .for_each(|r| render_fig7(args, r));
    let field = |name| at(doc, name).expect("evaluation::all has every experiment");
    render_table1(args, field("table1"));
    render_semijoin(args, field("semijoin"));
    render_optgap(args, field("opt"));
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
    let params = fig7_params(&args);
    match args.command.as_str() {
        "fig6" => TpchScale::ALL
            .iter()
            .for_each(|&scale| emit(&args, &fig6::run(scale, args.seed), render_fig6)),
        "fig7" => PAPER_CONFIGS
            .iter()
            .for_each(|&config| emit(&args, &fig7::run(config, params), render_fig7)),
        "table1" => emit(&args, &table1::run(args.seed, params), render_table1),
        "semijoin" => emit(&args, &evaluation::semijoin(params), render_semijoin),
        "opt" => emit(&args, &optgap::run(), render_optgap),
        "all" => emit(&args, &evaluation::all(params), render_all),
        _ => unreachable!("validated by parse_args"),
    }
    ExitCode::SUCCESS
}
