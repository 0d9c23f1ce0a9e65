//! Experiment harness regenerating every table and figure of the paper.
//!
//! The modules map one-to-one onto the paper's §5 artifacts (see DESIGN.md's
//! per-experiment index):
//!
//! * [`measure`] — timing one inference run of one strategy.
//! * [`fig6`] — Figure 6a–6d: interactions and inference time for the five
//!   TPC-H joins at two scales.
//! * [`fig7`] — Figure 7a–7l: interactions and inference time for the six
//!   synthetic configurations, grouped by goal-predicate size.
//! * [`table1`] — Table 1: per-dataset summary (product size, join ratio,
//!   best strategy, its time).
//! * [`scaling`] — the perf-trajectory sweep: profile-deduplicated vs
//!   row-pair Universe construction and lookahead latency on products up
//!   to 10⁸ tuples (`BENCH_scaling.json`).
//! * [`throughput`] — the `jqi_server` service under concurrent load:
//!   per-answer latency across M threads × K live sessions, batch
//!   answering, and snapshot/restore round-trips (`BENCH_server.json`).
//! * [`semijoin_exp`] — §6 / Theorem 6.1: the CONS⋉ solver against DPLL on
//!   random 3SAT reductions.
//! * [`optgap`] — worst cases of the deterministic heuristics against the
//!   minimax-optimal bound on the paper's running examples.
//! * [`report`] — plain-text table rendering shared by the binary.
//! * [`evaluation`] — every experiment above in one document, and its
//!   counts: the committed `BENCH_paper.json`, checked by a test.
//!
//! The `paper_experiments` binary drives all of it:
//! `cargo run -p jqi-bench --bin paper_experiments --release -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluation;
pub mod fig6;
pub mod fig7;
pub mod json;
pub mod measure;
pub mod optgap;
pub mod report;
pub mod scaling;
pub mod semijoin_exp;
pub mod table1;
pub mod throughput;
