//! §6 / Theorem 6.1 experiment: the exact CONS⋉ solver cross-validated
//! against DPLL on random 3SAT reductions, with timing.
//!
//! The paper proves the intractability but (having no tractable algorithm
//! to evaluate) reports no semijoin experiment. This harness makes the
//! theorem observable: satisfiability decisions of `find_consistent_semijoin
//! ∘ reduce` coincide with DPLL's, and the solver's running time grows
//! sharply with the number of variables around the 3SAT phase transition.

use crate::json::{arr_at, f64_at, field, num, Json};
use crate::report::TextTable;
use jqi_semijoin::consistency::find_consistent_semijoin;
use jqi_semijoin::reduction::{decode_valuation, reduce};
use jqi_semijoin::sat::{dpll, random_3sat};
use std::time::Instant;

/// Runs `formulas` random 3SAT instances per variable count in `var_counts`,
/// at the phase-transition clause ratio (≈ 4.27 clauses per variable, the
/// hard regime): per variable count, the satisfiable fraction, both
/// solvers' mean times and the decisions on which they disagreed.
pub fn run(var_counts: &[usize], formulas: usize, seed: u64) -> Json {
    let mut rows = Vec::new();
    for &num_vars in var_counts {
        let num_clauses = (num_vars as f64 * 4.27).round() as usize;
        let mut sat_count = 0usize;
        let mut disagreements = 0usize;
        let mut dpll_total = 0.0f64;
        let mut cons_total = 0.0f64;
        for i in 0..formulas {
            let cnf = random_3sat(num_vars, num_clauses, seed.wrapping_add(i as u64));
            let t0 = Instant::now();
            let sat = dpll(&cnf);
            dpll_total += t0.elapsed().as_secs_f64();

            let red = reduce(&cnf);
            let t1 = Instant::now();
            let cons = find_consistent_semijoin(&red.instance, &red.sample);
            cons_total += t1.elapsed().as_secs_f64();

            if sat.is_some() {
                sat_count += 1;
            }
            if sat.is_some() != cons.is_some() {
                disagreements += 1;
            } else if let Some(theta) = cons {
                // The decoded valuation must satisfy the formula.
                if !cnf.is_satisfied_by(&decode_valuation(&red, &theta)) {
                    disagreements += 1;
                }
            }
        }
        rows.push(Json::Obj(vec![
            num("num_vars", num_vars as f64),
            num("num_clauses", num_clauses as f64),
            num("sat_fraction", sat_count as f64 / formulas as f64),
            num("dpll_seconds", dpll_total / formulas as f64),
            num("cons_seconds", cons_total / formulas as f64),
            num("disagreements", disagreements as f64),
        ]));
    }
    Json::Obj(vec![field("rows", Json::Arr(rows))])
}

/// Renders a [`run`] report as text.
pub fn table(report: &Json) -> TextTable {
    let mut t = TextTable::new(&[
        "vars",
        "clauses",
        "sat frac",
        "DPLL (s)",
        "CONS⋉ (s)",
        "disagreements",
    ]);
    for r in arr_at(report, "rows") {
        let n = |path: &str| f64_at(r, path);
        t.row(vec![
            n("num_vars").to_string(),
            n("num_clauses").to_string(),
            format!("{:.2}", n("sat_fraction")),
            format!("{:.5}", n("dpll_seconds")),
            format!("{:.5}", n("cons_seconds")),
            n("disagreements").to_string(),
        ]);
    }
    t
}

/// Whether every decision of a [`run`] report agreed (the Theorem 6.1
/// cross-validation).
pub fn all_agree(report: &Json) -> bool {
    arr_at(report, "rows")
        .iter()
        .all(|r| f64_at(r, "disagreements") == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_and_dpll_always_agree() {
        let report = run(&[4, 5], 8, 42);
        assert!(all_agree(&report));
        assert_eq!(arr_at(&report, "rows").len(), 2);
        assert_eq!(table(&report).len(), 2);
    }

    #[test]
    fn phase_transition_mixes_sat_and_unsat() {
        // At ratio 4.27 with several formulas we expect a genuine mix —
        // in particular not 100% SAT — for at least one variable count.
        let report = run(&[5, 6], 12, 7);
        assert!(arr_at(&report, "rows").iter().any(|r| {
            let sat = f64_at(r, "sat_fraction");
            sat > 0.0 && sat < 1.0
        }));
    }
}
