//! §6 / Theorem 6.1 experiment: the exact CONS⋉ solver cross-validated
//! against DPLL on random 3SAT reductions, with timing.
//!
//! The paper proves the intractability but (having no tractable algorithm
//! to evaluate) reports no semijoin experiment. This harness makes the
//! theorem observable: satisfiability decisions of `find_consistent_semijoin
//! ∘ reduce` coincide with DPLL's, and the solver's running time grows
//! sharply with the number of variables around the 3SAT phase transition.

use crate::json::{self, Json, ToJson};
use crate::report::TextTable;
use jqi_semijoin::consistency::find_consistent_semijoin;
use jqi_semijoin::reduction::{decode_valuation, reduce};
use jqi_semijoin::sat::{dpll, random_3sat};
use std::time::Instant;

/// One (num_vars, formula) measurement.
#[derive(Debug, Clone)]
pub struct SemijoinRow {
    /// Number of 3SAT variables.
    pub num_vars: usize,
    /// Number of clauses (≈ 4.27·vars: the hard regime).
    pub num_clauses: usize,
    /// Fraction of formulas the DPLL solver found satisfiable.
    pub sat_fraction: f64,
    /// Mean DPLL time, seconds.
    pub dpll_seconds: f64,
    /// Mean CONS⋉ solver time on the reduced instance, seconds.
    pub cons_seconds: f64,
    /// Number of formulas where the two decisions disagreed (must be 0).
    pub disagreements: usize,
}

/// The full experiment: a sweep over variable counts.
#[derive(Debug, Clone)]
pub struct SemijoinReport {
    /// One row per variable count.
    pub rows: Vec<SemijoinRow>,
}

/// Runs `formulas` random 3SAT instances per variable count in `var_counts`,
/// at the phase-transition clause ratio.
pub fn run(var_counts: &[usize], formulas: usize, seed: u64) -> SemijoinReport {
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
        rows.push(SemijoinRow {
            num_vars,
            num_clauses,
            sat_fraction: sat_count as f64 / formulas as f64,
            dpll_seconds: dpll_total / formulas as f64,
            cons_seconds: cons_total / formulas as f64,
            disagreements,
        });
    }
    SemijoinReport { rows }
}

impl ToJson for SemijoinRow {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("num_vars".into(), Json::Num(self.num_vars as f64)),
            ("num_clauses".into(), Json::Num(self.num_clauses as f64)),
            ("sat_fraction".into(), Json::Num(self.sat_fraction)),
            ("dpll_seconds".into(), Json::Num(self.dpll_seconds)),
            ("cons_seconds".into(), Json::Num(self.cons_seconds)),
            ("disagreements".into(), Json::Num(self.disagreements as f64)),
        ])
    }
}

impl ToJson for SemijoinReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![("rows".into(), json::arr(&self.rows))])
    }
}

impl SemijoinReport {
    /// Renders the sweep as text.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(&[
            "vars",
            "clauses",
            "sat frac",
            "DPLL (s)",
            "CONS⋉ (s)",
            "disagreements",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.num_vars.to_string(),
                r.num_clauses.to_string(),
                format!("{:.2}", r.sat_fraction),
                format!("{:.5}", r.dpll_seconds),
                format!("{:.5}", r.cons_seconds),
                r.disagreements.to_string(),
            ]);
        }
        t
    }

    /// Whether every decision agreed (the Theorem 6.1 cross-validation).
    pub fn all_agree(&self) -> bool {
        self.rows.iter().all(|r| r.disagreements == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_and_dpll_always_agree() {
        let report = run(&[4, 5], 8, 42);
        assert!(report.all_agree());
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.table().len(), 2);
    }

    #[test]
    fn phase_transition_mixes_sat_and_unsat() {
        // At ratio 4.27 with several formulas we expect a genuine mix —
        // in particular not 100% SAT — for at least one variable count.
        let report = run(&[5, 6], 12, 7);
        assert!(report
            .rows
            .iter()
            .any(|r| r.sat_fraction > 0.0 && r.sat_fraction < 1.0));
    }
}
