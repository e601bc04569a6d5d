//! Property tests: the CDCL solver against brute-force enumeration.

use lcm_sat::{Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A random CNF instance as (num_vars, clauses of signed var indices).
#[derive(Debug, Clone)]
struct Instance {
    num_vars: usize,
    clauses: Vec<Vec<(usize, bool)>>,
}

fn instance_strategy(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = Instance> {
    (2..=max_vars).prop_flat_map(move |nv| {
        let clause = proptest::collection::vec((0..nv, any::<bool>()), 1..=3);
        proptest::collection::vec(clause, 1..=max_clauses).prop_map(move |clauses| Instance {
            num_vars: nv,
            clauses,
        })
    })
}

fn brute_force_sat(inst: &Instance, fixed: &[(usize, bool)]) -> bool {
    'outer: for bits in 0u64..(1u64 << inst.num_vars) {
        let val = |v: usize| bits >> v & 1 == 1;
        for &(v, pos) in fixed {
            if val(v) != pos {
                continue 'outer;
            }
        }
        if inst
            .clauses
            .iter()
            .all(|c| c.iter().any(|&(v, pos)| val(v) == pos))
        {
            return true;
        }
    }
    false
}

fn load(inst: &Instance) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..inst.num_vars).map(|_| s.new_var()).collect();
    for c in &inst.clauses {
        s.add_clause(c.iter().map(|&(v, pos)| {
            if pos {
                Lit::pos(vars[v])
            } else {
                Lit::neg(vars[v])
            }
        }));
    }
    (s, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdcl_agrees_with_brute_force(inst in instance_strategy(10, 42)) {
        let expected = brute_force_sat(&inst, &[]);
        let (mut s, vars) = load(&inst);
        match s.solve() {
            SolveResult::Sat(m) => {
                prop_assert!(expected, "solver said SAT, brute force says UNSAT");
                for c in &inst.clauses {
                    prop_assert!(
                        c.iter().any(|&(v, pos)| m.var_value(vars[v]) == pos),
                        "model does not satisfy clause {c:?}"
                    );
                }
            }
            SolveResult::Unsat => prop_assert!(!expected, "solver said UNSAT, brute force says SAT"),
        }
    }

    #[test]
    fn assumptions_agree_with_brute_force(
        inst in instance_strategy(8, 30),
        assumps in proptest::collection::vec((0..8usize, any::<bool>()), 0..4),
    ) {
        let assumps: Vec<(usize, bool)> = assumps
            .into_iter()
            .filter(|&(v, _)| v < inst.num_vars)
            .collect();
        // Conflicting duplicate assumptions are legal inputs: brute force
        // handles them naturally.
        let expected = brute_force_sat(&inst, &assumps);
        let (mut s, vars) = load(&inst);
        let lits: Vec<Lit> = assumps
            .iter()
            .map(|&(v, pos)| if pos { Lit::pos(vars[v]) } else { Lit::neg(vars[v]) })
            .collect();
        match s.solve_with(&lits) {
            SolveResult::Sat(m) => {
                prop_assert!(expected);
                for &l in &lits {
                    prop_assert!(m.value(l), "assumption {l} not honoured");
                }
            }
            SolveResult::Unsat => prop_assert!(!expected),
        }
    }

    /// The persistent-incremental usage pattern (one solver serving a
    /// whole sequence of assumption-stack queries, keeping the clauses
    /// it learns along the way) answers every query exactly like a
    /// fresh solver built for that query alone — and both agree with
    /// brute force.
    #[test]
    fn persistent_incremental_agrees_with_fresh_oracle(
        inst in instance_strategy(8, 24),
        stacks in proptest::collection::vec(
            proptest::collection::vec((0..8usize, any::<bool>()), 0..4),
            1..10,
        ),
    ) {
        let (mut persistent, vars) = load(&inst);
        for stack in &stacks {
            let assumps: Vec<(usize, bool)> = stack
                .iter()
                .copied()
                .filter(|&(v, _)| v < inst.num_vars)
                .collect();
            let to_lits = |vs: &[Var]| -> Vec<Lit> {
                assumps
                    .iter()
                    .map(|&(v, pos)| if pos { Lit::pos(vs[v]) } else { Lit::neg(vs[v]) })
                    .collect()
            };
            let lits = to_lits(&vars);
            let expected = brute_force_sat(&inst, &assumps);
            // Fresh-per-query oracle: new solver, same formula, one query.
            let (mut fresh, fvars) = load(&inst);
            let fres = fresh.solve_with(&to_lits(&fvars));
            let pres = persistent.solve_with(&lits);
            prop_assert_eq!(
                pres.is_sat(),
                fres.is_sat(),
                "persistent and fresh-per-query disagree on {:?}",
                assumps
            );
            prop_assert_eq!(pres.is_sat(), expected, "solver disagrees with brute force");
        }
    }

    #[test]
    fn solver_is_reusable_after_any_query(
        inst in instance_strategy(8, 24),
        probe in 0..8usize,
    ) {
        let (mut s, vars) = load(&inst);
        let v = vars[probe % vars.len()];
        let first = s.solve().is_sat();
        let _ = s.solve_with(&[Lit::pos(v)]);
        let _ = s.solve_with(&[Lit::neg(v)]);
        let again = s.solve().is_sat();
        prop_assert_eq!(first, again, "satisfiability changed across queries");
    }
}
