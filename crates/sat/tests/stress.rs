//! Seeded stress tests at sizes beyond the brute-force property tests.

use lcm_sat::{Lit, SolveResult, Solver, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_instance(rng: &mut StdRng, nv: usize, nc: usize) -> Vec<Vec<(usize, bool)>> {
    (0..nc)
        .map(|_| {
            (0..3)
                .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

fn load(nv: usize, clauses: &[Vec<(usize, bool)>]) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
    for c in clauses {
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

#[test]
fn models_satisfy_all_clauses_at_scale() {
    let mut rng = StdRng::seed_from_u64(0xdecaf);
    let mut sat = 0;
    let mut unsat = 0;
    for _ in 0..150 {
        // Around the 3-SAT phase transition (ratio ≈ 4.26) to get a mix
        // of satisfiable and unsatisfiable instances.
        let nv = rng.gen_range(20..=40);
        let ratio = rng.gen_range(3.4..5.2);
        let nc = (nv as f64 * ratio) as usize;
        let clauses = random_instance(&mut rng, nv, nc);
        let (mut s, vars) = load(nv, &clauses);
        match s.solve() {
            SolveResult::Sat(m) => {
                sat += 1;
                for c in &clauses {
                    assert!(
                        c.iter().any(|&(v, pos)| m.var_value(vars[v]) == pos),
                        "model violates a clause"
                    );
                }
            }
            SolveResult::Unsat => unsat += 1,
        }
    }
    // The mix must exercise both outcomes.
    assert!(sat > 10, "sat instances: {sat}");
    assert!(unsat > 10, "unsat instances: {unsat}");
}

#[test]
fn solving_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(7);
    let clauses = random_instance(&mut rng, 25, 100);
    let run = || {
        let (mut s, _) = load(25, &clauses);
        match s.solve() {
            SolveResult::Sat(m) => Some(format!("{m:?}")),
            SolveResult::Unsat => None,
        }
    };
    assert_eq!(run(), run(), "same instance, same result");
}

#[test]
fn incremental_assumption_sweep_is_consistent_with_fresh_solves() {
    let mut rng = StdRng::seed_from_u64(99);
    let clauses = random_instance(&mut rng, 18, 60);
    let (mut incremental, vars) = load(18, &clauses);
    for i in 0..18 {
        let inc_pos = incremental.solve_with(&[Lit::pos(vars[i])]).is_sat();
        let inc_neg = incremental.solve_with(&[Lit::neg(vars[i])]).is_sat();
        // Fresh solver with the literal as a clause.
        let (mut fresh_p, fv) = load(18, &clauses);
        fresh_p.add_clause([Lit::pos(fv[i])]);
        let (mut fresh_n, fv2) = load(18, &clauses);
        fresh_n.add_clause([Lit::neg(fv2[i])]);
        assert_eq!(inc_pos, fresh_p.solve().is_sat(), "var {i} positive");
        assert_eq!(inc_neg, fresh_n.solve().is_sat(), "var {i} negative");
    }
}
