//! Criterion micro-benches for the substrates: the relational algebra,
//! the SAT solver, the front end, and litmus enumeration. These are
//! ablation-style measurements backing DESIGN.md's substitution arguments
//! (e.g. "solver time dominates" as in §6.2.4).

use criterion::{criterion_group, criterion_main, Criterion};
use lcm_litmus::enumerate::{Litmus, Op};
use lcm_relalg::Relation;
use lcm_sat::{Lit, Solver};

fn bench_relalg(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrates/relalg");
    for n in [64usize, 256] {
        // A layered DAG with n nodes.
        let rel = Relation::from_pairs(
            n,
            (0..n - 1)
                .flat_map(|i| [(i, i + 1), (i, (i + 7) % n)])
                .filter(|&(a, b)| a < b),
        );
        g.bench_function(format!("closure/{n}"), |b| {
            b.iter(|| rel.transitive_closure().len());
        });
        g.bench_function(format!("acyclic/{n}"), |b| {
            b.iter(|| lcm_relalg::acyclic(&rel));
        });
    }
    g.finish();
}

fn bench_sat(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrates/sat");
    // Pigeonhole 7-into-6: a small hard UNSAT instance.
    g.bench_function("php7", |b| {
        b.iter(|| {
            let mut s = Solver::new();
            let n = 7;
            let m = 6;
            let vars: Vec<Vec<_>> = (0..n)
                .map(|_| (0..m).map(|_| s.new_var()).collect())
                .collect();
            for row in &vars {
                s.add_clause(row.iter().map(|&v| Lit::pos(v)));
            }
            #[allow(clippy::needless_range_loop)]
            for j in 0..m {
                for i1 in 0..n {
                    for i2 in (i1 + 1)..n {
                        s.add_clause([Lit::neg(vars[i1][j]), Lit::neg(vars[i2][j])]);
                    }
                }
            }
            assert!(!s.solve().is_sat());
            s.stats().0
        });
    });
    g.finish();
}

fn bench_frontend(c: &mut Criterion) {
    let src = lcm_corpus::crypto::tea().source;
    c.bench_function("substrates/minic/tea", |b| {
        b.iter(|| lcm_minic::compile(&src).unwrap().functions.len());
    });
}

fn bench_enumeration(c: &mut Criterion) {
    let sb = Litmus::new(vec![
        vec![Op::w("x"), Op::r("y")],
        vec![Op::w("y"), Op::r("x")],
    ]);
    c.bench_function("substrates/litmus/sb-tso", |b| {
        b.iter(|| {
            sb.consistent_executions(lcm_core::cat::presets::tso())
                .len()
        });
    });
}

criterion_group!(
    benches,
    bench_relalg,
    bench_sat,
    bench_frontend,
    bench_enumeration
);
criterion_main!(benches);
