//! Cross-crate property tests: the DESIGN.md §5 invariants that span
//! subsystems.

use lcm::core::cat::presets;
use lcm::ir::interp::{InterpOutcome, Machine};
use lcm::litmus::enumerate::{Litmus, Op};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Random litmus programs: architectural-semantics laws.
// ---------------------------------------------------------------------

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Op::r),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Op::w),
        Just(Op::F),
    ]
}

fn litmus_strategy() -> impl Strategy<Value = Litmus> {
    proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..=3), 1..=2)
        .prop_map(Litmus::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tso_is_weaker_than_sc(l in litmus_strategy()) {
        let sc = l.consistent_executions(presets::sc());
        let tso = l.consistent_executions(presets::tso());
        prop_assert!(sc.len() <= tso.len(), "SC ⊆ TSO violated");
        // And every SC-consistent execution is TSO-consistent: check by
        // re-evaluating the TSO predicate on the SC set.
        for x in &sc {
            prop_assert!(presets::tso().check(x).is_ok());
        }
    }

    #[test]
    fn candidate_executions_are_well_formed_and_fr_is_derived(l in litmus_strategy()) {
        for x in l.candidate_executions() {
            prop_assert!(x.well_formed().is_ok());
            // fr = rf˘ ; co by construction (§2.1.2).
            let fr = x.fr();
            let derived = x.rf().transpose().compose(x.co());
            prop_assert_eq!(fr, derived);
            // po ⊆ tfo always.
            prop_assert!(x.po().is_subset(x.tfo()));
        }
    }

    #[test]
    fn consistent_executions_have_acyclic_com_po_under_sc(l in litmus_strategy()) {
        for x in l.consistent_executions(presets::sc()) {
            let r = x.com().union(x.po());
            prop_assert!(lcm::relalg::acyclic(&r));
        }
    }
}

// ---------------------------------------------------------------------
// Random mini-C programs: the A-CFG transformation preserves semantics.
// ---------------------------------------------------------------------

/// A tiny generator of well-formed mini-C functions using arithmetic on
/// two globals, locals, `if`/`else`, and bounded loops (≤ 2 iterations, so
/// two-fold unrolling is exact).
#[derive(Debug, Clone)]
struct RandFn {
    src: String,
}

fn expr_strategy(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0..8i64).prop_map(|v| v.to_string()),
        Just("x".to_string()),
        Just("a".to_string()),
        Just("G".to_string()),
        Just("H[1]".to_string()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = expr_strategy(depth - 1);
    prop_oneof![
        leaf,
        (
            sub.clone(),
            prop_oneof![Just("+"), Just("-"), Just("*"), Just("&"), Just("^")],
            sub
        )
            .prop_map(|(l, o, r)| format!("({l} {o} {r})")),
    ]
    .boxed()
}

fn stmt_strategy(depth: u32) -> BoxedStrategy<String> {
    let assign = (
        prop_oneof![Just("a"), Just("G"), Just("H[0]"), Just("H[2]")],
        expr_strategy(2),
    )
        .prop_map(|(l, e)| format!("{l} = {e};"));
    if depth == 0 {
        return assign.boxed();
    }
    let inner = stmt_strategy(depth - 1);
    prop_oneof![
        4 => assign,
        2 => (expr_strategy(1), inner.clone(), inner.clone())
            .prop_map(|(c, t, e)| format!("if ({c}) {{ {t} }} else {{ {e} }}")),
        1 => (0..=2u32, inner)
            .prop_map(|(n, b)| format!(
                "for (int i = 0; i < {n}; i += 1) {{ {b} }}"
            )),
    ]
    .boxed()
}

fn randfn_strategy() -> impl Strategy<Value = RandFn> {
    proptest::collection::vec(stmt_strategy(2), 1..6).prop_map(|stmts| RandFn {
        src: format!(
            "int G; int H[4];\nint f(int x) {{ int a = x; {} return a + G + H[0]; }}",
            stmts.join("\n    ")
        ),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn acfg_preserves_interpreter_semantics(rf in randfn_strategy(), x in -4i64..8) {
        let module = lcm::minic::compile(&rf.src).expect("generated source compiles");
        prop_assert!(lcm::ir::verify::verify_module(&module).is_empty());
        let acfg = lcm::ir::acfg::build_acfg(&module, "f").expect("A-CFG");
        let mut m2 = lcm::ir::Module::new();
        m2.globals = module.globals.clone();
        m2.add_function(acfg);

        let run = |m: &lcm::ir::Module| {
            let mut mach = Machine::new(m);
            mach.set_global("G", 0, 5);
            mach.set_global("H", 1, 7);
            mach.call("f", &[x], 1_000_000).unwrap()
        };
        let orig = run(&module);
        let transformed = run(&m2);
        prop_assert_eq!(&orig, &transformed, "source:\n{}", rf.src);
        let InterpOutcome::Returned(Some(_)) = orig else {
            return Err(TestCaseError::fail("f must return a value"));
        };
    }

    #[test]
    fn detector_never_panics_and_repair_converges(rf in randfn_strategy()) {
        use lcm::detect::{repair, Detector, DetectorConfig, EngineKind};
        let module = lcm::minic::compile(&rf.src).expect("compiles");
        let det = Detector::new(DetectorConfig::default());
        for engine in [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf] {
            let report = det.analyze_module(&module, engine);
            if !report.is_clean() {
                let (fixed, fences) = repair(&module, &det, engine);
                prop_assert!(fences >= 1);
                prop_assert!(
                    det.analyze_module(&fixed, engine).is_clean(),
                    "repair did not converge for {:?} on:\n{}",
                    engine,
                    rf.src
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Relational algebra: closure laws against a naive reference.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `Relation::transitive_closure` (the bitset doubling in lcm-relalg)
    /// agrees with a textbook Floyd–Warshall on random relations up to
    /// n = 24 — the query-avoidance pre-filter in lcm-aeg leans on this
    /// closure for its reachability verdicts, so it gets its own oracle.
    #[test]
    fn transitive_closure_matches_floyd_warshall(
        n in 2..=24usize,
        bits in proptest::collection::vec(any::<bool>(), (24 * 24)..=(24 * 24)),
    ) {
        use lcm::relalg::Relation;
        let mut r = Relation::empty(n);
        for a in 0..n {
            for b in 0..n {
                if bits[a * 24 + b] {
                    r.insert(a, b);
                }
            }
        }
        let closed = r.transitive_closure();

        // Reference: plain boolean Floyd–Warshall.
        let mut reach = vec![vec![false; n]; n];
        for a in 0..n {
            for b in 0..n {
                reach[a][b] = bits[a * 24 + b];
            }
        }
        for k in 0..n {
            for i in 0..n {
                if reach[i][k] {
                    for j in 0..n {
                        if reach[k][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
        }

        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    closed.contains(a, b),
                    reach[a][b],
                    "pair ({}, {}) of n={}", a, b, n
                );
            }
        }
    }
}
