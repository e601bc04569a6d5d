//! Tier-1: the resilience layer degrades gracefully and is an
//! observational no-op when idle.
//!
//! Three guarantees back the `--timeout-ms` flag and the `LCM_FAULT`
//! injection matrix:
//!
//! 1. with no faults armed and budgets at their defaults (or merely
//!    generous), findings are *identical* to an ungoverned run and every
//!    function reports `Completed`;
//! 2. each [`AnalysisError`] variant is reachable through its fault site
//!    (or organically through a zero budget) and degrades only the
//!    targeted function, keeping whatever findings were already made;
//! 3. a worker panic under `--jobs N` is confined to its function: the
//!    other N−1 functions complete with unchanged findings.

use std::time::Duration;

use lcm::core::fault::{site, FaultPlan};
use lcm::core::govern::{AnalysisError, BudgetKind, Budgets};
use lcm::corpus::all_litmus;
use lcm::detect::{Detector, DetectorConfig, EngineKind, FunctionStatus, ModuleReport};

/// True when the surrounding environment armed `LCM_FAULT` (the CI
/// fault matrix). Every test that assumes a clean environment skips
/// itself then — the armed plan merges into *every* `analyze_module`.
fn env_faults_armed() -> bool {
    std::env::var(lcm::core::fault::FAULT_ENV).is_ok_and(|v| !v.trim().is_empty())
}

/// A four-function module, each function an independent Spectre-v1
/// gadget with at least one universal finding.
const FOUR_VICTIMS: &str = r#"
    int A[16]; int B[4096]; int size; int tmp;
    void victim_0(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_1(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_2(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_3(int y) { if (y < size) tmp &= B[A[y] * 512]; }
"#;

fn detector(budgets: Budgets, faults: FaultPlan, jobs: usize) -> Detector {
    Detector::new(DetectorConfig {
        jobs,
        budgets,
        faults,
        ..DetectorConfig::default()
    })
}

/// Analyzes `FOUR_VICTIMS` with the given budgets/faults.
fn run_four(budgets: Budgets, faults: FaultPlan, jobs: usize) -> ModuleReport {
    let m = lcm::minic::compile(FOUR_VICTIMS).expect("compiles");
    detector(budgets, faults, jobs).analyze_module(&m, EngineKind::Pht)
}

/// The status of the single function of a one-gadget module analyzed
/// with `faults` armed.
fn single_status(faults: FaultPlan) -> FunctionStatus {
    let m = lcm::minic::compile(
        "int A[16]; int B[4096]; int size; int tmp;
         void victim(int y) { if (y < size) tmp &= B[A[y] * 512]; }",
    )
    .expect("compiles");
    let r = detector(Budgets::default(), faults, 1).analyze_module(&m, EngineKind::Pht);
    r.functions[0].status.clone()
}

/// Guarantee 1: a governor armed with generous budgets changes nothing —
/// findings, order, witness seeds, and sizes all match the ungoverned
/// run on every litmus program, for every engine, and everything
/// reports `Completed`.
#[test]
fn generous_budgets_are_an_observational_noop() {
    if env_faults_armed() {
        return;
    }
    let generous = Budgets {
        timeout: Some(Duration::from_secs(3600)),
        max_saeg_nodes: Some(usize::MAX / 2),
        max_saeg_edges: Some(usize::MAX / 2),
    };
    for (suite, benches) in all_litmus() {
        for b in benches {
            let m = b.module();
            for engine in [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf] {
                let plain = detector(Budgets::default(), FaultPlan::default(), 1)
                    .analyze_module(&m, engine);
                let governed =
                    detector(generous, FaultPlan::default(), 1).analyze_module(&m, engine);
                assert!(
                    plain.all_completed() && governed.all_completed(),
                    "{suite}/{}/{engine:?}: all completed",
                    b.name
                );
                assert_eq!(plain.functions.len(), governed.functions.len());
                for (p, g) in plain.functions.iter().zip(&governed.functions) {
                    assert_eq!(p.name, g.name, "{suite}/{}: order", b.name);
                    assert_eq!(
                        p.transmitters, g.transmitters,
                        "{suite}/{}/{}/{engine:?}: findings governed vs ungoverned",
                        b.name, p.name
                    );
                    assert_eq!(p.saeg_size, g.saeg_size);
                }
            }
        }
    }
}

#[test]
fn timeout_fault_degrades_with_timeout() {
    if env_faults_armed() {
        return;
    }
    let s = single_status(FaultPlan::default().arm(site::TIMEOUT, Some(0)));
    assert!(
        matches!(s, FunctionStatus::Degraded(AnalysisError::Timeout { .. })),
        "got {s:?}"
    );
}

#[test]
fn conflict_budget_fault_degrades_with_budget_exceeded() {
    if env_faults_armed() {
        return;
    }
    let s = single_status(FaultPlan::default().arm(site::CONFLICT_BUDGET, Some(0)));
    assert_eq!(
        s,
        FunctionStatus::Degraded(AnalysisError::BudgetExceeded {
            kind: BudgetKind::SolverConflicts
        })
    );
}

/// The node budget is exercised *organically*: a 1-node ceiling trips on
/// any real function.
#[test]
fn node_budget_degrades_organically() {
    if env_faults_armed() {
        return;
    }
    let r = run_four(
        Budgets {
            max_saeg_nodes: Some(1),
            ..Budgets::default()
        },
        FaultPlan::default(),
        1,
    );
    assert_eq!(r.degraded_count(), r.functions.len());
    for f in &r.functions {
        assert_eq!(
            f.status,
            FunctionStatus::Degraded(AnalysisError::BudgetExceeded {
                kind: BudgetKind::SaegNodes
            }),
            "{}",
            f.name
        );
    }
}

#[test]
fn edge_budget_fault_degrades_with_budget_exceeded() {
    if env_faults_armed() {
        return;
    }
    let s = single_status(FaultPlan::default().arm(site::EDGE_BUDGET, Some(0)));
    assert_eq!(
        s,
        FunctionStatus::Degraded(AnalysisError::BudgetExceeded {
            kind: BudgetKind::SaegEdges
        })
    );
}

#[test]
fn malformed_ir_fault_degrades_with_malformed_ir() {
    if env_faults_armed() {
        return;
    }
    let s = single_status(FaultPlan::default().arm(site::MALFORMED_IR, Some(0)));
    assert!(
        matches!(
            s,
            FunctionStatus::Degraded(AnalysisError::MalformedIr { .. })
        ),
        "got {s:?}"
    );
}

#[test]
fn solver_abort_fault_degrades_with_solver_abort() {
    if env_faults_armed() {
        return;
    }
    let s = single_status(FaultPlan::default().arm(site::SOLVER_ABORT, Some(0)));
    assert_eq!(s, FunctionStatus::Degraded(AnalysisError::SolverAbort));
}

/// Guarantee 2 for timeouts, organically: a zero wall-clock budget trips
/// at the first poll, before any per-function work.
#[test]
fn zero_timeout_degrades_every_function() {
    if env_faults_armed() {
        return;
    }
    let r = run_four(
        Budgets {
            timeout: Some(Duration::ZERO),
            ..Budgets::default()
        },
        FaultPlan::default(),
        1,
    );
    assert_eq!(r.degraded_count(), 4);
    for f in &r.functions {
        assert_eq!(
            f.status,
            FunctionStatus::Degraded(AnalysisError::Timeout { budget_ms: 0 }),
            "{}",
            f.name
        );
    }
}

/// Guarantee 3: a worker panic in function 1 under `--jobs 4` degrades
/// only function 1; the other three complete with findings identical to
/// the fault-free run.
#[test]
fn worker_panic_is_confined_to_its_function() {
    if env_faults_armed() {
        return;
    }
    let clean = run_four(Budgets::default(), FaultPlan::default(), 4);
    assert!(clean.all_completed());
    assert!(!clean.is_clean(), "the gadgets must actually leak");

    let faulty = run_four(
        Budgets::default(),
        FaultPlan::default().arm(site::WORKER_PANIC, Some(1)),
        4,
    );
    assert_eq!(faulty.functions.len(), 4);
    assert_eq!(faulty.degraded_count(), 1);
    for (i, (c, f)) in clean.functions.iter().zip(&faulty.functions).enumerate() {
        assert_eq!(c.name, f.name, "function order");
        if i == 1 {
            assert!(
                matches!(
                    f.status,
                    FunctionStatus::Degraded(AnalysisError::WorkerPanic { .. })
                ),
                "got {:?}",
                f.status
            );
            assert!(f.transmitters.is_empty(), "panicked worker yields nothing");
        } else {
            assert_eq!(f.status, FunctionStatus::Completed);
            assert_eq!(
                c.transmitters, f.transmitters,
                "{}: findings unchanged by the neighbouring panic",
                f.name
            );
        }
    }
}

/// Partial results survive degradation: keep whatever was found before
/// the governor tripped, never garbage. A degraded function's findings
/// must be a (possibly empty) prefix-closed subset of the completed
/// run's findings.
#[test]
fn degraded_findings_are_a_lower_bound() {
    if env_faults_armed() {
        return;
    }
    let clean = run_four(Budgets::default(), FaultPlan::default(), 1);
    let clean_keys: Vec<_> = clean.functions[0]
        .transmitters
        .iter()
        .map(lcm::detect::Finding::key)
        .collect();
    // A conflict-budget fault trips at the first feasibility query, so
    // the degraded run found no more than the clean run.
    let degraded = run_four(
        Budgets::default(),
        FaultPlan::default().arm(site::CONFLICT_BUDGET, None),
        1,
    );
    for f in &degraded.functions {
        assert!(!f.status.is_completed());
        for t in &f.transmitters {
            assert!(
                clean_keys.contains(&t.key()),
                "{}: degraded run invented finding {t:?}",
                f.name
            );
        }
    }
}

/// The facade's `analyze_source` surfaces front-end failures as
/// `MalformedIr` instead of panicking.
#[test]
fn analyze_source_reports_malformed_source() {
    if env_faults_armed() {
        return;
    }
    let det = Detector::new(DetectorConfig::default());
    let err = lcm::analyze_source("int A[-3];", &det, EngineKind::Pht).unwrap_err();
    assert!(
        matches!(err, AnalysisError::MalformedIr { .. }),
        "got {err:?}"
    );
    let ok = lcm::analyze_source(FOUR_VICTIMS, &det, EngineKind::Pht).expect("valid source");
    assert_eq!(ok.functions.len(), 4);
    assert!(ok.all_completed());
}

/// CI fault-matrix entry point: when the environment arms `LCM_FAULT`,
/// the armed site must actually degrade analysis (proving the env wiring
/// end to end). A no-op when the environment is clean.
#[test]
fn env_armed_fault_degrades_analysis() {
    if !env_faults_armed() {
        return;
    }
    // Dotted sites (`store.corrupt_record`, `serve.drop_conn`) are
    // subsystem-scoped: they fire in the result store / daemon, not in
    // a plain detector run, so nothing would degrade here. Their
    // end-to-end env wiring is proven by tests/cache.rs and
    // tests/server.rs instead.
    let armed = std::env::var(lcm::core::fault::FAULT_ENV).unwrap();
    if armed
        .split(',')
        .all(|spec| spec.split('@').next().unwrap_or("").contains('.'))
    {
        return;
    }
    let r = run_four(Budgets::default(), FaultPlan::default(), 2);
    assert!(
        r.degraded_count() > 0,
        "LCM_FAULT armed but nothing degraded"
    );
    let site = std::env::var(lcm::core::fault::FAULT_ENV).unwrap();
    let site = site.split('@').next().unwrap_or("").trim().to_string();
    for f in r.degraded() {
        let err = f.status.error().expect("degraded");
        let matches_site = match site.as_str() {
            site::TIMEOUT => matches!(err, AnalysisError::Timeout { .. }),
            site::CONFLICT_BUDGET => matches!(
                err,
                AnalysisError::BudgetExceeded {
                    kind: BudgetKind::SolverConflicts
                }
            ),
            site::NODE_BUDGET => matches!(
                err,
                AnalysisError::BudgetExceeded {
                    kind: BudgetKind::SaegNodes
                }
            ),
            site::EDGE_BUDGET => matches!(
                err,
                AnalysisError::BudgetExceeded {
                    kind: BudgetKind::SaegEdges
                }
            ),
            site::MALFORMED_IR => matches!(err, AnalysisError::MalformedIr { .. }),
            site::WORKER_PANIC => matches!(err, AnalysisError::WorkerPanic { .. }),
            site::SOLVER_ABORT => matches!(err, AnalysisError::SolverAbort),
            _ => true, // compound plans: any degradation counts
        };
        assert!(
            matches_site,
            "{}: {err} does not match site `{site}`",
            f.name
        );
    }
}
