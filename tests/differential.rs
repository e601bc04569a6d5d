//! Tier-1: the job count and persistent incremental SAT are
//! observational no-ops.
//!
//! Two switches sit on the hot path and neither may move a finding:
//!
//! 1. **Job count** — the Clou engines fan functions out over worker
//!    threads, one thread per function, and reassemble the reports in
//!    module order; the haunted baseline also splits a function's
//!    enumerated paths over workers and merges them in path order. So
//!    `--jobs 2/4/8` must render byte-identical to serial for every
//!    engine.
//! 2. **Persistent incremental solving** — one solver per function kept
//!    warm across the assumption-stack queries, learnt clauses
//!    retained. Satisfiability is semantic, so the fresh-solver-per-
//!    query oracle (`disable_incremental` / `LCM_DISABLE_INCREMENTAL`)
//!    must produce the same reports.
//!
//! This file runs inside the `LCM_FAULT` CI matrix. Faults key off the
//! function index, and a function's query sequence, and so its trip
//! point, is the serial one at every job count. So every function's
//! findings and the rendered module report must match exactly even
//! while faults fire, degraded functions' partial findings included.
//! The incremental-vs-oracle comparison is serial on both sides (same
//! query sequence, same governed abort points), so it stays byte-exact
//! under faults too.

use lcm::detect::{Detector, DetectorConfig, EngineKind};
use lcm::haunted::{HauntedConfig, HauntedEngine};
use lcm::serve::wire::module_report_json;

fn env_faults_armed() -> bool {
    std::env::var(lcm::core::fault::FAULT_ENV).is_ok_and(|v| !v.trim().is_empty())
}

/// Multi-branch, multi-load victims over several functions, so every
/// engine runs more than one work unit per function and the functions
/// spread over the workers.
const VICTIMS: &str = r#"
    int A[16]; int B[4096]; int size; int tmp; int sec[16];
    void victim_a(int y) {
        if (y < size) { tmp &= B[A[y] * 512]; }
        if (y > 0) { tmp &= B[A[y & 15] * 256]; }
    }
    void victim_stl(int idx) {
        int r = idx & 15;
        sec[r] = 0;
        tmp &= B[sec[r]];
        if (r < size) { tmp &= B[A[r] * 256]; }
    }
    void safe(int y) { tmp = y + 1; }
"#;

fn compile() -> lcm::ir::Module {
    lcm::minic::compile(VICTIMS).expect("victims compile")
}

const ENGINES: [EngineKind; 3] = [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf];

/// The configurations the cross-jobs comparison runs under: the
/// default, the fresh-solver oracle, and every switch that changes
/// which classify path a candidate chain takes.
fn job_split_configs() -> Vec<(&'static str, DetectorConfig)> {
    let d = DetectorConfig::default;
    vec![
        ("default", d()),
        (
            "disable_incremental",
            DetectorConfig {
                disable_incremental: true,
                ..d()
            },
        ),
        (
            "detect_interference",
            DetectorConfig {
                detect_interference: true,
                ..d()
            },
        ),
        (
            "no_gep_filter",
            DetectorConfig {
                gep_filter: false,
                ..d()
            },
        ),
        (
            "committed_universal_access",
            DetectorConfig {
                universal_needs_transient_access: false,
                ..d()
            },
        ),
    ]
}

#[test]
fn findings_are_identical_across_job_counts_for_every_engine() {
    let m = compile();
    for engine in ENGINES {
        for (variant, config) in job_split_configs() {
            let run = |jobs: usize| {
                Detector::new(DetectorConfig {
                    jobs,
                    ..config.clone()
                })
                .analyze_module(&m, engine)
            };
            let serial = run(1);
            for jobs in [2, 4, 8] {
                let par = run(jobs);
                let label = format!("{engine:?}, jobs={jobs}, {variant}");
                // The rendered report omits witness seeds, so compare
                // the full findings too; a degraded function's partial
                // findings stop at the serial trip point at every job
                // count, so they are compared as well.
                assert_eq!(serial.functions.len(), par.functions.len(), "{label}");
                for (s, p) in serial.functions.iter().zip(&par.functions) {
                    assert_eq!(s.name, p.name, "{label}: function order");
                    assert_eq!(
                        format!("{:?}", s.status),
                        format!("{:?}", p.status),
                        "{label}/{}: status",
                        s.name
                    );
                    assert_eq!(
                        s.transmitters, p.transmitters,
                        "{label}/{}: findings",
                        s.name
                    );
                    assert_eq!(s.saeg_size, p.saeg_size, "{label}/{}: size", s.name);
                }
                assert_eq!(
                    module_report_json(&serial).render(),
                    module_report_json(&par).render(),
                    "{label}: rendered module report must be byte-identical"
                );
            }
        }
    }
}

/// The persistent incremental solver and the fresh-solver-per-query
/// oracle must render byte-identical reports — serial on both sides, so
/// this holds under every fault campaign too. The pre-filter is
/// disabled to force real solver traffic (the litmus-shaped victims
/// are otherwise fully pre-screen-decidable; see tests/budgets.rs).
#[test]
fn incremental_and_oracle_solving_render_identical_reports() {
    let m = compile();
    for engine in ENGINES {
        let run = |disable_incremental: bool| {
            Detector::new(DetectorConfig {
                jobs: 1,
                disable_prefilter: true,
                disable_incremental,
                ..DetectorConfig::default()
            })
            .analyze_module(&m, engine)
        };
        let incremental = run(false);
        let oracle = run(true);
        assert_eq!(
            module_report_json(&incremental).render(),
            module_report_json(&oracle).render(),
            "{engine:?}: incremental on/off must not move a finding"
        );
        // The counters tell the two modes apart: oracle mode never
        // reuses a solver; warm persistent solvers do (skipped under
        // fault campaigns, where governed aborts cut solver traffic).
        if !env_faults_armed() {
            assert_eq!(
                oracle.timings().solver_reuses,
                0,
                "{engine:?}: oracle mode must never reuse a solver"
            );
            assert!(
                incremental.timings().solver_reuses > 0,
                "{engine:?}: persistent mode should reuse warm solvers"
            );
        }
    }
}

/// The haunted baseline's path-splitting must be exact too: full leak
/// lists, path counts, and exhaustion flags at jobs 2/4/8 equal serial.
/// The tight-budget variant pins the path-granular budget semantics:
/// the cutoff is applied during the in-order merge, so exhaustion is
/// reproduced identically no matter how many workers enumerated past
/// it. (The baseline is ungoverned — no fault sites — so this holds
/// inside the fault matrix as well.)
#[test]
fn baseline_reports_are_identical_across_job_counts() {
    let m = compile();
    for engine in [HauntedEngine::Pht, HauntedEngine::Stl] {
        for step_budget in [HauntedConfig::default().step_budget, 40] {
            let run = |jobs: usize| {
                lcm::haunted::analyze_module(
                    &m,
                    engine,
                    HauntedConfig {
                        jobs,
                        step_budget,
                        ..HauntedConfig::default()
                    },
                )
            };
            let serial = run(1);
            for jobs in [2, 4, 8] {
                let par = run(jobs);
                let label = format!("{engine:?}, jobs={jobs}, budget={step_budget}");
                assert_eq!(serial.functions.len(), par.functions.len(), "{label}");
                for (s, p) in serial.functions.iter().zip(&par.functions) {
                    assert_eq!(s.name, p.name, "{label}: order");
                    assert_eq!(s.leaks, p.leaks, "{label}/{}: leaks", s.name);
                    assert_eq!(
                        s.paths_explored, p.paths_explored,
                        "{label}/{}: paths",
                        s.name
                    );
                    assert_eq!(s.exhausted, p.exhausted, "{label}/{}: exhausted", s.name);
                    assert_eq!(s.degraded, p.degraded, "{label}/{}: degraded", s.name);
                }
            }
        }
    }
}
