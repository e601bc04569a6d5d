//! Tier-1: the job count is an observational no-op.
//!
//! The Clou engines and the haunted baseline fan functions out over
//! worker threads, one thread per function, and reassemble the reports
//! in module order. So `--jobs 2/4/8` must render byte-identical to
//! serial for every engine.
//!
//! This file runs inside the `LCM_FAULT` CI matrix. Faults key off the
//! function index, and a function's query sequence, and so its trip
//! point, is the serial one at every job count. So every function's
//! findings and the rendered module report must match exactly even
//! while faults fire, degraded functions' partial findings included.

use lcm::detect::{Detector, DetectorConfig, EngineKind};
use lcm::haunted::{HauntedConfig, HauntedEngine};
use lcm::serve::wire::module_report_json;

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
/// default and every switch that changes which classify path a
/// candidate chain takes.
fn job_split_configs() -> Vec<(&'static str, DetectorConfig)> {
    let d = DetectorConfig::default;
    vec![
        ("default", d()),
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

/// The haunted baseline's function-level fan-out must be exact too:
/// full leak lists, path counts, and exhaustion flags at jobs 2/4/8
/// equal serial, with the default budget and with a tight one that
/// cuts every function's path walk short. (The baseline is ungoverned —
/// no fault sites — so this holds inside the fault matrix as well.)
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
