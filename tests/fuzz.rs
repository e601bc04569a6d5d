//! Tier-1: the differential fuzzing subsystem end to end (DESIGN.md
//! §6i) — generator determinism across job counts, a zero-mismatch
//! quick sweep, enumeration-strategy agreement, and the fuzz-derived
//! corpus regressions. Runs inside the `LCM_FAULT` CI matrix: none of
//! these properties may move while faults fire elsewhere. A
//! detector-level fault degrades engine runs, and a degraded run with no
//! finding is inconclusive: the sweep must count it, never call it a
//! mismatch.

use lcm::core::fault::{site, FaultPlan, FAULT_ENV};
use lcm::corpus::{fuzz_regressions, Intended};
use lcm::detect::{Detector, DetectorConfig, EngineKind};
use lcm::fuzz::{generate, generate_batch, run_sweep, FuzzConfig, LeakKind, OracleConfig};
use lcm::litmus::enumerate::Litmus;

fn env_faults_armed() -> bool {
    std::env::var(FAULT_ENV).is_ok_and(|v| !v.trim().is_empty())
}

/// True when `LCM_FAULT` arms a site that degrades the analysis of a
/// generated program's only function, `victim`.
fn env_detector_fault_armed() -> bool {
    let plan = FaultPlan::from_env();
    [
        site::TIMEOUT,
        site::CONFLICT_BUDGET,
        site::NODE_BUDGET,
        site::EDGE_BUDGET,
        site::MALFORMED_IR,
        site::WORKER_PANIC,
        site::SOLVER_ABORT,
    ]
    .iter()
    .any(|s| plan.fires(s, 0))
}

/// The oracle's work and verdict tallies over a fixed generated batch,
/// under both profiles, plus one program that runs out of fuel on every
/// input. Any change to how the oracle executes a program (fuel, choice
/// scouting, window ticks, fences) moves at least one of these numbers.
#[test]
fn oracle_tallies_are_pinned() {
    let tally = |ocfg: OracleConfig| {
        let (mut work, mut leaky) = ((0, 0, 0), [0usize; 4]);
        for i in 0..64 {
            let m = generate(9, i)
                .compile()
                .expect("generated programs compile");
            let r = lcm::fuzz::analyze(&m, "victim", ocfg);
            work = (work.0 + r.inputs, work.1 + r.choices, work.2 + r.skipped);
            let flags = [
                r.arch_leak,
                r.leaks(LeakKind::Pht),
                r.leaks(LeakKind::Stl),
                r.leaks(LeakKind::Psf),
            ];
            for (n, hit) in leaky.iter_mut().zip(flags) {
                *n += usize::from(hit);
            }
        }
        (work, leaky)
    };
    assert_eq!(
        tally(OracleConfig::default()),
        ((960, 24528, 0), [0, 7, 22, 36])
    );
    assert_eq!(
        tally(OracleConfig::quick()),
        ((768, 18941, 0), [0, 7, 22, 36])
    );

    let spin = lcm::minic::compile(&format!(
        "{} void victim(int x, int y) {{ int i; i = 0; while (i < 100000) {{ \
         temp &= pub_b[(pub_a[(x) & 15]) * 64]; i = i + 1; }} }}",
        lcm::fuzz::gen::GLOBALS
    ))
    .expect("compiles");
    let r = lcm::fuzz::analyze(&spin, "victim", OracleConfig::default());
    assert_eq!((r.inputs, r.choices, r.skipped), (15, 0, 15), "{r:?}");
    assert!(r.secure(), "{r:?}");
}

/// Same seed, different worker counts: byte-identical programs.
#[test]
fn generator_is_deterministic_across_job_counts() {
    let baseline: Vec<String> = generate_batch(9, 64, 1)
        .iter()
        .map(|p| p.source())
        .collect();
    for jobs in [4, 8] {
        let got: Vec<String> = generate_batch(9, 64, jobs)
            .iter()
            .map(|p| p.source())
            .collect();
        assert_eq!(baseline, got, "batch diverged at --jobs {jobs}");
    }
    // And re-generation of a single index matches its batch slot.
    for (i, src) in baseline.iter().enumerate().step_by(17) {
        assert_eq!(lcm::fuzz::generate(9, i).source(), *src);
    }
}

/// A quick differential sweep stays mismatch-free and re-verifies its
/// repairs — the same obligation CI's `lcm-cli fuzz` step asserts.
#[test]
fn quick_sweep_has_no_mismatches() {
    let report = run_sweep(&FuzzConfig {
        seed: 9,
        count: 128,
        quick: true,
        ..Default::default()
    });
    assert!(
        report.ok(),
        "sweep failed: {} mismatches, {} repair failures, {} compile failures",
        report.mismatches.len(),
        report.repair_failures.len(),
        report.compile_failures
    );
    assert_eq!(report.programs, 128);
    assert_eq!(
        report.inconclusive > 0,
        env_detector_fault_armed(),
        "{} inconclusive engine runs",
        report.inconclusive
    );
    assert_eq!(report.repairs_checked, report.repairs_clean);
    assert!(
        report.spec_leaky > 0 && report.secure > 0,
        "degenerate sweep: {} leaky / {} secure",
        report.spec_leaky,
        report.secure
    );
}

/// All four enumeration strategies agree on litmus-sized programs —
/// the streamed, symmetry-reduced, and parallel counts are the
/// materialized count.
#[test]
fn enumeration_strategies_agree() {
    use lcm::core::cat::presets::{sc, tso};
    let programs = [
        "W x; R y || W y; R x",
        "W x; R y || W y; F; R x",
        "W x; W y; R z || W y; W z; R x || W z; W x; R y",
    ];
    for src in programs {
        let l = Litmus::parse(src).unwrap();
        for model in [sc(), tso()] {
            let materialized = l
                .candidate_executions()
                .iter()
                .filter(|x| model.check(x).is_ok())
                .count() as u64;
            assert_eq!(l.count_consistent(model), materialized, "{src}");
            assert_eq!(
                l.count_consistent_symmetric(model).total,
                materialized,
                "{src}"
            );
            for jobs in [1, 4, 8] {
                assert_eq!(l.count_consistent_par(sc(), jobs), l.count_consistent(sc()));
            }
        }
    }
}

/// Every fuzz-derived corpus regression keeps its pinned verdict, on
/// both sides of the differential: the reference oracle *and* the
/// matching engine. The engine side is checked whenever its run
/// completed; only an armed fault may degrade one.
#[test]
fn corpus_regressions_keep_their_verdicts() {
    let det = Detector::new(DetectorConfig::default());
    let ocfg = OracleConfig::default();
    for b in fuzz_regressions() {
        let m = b.module();
        let oracle = lcm::fuzz::analyze(&m, "victim", ocfg);
        let engine_finds = |e: EngineKind| {
            let r = det.analyze_module(&m, e);
            if r.all_completed() {
                return !r.is_clean();
            }
            assert!(env_faults_armed(), "{}: {e:?} degraded unarmed", b.name);
            true // a degraded run proves nothing either way
        };
        match b.intended {
            Intended::PhtUdt | Intended::PhtDt => {
                assert!(oracle.leaks(LeakKind::Pht), "{}: oracle misses PHT", b.name);
                assert!(
                    engine_finds(EngineKind::Pht),
                    "{}: engine misses PHT",
                    b.name
                );
            }
            Intended::StlLeak => {
                assert!(oracle.leaks(LeakKind::Stl), "{}: oracle misses STL", b.name);
                assert!(
                    engine_finds(EngineKind::Stl),
                    "{}: engine misses STL",
                    b.name
                );
            }
            Intended::PsfLeak => {
                assert!(oracle.leaks(LeakKind::Psf), "{}: oracle misses PSF", b.name);
                assert!(
                    engine_finds(EngineKind::Psf),
                    "{}: engine misses PSF",
                    b.name
                );
            }
            Intended::Secure => {
                assert!(
                    oracle.secure(),
                    "{}: oracle claims a leak in a secure program",
                    b.name
                );
            }
            Intended::NonTransientLeak => {
                assert!(oracle.arch_leak, "{}: oracle misses the arch leak", b.name);
            }
            Intended::MislabelledSecure => {}
        }
    }
}
