//! Tier-1: query budgets on the litmus suites are pinned.
//!
//! `queries_avoided` counts the feasibility checks the engines ask
//! (each decided from block reachability) and `prefilter_hits` the
//! checks their hoisted pre-screens skip. Both are deterministic for a
//! fixed suite at every job count: a function's engine runs on one
//! thread with its own feasibility checker, and a module's counters are
//! the sum over its functions. So each pin must hold at `jobs = 1` and
//! `jobs = 4`. Pinning them catches silent regressions (an enumeration
//! change blowing up the query count, an engine loop issuing its checks
//! in a different order, a lost duplicate-block shortcut, a scheduler
//! that splits a function's work) the findings-equality tests cannot
//! see.
//!
//! If you *deliberately* change enumeration order, the pre-screens, or
//! the litmus corpus, re-record the constants below (print the pair
//! from this test) and justify the movement in the PR description.

use lcm::corpus::all_litmus;
use lcm::detect::{Detector, DetectorConfig, EngineKind, PhaseTimings};

/// The job counts every pin must hold at.
const JOBS: [usize; 2] = [1, 4];

/// One engine's counters summed over every litmus program, at `jobs`
/// workers.
fn budget(engine: EngineKind, jobs: usize) -> PhaseTimings {
    let det = Detector::new(DetectorConfig {
        jobs,
        ..DetectorConfig::default()
    });
    let mut t = PhaseTimings::default();
    for (_suite, benches) in all_litmus() {
        for b in benches {
            t.merge(&det.analyze_module(&b.module(), engine).timings());
        }
    }
    t
}

/// `(queries_avoided, prefilter_hits)` per engine.
const PINNED: [(EngineKind, (u64, u64)); 3] = [
    (EngineKind::Pht, (391, 142)),
    (EngineKind::Stl, (309, 103)),
    (EngineKind::Psf, (358, 146)),
];

#[test]
fn litmus_query_budgets_are_pinned() {
    for (engine, pinned) in PINNED {
        for jobs in JOBS {
            let t = budget(engine, jobs);
            assert_eq!(
                (t.queries_avoided, t.prefilter_hits),
                pinned,
                "{engine:?} at jobs {jobs} (queries_avoided, prefilter_hits)"
            );
        }
    }
}
