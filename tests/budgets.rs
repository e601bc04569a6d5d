//! Tier-1: query budgets on the litmus suites are pinned.
//!
//! The whole point of the query-avoidance layer is that `sat_queries`
//! stays small and `queries_avoided` / `prefilter_hits` large; all three
//! are deterministic for a fixed suite at `jobs = 1`. Pinning them
//! catches silent regressions (a pre-screen bailing to the solver, an
//! enumeration change blowing up the query count, an engine loop
//! issuing its checks in a different order) the findings-equality tests
//! cannot see.
//!
//! If you *deliberately* change enumeration order, the pre-screen's
//! decidable fragment, or the litmus corpus, re-record the constants
//! below (print the triple from this test) and justify the movement in
//! the PR description.

use lcm::corpus::all_litmus;
use lcm::detect::{Detector, DetectorConfig, EngineKind};

/// `(sat_queries, queries_avoided, prefilter_hits)` summed over every
/// litmus program.
fn budget(engine: EngineKind) -> (u64, u64, u64) {
    let det = Detector::new(DetectorConfig {
        jobs: 1,
        ..DetectorConfig::default()
    });
    let (mut q, mut a, mut p) = (0u64, 0u64, 0u64);
    for (_suite, benches) in all_litmus() {
        for b in benches {
            let t = det.analyze_module(&b.module(), engine).timings();
            q += t.sat_queries;
            a += t.queries_avoided;
            p += t.prefilter_hits;
        }
    }
    (q, a, p)
}

/// The litmus programs' feasibility stacks all fall inside the
/// pre-screen's exactly-decidable fragment (positive arch lits, at most
/// one branch decision), so the solver is never consulted at all.
#[test]
fn litmus_query_budgets_are_pinned() {
    for (engine, pinned) in [
        (EngineKind::Pht, (0, 391, 142)),
        (EngineKind::Stl, (0, 309, 103)),
        (EngineKind::Psf, (0, 358, 146)),
    ] {
        assert_eq!(
            budget(engine),
            pinned,
            "{engine:?} (sat_queries, queries_avoided, prefilter_hits)"
        );
    }
}

/// And with the layer disabled, the same workload pays for every one of
/// those answers at the solver — the counters trade places.
#[test]
fn disabled_prefilter_routes_everything_to_the_solver() {
    let det = Detector::new(DetectorConfig {
        jobs: 1,
        disable_prefilter: true,
        ..DetectorConfig::default()
    });
    let (mut q, mut a) = (0u64, 0u64);
    for (_suite, benches) in all_litmus() {
        for b in benches {
            let t = det.analyze_module(&b.module(), EngineKind::Pht).timings();
            q += t.sat_queries;
            a += t.queries_avoided;
        }
    }
    assert_eq!(a, 0, "disabled run must not screen");
    // The pre-filter also removes engine-level checks entirely
    // (prefilter_hits), so the solver-path query count is at least the
    // screened count of the default run.
    assert!(q >= 391, "solver-path queries: {q}");
}
