//! Tier-1: query budgets on the litmus suites are pinned.
//!
//! The whole point of the query-avoidance layer is that `sat_queries`
//! stays small and `queries_avoided` / `prefilter_hits` large. Every
//! counter is deterministic for a fixed suite at every job count: a
//! function's engine runs on one thread with its own feasibility
//! checker, and a module's counters are the sum over its functions.
//! So each pin must hold at `jobs = 1` and `jobs = 4`. Pinning them
//! catches silent regressions (a pre-screen bailing to the solver, an
//! enumeration change blowing up the query count, an engine loop
//! issuing its checks in a different order, a scheduler that splits a
//! function's work) the findings-equality tests cannot see.
//!
//! If you *deliberately* change enumeration order, the pre-screen's
//! decidable fragment, or the litmus corpus, re-record the constants
//! below (print the triple from this test) and justify the movement in
//! the PR description.

use lcm::corpus::all_litmus;
use lcm::detect::{Detector, DetectorConfig, EngineKind, PhaseTimings};

/// The job counts every pin must hold at.
const JOBS: [usize; 2] = [1, 4];

/// One engine's counters summed over every litmus program, at `jobs`
/// workers, with the pre-filter on or off.
fn budget(engine: EngineKind, jobs: usize, disable_prefilter: bool) -> PhaseTimings {
    let det = Detector::new(DetectorConfig {
        jobs,
        disable_prefilter,
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

/// `(sat_queries, queries_avoided, prefilter_hits)` per engine with
/// the pre-filter on.
const SCREENED: [(EngineKind, (u64, u64, u64)); 3] = [
    (EngineKind::Pht, (0, 391, 142)),
    (EngineKind::Stl, (0, 309, 103)),
    (EngineKind::Psf, (0, 358, 146)),
];

/// `(sat_queries, memo_hits, solver_reuses)` per engine with the
/// pre-filter off.
const UNSCREENED: [(EngineKind, (u64, u64, u64)); 3] = [
    (EngineKind::Pht, (533, 465, 45)),
    (EngineKind::Stl, (412, 311, 65)),
    (EngineKind::Psf, (504, 401, 67)),
];

/// The litmus programs' feasibility stacks all fall inside the
/// pre-screen's exactly-decidable fragment (positive arch lits, at most
/// one branch decision), so the solver is never consulted at all.
#[test]
fn litmus_query_budgets_are_pinned() {
    for (engine, pinned) in SCREENED {
        for jobs in JOBS {
            let t = budget(engine, jobs, false);
            assert_eq!(
                (t.sat_queries, t.queries_avoided, t.prefilter_hits),
                pinned,
                "{engine:?} at jobs {jobs} (sat_queries, queries_avoided, prefilter_hits)"
            );
        }
    }
}

/// And with the layer disabled, the same workload pays for every one of
/// those answers at the solver — the counters trade places. The memo
/// and the warm solver's reuse count are pinned too: both depend on the
/// order in which one function's queries reach one checker.
#[test]
fn disabled_prefilter_routes_everything_to_the_solver() {
    for ((engine, pinned), (_, screened)) in UNSCREENED.into_iter().zip(SCREENED) {
        // The pre-filter also removes engine-level checks entirely
        // (prefilter_hits), so the solver-path query count is at least
        // the screened count of the default run.
        assert!(
            pinned.0 >= screened.1,
            "{engine:?}: disabled sat_queries below the default run's queries_avoided"
        );
        for jobs in JOBS {
            let t = budget(engine, jobs, true);
            assert_eq!(
                t.queries_avoided, 0,
                "{engine:?}: disabled run must not screen"
            );
            assert_eq!(
                (t.sat_queries, t.memo_hits, t.solver_reuses),
                pinned,
                "{engine:?} at jobs {jobs} (sat_queries, memo_hits, solver_reuses)"
            );
        }
    }
}
