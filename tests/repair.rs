//! Tier-1: repair re-verification over the litmus corpus.
//!
//! Closes the gap where `repair()` outputs were never re-checked: every
//! repaired litmus program must re-analyze leak-free — under *all three*
//! engines for the joint `repair_all` fixpoint — and single-pass
//! `repair_once` fence counts are pinned per bench so a placement change
//! shows up as a diff here. Runs inside the `LCM_FAULT` CI matrix.

use lcm::core::fault::{site, FaultPlan};
use lcm::corpus::all_litmus;
use lcm::detect::{repair_all, repair_once, Detector, DetectorConfig, EngineKind};

const ENGINES: [EngineKind; 3] = [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf];

fn det() -> Detector {
    Detector::new(DetectorConfig::default())
}

#[test]
fn every_litmus_repair_re_verifies_clean_under_all_engines() {
    let det = det();
    for (suite, benches) in all_litmus() {
        for b in benches {
            let m = b.module();
            let (fixed, _fences) = repair_all(&m, &det);
            for engine in ENGINES {
                let r = det.analyze_module(&fixed, engine);
                assert!(
                    r.is_clean(),
                    "{suite}/{}: {engine:?} still finds {} leak(s) after repair_all",
                    b.name,
                    r.findings().count()
                );
            }
        }
    }
}

/// Single-pass fences per litmus bench under (PHT, STL, PSF). These pin
/// the repair *placement* strategy: a change to the greedy set cover or
/// to the engines' findings moves a number here. Per suite they sum to
/// 17/45/29 (litmus-pht), 1/29/18 (litmus-stl), 5/17/15 (litmus-fwd)
/// and 4/8/7 (litmus-new).
const FENCES: &[(&str, &str, [usize; 3])] = &[
    ("litmus-pht", "pht01", [1, 2, 1]),
    ("litmus-pht", "pht02", [1, 2, 1]),
    ("litmus-pht", "pht03", [1, 4, 3]),
    ("litmus-pht", "pht04", [1, 2, 1]),
    ("litmus-pht", "pht05", [1, 9, 8]),
    ("litmus-pht", "pht06", [2, 2, 2]),
    ("litmus-pht", "pht07", [1, 2, 1]),
    ("litmus-pht", "pht08", [2, 3, 2]),
    ("litmus-pht", "pht09", [1, 2, 2]),
    ("litmus-pht", "pht10", [1, 2, 0]),
    ("litmus-pht", "pht11", [1, 3, 2]),
    ("litmus-pht", "pht12", [1, 4, 3]),
    ("litmus-pht", "pht13", [1, 2, 1]),
    ("litmus-pht", "pht14", [1, 2, 1]),
    ("litmus-pht", "pht15", [1, 4, 1]),
    ("litmus-stl", "stl01", [0, 4, 4]),
    ("litmus-stl", "stl02", [0, 2, 2]),
    ("litmus-stl", "stl03", [0, 2, 0]),
    ("litmus-stl", "stl04", [0, 3, 2]),
    ("litmus-stl", "stl05", [0, 2, 1]),
    ("litmus-stl", "stl06", [0, 2, 1]),
    ("litmus-stl", "stl07", [0, 0, 0]),
    ("litmus-stl", "stl08", [0, 0, 0]),
    ("litmus-stl", "stl09", [0, 2, 1]),
    ("litmus-stl", "stl10", [0, 3, 2]),
    ("litmus-stl", "stl11", [0, 3, 2]),
    ("litmus-stl", "stl12", [0, 1, 0]),
    ("litmus-stl", "stl13", [0, 4, 3]),
    ("litmus-stl", "stl14", [1, 1, 0]),
    ("litmus-fwd", "fwd01", [1, 4, 3]),
    ("litmus-fwd", "fwd02", [1, 2, 2]),
    ("litmus-fwd", "fwd03", [1, 2, 2]),
    ("litmus-fwd", "fwd04", [1, 3, 3]),
    ("litmus-fwd", "fwd05", [1, 6, 5]),
    ("litmus-new", "new01", [2, 5, 4]),
    ("litmus-new", "new02", [2, 3, 3]),
];

/// True when `LCM_FAULT` arms a site that degrades the analysis of a
/// litmus bench's only function.
fn env_detector_fault_armed() -> bool {
    let plan = FaultPlan::from_env();
    site::DETECTOR.iter().any(|s| plan.fires(s, 0))
}

/// A fence count over a degraded report's partial findings is
/// undefined, so the pin covers completed reports only and counts the
/// degraded ones: an armed detector-level fault must degrade at least
/// one report, and with none armed every report completes.
#[test]
fn repair_once_fence_counts_are_pinned() {
    let det = det();
    let (mut benches_seen, mut degraded) = (0, 0);
    for (suite, benches) in all_litmus() {
        for b in benches {
            let want = FENCES
                .iter()
                .find(|(s, n, _)| *s == suite && *n == b.name)
                .map(|(_, _, c)| *c)
                .unwrap_or_else(|| panic!("{suite}/{} has no fence pin", b.name));
            benches_seen += 1;
            let m = b.module();
            for (ei, engine) in ENGINES.into_iter().enumerate() {
                let report = det.analyze_module(&m, engine);
                if !report.all_completed() {
                    degraded += 1;
                    continue;
                }
                assert_eq!(
                    repair_once(&m, &report, det.config().spec).1,
                    want[ei],
                    "{suite}/{} under {engine:?}: single-pass fence count changed",
                    b.name
                );
            }
        }
    }
    assert_eq!(benches_seen, FENCES.len(), "a pinned bench left the corpus");
    assert_eq!(
        degraded > 0,
        env_detector_fault_armed(),
        "{degraded} degraded reports"
    );
}
