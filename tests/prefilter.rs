//! Tier-1: the query-avoidance layer is an observational no-op.
//!
//! The reachability pre-screen, the engine-level pre-filter fast paths,
//! and the trie memo only short-circuit work whose outcome the plain
//! SAT path would reproduce. Force-disabling the whole layer via
//! `DetectorConfig::disable_prefilter` must therefore yield *identical*
//! findings — same order, same classes, same witness seeds — on every
//! litmus program and on a seeded synthetic library, for every engine.

use lcm::corpus::all_litmus;
use lcm::corpus::synth::{synthetic_library, SynthConfig};
use lcm::detect::{Detector, DetectorConfig, EngineKind};
use lcm::ir::Module;

fn assert_identical(label: &str, m: &Module, engine: EngineKind) {
    let fast = Detector::new(DetectorConfig {
        jobs: 1,
        ..DetectorConfig::default()
    })
    .analyze_module(m, engine);
    let slow = Detector::new(DetectorConfig {
        jobs: 1,
        disable_prefilter: true,
        ..DetectorConfig::default()
    })
    .analyze_module(m, engine);

    assert_eq!(
        fast.functions.len(),
        slow.functions.len(),
        "{label}: function count"
    );
    for (f, s) in fast.functions.iter().zip(&slow.functions) {
        assert_eq!(f.name, s.name, "{label}: function order");
        assert_eq!(
            f.transmitters, s.transmitters,
            "{label}/{}: findings with vs without pre-filter",
            f.name
        );
        assert_eq!(f.saeg_size, s.saeg_size, "{label}/{}: saeg size", f.name);
    }

    // The disabled run must not have screened anything; the default run
    // should have (on any workload that issues queries at all).
    let ft = fast.timings();
    let st = slow.timings();
    assert_eq!(
        st.queries_avoided, 0,
        "{label}: disabled run still screened"
    );
    assert_eq!(
        st.prefilter_hits, 0,
        "{label}: disabled run still pre-filtered"
    );
    if ft.sat_queries + ft.queries_avoided > 0 {
        assert!(
            ft.sat_queries <= st.sat_queries,
            "{label}: pre-filter increased solver traffic ({} > {})",
            ft.sat_queries,
            st.sat_queries
        );
    }
}

/// Every litmus program, all three engines: findings are byte-identical
/// with the pre-filter layer force-disabled.
#[test]
fn litmus_findings_identical_without_prefilter() {
    for (suite, benches) in all_litmus() {
        for b in benches {
            let m = b.module();
            for engine in [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf] {
                assert_identical(&format!("{suite}/{}/{engine:?}", b.name), &m, engine);
            }
        }
    }
}

/// A seeded synthetic library (multi-block functions with branches, so
/// the pre-screen's decision handling is exercised) agrees too.
#[test]
fn synthetic_findings_identical_without_prefilter() {
    let cfg = SynthConfig {
        seed: 0x9f11,
        functions: 6,
        ..SynthConfig::libsodium_scale()
    };
    let (src, _) = synthetic_library(cfg);
    let m = lcm::minic::compile(&src).expect("synthetic library compiles");
    for engine in [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf] {
        assert_identical(&format!("synth/{engine:?}"), &m, engine);
    }
}
