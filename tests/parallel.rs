//! Tier-1: the parallel analysis driver is an observational no-op.
//!
//! `analyze_module` produces *identical* findings (not just identical
//! counts) for any worker count — results are collected in function
//! order, and each function's analysis is self-contained. This backs
//! every `--jobs` flag in the bench binaries.

use lcm::corpus::{all_litmus, litmus_pht, litmus_stl};
use lcm::detect::{Detector, DetectorConfig, EngineKind};
use lcm::haunted::{HauntedConfig, HauntedEngine};

/// Findings must match exactly — same order, same witnesses — across
/// jobs = 1, 2, 4 on every litmus program (pht + stl suites), so table
/// output is byte-identical modulo the time columns.
#[test]
fn analyze_module_is_deterministic_across_job_counts() {
    let suites = [("litmus-pht", litmus_pht()), ("litmus-stl", litmus_stl())];
    for (suite, benches) in suites {
        let engine = if suite == "litmus-stl" {
            EngineKind::Stl
        } else {
            EngineKind::Pht
        };
        for b in benches {
            let m = b.module();
            let serial = Detector::new(DetectorConfig {
                jobs: 1,
                ..DetectorConfig::default()
            })
            .analyze_module(&m, engine);
            for jobs in [2, 4] {
                let par = Detector::new(DetectorConfig {
                    jobs,
                    ..DetectorConfig::default()
                })
                .analyze_module(&m, engine);
                assert_eq!(
                    serial.functions.len(),
                    par.functions.len(),
                    "{suite}/{}: function count, jobs={jobs}",
                    b.name
                );
                for (s, p) in serial.functions.iter().zip(&par.functions) {
                    assert_eq!(s.name, p.name, "{suite}/{}: order, jobs={jobs}", b.name);
                    assert_eq!(
                        s.transmitters, p.transmitters,
                        "{suite}/{}/{}: findings, jobs={jobs}",
                        b.name, s.name
                    );
                    assert_eq!(s.saeg_size, p.saeg_size);
                }
            }
        }
    }
}

/// The Binsec/Haunted baseline fans out the same way and must agree
/// with its serial self on leak counts per function.
#[test]
fn haunted_baseline_is_deterministic_across_job_counts() {
    for (suite, benches) in all_litmus() {
        let engine = if suite == "litmus-stl" {
            HauntedEngine::Stl
        } else {
            HauntedEngine::Pht
        };
        for b in benches {
            let m = b.module();
            let serial = lcm::haunted::analyze_module(
                &m,
                engine,
                HauntedConfig {
                    jobs: 1,
                    ..HauntedConfig::default()
                },
            );
            let par = lcm::haunted::analyze_module(
                &m,
                engine,
                HauntedConfig {
                    jobs: 4,
                    ..HauntedConfig::default()
                },
            );
            let leaks = |r: &lcm::haunted::HauntedModuleReport| {
                r.functions
                    .iter()
                    .map(|f| (f.name.clone(), f.leaks.len()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(leaks(&serial), leaks(&par), "{suite}/{}", b.name);
        }
    }
}
