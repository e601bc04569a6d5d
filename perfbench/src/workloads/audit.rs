//! `audit_clou` and `audit_baseline`: cold audits of seeded synthetic
//! libraries, one engine over one library per operation.
//!
//! Set-up generates and compiles a pool of libraries; the timed
//! operations walk the pool library by library, every engine in turn,
//! and wrap around when the run outlasts it. Nothing is cached, so a
//! wrapped-around operation repeats the same analysis and must repeat
//! its verdicts byte for byte.

use lcm_core::taxonomy::TransmitterClass;
use lcm_corpus::synth::{synthetic_library, GroundTruth, SynthConfig};
use lcm_detect::{Detector, DetectorConfig, EngineKind};
use lcm_haunted::{HauntedConfig, HauntedEngine, HauntedModuleReport};
use lcm_ir::Module;

use super::{
    repeated_setup, run_batch, verdict_digest, OpResult, Outcome, Repeats, RunConfig, Tally,
};
use crate::stats::Digest;
use crate::JOBS;

const CLOU_ENGINES: [EngineKind; 3] = [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf];
const BH_ENGINES: [HauntedEngine; 2] = [HauntedEngine::Pht, HauntedEngine::Stl];

/// Libraries in the Clou pool: enough that one run averages over many
/// seeded libraries rather than a few.
const CLOU_LIBRARIES: usize = 64;

/// OpenSSL-scale function shapes (sizes up to 220 statements, 8 %
/// gadget rates), eight functions per library so one verdict takes tens
/// of milliseconds and a run holds a few hundred of them.
fn clou_library(seed: u64) -> SynthConfig {
    SynthConfig {
        seed,
        functions: 8,
        ..SynthConfig::openssl_scale()
    }
}

/// Libraries in the baseline pool.
const BH_LIBRARIES: usize = 32;

/// libsodium-scale gadget rates with three functions of up to 60
/// statements: the largest exhausts the baseline's 50 M step budget,
/// as a quarter of libsodium's functions do, and the others finish, so
/// one verdict costs a few hundred milliseconds.
fn bh_library(seed: u64) -> SynthConfig {
    SynthConfig {
        seed,
        functions: 3,
        max_stmts: 60,
        ..SynthConfig::libsodium_scale()
    }
}

struct Library {
    module: Module,
    truth: Vec<GroundTruth>,
}

/// Generates and compiles `count` libraries of the shape `config`.
fn libraries(cfg: &RunConfig, count: usize, config: fn(u64) -> SynthConfig) -> Vec<Library> {
    (0..count)
        .map(|k| {
            let (src, truth) = synthetic_library(config(cfg.stream_seed(k as u64)));
            let module = {
                let _span = lcm_obs::span("bench.compile", "bench");
                lcm_minic::compile(&src).expect("synthetic libraries compile")
            };
            Library { module, truth }
        })
        .collect()
}

pub fn run_clou(cfg: &RunConfig) -> Outcome {
    let det = Detector::new(DetectorConfig {
        jobs: JOBS,
        ..DetectorConfig::default()
    });
    let (pool, setup_s) = repeated_setup(cfg, |_| libraries(cfg, CLOU_LIBRARIES, clou_library));
    let mut repeats = Repeats::new(pool.len() * CLOU_ENGINES.len());
    let mut out = run_batch(cfg, |i, tally: &mut Tally| {
        let slot = i % repeats.len();
        let lib = &pool[slot / CLOU_ENGINES.len()];
        let engine = CLOU_ENGINES[slot % CLOU_ENGINES.len()];
        let report = {
            let _span = lcm_obs::span("bench.analyze_module", "bench");
            det.analyze_module(&lib.module, engine)
        };
        let slowest = report.functions.iter().map(|f| f.runtime).max();
        *tally.entry("detect.fn_max_ms").or_default() +=
            slowest.unwrap_or_default().as_secs_f64() * 1e3;

        let digest = verdict_digest(&report);
        let mut error = (!report.all_completed())
            .then(|| format!("{} degraded function(s)", report.degraded_count()));
        for (t, f) in lib.truth.iter().zip(&report.functions) {
            let missed = match engine {
                EngineKind::Pht => t.pht_gadget && f.count(TransmitterClass::UniversalData) == 0,
                EngineKind::Stl => t.stl_gadget && f.is_clean(),
                EngineKind::Psf => false,
            };
            if missed {
                error.get_or_insert(format!(
                    "seeded gadget in `{}` missed by Clou-{}",
                    t.function,
                    engine.label()
                ));
            }
        }
        let error = error.or_else(|| repeats.check(slot, digest));
        OpResult {
            output: digest.to_le_bytes().to_vec(),
            error,
        }
    });
    out.setup_s = setup_s;
    out
}

/// The digest input of one baseline report: leaks, explored paths and
/// the exhausted flag of every function, which together are the
/// baseline's verdict.
fn bh_output(report: &HauntedModuleReport) -> Vec<u8> {
    let mut s = String::new();
    for f in &report.functions {
        s.push_str(&format!(
            "{} paths={} exhausted={} degraded={:?}",
            f.name, f.paths_explored, f.exhausted, f.degraded
        ));
        for l in &f.leaks {
            s.push_str(&format!(" {}@{}", l.primitive, l.inst.0));
        }
        s.push('\n');
    }
    s.into_bytes()
}

pub fn run_baseline(cfg: &RunConfig) -> Outcome {
    let config = HauntedConfig {
        jobs: JOBS,
        ..HauntedConfig::default()
    };
    let (pool, setup_s) = repeated_setup(cfg, |_| libraries(cfg, BH_LIBRARIES, bh_library));
    let mut repeats = Repeats::new(pool.len() * BH_ENGINES.len());
    let mut out = run_batch(cfg, |i, tally: &mut Tally| {
        let slot = i % repeats.len();
        let lib = &pool[slot / BH_ENGINES.len()];
        let engine = BH_ENGINES[slot % BH_ENGINES.len()];
        let report = {
            let _span = lcm_obs::span("bench.haunted", "bench");
            lcm_haunted::analyze_module(&lib.module, engine, config)
        };
        let functions = report.functions.len() as f64;
        let exhausted = report.functions.iter().filter(|f| f.exhausted).count() as f64;
        let paths: usize = report.functions.iter().map(|f| f.paths_explored).sum();
        *tally.entry("haunted.paths").or_default() += paths as f64;
        *tally.entry("haunted.exhausted_ratio").or_default() += exhausted / functions;

        let output = bh_output(&report);
        let mut error = (report.degraded_count() > 0)
            .then(|| format!("{} degraded function(s)", report.degraded_count()));
        for (t, f) in lib.truth.iter().zip(&report.functions) {
            let seeded = match engine {
                HauntedEngine::Pht => t.pht_gadget,
                HauntedEngine::Stl => t.stl_gadget,
            };
            if seeded && !f.exhausted && f.leaks.is_empty() {
                error.get_or_insert(format!(
                    "seeded gadget in `{}` missed by the finished baseline",
                    t.function
                ));
            }
        }
        let error = error.or_else(|| repeats.check(slot, Digest::of(&output)));
        OpResult { output, error }
    });
    out.setup_s = setup_s;
    out
}
