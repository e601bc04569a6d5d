//! `reaudit_edit`: the edit-then-verdict loop against a warm store.
//!
//! Set-up compiles one library, opens a fresh store and fills it with a
//! cold audit under every engine. Each timed round inserts one
//! statement into a seeded choice of function, recompiles the whole
//! source and re-audits through the store: the edited function misses
//! once per engine and every other function is a store hit.

use std::path::PathBuf;

use lcm_corpus::synth::{synthetic_library, SynthConfig};
use lcm_detect::{Detector, DetectorConfig, EngineKind, ModuleReport};
use lcm_ir::Module;
use lcm_store::{CacheCounts, Store};

use super::{repeated_setup, run_batch, verdict_digest, OpResult, Outcome, RunConfig};
use crate::stats::mix;
use crate::JOBS;

const ENGINES: [EngineKind; 3] = [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf];

/// 192 functions of up to 40 statements (OpenSSL-scale gadget rates):
/// the one re-analysis a round needs stays small next to recompiling the
/// whole library and consulting the store for every function, the cold
/// populate of set-up takes a fraction of a second, and so many small
/// functions make the cost of a round nearly the same for every seed.
fn library(seed: u64) -> SynthConfig {
    SynthConfig {
        seed,
        functions: 192,
        max_stmts: 40,
        ..SynthConfig::openssl_scale()
    }
}

/// The statement each round inserts.
const EDIT: &str = "    gl_tmp = gl_tmp ^ acc;\n";

struct State {
    det: Detector,
    source: String,
    functions: usize,
    store: Store,
    dir: PathBuf,
    /// The latest round's reports, one per engine.
    last: Vec<ModuleReport>,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn compile(source: &str) -> Module {
    let _span = lcm_obs::span("bench.compile", "bench");
    lcm_minic::compile(source).expect("edited synthetic library compiles")
}

fn audit(state: &State, module: &Module) -> Vec<ModuleReport> {
    ENGINES
        .iter()
        .map(|&engine| {
            let _span = lcm_obs::span("bench.analyze_cached", "bench");
            lcm_store::analyze_module_cached(&state.det, module, engine, &state.store)
        })
        .collect()
}

fn setup(cfg: &RunConfig, rep: usize) -> State {
    let (source, truth) = synthetic_library(library(cfg.stream_seed(0)));
    let dir = cfg.scratch.join(format!("reaudit-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory is writable");
    let store = {
        let _span = lcm_obs::span("bench.store_open", "bench");
        Store::open(&dir.join("results.lcmstore")).expect("fresh store opens")
    };
    let mut state = State {
        det: Detector::new(DetectorConfig {
            jobs: JOBS,
            ..DetectorConfig::default()
        }),
        source,
        functions: truth.len(),
        store,
        dir,
        last: Vec::new(),
    };
    let module = compile(&state.source);
    state.last = audit(&state, &module);
    state
}

/// Inserts [`EDIT`] at the top of the body of function `f`.
fn edit(source: &mut String, f: usize) {
    let header =
        format!("void synth_fn_{f:03}(int a0, int a1, int a2) {{\n    int acc = a0;\n    int i;\n");
    let at = source.find(&header).expect("generated function header") + header.len();
    source.insert_str(at, EDIT);
}

/// The verdict digests of one report per engine.
fn verdicts(reports: &[ModuleReport]) -> Vec<u64> {
    reports.iter().map(verdict_digest).collect()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let (mut state, setup_s) = repeated_setup(cfg, |rep| setup(cfg, rep));
    let edits = cfg.stream_seed(1);
    let mut out = run_batch(cfg, |i, _| {
        let f = mix(edits, i as u64) as usize % state.functions;
        edit(&mut state.source, f);
        let module = compile(&state.source);
        state.last = audit(&state, &module);
        let mut error = None;
        for (engine, report) in ENGINES.iter().zip(&state.last) {
            let c = CacheCounts::of(report);
            if c.misses != 1 || c.hits as usize != state.functions - 1 || !report.all_completed() {
                error = Some(format!(
                    "Clou-{} after editing synth_fn_{f:03}: {} hits, {} misses, {} bypassed",
                    engine.label(),
                    c.hits,
                    c.misses,
                    c.bypassed
                ));
            }
        }
        let output = verdicts(&state.last)
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect();
        OpResult { output, error }
    });

    // The last round's cached verdicts must equal a cold audit of the
    // final source.
    let module = compile(&state.source);
    let cold: Vec<ModuleReport> = ENGINES
        .iter()
        .map(|&engine| state.det.analyze_module(&module, engine))
        .collect();
    if verdicts(&cold) != verdicts(&state.last) {
        out.errors
            .push("cached verdicts of the final source differ from a cold audit".into());
    }
    let stats = state.store.stats();
    out.notes.push(format!(
        "store: {} hits, {} misses, {} inserts",
        stats.hits, stats.misses, stats.inserts
    ));
    out.setup_s = setup_s;
    out
}
