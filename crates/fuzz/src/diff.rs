//! The differential harness: generated programs → oracle vs. engines,
//! repair re-verification, and fence-set minimality (DESIGN.md §6i).
//!
//! The comparison is directional. The engines are static
//! over-approximations, so "engine finds a leak the oracle cannot
//! witness" is expected and merely counted. The soundness obligation is
//! the other way: a program the oracle *concretely* proves leaky under
//! primitive P, on which engine P reports clean, is a **mismatch** — it
//! would be a missed Spectre leak. Mismatches are shrunk to 1-minimal
//! reproducers and surfaced as minic source ready to be folded into
//! `crates/corpus`. An engine run that degraded (a tripped budget, an
//! injected fault) with no finding proves nothing either way: it is
//! *inconclusive*, never a mismatch.

use lcm_detect::{repair_all, Detector, DetectorConfig, EngineKind};
use lcm_ir::{Inst, Module};

use crate::gen::{generate, Program};
use crate::oracle::{self, LeakKind, OracleConfig, OracleReport};
use crate::shrink::shrink;

/// The three engine/primitive pairs the harness cross-checks.
pub const PRIMITIVES: [(LeakKind, EngineKind); 3] = [
    (LeakKind::Pht, EngineKind::Pht),
    (LeakKind::Stl, EngineKind::Stl),
    (LeakKind::Psf, EngineKind::Psf),
];

/// Sweep parameters (`lcm-cli fuzz`).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Batch seed.
    pub seed: u64,
    /// Number of programs.
    pub count: usize,
    /// Worker threads (0 = all cores).
    pub jobs: usize,
    /// Cheaper oracle profile and smaller repair/minimality sample.
    pub quick: bool,
    /// Repaired programs to run the fence-minimality certificate on.
    pub minimality_sample: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 9,
            count: 256,
            jobs: 0,
            quick: false,
            minimality_sample: 8,
        }
    }
}

impl FuzzConfig {
    fn oracle_config(&self) -> OracleConfig {
        if self.quick {
            OracleConfig::quick()
        } else {
            OracleConfig::default()
        }
    }
}

/// One engine-vs-oracle disagreement, shrunk to a minimal reproducer.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Batch index of the offending program.
    pub index: usize,
    /// Batch seed (reproduce with `generate(seed, index)`).
    pub seed: u64,
    /// The engine that missed the leak.
    pub engine: EngineKind,
    /// Original source.
    pub source: String,
    /// 1-minimal shrunk source.
    pub shrunk_source: String,
}

/// Per-program differential result.
#[derive(Debug, Clone)]
pub struct Eval {
    /// The generated program.
    pub program: Program,
    /// Oracle verdict.
    pub oracle: OracleReport,
    /// Engine cleanliness, in [`PRIMITIVES`] order. An inconclusive run
    /// counts as clean: it flagged nothing.
    pub engine_clean: [bool; 3],
    /// Engines that missed an oracle-witnessed leak.
    pub mismatched: Vec<EngineKind>,
    /// Engine findings the oracle could not witness (expected
    /// over-approximation).
    pub overapprox: u32,
    /// Engine runs that degraded with no finding: neither a mismatch nor
    /// over-approximation.
    pub inconclusive: u32,
}

/// Fence-minimality certificate for one repaired module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimalityReport {
    /// Fences in the repaired module.
    pub fences: usize,
    /// Fences whose individual removal reintroduces a finding.
    pub necessary: usize,
    /// `true` when keeping exactly the necessary fences re-verifies clean
    /// under all three engines. Every clean subset keeps each necessary
    /// fence, provided removing fences never removes a finding, so the
    /// necessary set, when clean, is the unique minimum.
    pub minimal: bool,
}

/// Aggregated sweep outcome.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Programs generated and evaluated.
    pub programs: usize,
    /// Programs whose rendered source failed to compile (generator bug).
    pub compile_failures: usize,
    /// Oracle: programs with an architectural (non-transient) leak.
    pub arch_leaky: usize,
    /// Oracle: programs with at least one witnessed transient leak.
    pub spec_leaky: usize,
    /// Oracle: programs with no witnessed leak at all.
    pub secure: usize,
    /// Engine findings per primitive, in [`PRIMITIVES`] order.
    pub engine_flagged: [usize; 3],
    /// Total engine-finds-oracle-silent cases (expected direction).
    pub overapprox: u64,
    /// Total engine runs that degraded with no finding.
    pub inconclusive: u64,
    /// Soundness-direction disagreements (must be empty).
    pub mismatches: Vec<Mismatch>,
    /// Engine-flagged programs put through `repair_all`.
    pub repairs_checked: usize,
    /// ... of which re-verified clean under all three engines.
    pub repairs_clean: usize,
    /// ... and were also re-confirmed leak-free by the oracle.
    pub repairs_oracle_clean: usize,
    /// Batch indices whose repair failed re-verification (must be empty).
    pub repair_failures: Vec<usize>,
    /// Minimality certificates attempted.
    pub minimality_checked: usize,
    /// ... of which certified minimum.
    pub minimality_certified: usize,
}

impl SweepReport {
    /// `true` when the sweep satisfies every differential obligation.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.repair_failures.is_empty() && self.compile_failures == 0
    }
}

fn fuzz_programs_counter() -> &'static lcm_obs::metrics::Counter {
    static C: std::sync::OnceLock<lcm_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        lcm_obs::metrics::global().counter(
            lcm_obs::metrics::names::FUZZ_PROGRAMS,
            "Programs generated and analyzed by the differential fuzz harness",
        )
    })
}

fn fuzz_mismatches_counter() -> &'static lcm_obs::metrics::Counter {
    static C: std::sync::OnceLock<lcm_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        lcm_obs::metrics::global().counter(
            lcm_obs::metrics::names::FUZZ_MISMATCHES,
            "Engine-vs-oracle disagreements found by the fuzz harness",
        )
    })
}

/// Whether `engine` finds `module` clean; `None` when its run degraded
/// with no finding, which proves nothing either way.
fn engine_verdict(det: &Detector, module: &Module, engine: EngineKind) -> Option<bool> {
    let report = det.analyze_module(module, engine);
    let clean = report.is_clean();
    (!clean || report.all_completed()).then_some(clean)
}

/// Evaluates one program against oracle and all three engines.
pub fn evaluate(program: &Program, det: &Detector, ocfg: OracleConfig) -> Option<Eval> {
    let module = program.compile().ok()?;
    let oracle = oracle::analyze(&module, "victim", ocfg);
    let mut engine_clean = [true; 3];
    let mut mismatched = Vec::new();
    let mut overapprox = 0;
    let mut inconclusive = 0;
    for (i, (kind, engine)) in PRIMITIVES.iter().enumerate() {
        let verdict = engine_verdict(det, &module, *engine);
        engine_clean[i] = verdict != Some(false);
        match (oracle.leaks(*kind), verdict) {
            (_, None) => inconclusive += 1,
            (true, Some(true)) => mismatched.push(*engine),
            (false, Some(false)) => overapprox += 1,
            _ => {}
        }
    }
    Some(Eval {
        program: program.clone(),
        oracle,
        engine_clean,
        mismatched,
        overapprox,
        inconclusive,
    })
}

/// `true` if the oracle still witnesses a `kind` leak the engine misses
/// — the shrinking predicate.
fn still_mismatching(p: &Program, det: &Detector, ocfg: OracleConfig, kind: LeakKind) -> bool {
    let module = match p.compile() {
        Ok(m) => m,
        Err(_) => return false,
    };
    let engine = PRIMITIVES
        .iter()
        .find(|(k, _)| *k == kind)
        .map(|(_, e)| *e)
        .unwrap_or(EngineKind::Pht);
    oracle::analyze(&module, "victim", ocfg).leaks(kind)
        && engine_verdict(det, &module, engine) == Some(true)
}

/// Every fence site in a module: `(function, block, position)`.
fn fence_sites(module: &Module) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (fi, f) in module.functions.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (pi, &iid) in b.insts.iter().enumerate() {
                if matches!(f.insts[iid.0 as usize], Inst::Fence) {
                    out.push((fi, bi, pi));
                }
            }
        }
    }
    out
}

/// The module with only the selected fence sites kept.
fn with_fence_subset(module: &Module, sites: &[(usize, usize, usize)], keep: &[bool]) -> Module {
    let mut out = module.clone();
    // Remove back-to-front so positions stay valid.
    for (i, &(fi, bi, pi)) in sites.iter().enumerate().rev() {
        if !keep[i] {
            out.functions[fi].blocks[bi].insts.remove(pi);
        }
    }
    out
}

fn clean_under_all(module: &Module, det: &Detector) -> bool {
    PRIMITIVES
        .iter()
        .all(|(_, e)| det.analyze_module(module, *e).is_clean())
}

/// Certifies that a repaired module's fence set is minimum.
///
/// Drop-one analysis classifies each fence as necessary (removing it
/// alone brings a finding back) or not; the module with only the
/// necessary fences is then re-analyzed. Every clean subset keeps each
/// necessary fence, provided removing fences never removes a finding,
/// so when the necessary set is itself clean it is the unique minimum.
/// When it is not, no fence is redundant on its own but several are
/// redundant together, and the report says `minimal: false`.
pub fn certify_minimal_fences(repaired: &Module, det: &Detector) -> MinimalityReport {
    let sites = fence_sites(repaired);
    let n = sites.len();
    let mut necessary = vec![false; n];
    for i in 0..n {
        let mut keep = vec![true; n];
        keep[i] = false;
        let candidate = with_fence_subset(repaired, &sites, &keep);
        if !clean_under_all(&candidate, det) {
            necessary[i] = true;
        }
    }
    let candidate = with_fence_subset(repaired, &sites, &necessary);
    MinimalityReport {
        fences: n,
        necessary: necessary.iter().filter(|&&b| b).count(),
        minimal: clean_under_all(&candidate, det),
    }
}

/// Runs the full differential sweep.
pub fn run_sweep(cfg: &FuzzConfig) -> SweepReport {
    let det = Detector::new(DetectorConfig::default());
    let ocfg = cfg.oracle_config();
    let indices: Vec<usize> = (0..cfg.count).collect();
    let evals: Vec<Option<Eval>> = lcm_core::par::map_indexed(&indices, cfg.jobs, |_, &i| {
        let det = Detector::new(DetectorConfig::default());
        evaluate(&generate(cfg.seed, i), &det, ocfg)
    });

    let mut report = SweepReport {
        programs: cfg.count,
        ..SweepReport::default()
    };
    fuzz_programs_counter().add(cfg.count as u64);

    let mut repair_candidates: Vec<(usize, Module)> = Vec::new();
    for (i, eval) in evals.iter().enumerate() {
        let eval = match eval {
            Some(e) => e,
            None => {
                report.compile_failures += 1;
                continue;
            }
        };
        if eval.oracle.arch_leak {
            report.arch_leaky += 1;
        }
        if !eval.oracle.leaks.is_empty() {
            report.spec_leaky += 1;
        }
        if eval.oracle.secure() {
            report.secure += 1;
        }
        report.overapprox += u64::from(eval.overapprox);
        report.inconclusive += u64::from(eval.inconclusive);
        let mut flagged = false;
        for (j, clean) in eval.engine_clean.iter().enumerate() {
            if !clean {
                report.engine_flagged[j] += 1;
                flagged = true;
            }
        }
        if flagged {
            if let Ok(m) = eval.program.compile() {
                repair_candidates.push((i, m));
            }
        }
        for &engine in &eval.mismatched {
            let kind = PRIMITIVES
                .iter()
                .find(|(_, e)| *e == engine)
                .map(|(k, _)| *k)
                .unwrap_or(LeakKind::Pht);
            let shrunk = shrink(&eval.program, |p| still_mismatching(p, &det, ocfg, kind));
            fuzz_mismatches_counter().inc();
            report.mismatches.push(Mismatch {
                index: i,
                seed: cfg.seed,
                engine,
                source: eval.program.source(),
                shrunk_source: shrunk.source(),
            });
        }
    }

    // Repair re-verification: every engine-flagged program must repair to
    // a module that is clean under all three engines and, independently,
    // leak-free under the oracle.
    let repair_cap = if cfg.quick { 16 } else { usize::MAX };
    let minimality_cap = if cfg.quick {
        cfg.minimality_sample.min(3)
    } else {
        cfg.minimality_sample
    };
    for (i, module) in repair_candidates.into_iter().take(repair_cap) {
        report.repairs_checked += 1;
        let (fixed, _fences) = repair_all(&module, &det);
        if clean_under_all(&fixed, &det) {
            report.repairs_clean += 1;
        } else {
            report.repair_failures.push(i);
            continue;
        }
        let re_oracle = oracle::analyze(&fixed, "victim", ocfg);
        if re_oracle.leaks.is_empty() {
            report.repairs_oracle_clean += 1;
        } else {
            report.repair_failures.push(i);
            continue;
        }
        if report.minimality_checked < minimality_cap {
            report.minimality_checked += 1;
            if certify_minimal_fences(&fixed, &det).minimal {
                report.minimality_certified += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_gadgets_do_not_mismatch() {
        let det = Detector::new(DetectorConfig::default());
        let ocfg = OracleConfig::quick();
        for i in 0..48 {
            let p = generate(9, i);
            let e = evaluate(&p, &det, ocfg).expect("compiles");
            assert!(
                e.mismatched.is_empty(),
                "program {i} mismatched {:?}:\n{}",
                e.mismatched,
                p.source()
            );
        }
    }

    #[test]
    fn degraded_engine_run_is_inconclusive_not_a_mismatch() {
        use crate::gen::{Arr, Expr, Stmt};
        use lcm_core::fault::{site, FaultPlan};
        // fz-pht: `if (x < guard) { temp &= pub_b[(pub_a[x]) * 64]; }`.
        let pht = Program {
            seed: 0,
            index: 0,
            stmts: vec![Stmt::GuardedIf {
                lhs: Expr::Param(0),
                body: vec![Stmt::Transmit {
                    idx: Expr::Load(Arr::PubA, Box::new(Expr::Param(0))),
                    scale: 64,
                }],
            }],
        };
        let timeout = Detector::new(DetectorConfig {
            faults: FaultPlan::default().arm(site::TIMEOUT, None),
            ..DetectorConfig::default()
        });
        let e = evaluate(&pht, &timeout, OracleConfig::quick()).expect("compiles");
        assert!(e.oracle.leaks(LeakKind::Pht), "{e:?}");
        assert!(e.mismatched.is_empty(), "{e:?}");
        assert_eq!((e.inconclusive, e.overapprox), (3, 0), "{e:?}");
        assert_eq!(e.engine_clean, [true; 3], "{e:?}");
    }

    #[test]
    fn sweep_aggregates_and_stays_clean() {
        let cfg = FuzzConfig {
            seed: 9,
            count: 48,
            jobs: 2,
            quick: true,
            minimality_sample: 2,
        };
        let r = run_sweep(&cfg);
        assert!(r.ok(), "{r:?}");
        assert!(r.spec_leaky > 0, "sweep should witness real leaks: {r:?}");
        assert!(r.secure > 0, "sweep should include secure programs: {r:?}");
        assert!(r.repairs_checked > 0, "{r:?}");
        assert_eq!(r.repairs_clean, r.repairs_checked, "{r:?}");
    }

    #[test]
    fn minimality_certificate_on_repaired_v1() {
        let src = "int A[16]; int B[256]; int size_A; int tmp;\
                   void victim(int y) { if (y < size_A) { tmp &= B[A[y]]; } }";
        let m = lcm_minic::compile(src).unwrap();
        let det = Detector::new(DetectorConfig::default());
        let (fixed, fences) = repair_all(&m, &det);
        assert!(fences >= 1);
        let cert = certify_minimal_fences(&fixed, &det);
        assert!(cert.minimal, "{cert:?}");
    }

    #[test]
    fn jointly_redundant_fences_are_not_minimal() {
        // The v1 victim with two lfences at the head of its guarded block:
        // either one alone stops the leak, so neither is necessary, and
        // the necessary-only set (the one STL fence repair adds) leaks
        // under Clou-pht again.
        let src = "int A[16]; int B[256]; int size_A; int tmp;\
                   void victim(int y) { if (y < size_A) { lfence(); lfence(); tmp &= B[A[y]]; } }";
        let m = lcm_minic::compile(src).unwrap();
        let det = Detector::new(DetectorConfig::default());
        let (fixed, _) = repair_all(&m, &det);
        let cert = certify_minimal_fences(&fixed, &det);
        assert_eq!(
            cert,
            MinimalityReport {
                fences: 3,
                necessary: 1,
                minimal: false,
            }
        );
    }

    #[test]
    fn spurious_fence_is_not_minimal() {
        // A clean program with a gratuitous fence: zero fences suffice.
        let src = "int A[4]; int t; void victim(int x) { lfence(); t = A[0]; }";
        let m = lcm_minic::compile(src).unwrap();
        let det = Detector::new(DetectorConfig::default());
        let cert = certify_minimal_fences(&m, &det);
        assert_eq!(cert.fences, 1);
        assert_eq!(cert.necessary, 0);
        assert!(cert.minimal, "the empty set is feasible and minimum");
    }
}
