//! `fuzz` — enumeration-bound and differential-sweep benchmark
//! (EXPERIMENTS.md "Differential fuzzing", `BENCH_fuzz.json`).
//!
//! Two measurements:
//!
//! 1. **Enumeration bound at fixed wall clock.** A ladder of litmus
//!    programs of growing candidate-space size is walked under four
//!    enumeration strategies — the pre-PR `materialize` baseline
//!    (`candidate_executions()` into a `Vec`, then filter), `stream`
//!    (odometer-driven `count_consistent`, no materialization),
//!    `symmetric` (canonical-orbit counting), and `parallel`
//!    (`count_consistent_par` over contiguous index ranges). Each
//!    strategy climbs until a rung exceeds the per-rung budget; its
//!    *bound* is the largest candidate count it finished in budget.
//! 2. **Differential sweep.** `lcm_fuzz::run_sweep` over `--count`
//!    seed-keyed programs; the report's totals are recorded so CI can
//!    compare mismatch/repair/minimality figures across revisions.
//!
//! ```text
//! fuzz [--jobs N] [--json PATH] [--quick] [--count N] [--seed N]
//!      [--budget-ms N]
//! ```

use std::time::{Duration, Instant};

use lcm_bench::cli;
use lcm_core::cat::presets;
use lcm_core::jsonw::Json;
use lcm_core::par::effective_jobs;
use lcm_litmus::enumerate::Litmus;

/// One ladder rung: a named litmus program.
struct Rung {
    name: String,
    litmus: Litmus,
    candidates: u128,
}

fn rung(name: String, threads: Vec<Vec<lcm_litmus::enumerate::Op>>) -> Rung {
    let litmus = Litmus::new(threads);
    let candidates = litmus.candidate_count();
    Rung {
        name,
        litmus,
        candidates,
    }
}

/// Three ladder families, each a list of rungs of growing candidate
/// space, walked independently (a strategy that times out on one
/// family still gets to climb the others):
///
/// * `sb-n` — generalized store buffering, thread `i` is
///   `W x_i; R x_{i+1 mod n}`: candidate space `2^n`. Past `n = 5`
///   the cyclic renaming group is beyond the automorphism search cap,
///   so this family measures raw streaming throughput.
/// * `chain-n` — two writes per location (`co` permutations multiply
///   in, space ~`6^n`) with an in-cap cyclic group: symmetry pays.
/// * `clique-n` — `n` *identical* threads over two shared locations:
///   the full thread-symmetric group `S_n`, the strongest pruning.
fn ladders(quick: bool) -> Vec<(&'static str, Vec<Rung>)> {
    use lcm_litmus::enumerate::Op;
    let sb_max = if quick { 12 } else { 15 };
    let sb = (2..=sb_max)
        .map(|n| {
            rung(
                format!("sb-{n}"),
                (0..n)
                    .map(|i| vec![Op::w(&format!("x{i}")), Op::r(&format!("x{}", (i + 1) % n))])
                    .collect(),
            )
        })
        .collect();
    let chain_max = if quick { 4 } else { 5 };
    let chain = (2..=chain_max)
        .map(|n| {
            rung(
                format!("chain-{n}"),
                (0..n)
                    .map(|i| {
                        vec![
                            Op::w(&format!("x{i}")),
                            Op::w(&format!("x{}", (i + 1) % n)),
                            Op::r(&format!("x{}", (i + 2) % n)),
                        ]
                    })
                    .collect(),
            )
        })
        .collect();
    let clique_max = if quick { 3 } else { 4 };
    let clique = (2..=clique_max)
        .map(|n| {
            rung(
                format!("clique-{n}"),
                (0..n)
                    .map(|_| vec![Op::w("x"), Op::w("y"), Op::r("y")])
                    .collect(),
            )
        })
        .collect();
    vec![("sb", sb), ("chain", chain), ("clique", clique)]
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Materialize,
    Stream,
    Symmetric,
    Parallel,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Materialize => "materialize",
            Mode::Stream => "stream",
            Mode::Symmetric => "symmetric",
            Mode::Parallel => "parallel",
        }
    }
}

/// Runs one rung under one strategy; returns (consistent count, secs).
fn run_rung(rung: &Rung, mode: Mode, jobs: usize) -> (u64, f64) {
    let start = Instant::now();
    let n = match mode {
        Mode::Materialize => {
            // The pre-streaming baseline: build every candidate into a
            // Vec, then filter.
            let all = rung.litmus.candidate_executions();
            all.iter()
                .filter(|e| presets::sc().check(e).is_ok())
                .count() as u64
        }
        Mode::Stream => rung.litmus.count_consistent(presets::sc()),
        Mode::Symmetric => rung.litmus.count_consistent_symmetric(presets::sc()).total,
        Mode::Parallel => rung.litmus.count_consistent_par(presets::sc(), jobs),
    };
    (n, start.elapsed().as_secs_f64())
}

fn main() {
    let args = cli::parse(std::env::args().skip(1));
    let quick = args.has("--quick");
    let jobs = effective_jobs(args.jobs);
    let mut seed = 9u64;
    let mut count = if quick { 128 } else { 512 };
    let mut budget_ms = if quick { 250 } else { 2000 };
    let mut rest = args.rest.clone();
    rest.retain(|a| a != "--quick");
    let i = 0;
    while i < rest.len() {
        let take = |rest: &mut Vec<String>, i: usize, flag: &str| -> u64 {
            if i + 1 >= rest.len() {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            }
            let v = rest.remove(i + 1);
            rest.remove(i);
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: {flag} expects a number, got {v:?}");
                std::process::exit(2);
            })
        };
        match rest[i].as_str() {
            "--seed" => seed = take(&mut rest, i, "--seed"),
            "--count" => count = take(&mut rest, i, "--count") as usize,
            "--budget-ms" => budget_ms = take(&mut rest, i, "--budget-ms"),
            other => {
                eprintln!("error: unknown fuzz bench argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let budget = Duration::from_millis(budget_ms);
    let wall = Instant::now();

    // ---- Part 1: enumeration bound --------------------------------
    println!("enumeration bound (per-rung budget {budget_ms} ms, jobs {jobs}):");
    println!(
        "{:<12} {:>16} {:>12} {:>12} {:>12} {:>12}",
        "rung", "candidates", "materialize", "stream", "symmetric", "parallel"
    );
    let modes = [
        Mode::Materialize,
        Mode::Stream,
        Mode::Symmetric,
        Mode::Parallel,
    ];
    let mut bound = [0u128; 4];
    let mut mode_rows: Vec<Vec<Json>> = vec![Vec::new(); 4];
    for (_family, ladder) in ladders(quick) {
        let mut alive = [true; 4];
        for rung in &ladder {
            let mut cells: Vec<String> = Vec::new();
            let mut counts: Vec<Option<u64>> = vec![None; 4];
            for (mi, mode) in modes.iter().enumerate() {
                if !alive[mi] {
                    cells.push("--".into());
                    continue;
                }
                let (n, secs) = run_rung(rung, *mode, jobs);
                counts[mi] = Some(n);
                mode_rows[mi].push(Json::Obj(vec![
                    ("rung".into(), Json::Str(rung.name.clone())),
                    ("candidates".into(), Json::Num(rung.candidates as f64)),
                    ("consistent".into(), Json::Num(n as f64)),
                    ("secs".into(), Json::Num(secs)),
                ]));
                cells.push(format!("{secs:.3}s"));
                if secs <= budget.as_secs_f64() {
                    bound[mi] = bound[mi].max(rung.candidates);
                } else {
                    alive[mi] = false;
                }
            }
            // All live strategies must agree on the consistent count —
            // the bench doubles as a cross-strategy differential check.
            let agreed: Vec<u64> = counts.iter().flatten().copied().collect();
            assert!(
                agreed.windows(2).all(|w| w[0] == w[1]),
                "{}: strategies disagree: {agreed:?}",
                rung.name
            );
            println!(
                "{:<12} {:>16} {:>12} {:>12} {:>12} {:>12}",
                rung.name, rung.candidates, cells[0], cells[1], cells[2], cells[3]
            );
            if !alive.iter().any(|&a| a) {
                break;
            }
        }
    }
    println!("\nbound within budget (candidate executions):");
    for (mi, mode) in modes.iter().enumerate() {
        println!("  {:<12} {}", mode.label(), bound[mi]);
    }

    // ---- Part 2: differential sweep -------------------------------
    let cfg = lcm_fuzz::FuzzConfig {
        seed,
        count,
        jobs: args.jobs,
        quick,
        ..Default::default()
    };
    let sweep_start = Instant::now();
    let report = lcm_fuzz::run_sweep(&cfg);
    let sweep_secs = sweep_start.elapsed().as_secs_f64();
    println!(
        "\nsweep: {} programs in {sweep_secs:.2}s — {} spec-leaky, {} secure, {} mismatches, \
         {} inconclusive, {}/{} repairs clean, {}/{} minimality certified",
        report.programs,
        report.spec_leaky,
        report.secure,
        report.mismatches.len(),
        report.inconclusive,
        report.repairs_clean,
        report.repairs_checked,
        report.minimality_certified,
        report.minimality_checked,
    );
    assert!(
        report.ok(),
        "differential sweep failed: {} mismatches, {} repair failures, {} compile failures",
        report.mismatches.len(),
        report.repair_failures.len(),
        report.compile_failures
    );

    if let Some(path) = &args.json {
        let num = |n: usize| Json::Num(n as f64);
        let enumeration = Json::Obj(
            modes
                .iter()
                .enumerate()
                .map(|(mi, mode)| {
                    (
                        mode.label().to_string(),
                        Json::Obj(vec![
                            ("bound".into(), Json::Num(bound[mi] as f64)),
                            ("rungs".into(), Json::Arr(mode_rows[mi].clone())),
                        ]),
                    )
                })
                .collect(),
        );
        let sweep = Json::Obj(vec![
            ("seed".into(), Json::Num(seed as f64)),
            ("programs".into(), num(report.programs)),
            ("secs".into(), Json::Num(sweep_secs)),
            ("arch_leaky".into(), num(report.arch_leaky)),
            ("spec_leaky".into(), num(report.spec_leaky)),
            ("secure".into(), num(report.secure)),
            (
                "engine_flagged".into(),
                Json::Arr(report.engine_flagged.iter().map(|&n| num(n)).collect()),
            ),
            ("overapprox".into(), Json::Num(report.overapprox as f64)),
            ("inconclusive".into(), Json::Num(report.inconclusive as f64)),
            ("mismatches".into(), num(report.mismatches.len())),
            ("repairs_checked".into(), num(report.repairs_checked)),
            ("repairs_clean".into(), num(report.repairs_clean)),
            (
                "repairs_oracle_clean".into(),
                num(report.repairs_oracle_clean),
            ),
            ("minimality_checked".into(), num(report.minimality_checked)),
            (
                "minimality_certified".into(),
                num(report.minimality_certified),
            ),
        ]);
        let doc = Json::Obj(vec![
            ("bench".into(), Json::Str("fuzz".into())),
            ("nproc".into(), Json::Num(effective_jobs(0) as f64)),
            ("jobs".into(), Json::Num(jobs as f64)),
            ("budget_ms".into(), Json::Num(budget_ms as f64)),
            (
                "wall_clock_secs".into(),
                Json::Num(wall.elapsed().as_secs_f64()),
            ),
            ("enumeration".into(), enumeration),
            ("sweep".into(), sweep),
        ]);
        std::fs::write(path, doc.render() + "\n").unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("json written to {path}");
    }
}
