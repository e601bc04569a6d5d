//! Regenerates the Table 2 analogue: per workload × tool, serial runtime
//! and transmitter counts.
//!
//! Usage: `cargo run --release -p lcm-bench --bin table2 -- [--quick]
//! [--repair] [--jobs N] [--json PATH] [--timeout-ms N]
//! [--cache-dir DIR] [--no-cache] [--trace-out PATH] [--fleet N]
//! [--metrics-out PATH] [--events-out PATH]`
//!
//! `--quick` skips the synthetic-library workloads; `--repair` additionally
//! runs fence-insertion repair on every vulnerable litmus program and
//! reports fence counts and re-analysis results (the §6.1 claim: all
//! initially-detected leakage is mitigated). `--jobs N` sets the worker
//! thread count (0/omitted = all cores, 1 = serial; the table is
//! identical either way) and `--json PATH` writes the machine-readable
//! run record. `--timeout-ms` sets a per-function analysis budget;
//! functions that trip it are reported as degraded
//! (their counts become a lower bound) and the exit status is 1.
//! `--cache-dir DIR` routes every analysis through the content-addressed
//! result store at `DIR/results.lcmstore`: a warm re-run on an unchanged
//! corpus performs zero engine analyses and serves every row from the
//! cache. `--no-cache` ignores the directory and runs cold.

use std::time::Instant;

use lcm_bench::{cli, findings_digest, json, render_table2, table2_rows};
use lcm_corpus::all_litmus;
use lcm_detect::{repair, Detector, DetectorConfig, EngineKind};

fn main() {
    // Fleet workers re-execute this binary (default `worker_cmd` is the
    // current executable): divert to the worker loop before any parsing.
    lcm_fleet::maybe_run_worker();
    let args = cli::parse(std::env::args().skip(1));
    args.reject_unknown(&["--quick", "--repair"]);
    let quick = args.has("--quick");
    let do_repair = args.has("--repair");

    println!("Table 2 analogue — leakage detection across workloads and tools");
    println!("(paper baseline: Intel Xeon Gold 6226R; shapes, not absolute times, transfer)");
    println!(
        "(jobs: {} => {} worker threads)\n",
        args.jobs,
        lcm_core::par::effective_jobs(args.jobs)
    );
    let fleet = (args.fleet > 0).then(|| {
        let mut cfg = lcm_fleet::FleetConfig::new(args.fleet);
        cfg.events_out = args.events_out.clone().map(std::path::PathBuf::from);
        lcm_fleet::Fleet::new(cfg)
    });
    if let Some(fleet) = &fleet {
        println!("(fleet: {} worker processes)\n", fleet.workers());
    }
    let store = args.open_store();
    args.start_tracing();
    let t0 = Instant::now();
    let rows = table2_rows(
        quick,
        args.jobs,
        args.budgets(),
        store.as_ref(),
        fleet.as_ref(),
    );
    let wall = t0.elapsed();
    if let Some(fleet) = &fleet {
        fleet.shutdown();
    }
    if let Some(path) = &args.findings_out {
        std::fs::write(path, findings_digest(&rows))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("findings digest written to {path}");
    }
    println!("{}", render_table2(&rows));
    let mut phases = lcm_detect::PhaseTimings::default();
    for r in &rows {
        phases.merge(&r.timings);
    }
    phases.fill_other(wall);
    let mut summary = json::RunSummary {
        wall,
        phases: Some(phases),
        degraded_noun: "findings",
        ..json::RunSummary::default()
    };
    if let Some(store) = &store {
        let mut cache = lcm_store::CacheCounts::default();
        for r in &rows {
            cache.merge(r.cache);
        }
        let s = store.stats();
        summary.cache = Some(cache);
        summary.store = Some((store.len(), s.loaded, s.recovered_drop));
    }
    for r in &rows {
        for (func, reason) in &r.degraded {
            summary.degraded.push((
                format!("{} [{}] {}", r.workload, r.tool.name(), func),
                reason.clone(),
            ));
        }
    }
    println!("{}", summary.render());

    if let Some(path) = &args.json {
        std::fs::write(path, json::table2_json(&rows, args.jobs, wall))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("json written to {path}");
    }

    if do_repair {
        println!("\nFence-insertion repair (§6.1)");
        println!(
            "{:<12} {:>8} {:>9} {:>12}",
            "bench", "engine", "fences", "re-analysis"
        );
        println!("{}", "-".repeat(46));
        let det = Detector::new(DetectorConfig {
            jobs: args.jobs,
            ..DetectorConfig::default()
        });
        for (suite, benches) in all_litmus() {
            let engine = if suite == "litmus-stl" {
                EngineKind::Stl
            } else {
                EngineKind::Pht
            };
            for b in benches {
                let m = b.module();
                let report = det.analyze_module(&m, engine);
                if report.is_clean() {
                    continue;
                }
                let (fixed, fences) = repair(&m, &det, engine);
                let re = det.analyze_module(&fixed, engine);
                println!(
                    "{:<12} {:>8} {:>9} {:>12}",
                    b.name,
                    if engine == EngineKind::Stl {
                        "stl"
                    } else {
                        "pht"
                    },
                    fences,
                    if re.is_clean() {
                        "clean"
                    } else {
                        "STILL LEAKS"
                    }
                );
            }
        }
    }

    args.finish_tracing();
    // After shutdown(), so the dump includes worker deltas drained at
    // fleet exit.
    args.finish_metrics();
    let n_degraded: usize = rows.iter().map(|r| r.degraded.len()).sum();
    if n_degraded > 0 {
        eprintln!("error: {n_degraded} analyses degraded; see summary above");
        std::process::exit(1);
    }
}
