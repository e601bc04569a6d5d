//! Regenerates the Fig. 8 analogue: serial CPU runtime vs S-AEG function
//! size for both Clou engines over the synthetic library, printed as CSV
//! plus a log-log summary by size bucket.
//!
//! Usage: `cargo run --release -p lcm-bench --bin fig8 -- [--big]
//! [--jobs N] [--json PATH] [--timeout-ms N]
//! [--cache-dir DIR] [--no-cache] [--trace-out PATH]
//! [--metrics-out PATH]`
//!
//! `--timeout-ms` sets a per-function analysis budget; points whose analysis degrades are listed at the end and the exit
//! status is 1. `--cache-dir DIR` serves unchanged functions from the
//! content-addressed result store (both engines must hit for a point to
//! skip its S-AEG build); `--no-cache` runs cold.

use std::time::Instant;

use lcm_bench::{cli, fig8_series, json};
use lcm_corpus::synth::SynthConfig;

fn main() {
    let args = cli::parse(std::env::args().skip(1));
    args.reject_unknown(&["--big"]);
    let big = args.has("--big");
    let cfg = if big {
        SynthConfig::openssl_scale()
    } else {
        SynthConfig::libsodium_scale()
    };
    println!("Fig. 8 analogue — runtime vs S-AEG node count (config: {cfg:?})");
    println!(
        "(jobs: {} => {} worker threads)\n",
        args.jobs,
        lcm_core::par::effective_jobs(args.jobs)
    );
    println!("function,size,pht_us,stl_us");
    let store = args.open_store();
    args.start_tracing();
    let t0 = Instant::now();
    let points = fig8_series(cfg, args.jobs, args.budgets(), store.as_ref());
    let wall = t0.elapsed();
    for p in &points {
        println!(
            "{},{},{},{}",
            p.function,
            p.size,
            p.pht_time.as_micros(),
            p.stl_time.as_micros()
        );
    }

    // Bucketed geometric-mean summary (the scatter's trend line).
    println!("\nsize-bucket summary (geometric mean runtime):");
    println!(
        "{:>16} {:>8} {:>12} {:>12}",
        "bucket", "count", "pht", "stl"
    );
    let mut lo = 1usize;
    while lo <= points.last().map_or(0, |p| p.size) {
        let hi = lo * 4;
        let in_bucket: Vec<_> = points
            .iter()
            .filter(|p| p.size >= lo && p.size < hi)
            .collect();
        if !in_bucket.is_empty() {
            let gm = |f: &dyn Fn(&lcm_bench::Fig8Point) -> f64| -> f64 {
                let s: f64 = in_bucket.iter().map(|p| f(p).max(1.0).ln()).sum();
                (s / in_bucket.len() as f64).exp()
            };
            let pht = gm(&|p| p.pht_time.as_micros() as f64);
            let stl = gm(&|p| p.stl_time.as_micros() as f64);
            println!(
                "{:>7}..{:<7} {:>8} {:>10.0}us {:>10.0}us",
                lo,
                hi,
                in_bucket.len(),
                pht,
                stl
            );
        }
        lo = hi;
    }
    let mut summary = json::RunSummary {
        wall,
        degraded_noun: "points",
        ..json::RunSummary::default()
    };
    if store.is_some() {
        let mut cache = lcm_store::CacheCounts::default();
        for p in &points {
            match p.cache {
                lcm_detect::CacheStatus::Hit => cache.hits += 1,
                lcm_detect::CacheStatus::Miss => cache.misses += 1,
                lcm_detect::CacheStatus::Bypass => cache.bypassed += 1,
            }
        }
        summary.cache = Some(cache);
    }
    for p in &points {
        if let Some(reason) = &p.degraded {
            summary.degraded.push((p.function.clone(), reason.clone()));
        }
    }
    println!("\n{}", summary.render());

    if let Some(path) = &args.json {
        std::fs::write(path, json::fig8_json(&points, args.jobs, wall))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("json written to {path}");
    }

    args.finish_tracing();
    args.finish_metrics();
    let degraded = points.iter().filter(|p| p.degraded.is_some()).count();
    if degraded > 0 {
        eprintln!("error: {degraded} analyses degraded");
        std::process::exit(1);
    }
}
