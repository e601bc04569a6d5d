//! `benchmark` — the seeded end-to-end benchmark of this workspace.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//! benchmark --layers TRACE.json
//! ```
//!
//! One run sets up workload `W` from seed `S` (set-up is repeated and
//! its median reported), measures it for `N` seconds through the public
//! entry points users call, checks every output, and prints a report
//! ending in one JSON line: `correct`, `attempted`, `failed` and the
//! metrics. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the same code half untraced and half with span tracing on and
//! reports the per-layer metrics, rolled up from the traced half's
//! spans. `--layers` rolls up a Chrome trace file, such as one from
//! `table2 --trace-out`, the same way.
//!
//! The workloads, metrics and the rule for comparing two commits are in
//! `BENCHMARK.md` next to this package. A run that fails a check still
//! prints its report, with `"correct": false`, and exits with status 1;
//! bad arguments exit with status 2.

mod layers;
mod manifest;
mod openloop;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lcm_core::jsonw::Json;
use lcm_obs::metrics::{names, MetricValue};

use crate::workloads::{Outcome, RunConfig, TracedPass, Workload, WORKLOADS};

/// Worker threads of every workload: the analysis `jobs`, the daemon's
/// workers, and the sweep's fan-out.
pub const JOBS: usize = 2;

/// The seed a run uses unless told otherwise; its digests are pinned.
const DEFAULT_SEED: u64 = 1;

/// Output digests of the default seed, per workload. A run on that seed
/// whose digest differs has changed what the program computes.
const PINNED: [(&str, u64); 5] = [
    ("audit_clou", 0x1224_6a1a_42ed_05d7),
    ("audit_baseline", 0xe812_347b_a0e0_b56c),
    ("reaudit_edit", 0x6d4a_975e_4b4b_97f8),
    ("serve_mixed", 0x4d68_0571_601a_91fc),
    ("fuzz_sweep", 0x066e_315b_f5e2_5f7e),
];

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`. Times are self time
/// per operation, summed over threads.
const PER_LAYER: [(&str, &str); 21] = [
    ("minic.compile_ms", "ms/op"),
    ("acfg.build_ms", "ms/op"),
    ("saeg.build_ms", "ms/op"),
    ("detect.engine_ms", "ms/op"),
    ("detect.fn_max_ms", "ms"),
    ("sat.queries_avoided", "count/op"),
    ("sat.prefilter_hits", "count/op"),
    ("haunted.enumerate_ms", "ms/op"),
    ("haunted.execute_ms", "ms/op"),
    ("haunted.witness_ms", "ms/op"),
    ("haunted.paths", "count/op"),
    ("haunted.exhausted_ratio", "ratio"),
    ("store.lookup_ms", "ms/op"),
    ("store.hit_ratio", "ratio"),
    ("serve.request_ms", "ms/op"),
    ("serve.queue_wait_ms", "ms"),
    ("fuzz.self_ms", "ms/op"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
];

/// Per-layer time metrics and the span whose self time each reports.
const SPAN_OF: [(&str, &str); 10] = [
    ("minic.compile_ms", "bench.compile"),
    ("acfg.build_ms", "acfg_build"),
    ("saeg.build_ms", "saeg_build"),
    ("detect.engine_ms", "engine_run"),
    ("haunted.enumerate_ms", "bh_enumerate"),
    ("haunted.execute_ms", "bh_execute"),
    ("haunted.witness_ms", "bh_witness"),
    ("store.lookup_ms", "cache_lookup"),
    ("serve.request_ms", "serve_request"),
    ("fuzz.self_ms", "bench.run_sweep"),
];

/// Per-layer counts read from the metrics registry, per operation.
const COUNTER_OF: [(&str, &str); 2] = [
    ("sat.queries_avoided", names::SAT_QUERIES_AVOIDED),
    ("sat.prefilter_hits", names::SAT_PREFILTER_HITS),
];

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload {{{}}} [--seed S] [--seconds N] [--trace 0|1]\n       benchmark --layers TRACE.json",
        names.join("|")
    )
}

enum Command {
    Run(&'static Workload, RunConfig),
    Layers(PathBuf),
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds expects a positive number, got {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v:?}")),
                }
            }
            "--layers" => return Ok(Command::Layers(PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(
        workload,
        RunConfig {
            seed,
            seconds,
            trace,
            // Relative, so the daemon's socket path stays short.
            scratch: PathBuf::from(".perfbench_tmp").join(std::process::id().to_string()),
        },
    ))
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(w: &Workload, out: &Outcome) -> Vec<f64> {
    vec![
        stats::median(&out.setup_s),
        out.throughput,
        stats::median(&out.latencies_ms),
        stats::percentile(&out.latencies_ms, w.tail_pct),
        manifest::peak_rss_mb().unwrap_or(f64::NAN),
    ]
}

/// The per-layer metrics of a traced run.
fn per_layer(pass: &TracedPass) -> Vec<f64> {
    let ops = pass.ops.max(1) as f64;
    let counter = |name: &str| {
        pass.counters
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0.0, |(_, _, v)| match v {
                MetricValue::Counter(c) => *c as f64,
                MetricValue::Histogram(h) => h.sum_secs * 1e3 / h.count.max(1) as f64,
                MetricValue::Gauge(_) => 0.0,
            })
    };
    let hits = counter(names::CACHE_HITS);
    let lookups = hits + counter(names::CACHE_MISSES);
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            if let Some((_, span)) = SPAN_OF.iter().find(|(n, _)| n == name) {
                return pass.rollup.self_us(span) / 1e3 / ops;
            }
            if let Some((_, metric)) = COUNTER_OF.iter().find(|(n, _)| n == name) {
                return counter(metric) / ops;
            }
            match *name {
                "store.hit_ratio" if lookups > 0.0 => hits / lookups,
                "serve.queue_wait_ms" => counter(names::SERVE_QUEUE_WAIT),
                "trace.overhead_pct" => pass.overhead_pct,
                "trace.ops" => pass.ops as f64,
                _ => pass.values.get(name).copied().unwrap_or(0.0),
            }
        })
        .collect()
}

fn run(w: &'static Workload, cfg: &RunConfig) -> ExitCode {
    let _ = std::fs::create_dir_all(&cfg.scratch);
    let mut out = w.run(cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");

    println!("manifest {}", manifest::to_json(w.name, cfg, &out.setup_s));
    println!(
        "workload {}: {} operations of one {} ({} failed)",
        w.name, out.attempted, w.op, out.failed
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let pinned = PINNED.iter().find(|(n, _)| *n == w.name).map(|p| p.1);
    if let Some(d) = pinned.filter(|&d| cfg.seed == DEFAULT_SEED && d != out.digest) {
        out.errors.push(format!(
            "output digest {:#018x} differs from the pinned {d:#018x}",
            out.digest
        ));
    }
    println!("digest {:#018x}", out.digest);

    let (table, values): (&[(&str, &str)], Vec<f64>) = match &out.traced {
        Some(pass) => {
            for (name, us) in pass.rollup.by_name() {
                println!("  self time {name:<24} {:>12.3} ms", us / 1e3);
            }
            (&PER_LAYER, per_layer(pass))
        }
        None => (&END_TO_END, end_to_end(w, &out)),
    };
    let samples = out.latencies_ms.len();
    let mut metrics = Vec::new();
    for (&(name, unit), &value) in table.iter().zip(&values) {
        let detail = match name {
            "setup_s" => format!("(median of {})", out.setup_s.len()),
            "latency_p50_ms" => format!("(n={samples})"),
            "latency_tail_ms" => format!("(p{}, n={samples})", w.tail_pct),
            _ => String::new(),
        };
        println!("metric {name} = {value} {unit} {detail}");
        if !value.is_finite() {
            out.errors.push(format!("metric {name} is not a number"));
        }
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                (
                    "value".into(),
                    Json::Num(if value.is_finite() { value } else { 0.0 }),
                ),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    for e in &out.errors {
        println!("check failed: {e}");
    }
    let correct = out.errors.is_empty();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--layers`: the self-time table of one Chrome trace file.
fn layers_of(path: &Path) -> ExitCode {
    let rollup = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|doc| layers::parse_chrome(&doc))
        .and_then(|events| layers::Rollup::of(&events));
    let checked = rollup.and_then(|r| {
        for (name, us) in r.by_name() {
            println!("{name:<24} {:>12.3} ms", us / 1e3);
        }
        r.check()
    });
    match checked {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(w, cfg)) => run(w, &cfg),
        Ok(Command::Layers(path)) => layers_of(&path),
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &Json, key: &str) -> Vec<(String, Option<String>)> {
        v.get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary runs and prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let doc = include_str!("../../BENCHMARK.json");
        let v = lcm_core::jsonw::parse(doc).expect("BENCHMARK.json is JSON");
        let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_string()));
        let table = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), table(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), table(&PER_LAYER));
        for (metric, _) in SPAN_OF.iter().chain(&COUNTER_OF) {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        match parse(&[
            "--workload",
            "fuzz_sweep",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]) {
            Ok(Command::Run(w, cfg)) => {
                assert_eq!(w.name, "fuzz_sweep");
                assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (9, 2.0, true));
            }
            _ => panic!("valid arguments rejected"),
        }
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "fuzz_sweep", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "fuzz_sweep", "--seconds", "-1"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
    }
}
