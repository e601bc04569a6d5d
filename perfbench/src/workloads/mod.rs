//! The five workloads and the machinery they share: repeated set-up,
//! the timed operation loop, and the traced pass.

mod audit;
mod reaudit;
mod serve;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use lcm_detect::ModuleReport;
use lcm_obs::metrics::MetricsSnapshot;

use crate::layers::{Event, Rollup};
use crate::stats::{mix, Digest};

/// Set-up runs at least this many times, and `setup_s` is the median ...
pub const SETUP_REPETITIONS: usize = 5;
/// ... and keeps running until this many seconds have gone into it (at
/// most [`MAX_SETUPS`] times), so a set-up of a few milliseconds still
/// has a median that repeats from run to run.
const SETUP_SECONDS: f64 = 0.5;
const MAX_SETUPS: usize = 50;

/// Operations whose outputs make up a run's digest. Every run completes
/// at least this many, whatever `--seconds` says, so the digest of a
/// seed never depends on how fast the machine is.
pub const DIGEST_OPS: usize = 4;

/// A workload's name and entry point.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What one operation is, for the report.
    pub op: &'static str,
    /// The latency percentile reported as `latency_tail_ms`: the
    /// highest one with at least ten samples beyond it at this
    /// workload's rate on the reference host, or a lower one where that
    /// does not repeat from run to run.
    pub tail_pct: f64,
    run: fn(&RunConfig) -> Outcome,
}

impl Workload {
    /// Runs the workload.
    pub fn run(&self, cfg: &RunConfig) -> Outcome {
        (self.run)(cfg)
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "audit_clou",
        op: "verdict (one engine over one library)",
        tail_pct: 95.0,
        run: audit::run_clou,
    },
    Workload {
        name: "audit_baseline",
        op: "verdict (one baseline engine over one library)",
        tail_pct: 75.0,
        run: audit::run_baseline,
    },
    Workload {
        name: "reaudit_edit",
        op: "round (edit, recompile, cached verdicts)",
        tail_pct: 90.0,
        run: reaudit::run,
    },
    Workload {
        name: "serve_mixed",
        op: "request",
        tail_pct: 95.0,
        run: serve::run,
    },
    Workload {
        name: "fuzz_sweep",
        op: "sweep batch",
        tail_pct: 90.0,
        run: sweep::run,
    },
];

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run the traced pass instead of the untraced measurement.
    pub trace: bool,
    /// A directory this run owns for stores and sockets.
    pub scratch: PathBuf,
}

impl RunConfig {
    /// A seed for one input stream of this run: `stream` separates the
    /// streams (libraries, edits, arrivals, …) so that none depends on
    /// how many values another consumed.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        mix(self.seed, stream)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Sustained rate, operations per second.
    pub throughput: f64,
    /// Latency of every measured operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Digest of the outputs of the first operations.
    pub digest: u64,
    /// Extra report lines.
    pub notes: Vec<String>,
    /// The traced pass, when one ran.
    pub traced: Option<TracedPass>,
}

/// The traced pass: where the time went, per layer.
#[derive(Debug)]
pub struct TracedPass {
    /// Self time per lane and span name.
    pub rollup: Rollup,
    /// Operations completed while tracing.
    pub ops: u64,
    /// Registry counters accumulated while tracing.
    pub counters: MetricsSnapshot,
    /// Workload-specific layer metrics, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Traced slowdown against the untraced half, in percent.
    pub overhead_pct: f64,
}

/// Sums over operations of workload-specific layer metrics; the traced
/// pass reports their per-operation means.
pub type Tally = BTreeMap<&'static str, f64>;

/// One operation's result in a batch workload.
pub struct OpResult {
    /// Canonical rendering of the operation's outputs, folded into the
    /// digest for the first [`DIGEST_OPS`] operations.
    pub output: Vec<u8>,
    /// A failed check, if any; the operation then counts as failed.
    pub error: Option<String>,
}

/// Runs `setup` repeatedly (once when tracing) and keeps the last
/// state. Each earlier state is torn down before the next set-up starts,
/// so every set-up starts from the same conditions.
pub fn repeated_setup<S>(cfg: &RunConfig, mut setup: impl FnMut(usize) -> S) -> (S, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let state = setup(times.len());
        times.push(t.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        let enough = times.len() >= SETUP_REPETITIONS && spent >= SETUP_SECONDS;
        if cfg.trace || enough || times.len() == MAX_SETUPS {
            return (state, times);
        }
    }
}

/// Runs a batch workload's operations `op(i, tally)` for `i = 0, 1, …`
/// and measures them.
///
/// Untraced, one phase of `cfg.seconds` is measured. Traced, the first
/// half runs untraced and the second half replays the same operation
/// sequence with tracing on; the traced half yields the layer rollup and
/// the difference between the halves the tracing overhead.
pub fn run_batch(cfg: &RunConfig, mut op: impl FnMut(usize, &mut Tally) -> OpResult) -> Outcome {
    let mut out = Outcome::default();
    let mut digest = Digest::default();
    let mut phase = |seconds: f64, out: &mut Outcome, tally: &mut Tally, fold: bool| {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut latencies = Vec::new();
        let mut i = 0;
        while i < DIGEST_OPS || Instant::now() < deadline {
            let t = Instant::now();
            let r = op(i, tally);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            if fold && i < DIGEST_OPS {
                digest.update(&r.output);
            }
            out.attempted += 1;
            if let Some(e) = r.error {
                out.failed += 1;
                if out.errors.len() < 8 {
                    out.errors.push(format!("operation {i}: {e}"));
                }
            }
            i += 1;
        }
        (latencies, start.elapsed().as_secs_f64())
    };

    if !cfg.trace {
        let (latencies, elapsed) = phase(cfg.seconds, &mut out, &mut Tally::new(), true);
        out.throughput = latencies.len() as f64 / elapsed;
        out.latencies_ms = latencies;
    } else {
        let (plain, _) = phase(cfg.seconds / 2.0, &mut out, &mut Tally::new(), true);
        let mut tally = Tally::new();
        let mut trace_errors = Vec::new();
        let ((traced, elapsed), counters, rollup) = with_tracing(&mut trace_errors, || {
            phase(cfg.seconds / 2.0, &mut out, &mut tally, false)
        });
        let common = plain.len().min(traced.len());
        let sum = |v: &[f64]| v[..common].iter().sum::<f64>();
        let ops = traced.len() as f64;
        out.errors.extend(trace_errors);
        out.traced = Some(TracedPass {
            rollup,
            ops: traced.len() as u64,
            counters,
            values: tally.into_iter().map(|(k, v)| (k, v / ops)).collect(),
            overhead_pct: (sum(&traced) / sum(&plain) - 1.0) * 100.0,
        });
        out.throughput = traced.len() as f64 / elapsed;
        out.latencies_ms = traced;
    }
    out.digest = digest.0;
    out
}

/// Runs `run` with span tracing on. Returns its result, the registry
/// counters it accumulated and the rollup of its spans; a rollup that
/// fails its checks is reported in `errors`.
pub fn with_tracing<T>(
    errors: &mut Vec<String>,
    run: impl FnOnce() -> T,
) -> (T, MetricsSnapshot, Rollup) {
    let before = lcm_obs::metrics::global().snapshot();
    lcm_obs::trace::enable();
    let result = run();
    lcm_obs::trace::disable();
    let counters = lcm_obs::metrics::global().snapshot().delta_since(&before);
    let pid = u64::from(std::process::id());
    let events: Vec<Event> = lcm_obs::trace::drain_local_events()
        .into_iter()
        .map(|e| Event {
            pid,
            tid: e.tid,
            name: e.name,
            begin: e.begin,
            ts_us: e.ts_us as f64,
        })
        .collect();
    let rollup = Rollup::of(&events)
        .and_then(|rollup| rollup.check().map(|()| rollup))
        .unwrap_or_else(|e| {
            errors.push(format!("trace rollup: {e}"));
            Rollup::default()
        });
    (result, counters, rollup)
}

/// Remembers the output digest of every input of a pool on its first
/// visit and checks later visits against it: nothing is cached between
/// operations, so the same input must give the same outputs.
pub struct Repeats(Vec<Option<u64>>);

impl Repeats {
    /// For a pool of `inputs` inputs.
    pub fn new(inputs: usize) -> Repeats {
        Repeats(vec![None; inputs])
    }

    /// The pool size.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Records or checks the digest of input `slot`.
    pub fn check(&mut self, slot: usize, digest: u64) -> Option<String> {
        match self.0[slot].replace(digest) {
            Some(first) if first != digest => {
                Some("outputs differ from the first run of the same input".into())
            }
            _ => None,
        }
    }
}

/// Digest of a report's verdicts: every function's name, graph size and
/// completion, and every finding's fields, but not timing or cache
/// disposition. Reports can carry a hundred thousand findings, so this
/// hashes raw fields instead of rendering JSON.
pub fn verdict_digest(report: &ModuleReport) -> u64 {
    let mut d = Digest::default();
    let opt = |v: Option<usize>| v.map_or(u64::MAX, |v| v as u64);
    for f in &report.functions {
        d.update(f.name.as_bytes());
        d.update(&[u8::from(f.status.is_completed())]);
        d.update(&(f.saeg_size as u64).to_le_bytes());
        for t in &f.transmitters {
            for v in [
                t.transmitter.0 as u64,
                u64::from(t.transmitter_inst.0),
                t.class as u64,
                t.primitive as u64,
                u64::from(t.transient_transmitter),
                opt(t.access.map(|e| e.0)),
                u64::from(t.access_transient),
                opt(t.index.map(|e| e.0)),
                t.branch.map_or(u64::MAX, |b| u64::from(b.0)),
                opt(t.bypassed_store.map(|e| e.0)),
                u64::from(t.interference),
            ] {
                d.update(&v.to_le_bytes());
            }
        }
    }
    d.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.05,
            trace: false,
            scratch: PathBuf::from(".perfbench_tmp").join(format!("test-{}", std::process::id())),
        }
    }

    /// Every workload at its smallest size: the checks pass, the
    /// outputs repeat on one seed and differ across seeds. Run with
    /// `--release`; the debug build takes minutes.
    #[test]
    fn every_workload_checks_out_and_repeats_per_seed() {
        for w in &WORKLOADS {
            let a = w.run(&tiny(1));
            let b = w.run(&tiny(1));
            let c = w.run(&tiny(2));
            for out in [&a, &b, &c] {
                assert!(out.errors.is_empty(), "{}: {:?}", w.name, out.errors);
                assert_eq!(out.failed, 0, "{}", w.name);
                assert!(out.attempted >= DIGEST_OPS as u64, "{}", w.name);
                assert!(out.setup_s.len() >= SETUP_REPETITIONS, "{}", w.name);
                assert!(
                    out.throughput > 0.0 && !out.latencies_ms.is_empty(),
                    "{}",
                    w.name
                );
            }
            assert_eq!(a.digest, b.digest, "{}: one seed, one digest", w.name);
            assert_ne!(
                a.digest, c.digest,
                "{}: seeds must change the inputs",
                w.name
            );
        }
        let _ = std::fs::remove_dir_all(tiny(0).scratch);
    }

    #[test]
    fn stream_seeds_differ_per_stream_and_seed() {
        let cfg = tiny(1);
        assert_ne!(cfg.stream_seed(0), cfg.stream_seed(1));
        assert_ne!(cfg.stream_seed(0), tiny(2).stream_seed(0));
        assert_eq!(cfg.stream_seed(7), mix(1, 7));
    }
}
