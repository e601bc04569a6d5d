//! `serve_mixed`: the daemon under open-loop load.
//!
//! Set-up spawns an in-process daemon with a fresh store and warms a
//! hot set of programs twice: the first pass analyzes and stores them,
//! the second is all store hits, which the daemon's reply memo keeps.
//! The timed phase drives one pipelined connection with Poisson
//! arrivals: 90 % of requests repeat a hot program, 10 % are programs
//! the daemon has never seen (compile, engine run and store insert).
//! A steady phase at a fixed rate gives the latency metrics; a bisection
//! over fixed rate rungs then finds the highest rate that meets the
//! latency limit without a growing backlog.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use lcm_core::jsonw::Json;
use lcm_detect::{CacheStatus, Detector, DetectorConfig, EngineKind};
use lcm_serve::{Client, ServeConfig, Server, ServerHandle};

use super::{repeated_setup, with_tracing, Outcome, RunConfig, TracedPass};
use crate::openloop::{frame_body, Check, Conn, Phase, Planned, SplitMix};
use crate::stats::{self, Digest};
use crate::JOBS;

const ENGINES: [EngineKind; 3] = [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf];

/// Programs in the hot set.
const HOT_PROGRAMS: usize = 256;
/// Share of requests that carry a never-seen program.
const FRESH_SHARE: f64 = 0.10;
/// Fresh replies of the steady phase re-checked in-process afterwards.
const CHECKED_FRESH: usize = 64;

/// The steady phase's fixed rate, about a quarter of the highest rate
/// that meets the limit on the reference host (2 cores).
const STEADY_RPS: f64 = 11000.0;
/// Share of the measured time given to the steady phase; the rest goes
/// to the rate search.
const STEADY_SHARE: f64 = 0.35;

/// The latency limit: this percentile of due-to-reply latency ... (p95,
/// not p99: on a shared two-core host a single scheduling stall of a
/// few milliseconds pushes a probe's p99 past any limit, at any rate.)
const LIMIT_PCT: f64 = 95.0;
/// ... within this many milliseconds.
const LIMIT_MS: f64 = 5.0;
/// Rung `k` offers `RUNG_BASE_RPS · 2^(k / RUNGS_PER_OCTAVE)` requests
/// per second, for `k` up to `TOP_RUNG`.
const RUNG_BASE_RPS: f64 = 1000.0;
const RUNGS_PER_OCTAVE: f64 = 32.0;
const TOP_RUNG: i64 = 192;
/// Probes of the rate search.
const PROBES: usize = 10;

fn rung_rps(k: i64) -> f64 {
    RUNG_BASE_RPS * 2f64.powf(k as f64 / RUNGS_PER_OCTAVE)
}

/// Program `index` of the fuzz generator's stream `seed`, with its
/// function renamed so that no two programs of a run share a store
/// entry or a memo key.
fn program(seed: u64, index: usize, name: &str) -> String {
    lcm_fuzz::generate(seed, index)
        .source()
        .replacen("void victim(", &format!("void {name}("), 1)
}

/// A fresh request kept for the in-process re-check.
struct Kept {
    index: usize,
    id: u64,
    source: String,
    engine: EngineKind,
}

struct Daemon {
    handle: Option<ServerHandle>,
    conn: Option<Conn>,
    socket: PathBuf,
    dir: PathBuf,
    next_id: u64,
    /// Frame body and expected reply digest of each hot program.
    hot: Vec<(Arc<str>, u64)>,
    fresh_seed: u64,
    next_fresh: usize,
    errors: Vec<String>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.conn = None;
        if let Some(handle) = self.handle.take() {
            let _ = Client::new(&self.socket).shutdown();
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Daemon {
    fn start(cfg: &RunConfig, rep: usize) -> Daemon {
        let dir = cfg.scratch.join(format!("serve-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        let socket = dir.join("d.sock");
        let mut config = ServeConfig::new(&socket);
        config.workers = JOBS;
        config.cache_dir = Some(dir.join("cache"));
        config.detector.jobs = JOBS;
        let handle = Server::spawn(config).expect("daemon binds its socket");
        let conn = Conn::connect(&socket).expect("daemon accepts a connection");
        let hot_seed = cfg.stream_seed(10);
        let hot = (0..HOT_PROGRAMS)
            .map(|j| {
                let source = program(hot_seed, j, &format!("victim_h{j}"));
                (frame_body(&source, ENGINES[j % 3]), 0)
            })
            .collect();
        let mut d = Daemon {
            handle: Some(handle),
            conn: Some(conn),
            socket,
            dir,
            next_id: 1,
            hot,
            fresh_seed: cfg.stream_seed(11),
            next_fresh: 0,
            errors: Vec::new(),
        };
        // Warm-up: the first pass stores every hot program, the second
        // is all store hits and fills the reply memo. The second pass's
        // replies are what every later hot reply must repeat.
        for pass in 0..2 {
            let plan: Vec<Planned> = d
                .hot
                .iter()
                .map(|(body, _)| Planned {
                    due: Duration::ZERO,
                    body: Arc::clone(body),
                    check: Check::Keep,
                })
                .collect();
            let phase = d.run(&plan, 60.0);
            if phase.failed() > 0 || phase.kept.len() != plan.len() {
                d.errors.push(format!(
                    "warm-up pass {pass}: {} failed requests",
                    phase.failed()
                ));
            }
            for (j, reply) in &phase.kept {
                let rest = crate::openloop::split_id(reply).map_or("", |(_, rest)| rest);
                d.hot[*j].1 = Digest::of(rest.as_bytes());
            }
        }
        d
    }

    fn run(&mut self, plan: &[Planned], seconds: f64) -> Phase {
        let base = self.next_id;
        self.next_id += plan.len() as u64;
        self.conn
            .as_mut()
            .expect("connection is open while the daemon runs")
            .run(base, plan, seconds)
    }

    /// Poisson arrivals at `rate` for `seconds`, 90 % hot and 10 %
    /// fresh; the first `keep` fresh requests are kept for re-checking.
    fn plan(
        &mut self,
        rng: &mut SplitMix,
        rate: f64,
        seconds: f64,
        keep: usize,
    ) -> (Vec<Planned>, Vec<Kept>) {
        let mut kept = Vec::new();
        let arrivals = rng.arrivals(rate, Duration::from_secs_f64(seconds));
        let mut plan = Vec::with_capacity(arrivals.len());
        for (i, due) in arrivals.into_iter().enumerate() {
            let id = self.next_id + i as u64;
            if rng.next_f64() < FRESH_SHARE {
                let f = self.next_fresh;
                self.next_fresh += 1;
                let source = program(self.fresh_seed, f, &format!("victim_f{f}"));
                let engine = ENGINES[f % 3];
                let keep_this = kept.len() < keep;
                plan.push(Planned {
                    due,
                    body: frame_body(&source, engine),
                    check: if keep_this { Check::Keep } else { Check::None },
                });
                if keep_this {
                    kept.push(Kept {
                        index: i,
                        id,
                        source,
                        engine,
                    });
                }
            } else {
                let (body, digest) = &self.hot[rng.next_u64() as usize % HOT_PROGRAMS];
                plan.push(Planned {
                    due,
                    body: Arc::clone(body),
                    check: Check::Digest(*digest),
                });
            }
        }
        (plan, kept)
    }

    /// One phase at `rate`.
    fn phase(
        &mut self,
        rng: &mut SplitMix,
        rate: f64,
        seconds: f64,
        keep: usize,
    ) -> (Phase, Vec<Kept>) {
        let (plan, kept) = self.plan(rng, rate, seconds, keep);
        (self.run(&plan, seconds), kept)
    }
}

/// Re-analyzes kept fresh programs in-process; each reply must be the
/// exact bytes the daemon's cache-missing analysis renders.
fn recheck(phase: &Phase, kept: &[Kept]) -> Option<String> {
    let det = Detector::new(DetectorConfig {
        jobs: JOBS,
        ..DetectorConfig::default()
    });
    for k in kept {
        let Some((_, reply)) = phase.kept.iter().find(|(i, _)| *i == k.index) else {
            return Some(format!("fresh request {} got no reply", k.id));
        };
        let module = lcm_minic::compile(&k.source).expect("generated programs compile");
        let mut report = det.analyze_module(&module, k.engine);
        for f in &mut report.functions {
            f.cache = CacheStatus::Miss;
        }
        let expected =
            lcm_serve::wire::analyze_reply_id(Some(&Json::Num(k.id as f64)), &report, k.engine);
        if expected.trim_end() != reply {
            return Some(format!(
                "daemon reply to fresh request {} differs from an in-process analysis",
                k.id
            ));
        }
    }
    None
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let (mut daemon, setup_s) = repeated_setup(cfg, |rep| Daemon::start(cfg, rep));
    let mut out = Outcome {
        setup_s,
        errors: std::mem::take(&mut daemon.errors),
        ..Outcome::default()
    };
    let mut rng = SplitMix(cfg.stream_seed(12));
    let mut digest = Digest::default();
    for (_, d) in &daemon.hot {
        digest.update(&d.to_le_bytes());
    }
    out.digest = digest.0;

    let steady_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds * STEADY_SHARE
    };
    let (steady, kept) = daemon.phase(&mut rng, STEADY_RPS, steady_s, CHECKED_FRESH);
    out.attempted += steady.latencies_ms.len() as u64;
    out.failed += steady.failed() as u64;
    if let Some(e) = recheck(&steady, &kept) {
        out.errors.push(e);
    }
    if steady.failed() > 0 {
        out.errors.push(format!(
            "steady phase: {} errors, {} digest mismatches, {} timeouts, {} unsent",
            steady.errors, steady.mismatches, steady.timeouts, steady.unsent
        ));
    }

    if cfg.trace {
        let (traced, counters, rollup) = with_tracing(&mut out.errors, || {
            daemon.phase(&mut rng, STEADY_RPS, steady_s, 0).0
        });
        out.attempted += traced.latencies_ms.len() as u64;
        out.failed += traced.failed() as u64;
        let values = [
            (
                "loadgen.late_p99_ms",
                stats::percentile(&traced.late_ms, 99.0),
            ),
            ("loadgen.backlog_max", traced.backlog.2 as f64),
        ];
        let overhead = stats::median(&traced.latencies_ms) / stats::median(&steady.latencies_ms);
        out.traced = Some(TracedPass {
            rollup,
            ops: traced.latencies_ms.len() as u64,
            counters,
            values: values.into_iter().collect(),
            overhead_pct: (overhead - 1.0) * 100.0,
        });
        out.throughput = traced.throughput();
        out.latencies_ms = traced.latencies_ms;
        return out;
    }

    // Bisection over rungs: `lo` meets the limit, `hi` does not. A rung
    // that misses is probed once more before it counts as a miss, so one
    // scheduling stall of the host does not end the search low.
    let probe_s = cfg.seconds * (1.0 - STEADY_SHARE) / PROBES as f64;
    if !steady.meets(LIMIT_PCT, LIMIT_MS) {
        out.errors.push(format!(
            "the steady rate {STEADY_RPS} req/s misses the latency limit"
        ));
    }
    let mut lo = (RUNGS_PER_OCTAVE * (STEADY_RPS / RUNG_BASE_RPS).log2()).floor() as i64;
    let mut hi = TOP_RUNG + 1;
    let mut best = steady.throughput();
    let mut missed_once = None;
    for _ in 0..PROBES {
        if hi - lo <= 1 {
            break;
        }
        let rung = missed_once.unwrap_or((lo + hi) / 2);
        let (probe, _) = daemon.phase(&mut rng, rung_rps(rung), probe_s, 0);
        out.attempted += (probe.latencies_ms.len() - probe.unsent) as u64;
        out.failed += (probe.errors + probe.mismatches) as u64;
        let pass = probe.meets(LIMIT_PCT, LIMIT_MS);
        out.notes.push(format!(
            "probe {:.0} req/s: p95 {:.3} ms, p99 {:.3} ms, late p99 {:.3} ms, backlog {:.1} -> {:.1}, {} failed: {}",
            rung_rps(rung),
            stats::percentile(&probe.latencies_ms, 95.0),
            stats::percentile(&probe.latencies_ms, 99.0),
            stats::percentile(&probe.late_ms, 99.0),
            probe.backlog.0,
            probe.backlog.1,
            probe.failed(),
            if pass { "meets the limit" } else { "misses" }
        ));
        if pass {
            lo = rung;
            best = probe.throughput();
            missed_once = None;
        } else if missed_once.is_some() {
            hi = rung;
            missed_once = None;
        } else {
            missed_once = Some(rung);
        }
    }
    out.throughput = best;
    out.notes.push(format!(
        "steady {STEADY_RPS} req/s: p90 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, late p99 {:.3} ms, backlog max {}",
        stats::percentile(&steady.latencies_ms, 90.0),
        stats::percentile(&steady.latencies_ms, 95.0),
        stats::percentile(&steady.latencies_ms, 99.0),
        stats::percentile(&steady.latencies_ms, 99.9),
        stats::percentile(&steady.late_ms, 99.0),
        steady.backlog.2
    ));
    out.latencies_ms = steady.latencies_ms;
    out
}
