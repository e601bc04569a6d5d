//! `loadgen` — RPS / latency harness for the `lcm-serve` daemon.
//!
//! Replays a request mix against a daemon at a target rate and reports
//! achieved RPS plus latency percentiles (read from an `lcm-obs`
//! histogram, the same estimator `histogram_quantile()` applies to the
//! daemon's own Prometheus exposition). Three modes exercise the three
//! protocol shapes:
//!
//! * `oneshot`  — protocol v1: one connection per request (the
//!   pre-multiplexing baseline);
//! * `pipeline` — protocol v2: one persistent connection, `--depth`
//!   requests in flight, replies matched by id;
//! * `batch`    — protocol v2: `--batch` programs per frame, one
//!   aggregated reply;
//! * `suite`    — all three back to back against the same daemon, with
//!   pipelined/batched speedup over oneshot (the default; this is what
//!   `BENCH_serve_load.json` records).
//!
//! With no `--socket` / `--tcp`, the harness spawns an in-process
//! server on a temp socket (workers from `--jobs`, cache from
//! `--cache-dir` or a temp dir, worker *processes* from `--fleet N`)
//! and shuts it down at exit — the normal way to run it, and what CI's
//! smoke step does. `--metrics-out PATH` dumps the registry as JSON; in
//! fleet mode it includes the metric deltas every worker shipped back
//! to the supervisor:
//!
//! ```text
//! loadgen --mode pipeline --requests 64 --depth 8 --mix warm \
//!         --rps 50 --assert-rps 50
//! loadgen --json BENCH_serve_load.json          # full suite
//! ```
//!
//! The `--mix` flag picks cache behavior: `warm` replays one program
//! (every request after warmup is a cache hit — protocol overhead
//! dominates), `cold` makes every program distinct (engine runs
//! dominate), `mixed` alternates.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lcm_bench::cli;
use lcm_core::jsonw::Json;
use lcm_detect::EngineKind;
use lcm_obs::metrics::{latency_buckets, names, Histogram, MetricsRegistry};
use lcm_serve::{Client, ServeConfig, Server};

/// Which protocol shape a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Oneshot,
    Pipeline,
    Batch,
    Suite,
}

/// Which cache behavior the request mix provokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    Warm,
    Cold,
    Mixed,
}

impl Mix {
    fn label(self) -> &'static str {
        match self {
            Mix::Warm => "warm",
            Mix::Cold => "cold",
            Mix::Mixed => "mixed",
        }
    }
}

struct Opts {
    mode: Mode,
    requests: u64,
    depth: usize,
    batch: usize,
    rps: f64,
    mix: Mix,
    engine: EngineKind,
    assert_rps: Option<f64>,
    assert_speedup: Option<f64>,
    socket: Option<String>,
    tcp: Option<String>,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_opts(args: &mut cli::BenchArgs) -> Opts {
    let num = |v: Option<String>, flag: &str, default: u64| -> u64 {
        v.map_or(default, |s| {
            s.parse()
                .unwrap_or_else(|_| die(&format!("{flag} expects a number, got {s:?}")))
        })
    };
    let float = |v: Option<String>, flag: &str| -> Option<f64> {
        v.map(|s| {
            s.parse()
                .unwrap_or_else(|_| die(&format!("{flag} expects a number, got {s:?}")))
        })
    };
    let mode = match args.take_value("--mode").as_deref() {
        None | Some("suite") => Mode::Suite,
        Some("oneshot") => Mode::Oneshot,
        Some("pipeline") => Mode::Pipeline,
        Some("batch") => Mode::Batch,
        Some(m) => die(&format!(
            "--mode expects oneshot|pipeline|batch|suite, got {m:?}"
        )),
    };
    let mix = match args.take_value("--mix").as_deref() {
        None | Some("warm") => Mix::Warm,
        Some("cold") => Mix::Cold,
        Some("mixed") => Mix::Mixed,
        Some(m) => die(&format!("--mix expects warm|cold|mixed, got {m:?}")),
    };
    let engine = match args.take_value("--engine").as_deref() {
        None | Some("pht") => EngineKind::Pht,
        Some("stl") => EngineKind::Stl,
        Some("psf") => EngineKind::Psf,
        Some(e) => die(&format!("--engine expects pht|stl|psf, got {e:?}")),
    };
    Opts {
        mode,
        requests: num(args.take_value("--requests"), "--requests", 64).max(1),
        depth: num(args.take_value("--depth"), "--depth", 8).max(1) as usize,
        batch: num(args.take_value("--batch"), "--batch", 16).max(1) as usize,
        rps: float(args.take_value("--rps"), "--rps").unwrap_or(0.0),
        mix,
        engine,
        assert_rps: float(args.take_value("--assert-rps"), "--assert-rps"),
        assert_speedup: float(args.take_value("--assert-speedup"), "--assert-speedup"),
        socket: args.take_value("--socket"),
        tcp: args.take_value("--tcp"),
    }
}

/// The replayed program: the classic bounds-check victim, distinct per
/// request when the mix asks for cold cache (`tag` keeps the cold
/// namespaces of the suite's three runs from warming each other).
fn source(mix: Mix, tag: &str, i: u64) -> String {
    let name = match mix {
        Mix::Warm => "victim_w".to_string(),
        Mix::Cold => format!("victim_{tag}_{i}"),
        Mix::Mixed if i % 2 == 0 => "victim_w".to_string(),
        Mix::Mixed => format!("victim_{tag}_{i}"),
    };
    format!(
        "int A[16]; int B[4096]; int size; int tmp;
         void {name}(int y) {{ if (y < size) tmp &= B[A[y] * 512]; }}"
    )
}

/// Sleeps until request `i`'s scheduled send time under open-loop
/// pacing (`rps == 0` disables pacing).
fn pace(start: Instant, i: u64, rps: f64) {
    if rps <= 0.0 {
        return;
    }
    let due = start + Duration::from_secs_f64(i as f64 / rps);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One mode's measured outcome.
struct ModeResult {
    mode: &'static str,
    requests: u64,
    errors: u64,
    elapsed: Duration,
    achieved_rps: f64,
    p50: Option<f64>,
    p90: Option<f64>,
    p99: Option<f64>,
    mean: Option<f64>,
}

impl ModeResult {
    fn from_hist(
        mode: &'static str,
        requests: u64,
        errors: u64,
        elapsed: Duration,
        hist: &Histogram,
    ) -> ModeResult {
        let snap = hist.snapshot();
        let mean = (snap.count > 0).then(|| snap.sum_secs / snap.count as f64);
        ModeResult {
            mode,
            requests,
            errors,
            elapsed,
            achieved_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
            p50: snap.quantile(0.50),
            p90: snap.quantile(0.90),
            p99: snap.quantile(0.99),
            mean,
        }
    }

    fn render_row(&self) -> String {
        let ms = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{:.3}", s * 1e3));
        format!(
            "{:<9} {:>8} {:>7} {:>12.1} {:>10} {:>10} {:>10} {:>10}",
            self.mode,
            self.requests,
            self.errors,
            self.achieved_rps,
            ms(self.mean),
            ms(self.p50),
            ms(self.p90),
            ms(self.p99),
        )
    }

    fn json_obj(&self) -> String {
        let f = |v: Option<f64>| v.map_or("null".to_string(), |s| format!("{s:.9}"));
        format!(
            "{{\"mode\": \"{}\", \"requests\": {}, \"errors\": {}, \"elapsed_secs\": {:.6}, \"achieved_rps\": {:.3}, \"mean_secs\": {}, \"p50_secs\": {}, \"p90_secs\": {}, \"p99_secs\": {}}}",
            self.mode,
            self.requests,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.achieved_rps,
            f(self.mean),
            f(self.p50),
            f(self.p90),
            f(self.p99),
        )
    }
}

/// A fresh client-side latency histogram. Each mode gets its own (the
/// registry handles are get-or-create by name, so a *shared* registry
/// would accumulate across modes and smear the percentiles).
fn fresh_hist() -> Histogram {
    MetricsRegistry::new().histogram(
        names::LOADGEN_LATENCY,
        "Client-observed request latency recorded by the loadgen bench",
        latency_buckets(),
    )
}

/// A rendered v1 analyze request line.
fn analyze_frame(source: &str, engine: EngineKind) -> String {
    Json::Obj(vec![
        ("cmd".to_string(), Json::Str("analyze".into())),
        ("source".to_string(), Json::Str(source.into())),
        (
            "engine".to_string(),
            Json::Str(lcm_serve::wire::engine_name(engine).into()),
        ),
    ])
    .render()
}

/// Cheap field scans over raw reply lines. The measured path
/// deliberately skips a full JSON parse: a warm reply is ~3 KB and
/// parsing it costs several times the daemon's entire warm-path
/// service time, so a parsing client would be measuring its own
/// parser, not the protocol. The scanned shapes (the leading
/// `{"id":N,`, the `"ok":true` member, the trailing `"failed":N}`)
/// are pinned by the wire-format tests.
fn scan_u64(line: &str, at: usize) -> Option<u64> {
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    line[at..at + digits].parse().ok()
}

fn reply_id(line: &str) -> Option<u64> {
    let key = "{\"id\":";
    line.starts_with(key).then(|| scan_u64(line, key.len()))?
}

fn reply_ok(line: &str) -> bool {
    line.contains("\"ok\":true")
}

fn batch_failed(line: &str) -> Option<u64> {
    let key = "\"failed\":";
    scan_u64(line, line.rfind(key)? + key.len())
}

/// Protocol v1 baseline: connect, one request, read reply, close.
fn run_oneshot(client: &Client, opts: &Opts, tag: &str) -> ModeResult {
    let hist = fresh_hist();
    let mut errors = 0u64;
    let start = Instant::now();
    for i in 0..opts.requests {
        pace(start, i, opts.rps);
        let frame = analyze_frame(&source(opts.mix, tag, i), opts.engine);
        let t0 = Instant::now();
        match client.request_line(&frame) {
            Ok(line) if reply_ok(&line) => {}
            _ => errors += 1,
        }
        hist.observe(t0.elapsed());
    }
    ModeResult::from_hist("oneshot", opts.requests, errors, start.elapsed(), &hist)
}

/// Protocol v2 pipelining: keep `--depth` requests in flight on one
/// persistent connection, match replies by id.
fn run_pipeline(client: &Client, opts: &Opts, tag: &str) -> ModeResult {
    let mut conn = client.connect().unwrap_or_else(|e| die(&e.to_string()));
    let hist = fresh_hist();
    let mut inflight: HashMap<u64, Instant> = HashMap::new();
    let (mut sent, mut done, mut errors) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while done < opts.requests {
        // Send everything currently allowed by the window and the pace.
        while sent < opts.requests && inflight.len() < opts.depth {
            if opts.rps > 0.0 {
                let due = start + Duration::from_secs_f64(sent as f64 / opts.rps);
                if Instant::now() < due {
                    break;
                }
            }
            let src = source(opts.mix, tag, sent);
            let id = conn
                .send_analyze(&src, opts.engine)
                .unwrap_or_else(|e| die(&e.to_string()));
            inflight.insert(id, Instant::now());
            sent += 1;
        }
        if inflight.is_empty() {
            pace(start, sent, opts.rps);
            continue;
        }
        let line = conn.recv_raw_line().unwrap_or_else(|e| die(&e.to_string()));
        let id = reply_id(&line).unwrap_or_else(|| die(&format!("reply without id: {line}")));
        if let Some(t0) = inflight.remove(&id) {
            hist.observe(t0.elapsed());
            if !reply_ok(&line) {
                errors += 1;
            }
            done += 1;
        }
    }
    ModeResult::from_hist("pipeline", opts.requests, errors, start.elapsed(), &hist)
}

/// Protocol v2 batching: `--batch` programs per frame, one aggregated
/// reply; every program in a frame shares the frame's latency.
fn run_batch(client: &Client, opts: &Opts, tag: &str) -> ModeResult {
    let mut conn = client.connect().unwrap_or_else(|e| die(&e.to_string()));
    let hist = fresh_hist();
    let mut errors = 0u64;
    let mut submitted = 0u64;
    let start = Instant::now();
    while submitted < opts.requests {
        pace(start, submitted, opts.rps);
        let n = (opts.requests - submitted).min(opts.batch as u64);
        let sources: Vec<String> = (0..n)
            .map(|k| source(opts.mix, tag, submitted + k))
            .collect();
        let items: Vec<(&str, EngineKind)> =
            sources.iter().map(|s| (s.as_str(), opts.engine)).collect();
        let t0 = Instant::now();
        let id = conn
            .send_batch(&items)
            .unwrap_or_else(|e| die(&e.to_string()));
        let line = conn.recv_raw_line().unwrap_or_else(|e| die(&e.to_string()));
        let dt = t0.elapsed();
        let rid = reply_id(&line).unwrap_or_else(|| die(&format!("reply without id: {line}")));
        if rid != id {
            die(&format!("batch reply id {rid} does not match request {id}"));
        }
        for _ in 0..n {
            hist.observe(dt);
        }
        errors += batch_failed(&line).unwrap_or(n);
        submitted += n;
    }
    ModeResult::from_hist("batch", opts.requests, errors, start.elapsed(), &hist)
}

fn header() -> String {
    format!(
        "{:<9} {:>8} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "mode", "requests", "errors", "rps", "mean_ms", "p50_ms", "p90_ms", "p99_ms"
    )
}

fn suite_json(opts: &Opts, results: &[ModeResult], speedups: &[(String, f64)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"serve_load\",\n");
    s.push_str(&format!("  \"mix\": \"{}\",\n", opts.mix.label()));
    s.push_str(&format!("  \"engine\": \"{}\",\n", opts.engine.label()));
    s.push_str(&format!("  \"requests\": {},\n", opts.requests));
    s.push_str(&format!("  \"depth\": {},\n", opts.depth));
    s.push_str(&format!("  \"batch\": {},\n", opts.batch));
    s.push_str(&format!("  \"target_rps\": {},\n", opts.rps));
    s.push_str("  \"modes\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            r.json_obj(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]");
    for (name, x) in speedups {
        s.push_str(&format!(",\n  \"speedup_{name}\": {x:.3}"));
    }
    s.push_str("\n}\n");
    s
}

fn main() {
    // The self-spawned in-process server's fleet (`--fleet N`) re-execs
    // *this* binary as its workers: divert before any parsing.
    lcm_fleet::maybe_run_worker();
    let mut args = cli::parse(std::env::args().skip(1));
    let opts = parse_opts(&mut args);
    args.reject_unknown(&[]);

    // Target: an existing daemon, or a self-spawned in-process server.
    let mut spawned = None;
    let mut temp_cache = None;
    let client = match (&opts.socket, &opts.tcp) {
        (Some(path), _) => Client::new(path),
        (None, Some(addr)) => Client::tcp(addr.clone()),
        (None, None) => {
            let socket =
                std::env::temp_dir().join(format!("lcm-loadgen-{}.sock", std::process::id()));
            let mut config = ServeConfig::new(&socket);
            config.workers = args.jobs;
            config.fleet = args.fleet;
            config.events_out = args.events_out.clone().map(Into::into);
            config.cache_dir = match (&args.cache_dir, args.no_cache) {
                (_, true) => None,
                (Some(dir), _) => Some(dir.into()),
                (None, _) => {
                    let dir = std::env::temp_dir()
                        .join(format!("lcm-loadgen-cache-{}", std::process::id()));
                    temp_cache = Some(dir.clone());
                    Some(dir)
                }
            };
            let handle = Server::spawn(config).unwrap_or_else(|e| die(&e.to_string()));
            spawned = Some((handle, socket.clone()));
            Client::new(&socket)
        }
    };

    // Warmup: prime the warm program's cache entry so the timed run
    // measures steady state, not the first-touch engine run.
    if matches!(opts.mix, Mix::Warm | Mix::Mixed) {
        client
            .analyze_source(&source(Mix::Warm, "warmup", 0), opts.engine)
            .unwrap_or_else(|e| die(&format!("warmup failed: {e}")));
    }

    let results: Vec<ModeResult> = match opts.mode {
        Mode::Oneshot => vec![run_oneshot(&client, &opts, "os")],
        Mode::Pipeline => vec![run_pipeline(&client, &opts, "pl")],
        Mode::Batch => vec![run_batch(&client, &opts, "bt")],
        Mode::Suite => vec![
            run_oneshot(&client, &opts, "os"),
            run_pipeline(&client, &opts, "pl"),
            run_batch(&client, &opts, "bt"),
        ],
    };

    println!("{}", header());
    for r in &results {
        println!("{}", r.render_row());
    }

    let mut speedups = Vec::new();
    if opts.mode == Mode::Suite {
        let base = results[0].achieved_rps;
        for r in &results[1..] {
            speedups.push((r.mode.to_string(), r.achieved_rps / base.max(1e-9)));
        }
        for (name, x) in &speedups {
            println!("speedup {name} vs oneshot: {x:.2}x");
        }
    }

    if let Some(path) = &args.json {
        let json = suite_json(&opts, &results, &speedups);
        match std::fs::write(path, &json) {
            Ok(()) => println!("json written to {path}"),
            Err(e) => die(&format!("cannot write {path}: {e}")),
        }
    }

    // Tear down the self-spawned server before judging assertions.
    if let Some((handle, socket)) = spawned {
        let _ = Client::new(&socket).shutdown();
        let _ = handle.join();
    }
    if let Some(dir) = temp_cache {
        let _ = std::fs::remove_dir_all(dir);
    }

    args.finish_metrics();

    let mut failed = false;
    let total_errors: u64 = results.iter().map(|r| r.errors).sum();
    if total_errors > 0 {
        eprintln!("FAIL: {total_errors} requests errored");
        failed = true;
    }
    if let Some(min) = opts.assert_rps {
        for r in &results {
            if r.achieved_rps < min {
                eprintln!(
                    "FAIL: {} achieved {:.1} rps < required {min}",
                    r.mode, r.achieved_rps
                );
                failed = true;
            }
        }
    }
    if let Some(min) = opts.assert_speedup {
        let best = speedups.iter().map(|(_, x)| *x).fold(0.0f64, f64::max);
        if speedups.is_empty() {
            eprintln!("FAIL: --assert-speedup needs --mode suite");
            failed = true;
        } else if best < min {
            eprintln!("FAIL: best speedup {best:.2}x < required {min}x");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
