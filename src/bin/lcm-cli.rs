//! `lcm-cli` — the workspace's command-line front door for the analysis
//! daemon: `lcm-cli serve` runs an `lcm-serve` daemon on a Unix socket,
//! `lcm-cli client` talks to one (one JSON line per request, one per
//! reply, printed verbatim so shell pipelines can post-process it).
//!
//! ```text
//! lcm-cli serve  --socket PATH [--tcp ADDR] [--workers N] [--queue N]
//!                [--cache-dir DIR] [--jobs N] [--trace-out PATH]
//! lcm-cli client (--socket PATH | --tcp ADDR) status
//! lcm-cli client (--socket PATH | --tcp ADDR) stats
//! lcm-cli client (--socket PATH | --tcp ADDR) metrics    # Prometheus text, not JSON
//! lcm-cli client (--socket PATH | --tcp ADDR) shutdown
//! lcm-cli client (--socket PATH | --tcp ADDR) analyze [--engine pht|stl] [--retries N]
//!                (--file PATH | --source SRC | -)   # `-` reads stdin
//! ```
//!
//! Exit status: 0 on success, 1 on a server/protocol error, 2 on a
//! usage error.

use std::io::Read;
use std::process::ExitCode;

use lcm::detect::EngineKind;
use lcm::serve::{Client, ServeConfig, Server};

fn main() -> ExitCode {
    // When re-executed by a fleet supervisor (LCM_FLEET_WORKER=1) this
    // process is an analysis worker, not a CLI: divert before parsing.
    lcm::fleet::maybe_run_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("client") => client(&args[1..]),
        Some("store") => store(&args[1..]),
        Some("fuzz") => fuzz(&args[1..]),
        // Hidden: the fleet worker entry point (`lcm-cli worker`), used
        // as an explicit `worker_cmd` target. Speaks the length-delimited
        // task protocol on stdin/stdout and never returns.
        Some("worker") => lcm::fleet::worker_main(),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => usage_error("expected a subcommand: serve | client | store | fuzz"),
    }
}

const USAGE: &str = "\
lcm-cli — analysis daemon and client

  lcm-cli serve  --socket PATH [--tcp ADDR] [--workers N] [--queue N]
                 [--cache-dir DIR] [--jobs N] [--fleet N] [--trace-out PATH]
                 [--events-out PATH]
  lcm-cli client (--socket PATH | --tcp ADDR) status | stats | metrics | shutdown
  lcm-cli client (--socket PATH | --tcp ADDR) analyze [--engine pht|stl] [--retries N]
                 (--file PATH | --source SRC | -)
  lcm-cli store  compact --cache-dir DIR
  lcm-cli fuzz   [--seed N] [--count N] [--jobs N] [--quick]

`serve` runs until a client sends `shutdown`, SIGTERM, or SIGINT (both
signals drain queued requests before exiting). `--tcp ADDR`
additionally listens on a TCP address (`host:port`; `host:0` picks a
free port) with the identical protocol. `--cache-dir` persists results
in DIR/results.lcmstore so repeat submissions are cache hits.
`--fleet N` runs analyses in N supervised child processes (crash
isolation: a worker segfault degrades one function instead of killing
the daemon). `--trace-out` records a Chrome trace of the daemon's
lifetime, written on shutdown. `--events-out` appends a JSONL
supervision event log (kills, restarts, steals, redeliveries, crash
forensics) in fleet mode. `client metrics` prints Prometheus
exposition text (the one reply that is not a JSON line).
`client analyze -` reads mini-C source from stdin. `analyze --file`
has the daemon read PATH over `--socket`; over `--tcp`, where the
daemon refuses file paths, the client reads it and sends the source.
`store compact`
rewrites DIR/results.lcmstore keeping only the live (latest) record
per fingerprint, via an atomic temp-file-plus-rename. `fuzz` runs the
differential sweep of DESIGN.md §6i: COUNT seed-keyed random programs
through the speculative reference oracle and all three static engines,
re-verifies repairs, and certifies fence minimality on a sample; it
prints a JSON report line and exits 1 on any soundness mismatch
(shrunk counterexamples go to stderr). `--quick` shrinks the oracle's
input lattice and choice budget for CI latency.
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Pulls `--flag VALUE` / `--flag=VALUE` out of `args`, leaving the rest.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(&prefix) {
            let v = v.to_string();
            args.remove(i);
            return Ok(Some(v));
        }
        if args[i] == flag {
            if i + 1 >= args.len() {
                return Err(format!("{flag} needs a value"));
            }
            args.remove(i);
            return Ok(Some(args.remove(i)));
        }
        i += 1;
    }
    Ok(None)
}

fn parse_num(v: &str, flag: &str) -> Result<usize, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a number, got {v:?}"))
}

fn serve(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let parsed = (|| -> Result<(ServeConfig, Option<String>), String> {
        let socket = take_value(&mut args, "--socket")?
            .ok_or_else(|| "serve needs --socket PATH".to_string())?;
        let trace_out = take_value(&mut args, "--trace-out")?;
        let mut config = ServeConfig::new(socket);
        config.tcp = take_value(&mut args, "--tcp")?;
        if let Some(v) = take_value(&mut args, "--workers")? {
            config.workers = parse_num(&v, "--workers")?;
        }
        if let Some(v) = take_value(&mut args, "--queue")? {
            config.queue_cap = parse_num(&v, "--queue")?;
        }
        if let Some(v) = take_value(&mut args, "--jobs")? {
            config.detector.jobs = parse_num(&v, "--jobs")?;
        }
        if let Some(v) = take_value(&mut args, "--cache-dir")? {
            config.cache_dir = Some(v.into());
        }
        if let Some(v) = take_value(&mut args, "--fleet")? {
            config.fleet = parse_num(&v, "--fleet")?;
        }
        if let Some(v) = take_value(&mut args, "--events-out")? {
            config.events_out = Some(v.into());
        }
        config.handle_signals = true;
        if let Some(extra) = args.first() {
            return Err(format!("unknown serve argument {extra:?}"));
        }
        Ok((config, trace_out))
    })();
    let (config, trace_out) = match parsed {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    eprintln!(
        "lcm-serve: listening on {} (cache: {})",
        config.socket.display(),
        config
            .cache_dir
            .as_ref()
            .map_or("disabled".to_string(), |d| d.display().to_string()),
    );
    if trace_out.is_some() {
        lcm::obs::trace::enable();
    }
    let outcome = Server::bind(config).and_then(|server| {
        if let Some(addr) = server.tcp_addr() {
            eprintln!("lcm-serve: listening on tcp {addr}");
        }
        server.run()
    });
    if let Some(path) = trace_out {
        lcm::obs::trace::disable();
        match lcm::obs::trace::export_to_file(std::path::Path::new(&path)) {
            Ok(()) => eprintln!("lcm-serve: trace written to {path}"),
            Err(e) => eprintln!("lcm-serve: writing trace to {path}: {e}"),
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lcm-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn store(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    if args.first().map(String::as_str) != Some("compact") {
        return usage_error("store needs a command: compact");
    }
    args.remove(0);
    let dir = match take_value(&mut args, "--cache-dir") {
        Ok(Some(dir)) => dir,
        Ok(None) => return usage_error("store compact needs --cache-dir DIR"),
        Err(e) => return usage_error(&e),
    };
    if let Some(extra) = args.first() {
        return usage_error(&format!("unknown store argument {extra:?}"));
    }
    let path = std::path::Path::new(&dir).join("results.lcmstore");
    let run = lcm::store::Store::open(&path).and_then(|store| store.compact());
    match run {
        Ok(live) => {
            println!("compacted {}: {live} live record(s)", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lcm-cli: compacting {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn fuzz(args: &[String]) -> ExitCode {
    use lcm::core::jsonw::Json;
    let mut args = args.to_vec();
    let parsed = (|| -> Result<lcm::fuzz::FuzzConfig, String> {
        let mut cfg = lcm::fuzz::FuzzConfig::default();
        if let Some(v) = take_value(&mut args, "--seed")? {
            cfg.seed = v
                .parse()
                .map_err(|_| format!("--seed expects a number, got {v:?}"))?;
        }
        if let Some(v) = take_value(&mut args, "--count")? {
            cfg.count = parse_num(&v, "--count")?;
        }
        if let Some(v) = take_value(&mut args, "--jobs")? {
            cfg.jobs = parse_num(&v, "--jobs")?;
        }
        if let Some(at) = args.iter().position(|a| a == "--quick") {
            args.remove(at);
            cfg.quick = true;
        }
        if let Some(extra) = args.first() {
            return Err(format!("unknown fuzz argument {extra:?}"));
        }
        Ok(cfg)
    })();
    let cfg = match parsed {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    eprintln!(
        "lcm-fuzz: sweeping {} programs (seed {}, {})",
        cfg.count,
        cfg.seed,
        if cfg.quick {
            "quick oracle"
        } else {
            "full oracle"
        },
    );
    let report = lcm::fuzz::run_sweep(&cfg);
    for m in &report.mismatches {
        eprintln!(
            "lcm-fuzz: MISMATCH at seed {} index {} — {:?} engine clean, oracle leaks; shrunk:\n{}",
            m.seed, m.index, m.engine, m.shrunk_source
        );
    }
    let num = |n: usize| Json::Num(n as f64);
    let line = Json::Obj(vec![
        ("ok".into(), Json::Bool(report.ok())),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("programs".into(), num(report.programs)),
        ("compile_failures".into(), num(report.compile_failures)),
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
    println!("{}", line.render());
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn client(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let run = (|| -> Result<String, String> {
        let socket = take_value(&mut args, "--socket")?;
        let tcp = take_value(&mut args, "--tcp")?;
        let retries = match take_value(&mut args, "--retries")? {
            Some(v) => parse_num(&v, "--retries")?,
            None => 1,
        };
        let over_tcp = tcp.is_some();
        let client = match (socket, tcp) {
            (Some(path), None) => Client::new(path),
            (None, Some(addr)) => Client::tcp(addr),
            _ => return Err("client needs exactly one of --socket PATH or --tcp ADDR".into()),
        }
        .retries(retries);
        let cmd = if args.is_empty() {
            return Err(
                "client needs a command: status | stats | metrics | shutdown | analyze".into(),
            );
        } else {
            args.remove(0)
        };
        let reply = match cmd.as_str() {
            "status" => client.status(),
            "stats" => client.stats(),
            "metrics" => {
                // The one non-JSON reply: raw Prometheus text, printed
                // verbatim (no `.render()` round-trip).
                if let Some(extra) = args.first() {
                    return Err(format!("unknown client argument {extra:?}"));
                }
                return client
                    .metrics()
                    .map(|text| text.trim_end().to_string())
                    .map_err(|e| format!("request failed: {e}"));
            }
            "shutdown" => client.shutdown(),
            "analyze" => {
                let engine = match take_value(&mut args, "--engine")? {
                    None => EngineKind::Pht,
                    Some(name) => lcm::serve::wire::engine_of_name(&name)
                        .ok_or_else(|| format!("unknown engine {name:?} (pht | stl)"))?,
                };
                let file = take_value(&mut args, "--file")?;
                let source = take_value(&mut args, "--source")?;
                let stdin = args.iter().any(|a| a == "-");
                args.retain(|a| a != "-");
                match (source, file, stdin) {
                    (Some(src), None, false) => client.analyze_source(&src, engine),
                    // The daemon reads files only for Unix-socket peers.
                    (None, Some(path), false) if over_tcp => {
                        let src = std::fs::read_to_string(&path)
                            .map_err(|e| format!("reading {path}: {e}"))?;
                        client.analyze_source(&src, engine)
                    }
                    (None, Some(path), false) => client.analyze_file(&path, engine),
                    (None, None, true) => {
                        let mut src = String::new();
                        std::io::stdin()
                            .read_to_string(&mut src)
                            .map_err(|e| format!("reading stdin: {e}"))?;
                        client.analyze_source(&src, engine)
                    }
                    _ => {
                        return Err(
                            "analyze needs exactly one of --file PATH, --source SRC, or -".into(),
                        )
                    }
                }
            }
            other => return Err(format!("unknown client command {other:?}")),
        };
        if let Some(extra) = args.first() {
            return Err(format!("unknown client argument {extra:?}"));
        }
        reply
            .map(|json| json.render())
            .map_err(|e| format!("request failed: {e}"))
    })();
    match run {
        Ok(reply) => {
            println!("{reply}");
            ExitCode::SUCCESS
        }
        Err(e) if e.starts_with("request failed:") => {
            eprintln!("lcm-cli: {e}");
            ExitCode::FAILURE
        }
        Err(e) => usage_error(&e),
    }
}
