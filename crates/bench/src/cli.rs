//! Minimal flag parsing shared by the bench binaries (no clap).
//!
//! Every binary accepts `--jobs N` (worker threads; `0` or omitted =
//! all cores, `1` = exact serial) and most accept `--json PATH`
//! (machine-readable output next to the printed table) and
//! `--trace-out PATH` (span recording to a Chrome-trace JSON). Flags
//! the harness does not know end up in [`BenchArgs::rest`] for the
//! binary's own switches (`--quick`, `--repair`, `--big`, …) and
//! valued flags ([`BenchArgs::take_value`]); each binary then calls
//! [`BenchArgs::reject_unknown`], so a mistyped or retired flag is an
//! error instead of being silently ignored.

use lcm_core::govern::Budgets;
use std::time::Duration;

/// Parsed common flags plus whatever was left over.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--jobs N`: worker threads (0 = all available cores).
    pub jobs: usize,
    /// `--json PATH`: where to write the JSON report, if requested.
    pub json: Option<String>,
    /// `--timeout-ms N`: per-function wall-clock budget (0 or omitted =
    /// unlimited).
    pub timeout_ms: u64,
    /// `--cache-dir PATH`: directory holding the incremental result
    /// store (`results.lcmstore`); created if missing.
    pub cache_dir: Option<String>,
    /// `--no-cache`: ignore `--cache-dir` and run every analysis cold.
    pub no_cache: bool,
    /// `--trace-out PATH`: record spans and write a Chrome-trace JSON
    /// (`chrome://tracing` / Perfetto loadable) at exit.
    pub trace_out: Option<String>,
    /// `--fleet N`: run Clou analyses in N supervised worker *processes*
    /// (crash isolation; 0 or omitted = in-process).
    pub fleet: usize,
    /// `--findings-out PATH`: write a timing-free findings digest
    /// (workload/tool/counts, a hash of every Clou finding's encoded
    /// bytes, degradations; no durations) for byte-level comparison
    /// across runs.
    pub findings_out: Option<String>,
    /// `--metrics-out PATH`: dump the final metrics registry — fleet
    /// totals included when `--fleet` ran — as JSON at exit.
    pub metrics_out: Option<String>,
    /// `--events-out PATH`: append-only JSONL supervision event log
    /// (kills, restarts, steals, redeliveries, crash forensics); only
    /// meaningful together with `--fleet`.
    pub events_out: Option<String>,
    /// Unrecognized arguments, in order.
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// `true` if a leftover flag like `--quick` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// Pulls a binary's own `--flag VALUE` / `--flag=VALUE` out of the
    /// leftover arguments. Exits with status 2 if the value is missing.
    pub fn take_value(&mut self, flag: &str) -> Option<String> {
        let eq = format!("{flag}=");
        let i = self
            .rest
            .iter()
            .position(|a| a == flag || a.starts_with(&eq))?;
        let a = self.rest.remove(i);
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
        if i < self.rest.len() {
            return Some(self.rest.remove(i));
        }
        die(&format!("{flag} needs a value"))
    }

    /// Exits with status 2, naming the first leftover argument that is
    /// not one of the binary's own `switches`. Call it after taking the
    /// binary's valued flags with [`BenchArgs::take_value`].
    pub fn reject_unknown(&self, switches: &[&str]) {
        if let Some(a) = self.unknown(switches) {
            die(&format!("unknown flag {a:?}"));
        }
    }

    fn unknown(&self, switches: &[&str]) -> Option<&str> {
        self.rest
            .iter()
            .map(String::as_str)
            .find(|a| !switches.contains(a))
    }

    /// The per-function resource budgets these flags request
    /// (unlimited without `--timeout-ms`).
    pub fn budgets(&self) -> Budgets {
        Budgets {
            timeout: (self.timeout_ms > 0).then(|| Duration::from_millis(self.timeout_ms)),
            ..Budgets::default()
        }
    }

    /// Turns span recording on when `--trace-out` was given. Call once
    /// at binary start, before the timed work.
    pub fn start_tracing(&self) {
        if self.trace_out.is_some() {
            lcm_obs::trace::enable();
        }
    }

    /// Writes the recorded trace to the `--trace-out` path, if any.
    /// Call once after the timed work; prints the destination.
    pub fn finish_tracing(&self) {
        let Some(path) = &self.trace_out else { return };
        lcm_obs::trace::disable();
        match lcm_obs::trace::export_to_file(std::path::Path::new(path)) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => eprintln!("warning: cannot write trace to {path}: {e}"),
        }
    }

    /// Writes the final state of the global metrics registry to the
    /// `--metrics-out` path, if any. Call once after the timed work —
    /// and after the fleet (if any) shut down, so worker deltas folded
    /// in by the supervisor are part of the dump.
    pub fn finish_metrics(&self) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        match std::fs::write(path, lcm_obs::metrics::global().render_json()) {
            Ok(()) => println!("metrics written to {path}"),
            Err(e) => eprintln!("warning: cannot write metrics to {path}: {e}"),
        }
    }

    /// Opens the result store these flags request: `--cache-dir` unless
    /// `--no-cache`. An unopenable store *warns and runs uncached* —
    /// a broken cache disk must never fail a benchmark run (the same
    /// degrade-don't-abort discipline the store itself applies to
    /// damaged records).
    pub fn open_store(&self) -> Option<lcm_store::Store> {
        if self.no_cache {
            return None;
        }
        let dir = self.cache_dir.as_deref()?;
        let path = std::path::Path::new(dir);
        let open = std::fs::create_dir_all(path)
            .and_then(|()| lcm_store::Store::open(&path.join("results.lcmstore")));
        match open {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("warning: cache at {dir} unavailable ({e}); running uncached");
                None
            }
        }
    }
}

/// Parses `--jobs N` / `--jobs=N` and `--json PATH` / `--json=PATH`
/// out of `args` (program name already stripped).
///
/// # Panics
///
/// Exits the process with a message on a malformed value — these are
/// command-line tools, not a library API.
pub fn parse(args: impl Iterator<Item = String>) -> BenchArgs {
    let mut out = BenchArgs::default();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if let Some(v) = a.strip_prefix("--jobs=") {
            out.jobs = parse_jobs(v);
        } else if a == "--jobs" {
            let v = args.next().unwrap_or_else(|| die("--jobs needs a value"));
            out.jobs = parse_jobs(&v);
        } else if let Some(v) = a.strip_prefix("--json=") {
            out.json = Some(v.to_string());
        } else if a == "--json" {
            let v = args.next().unwrap_or_else(|| die("--json needs a path"));
            out.json = Some(v);
        } else if let Some(v) = a.strip_prefix("--timeout-ms=") {
            out.timeout_ms = parse_num(v, "--timeout-ms");
        } else if a == "--timeout-ms" {
            let v = args
                .next()
                .unwrap_or_else(|| die("--timeout-ms needs a value"));
            out.timeout_ms = parse_num(&v, "--timeout-ms");
        } else if let Some(v) = a.strip_prefix("--cache-dir=") {
            out.cache_dir = Some(v.to_string());
        } else if a == "--cache-dir" {
            let v = args
                .next()
                .unwrap_or_else(|| die("--cache-dir needs a path"));
            out.cache_dir = Some(v);
        } else if a == "--no-cache" {
            out.no_cache = true;
        } else if let Some(v) = a.strip_prefix("--trace-out=") {
            out.trace_out = Some(v.to_string());
        } else if a == "--trace-out" {
            let v = args
                .next()
                .unwrap_or_else(|| die("--trace-out needs a path"));
            out.trace_out = Some(v);
        } else if let Some(v) = a.strip_prefix("--fleet=") {
            out.fleet = parse_fleet(v);
        } else if a == "--fleet" {
            let v = args.next().unwrap_or_else(|| die("--fleet needs a value"));
            out.fleet = parse_fleet(&v);
        } else if let Some(v) = a.strip_prefix("--findings-out=") {
            out.findings_out = Some(v.to_string());
        } else if a == "--findings-out" {
            let v = args
                .next()
                .unwrap_or_else(|| die("--findings-out needs a path"));
            out.findings_out = Some(v);
        } else if let Some(v) = a.strip_prefix("--metrics-out=") {
            out.metrics_out = Some(v.to_string());
        } else if a == "--metrics-out" {
            let v = args
                .next()
                .unwrap_or_else(|| die("--metrics-out needs a path"));
            out.metrics_out = Some(v);
        } else if let Some(v) = a.strip_prefix("--events-out=") {
            out.events_out = Some(v.to_string());
        } else if a == "--events-out" {
            let v = args
                .next()
                .unwrap_or_else(|| die("--events-out needs a path"));
            out.events_out = Some(v);
        } else {
            out.rest.push(a);
        }
    }
    out
}

fn parse_jobs(v: &str) -> usize {
    v.parse()
        .unwrap_or_else(|_| die(&format!("--jobs expects a number, got {v:?}")))
}

fn parse_fleet(v: &str) -> usize {
    v.parse()
        .unwrap_or_else(|_| die(&format!("--fleet expects a number, got {v:?}")))
}

fn parse_num(v: &str, flag: &str) -> u64 {
    v.parse()
        .unwrap_or_else(|_| die(&format!("{flag} expects a number, got {v:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> BenchArgs {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_all_cores_and_no_json() {
        let a = args(&[]);
        assert_eq!(a.jobs, 0);
        assert!(a.json.is_none());
        assert!(a.rest.is_empty());
    }

    #[test]
    fn parses_both_flag_styles() {
        let a = args(&["--jobs", "4", "--json", "out.json"]);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        let b = args(&["--jobs=2", "--json=x.json"]);
        assert_eq!(b.jobs, 2);
        assert_eq!(b.json.as_deref(), Some("x.json"));
    }

    #[test]
    fn budget_flags_parse_and_build_budgets() {
        let a = args(&["--timeout-ms", "500"]);
        assert_eq!(a.timeout_ms, 500);
        let b = a.budgets();
        assert_eq!(b.timeout, Some(Duration::from_millis(500)));
        assert_eq!(b.max_saeg_nodes, None);
        // Omitted flags mean unlimited.
        assert!(args(&[]).budgets().is_unlimited());
    }

    #[test]
    fn cache_flags_parse() {
        let a = args(&["--cache-dir", "/tmp/c", "--quick"]);
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/c"));
        assert!(!a.no_cache);
        let b = args(&["--cache-dir=/tmp/c", "--no-cache"]);
        assert_eq!(b.cache_dir.as_deref(), Some("/tmp/c"));
        assert!(b.no_cache);
        // `--no-cache` wins: no store is opened even with a dir given.
        assert!(b.open_store().is_none());
        // No flags at all: no store.
        assert!(args(&[]).open_store().is_none());
    }

    #[test]
    fn trace_out_parses_both_styles() {
        assert_eq!(
            args(&["--trace-out", "t.json"]).trace_out.as_deref(),
            Some("t.json")
        );
        assert_eq!(
            args(&["--trace-out=t.json"]).trace_out.as_deref(),
            Some("t.json")
        );
        assert!(args(&[]).trace_out.is_none());
    }

    #[test]
    fn fleet_and_findings_out_parse_both_styles() {
        let a = args(&["--fleet", "4", "--findings-out", "f.txt"]);
        assert_eq!(a.fleet, 4);
        assert_eq!(a.findings_out.as_deref(), Some("f.txt"));
        let b = args(&["--fleet=2", "--findings-out=g.txt"]);
        assert_eq!(b.fleet, 2);
        assert_eq!(b.findings_out.as_deref(), Some("g.txt"));
        // Defaults: in-process, no digest.
        assert_eq!(args(&[]).fleet, 0);
        assert!(args(&[]).findings_out.is_none());
    }

    #[test]
    fn metrics_and_events_out_parse_both_styles() {
        let a = args(&["--metrics-out", "m.json", "--events-out", "e.jsonl"]);
        assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(a.events_out.as_deref(), Some("e.jsonl"));
        let b = args(&["--metrics-out=m.json", "--events-out=e.jsonl"]);
        assert_eq!(b.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(b.events_out.as_deref(), Some("e.jsonl"));
        assert!(args(&[]).metrics_out.is_none());
        assert!(args(&[]).events_out.is_none());
        // No `--metrics-out`: finish_metrics is a no-op.
        args(&[]).finish_metrics();
    }

    #[test]
    fn unknown_flags_pass_through_in_order() {
        let a = args(&["--quick", "--jobs", "1", "--repair"]);
        assert_eq!(a.jobs, 1);
        assert_eq!(a.rest, vec!["--quick", "--repair"]);
        assert!(a.has("--quick"));
        assert!(!a.has("--big"));
    }

    #[test]
    fn own_valued_flags_are_taken_in_both_styles() {
        let mut a = args(&["--seed", "5", "--quick", "--count=7", "--seed=6"]);
        assert_eq!(a.take_value("--seed").as_deref(), Some("5"));
        assert_eq!(a.take_value("--count").as_deref(), Some("7"));
        assert_eq!(a.take_value("--seed").as_deref(), Some("6"));
        assert_eq!(a.take_value("--seed"), None);
        assert_eq!(a.rest, vec!["--quick"]);
    }

    #[test]
    fn the_first_flag_a_binary_does_not_know_is_named() {
        let a = args(&["--quick", "--jobs", "1", "--max-conflicts", "5", "--bogus"]);
        assert_eq!(a.unknown(&["--quick", "--repair"]), Some("--max-conflicts"));
        assert_eq!(a.unknown(&[]), Some("--quick"));
        let b = args(&["--repair", "--jobs=2", "--quick", "--json", "t.json"]);
        assert_eq!(b.unknown(&["--quick", "--repair"]), None);
        b.reject_unknown(&["--quick", "--repair"]);
        assert_eq!(args(&["--jobs", "1"]).unknown(&[]), None);
    }
}
