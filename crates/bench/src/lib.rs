//! Shared harness for regenerating the paper's tables and figures.
//!
//! * [`table2_rows`] computes the Table 2 analogue: per workload × tool,
//!   serial runtime and transmitter counts (DT/CT/UDT/UCT for Clou, a
//!   flat count for the Binsec/Haunted-style baseline);
//! * [`fig8_series`] computes the Fig. 8 analogue: per public function of
//!   the synthetic library, S-AEG node count vs serial runtime for both
//!   Clou engines.
//!
//! The binaries `table2` and `fig8` print these.
//!
//! Every entry point takes a `jobs` knob (0 = all cores, 1 = exact
//! serial) threaded down to [`lcm_core::par::map_indexed`]; results are
//! independent of the thread count. [`cli`] parses the shared `--jobs` /
//! `--json` flags and [`json`] renders the `BENCH_*.json` output through
//! `lcm_core::jsonw`.
//!
//! Every entry point also takes an optional [`Store`] (`--cache-dir` on
//! the binaries): with one, per-function results are served from the
//! content-addressed cache when the function, engine, and
//! findings-affecting config are unchanged, and engines only run on
//! misses. A warm re-run over an unchanged corpus performs zero engine
//! analyses; rows carry per-row [`CacheCounts`] so both the table and
//! the JSON make the short-circuit visible.

pub mod cli;
pub mod json;
pub mod trace;

use std::time::Duration;

use lcm_aeg::Saeg;
use lcm_core::govern::Budgets;
use lcm_core::taxonomy::TransmitterClass;
use lcm_corpus::synth::{synthetic_library, SynthConfig};
use lcm_corpus::{all_litmus, crypto, Bench};
use lcm_detect::{CacheStatus, Detector, DetectorConfig, EngineKind, FunctionStatus, PhaseTimings};
use lcm_fleet::Fleet;
use lcm_haunted::{HauntedConfig, HauntedEngine};
use lcm_ir::Module;
use lcm_store::{CacheCounts, Store};

/// Which tool produced a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// This repository's LCM-based detector, PHT engine.
    ClouPht,
    /// LCM-based detector, STL engine.
    ClouStl,
    /// Baseline, PHT mode.
    BhPht,
    /// Baseline, STL mode.
    BhStl,
}

impl Tool {
    /// Display name matching the paper's Table 2.
    pub fn name(self) -> &'static str {
        match self {
            Tool::ClouPht => "Clou-pht",
            Tool::ClouStl => "Clou-stl",
            Tool::BhPht => "bh-pht",
            Tool::BhStl => "bh-stl",
        }
    }
}

/// One row of the Table 2 analogue.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Workload name (e.g. `"litmus-pht"`).
    pub workload: String,
    /// Number of public functions analyzed.
    pub pfun: usize,
    /// Total scheduled-instruction count (LoC proxy).
    pub loc: usize,
    /// Tool.
    pub tool: Tool,
    /// Serial runtime.
    pub time: Duration,
    /// `(DT, CT, UDT, UCT)` for Clou tools; `(bugs, 0, 0, 0)` for BH.
    pub counts: (usize, usize, usize, usize),
    /// Phase breakdown (Clou tools only; zero for BH rows).
    pub timings: PhaseTimings,
    /// Functions whose analysis was cut short, as `(function, reason)`.
    /// Their findings still count toward `counts` as a lower bound.
    pub degraded: Vec<(String, String)>,
    /// How this row's functions interacted with the result cache
    /// (all-bypass when no store was configured).
    pub cache: CacheCounts,
}

impl Table2Row {
    /// Total findings.
    pub fn total(&self) -> usize {
        self.counts.0 + self.counts.1 + self.counts.2 + self.counts.3
    }
}

fn run_clou(
    workload: &str,
    source: &str,
    module: &Module,
    engine: EngineKind,
    jobs: usize,
    budgets: Budgets,
    store: Option<&Store>,
    fleet: Option<&Fleet>,
) -> Table2Row {
    let det = Detector::new(DetectorConfig {
        jobs,
        budgets,
        ..DetectorConfig::default()
    });
    let report = match (fleet, store) {
        // Process-level parallelism: the fleet ships `source` to its
        // workers and applies the identical cache discipline itself.
        (Some(fleet), store) => fleet.analyze_module(source, module, engine, det.config(), store),
        (None, Some(store)) => lcm_store::analyze_module_cached(&det, module, engine, store),
        (None, None) => det.analyze_module(module, engine),
    };
    let cache = CacheCounts::of(&report);
    let degraded = report
        .degraded()
        .map(|f| {
            let reason = f
                .status
                .error()
                .map_or_else(String::new, ToString::to_string);
            (f.name.clone(), reason)
        })
        .collect();
    Table2Row {
        workload: workload.to_string(),
        pfun: module.public_functions().count(),
        loc: module.total_scheduled(),
        tool: if engine == EngineKind::Pht {
            Tool::ClouPht
        } else {
            Tool::ClouStl
        },
        time: report.total_runtime(),
        counts: (
            report.count(TransmitterClass::Data),
            report.count(TransmitterClass::Control),
            report.count(TransmitterClass::UniversalData),
            report.count(TransmitterClass::UniversalControl),
        ),
        timings: report.timings(),
        degraded,
        cache,
    }
}

fn run_bh(
    workload: &str,
    module: &Module,
    engine: HauntedEngine,
    jobs: usize,
    store: Option<&Store>,
) -> Table2Row {
    let config = HauntedConfig {
        jobs,
        ..HauntedConfig::default()
    };
    let (report, cache) = match store {
        Some(store) => lcm_store::analyze_module_bh_cached(module, engine, config, store),
        None => {
            let report = lcm_haunted::analyze_module(module, engine, config);
            let cache = CacheCounts {
                bypassed: report.functions.len() as u64,
                ..CacheCounts::default()
            };
            (report, cache)
        }
    };
    Table2Row {
        workload: workload.to_string(),
        pfun: module.public_functions().count(),
        loc: module.total_scheduled(),
        tool: if engine == HauntedEngine::Pht {
            Tool::BhPht
        } else {
            Tool::BhStl
        },
        time: report.total_runtime(),
        counts: (report.total_leaks(), 0, 0, 0),
        timings: {
            let sum = |f: fn(&lcm_haunted::HauntedReport) -> std::time::Duration| {
                report.functions.iter().map(f).sum::<std::time::Duration>()
            };
            let (exe, wit) = (sum(|r| r.t_execute), sum(|r| r.t_witness));
            PhaseTimings {
                // `baseline` keeps only the remainder the two sub-phases
                // don't account for (A-CFG build, report assembly).
                baseline: report.total_runtime().saturating_sub(exe + wit),
                bh_execute: exe,
                bh_witness: wit,
                ..PhaseTimings::default()
            }
        },
        degraded: report
            .functions
            .iter()
            .filter_map(|f| f.degraded.as_ref().map(|d| (f.name.clone(), d.clone())))
            .collect(),
        cache,
    }
}

/// Merges a suite of single-program benches into one module per bench and
/// aggregates rows (litmus suites are analyzed per program, like the
/// paper's per-file runs). With `jobs > 1` the benches of a suite run on
/// worker threads; aggregation order (and thus every aggregate) is
/// unchanged.
pub fn suite_rows(
    workload: &str,
    benches: &[Bench],
    jobs: usize,
    budgets: Budgets,
    store: Option<&Store>,
    fleet: Option<&Fleet>,
) -> Vec<Table2Row> {
    let mut rows: Vec<Table2Row> = Vec::new();
    for tool in [Tool::ClouPht, Tool::ClouStl, Tool::BhPht, Tool::BhStl] {
        let mut acc = Table2Row {
            workload: workload.to_string(),
            pfun: 0,
            loc: 0,
            tool,
            time: Duration::ZERO,
            counts: (0, 0, 0, 0),
            timings: PhaseTimings::default(),
            degraded: Vec::new(),
            cache: CacheCounts::default(),
        };
        // Suites are many small single-function programs: parallelize
        // across benches (inner analysis stays serial per module). With
        // a fleet the parallelism is process-level instead — the outer
        // loop goes serial so modules reach the supervisor in order.
        let outer_jobs = if fleet.is_some() { 1 } else { jobs };
        let per_bench = lcm_core::par::map_indexed(benches, outer_jobs, |_, bench| {
            let m = bench.module();
            let src = &bench.source;
            match tool {
                Tool::ClouPht => {
                    run_clou(workload, src, &m, EngineKind::Pht, 1, budgets, store, fleet)
                }
                Tool::ClouStl => {
                    run_clou(workload, src, &m, EngineKind::Stl, 1, budgets, store, fleet)
                }
                Tool::BhPht => run_bh(workload, &m, HauntedEngine::Pht, 1, store),
                Tool::BhStl => run_bh(workload, &m, HauntedEngine::Stl, 1, store),
            }
        });
        for row in per_bench {
            acc.pfun += row.pfun;
            acc.loc += row.loc;
            acc.time += row.time;
            acc.counts.0 += row.counts.0;
            acc.counts.1 += row.counts.1;
            acc.counts.2 += row.counts.2;
            acc.counts.3 += row.counts.3;
            acc.timings.merge(&row.timings);
            acc.degraded.extend(row.degraded);
            acc.cache.merge(row.cache);
        }
        rows.push(acc);
    }
    rows
}

/// Computes every row of the Table 2 analogue.
///
/// `quick` skips the two synthetic-library workloads (`table2 --quick`,
/// the CI smoke runs). `jobs` is the worker
/// thread count (0 = all cores, 1 = serial); rows are identical either
/// way.
pub fn table2_rows(
    quick: bool,
    jobs: usize,
    budgets: Budgets,
    store: Option<&Store>,
    fleet: Option<&Fleet>,
) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for (suite, benches) in all_litmus() {
        rows.extend(suite_rows(suite, &benches, jobs, budgets, store, fleet));
    }
    for bench in crypto::all_crypto() {
        rows.extend(suite_rows(
            bench.name,
            std::slice::from_ref(&bench),
            jobs,
            budgets,
            store,
            fleet,
        ));
    }
    if !quick {
        for (name, cfg) in [
            ("libsodium(synth)", SynthConfig::libsodium_scale()),
            ("openssl(synth)", SynthConfig::openssl_scale()),
        ] {
            let (src, _) = synthetic_library(cfg);
            let m = lcm_minic::compile(&src).expect("synthetic library compiles");
            let pht = run_clou(name, &src, &m, EngineKind::Pht, jobs, budgets, store, fleet);
            rows.push(pht);
            let stl = run_clou(name, &src, &m, EngineKind::Stl, jobs, budgets, store, fleet);
            rows.push(stl);
            rows.push(run_bh(name, &m, HauntedEngine::Pht, jobs, store));
            rows.push(run_bh(name, &m, HauntedEngine::Stl, jobs, store));
        }
    }
    rows
}

/// Renders `rows` as a timing-free findings digest: one line per row
/// with workload, tool, function/LoC counts, the four finding counts,
/// and every degradation (function + reason). Runtimes are the one
/// field that varies run to run, so this digest is byte-identical
/// between any two runs that found the same things — CI diffs it
/// across in-process vs `--fleet N` runs and across armed fault sites.
pub fn findings_digest(rows: &[Table2Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for r in rows {
        let _ = write!(
            s,
            "{}|{}|pfun={}|loc={}|dt={}|ct={}|udt={}|uct={}",
            r.workload,
            r.tool.name(),
            r.pfun,
            r.loc,
            r.counts.0,
            r.counts.1,
            r.counts.2,
            r.counts.3
        );
        for (func, reason) in &r.degraded {
            let _ = write!(s, "|degraded:{func}={reason}");
        }
        s.push('\n');
    }
    s
}

/// Renders rows as the paper-style text table.
pub fn render_table2(rows: &[Table2Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<20} {:>5} {:>7}  {:<10} {:>10}  {:>6} {:>6} {:>6} {:>6}",
        "App (PFun/LoC)", "PFun", "LoC", "Tool", "Time", "DT", "CT", "UDT", "UCT"
    );
    let _ = writeln!(s, "{}", "-".repeat(92));
    for r in rows {
        let _ = writeln!(
            s,
            "{:<20} {:>5} {:>7}  {:<10} {:>9.3?}  {:>6} {:>6} {:>6} {:>6}",
            r.workload,
            r.pfun,
            r.loc,
            r.tool.name(),
            r.time,
            r.counts.0,
            r.counts.1,
            r.counts.2,
            r.counts.3
        );
    }
    s
}

/// One point of the Fig. 8 analogue.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Function name.
    pub function: String,
    /// S-AEG node count.
    pub size: usize,
    /// PHT-engine serial runtime.
    pub pht_time: Duration,
    /// STL-engine serial runtime.
    pub stl_time: Duration,
    /// `Some(reason)` when either engine's analysis was cut short (the
    /// point's times/counts are then a lower bound).
    pub degraded: Option<String>,
    /// `Hit` when *both* engines' results came from the store, `Miss`
    /// when they ran and were inserted, `Bypass` with no store.
    pub cache: CacheStatus,
}

/// Reason string for a degraded point, labelled by engine.
fn fig8_degraded(pht: &FunctionStatus, stl: &FunctionStatus) -> Option<String> {
    let mut parts = Vec::new();
    if let Some(e) = pht.error() {
        parts.push(format!("pht: {e}"));
    }
    if let Some(e) = stl.error() {
        parts.push(format!("stl: {e}"));
    }
    (!parts.is_empty()).then(|| parts.join("; "))
}

/// Computes the Fig. 8 scatter over the synthetic library.
///
/// Each function's S-AEG is built **once** and both engines run over it
/// (the engines only differ in the speculation primitive they consider,
/// so the graph is shared). Functions fan out over `jobs` workers; a
/// worker that panics or trips a budget degrades only its own point.
pub fn fig8_series(
    cfg: SynthConfig,
    jobs: usize,
    budgets: Budgets,
    store: Option<&Store>,
) -> Vec<Fig8Point> {
    let (src, _) = synthetic_library(cfg);
    let m = lcm_minic::compile(&src).expect("synthetic library compiles");
    let det = Detector::new(DetectorConfig {
        budgets,
        ..DetectorConfig::default()
    });
    let names: Vec<String> = m.public_functions().map(|f| f.name.clone()).collect();
    let faults = det.config().faults.merged_with_env();
    let per_fn = lcm_core::par::map_indexed_catch(&names, jobs, |i, name| {
        if faults.fires(lcm_core::fault::site::WORKER_PANIC, i) {
            panic!("injected fault: worker_panic in function {i} (`{name}`)");
        }
        // Both engines' fingerprints: a point is only a hit when the
        // store answers for *both* (they share one S-AEG build, so a
        // half-hit saves nothing — the graph gets built regardless).
        let fps = store.map(|_| {
            (
                lcm_store::clou_fingerprint(&m, name, det.config(), EngineKind::Pht),
                lcm_store::clou_fingerprint(&m, name, det.config(), EngineKind::Stl),
            )
        });
        if let (Some(store), Some((fp_pht, fp_stl))) = (store, fps) {
            let t0 = std::time::Instant::now();
            if let Some(pht) = store.lookup_clou(fp_pht) {
                let pht_time = t0.elapsed();
                let t1 = std::time::Instant::now();
                if store.lookup_clou(fp_stl).is_some() {
                    return Fig8Point {
                        function: name.clone(),
                        size: pht.saeg_size,
                        pht_time,
                        stl_time: t1.elapsed(),
                        degraded: None,
                        cache: CacheStatus::Hit,
                    };
                }
            }
        }
        let acfg = match lcm_ir::acfg::build_acfg(&m, name) {
            Ok(a) => a,
            Err(e) => {
                return Fig8Point {
                    function: name.clone(),
                    size: 0,
                    pht_time: Duration::ZERO,
                    stl_time: Duration::ZERO,
                    degraded: Some(format!("malformed IR: {e}")),
                    cache: CacheStatus::Bypass,
                }
            }
        };
        let saeg = Saeg::from_acfg(name, acfg, det.config().spec);
        let mut pht = det.analyze_saeg_report_at(&m, &saeg, EngineKind::Pht, i);
        let mut stl = det.analyze_saeg_report_at(&m, &saeg, EngineKind::Stl, i);
        let cache = match (store, fps) {
            (Some(store), Some((fp_pht, fp_stl))) => {
                // Degraded results are never stored (their findings are
                // a lower bound, not the answer).
                if pht.status.is_completed() {
                    pht.cache = CacheStatus::Miss;
                    store.insert_clou(fp_pht, &pht);
                }
                if stl.status.is_completed() {
                    stl.cache = CacheStatus::Miss;
                    store.insert_clou(fp_stl, &stl);
                }
                CacheStatus::Miss
            }
            _ => CacheStatus::Bypass,
        };
        Fig8Point {
            function: name.clone(),
            size: saeg.events.len(),
            pht_time: pht.runtime,
            stl_time: stl.runtime,
            degraded: fig8_degraded(&pht.status, &stl.status),
            cache,
        }
    });
    let mut out: Vec<Fig8Point> = per_fn
        .into_iter()
        .zip(&names)
        .map(|(r, name)| match r {
            Ok(p) => p,
            Err(message) => Fig8Point {
                function: name.clone(),
                size: 0,
                pht_time: Duration::ZERO,
                stl_time: Duration::ZERO,
                degraded: Some(format!("worker panic: {message}")),
                cache: CacheStatus::Bypass,
            },
        })
        .collect();
    out.sort_by_key(|p| p.size);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn litmus_rows_have_all_tools() {
        // Restricted to the litmus suites: fast enough under the debug
        // profile. The crypto + synthetic workloads run in the binaries
        // (release profile).
        let mut rows = Vec::new();
        for (suite, benches) in all_litmus() {
            rows.extend(suite_rows(
                suite,
                &benches,
                1,
                Budgets::default(),
                None,
                None,
            ));
        }
        assert_eq!(rows.len(), 4 * 4);
        assert!(
            rows.iter().all(|r| r.degraded.is_empty()),
            "unlimited budgets must not degrade anything"
        );
        let pht_row = rows
            .iter()
            .find(|r| r.workload == "litmus-pht" && r.tool == Tool::ClouPht)
            .unwrap();
        assert!(
            pht_row.counts.2 >= 14,
            "one UDT per PHT program at least: {:?}",
            pht_row.counts
        );
        let rendered = render_table2(&rows);
        assert!(rendered.contains("Clou-pht"));
        assert!(rendered.contains("bh-stl"));
        assert!(rendered.contains("litmus-fwd"));
    }

    #[test]
    fn warm_suite_rows_are_all_hits_with_identical_counts() {
        let path = std::env::temp_dir().join(format!(
            "lcm-bench-warm-{}-{:?}.lcmstore",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_file(&path).ok();
        let store = Store::open(&path).unwrap();
        // One suite keeps the debug-profile cost down; the full-corpus
        // differential runs in CI against the release binaries.
        let (suite, benches) = &all_litmus()[0];
        let cold = suite_rows(suite, benches, 1, Budgets::default(), Some(&store), None);
        let warm = suite_rows(suite, benches, 1, Budgets::default(), Some(&store), None);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.cache.hits, 0, "{}: cold run cannot hit", c.workload);
            assert_eq!(c.cache.bypassed, 0, "{}: everything cacheable", c.workload);
            assert_eq!(
                w.cache,
                CacheCounts {
                    hits: c.cache.misses,
                    misses: 0,
                    bypassed: 0
                },
                "{} [{}]: warm run must be all hits",
                w.workload,
                w.tool.name()
            );
            // Findings identical across the hit/miss boundary.
            assert_eq!(c.counts, w.counts);
            assert_eq!(c.pfun, w.pfun);
        }
        // Warm Clou rows never ran an engine: zero feasibility queries,
        // zero graph builds — the cache bucket is the only phase with time.
        let warm_clou = &warm[0];
        assert_eq!(warm_clou.timings.queries_avoided, 0);
        assert_eq!(warm_clou.timings.cache_hits as usize, warm_clou.pfun);
        std::fs::remove_file(&path).ok();
    }
}
