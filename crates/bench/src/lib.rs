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

use std::time::{Duration, Instant};

use lcm_core::govern::Budgets;
use lcm_core::taxonomy::TransmitterClass;
use lcm_corpus::synth::{synthetic_library, SynthConfig};
use lcm_corpus::{all_litmus, crypto, Bench};
use lcm_detect::{
    CacheStatus, Detector, DetectorConfig, EngineKind, FunctionReport, FunctionStatus,
    ModuleReport, PhaseTimings,
};
use lcm_fleet::Fleet;
use lcm_haunted::{HauntedConfig, HauntedEngine};
use lcm_ir::Module;
use lcm_store::codec::{encode_finding, W};
use lcm_store::fp::Fnv128;
use lcm_store::{CacheCounts, Fingerprint, Store};

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
    /// Clou rows of a run asked for a digest: FNV-1a/128 of every
    /// finding's [`lcm_store::codec::encode_finding`] bytes, in report
    /// order (a suite row folds its benches' hashes in bench order).
    /// `None` for baseline rows and when no digest was asked for.
    pub findings: Option<Fingerprint>,
}

impl Table2Row {
    /// Total findings.
    pub fn total(&self) -> usize {
        self.counts.0 + self.counts.1 + self.counts.2 + self.counts.3
    }
}

/// Hashes every finding of `report` through the store codec, in
/// report order: any change to a finding, its witness seed or its
/// position changes the hash.
fn findings_hash(report: &ModuleReport) -> Fingerprint {
    let mut h = Fnv128::default();
    let mut w = W::new();
    for f in report.findings() {
        w.0.clear();
        encode_finding(&mut w, f);
        h.update(&w.0);
    }
    h.finish()
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
    digest: bool,
) -> Table2Row {
    let det = Detector::new(DetectorConfig {
        jobs,
        budgets,
        ..DetectorConfig::default()
    });
    let report = lcm_fleet::analyze_module(fleet, store, &det, source, module, engine);
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
        findings: digest.then(|| findings_hash(&report)),
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
        findings: None,
    }
}

/// Merges a suite of single-program benches into one module per bench and
/// aggregates rows (litmus suites are analyzed per program, like the
/// paper's per-file runs). With `jobs > 1` the benches of a suite run on
/// worker threads; aggregation order (and thus every aggregate) is
/// unchanged. `digest` fills [`Table2Row::findings`].
pub fn suite_rows(
    workload: &str,
    benches: &[Bench],
    jobs: usize,
    budgets: Budgets,
    store: Option<&Store>,
    fleet: Option<&Fleet>,
    digest: bool,
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
            findings: None,
        };
        let mut hash = Fnv128::default();
        // Suites are many small single-function programs: parallelize
        // across benches (inner analysis stays serial per module). With
        // a fleet the parallelism is process-level instead — the outer
        // loop goes serial so modules reach the supervisor in order.
        let outer_jobs = if fleet.is_some() { 1 } else { jobs };
        let per_bench = lcm_core::par::map_indexed(benches, outer_jobs, |_, bench| {
            let m = bench.module();
            let src = &bench.source;
            match tool {
                Tool::ClouPht => run_clou(
                    workload,
                    src,
                    &m,
                    EngineKind::Pht,
                    1,
                    budgets,
                    store,
                    fleet,
                    digest,
                ),
                Tool::ClouStl => run_clou(
                    workload,
                    src,
                    &m,
                    EngineKind::Stl,
                    1,
                    budgets,
                    store,
                    fleet,
                    digest,
                ),
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
            if let Some(fp) = row.findings {
                hash.update(&fp.to_bytes());
                acc.findings = Some(hash.finish());
            }
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
/// way. `digest` hashes every Clou finding into [`Table2Row::findings`]
/// for [`findings_digest`]; it costs tens of milliseconds, so only runs
/// that write a digest ask for it.
pub fn table2_rows(
    quick: bool,
    jobs: usize,
    budgets: Budgets,
    store: Option<&Store>,
    fleet: Option<&Fleet>,
    digest: bool,
) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for (suite, benches) in all_litmus() {
        rows.extend(suite_rows(
            suite, &benches, jobs, budgets, store, fleet, digest,
        ));
    }
    for bench in crypto::all_crypto() {
        rows.extend(suite_rows(
            bench.name,
            std::slice::from_ref(&bench),
            jobs,
            budgets,
            store,
            fleet,
            digest,
        ));
    }
    if !quick {
        for (name, cfg) in [
            ("libsodium(synth)", SynthConfig::libsodium_scale()),
            ("openssl(synth)", SynthConfig::openssl_scale()),
        ] {
            let (src, _) = synthetic_library(cfg);
            let m = lcm_minic::compile(&src).expect("synthetic library compiles");
            let pht = run_clou(
                name,
                &src,
                &m,
                EngineKind::Pht,
                jobs,
                budgets,
                store,
                fleet,
                digest,
            );
            rows.push(pht);
            let stl = run_clou(
                name,
                &src,
                &m,
                EngineKind::Stl,
                jobs,
                budgets,
                store,
                fleet,
                digest,
            );
            rows.push(stl);
            rows.push(run_bh(name, &m, HauntedEngine::Pht, jobs, store));
            rows.push(run_bh(name, &m, HauntedEngine::Stl, jobs, store));
        }
    }
    rows
}

/// Renders `rows` as a timing-free findings digest: one line per row
/// with workload, tool, function/LoC counts, the four finding counts,
/// for Clou rows the hash of every finding's store-codec bytes in
/// report order ([`Table2Row::findings`]), and every degradation
/// (function + reason). Runtimes are the one field that varies run to
/// run, so this digest is byte-identical between any two runs that
/// found the same things, witness seeds and order included — CI diffs
/// it across job counts, in-process vs `--fleet N` runs and armed fault
/// sites.
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
        if let Some(fp) = r.findings {
            let _ = write!(s, "|findings={:032x}", fp.0);
        }
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
    /// when both ran and were inserted, `Bypass` otherwise (no store, or
    /// a degraded result the store refused).
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

/// The two engines of every Fig. 8 point, in report order.
const FIG8_ENGINES: [EngineKind; 2] = [EngineKind::Pht, EngineKind::Stl];

/// Computes the Fig. 8 scatter over the synthetic library.
///
/// Each function's S-AEG is built **once** and both engines run over it
/// ([`Detector::analyze_engines`]; the engines only differ in the
/// speculation primitive they consider, so the graph is shared).
/// Functions fan out over `jobs` workers; a worker that panics or trips
/// a budget degrades only its own point. With a store, a point skips
/// the build only when the store answers for *both* engines — a half
/// hit saves nothing, since the graph gets built regardless — and
/// results are stamped and settled by lcm-store's cache rule.
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
        let keyed = store.map(|store| {
            let fps = FIG8_ENGINES.map(|e| lcm_store::clou_fingerprint(&m, name, det.config(), e));
            (store, fps)
        });
        let [pht, stl] = keyed
            .and_then(|(store, fps)| stored_pair(store, fps))
            .unwrap_or_else(|| {
                let mut reports = det.analyze_engines(&m, name, FIG8_ENGINES, i, &faults);
                for (k, report) in reports.iter_mut().enumerate() {
                    lcm_store::settle(report, keyed.map(|(store, fps)| (store, fps[k])));
                }
                reports
            });
        Fig8Point {
            function: name.clone(),
            size: pht.saeg_size,
            pht_time: engine_time(&pht),
            stl_time: engine_time(&stl),
            degraded: fig8_degraded(&pht.status, &stl.status),
            cache: if pht.cache == stl.cache {
                pht.cache
            } else {
                CacheStatus::Bypass
            },
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

/// Both engines' stored reports, stamped as hits, or `None` unless the
/// store answers for both.
fn stored_pair(store: &Store, fps: [Fingerprint; 2]) -> Option<[FunctionReport; 2]> {
    let t0 = Instant::now();
    let mut pht = store.lookup_clou(fps[0])?;
    let pht_lookup = t0.elapsed();
    let t1 = Instant::now();
    let mut stl = store.lookup_clou(fps[1])?;
    lcm_store::stamp_hit(&mut pht, pht_lookup);
    lcm_store::stamp_hit(&mut stl, t1.elapsed());
    Some([pht, stl])
}

/// A report's time minus the shared graph build, which the first
/// engine's report carries: the scatter plots engine time.
fn engine_time(report: &FunctionReport) -> Duration {
    report
        .runtime
        .saturating_sub(report.timings.acfg_build + report.timings.saeg_build)
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
                true,
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
        assert!(rows
            .iter()
            .all(|r| r.findings.is_some() == matches!(r.tool, Tool::ClouPht | Tool::ClouStl)));
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
        let cold = suite_rows(
            suite,
            benches,
            1,
            Budgets::default(),
            Some(&store),
            None,
            true,
        );
        let warm = suite_rows(
            suite,
            benches,
            1,
            Budgets::default(),
            Some(&store),
            None,
            true,
        );
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
            assert_eq!(c.findings, w.findings);
            assert_eq!(c.pfun, w.pfun);
        }
        // Warm Clou rows never ran an engine: zero feasibility queries,
        // zero graph builds — the cache bucket is the only phase with time.
        let warm_clou = &warm[0];
        assert_eq!(warm_clou.timings.queries_avoided, 0);
        assert_eq!(warm_clou.timings.cache_hits as usize, warm_clou.pfun);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_fig8_is_all_hits_with_identical_points() {
        // Asserts specific cache labels, so an armed `LCM_FAULT` (which
        // degrades points, and degraded points are never cached) skips.
        if std::env::var(lcm_core::fault::FAULT_ENV).is_ok_and(|v| !v.trim().is_empty()) {
            return;
        }
        let path = std::env::temp_dir().join(format!(
            "lcm-bench-fig8-{}-{:?}.lcmstore",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_file(&path).ok();
        let store = Store::open(&path).unwrap();
        let cfg = SynthConfig {
            functions: 6,
            max_stmts: 24,
            ..SynthConfig::libsodium_scale()
        };
        let cold = fig8_series(cfg, 1, Budgets::default(), Some(&store));
        let warm = fig8_series(cfg, 1, Budgets::default(), Some(&store));
        assert_eq!(cold.len(), 6);
        assert!(cold
            .iter()
            .all(|p| p.cache == CacheStatus::Miss && p.degraded.is_none()));
        assert!(warm.iter().all(|p| p.cache == CacheStatus::Hit));
        let rows = |ps: &[Fig8Point]| -> Vec<(String, usize)> {
            ps.iter().map(|p| (p.function.clone(), p.size)).collect()
        };
        assert_eq!(rows(&cold), rows(&warm));
        // Both engines' results were stored, one record per engine.
        assert_eq!(store.len(), 2 * cold.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn findings_hash_sees_witness_seeds_and_order() {
        let m = lcm_minic::compile(
            "int A[16]; int B[256]; int n; int t; void v(int y) { if (y < n) { t &= B[A[y]]; } }",
        )
        .unwrap();
        let report = Detector::new(DetectorConfig {
            jobs: 1,
            ..DetectorConfig::default()
        })
        .analyze_module(&m, EngineKind::Pht);
        assert!(report.functions[0].transmitters.len() >= 2);
        let base = findings_hash(&report);
        assert_eq!(base, findings_hash(&report.clone()));
        let mut seed = report.clone();
        seed.functions[0].transmitters[0].witness_blocks.reverse();
        seed.functions[0].transmitters[0]
            .witness_blocks
            .push(lcm_ir::BlockId(99));
        assert_ne!(base, findings_hash(&seed), "a witness seed change shows");
        let mut order = report.clone();
        order.functions[0].transmitters.swap(0, 1);
        assert_ne!(base, findings_hash(&order), "an order change shows");
    }
}
