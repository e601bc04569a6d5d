//! Cache-aware analysis drivers: the store wired in front of the
//! engines.
//!
//! This module owns the cache rule. Per function, [`stamp_hit`] and
//! [`settle`] are its two halves and [`cache_traffic`] its counters;
//! per module, [`drive_module`] looks every function up, hands the
//! misses to an executor (the detector's thread fan-out or the fleet's
//! worker processes) and settles what comes back. Everything that puts
//! a store in front of Clou goes through them: the functions below, the
//! fleet and the fig8 harness.

use std::time::{Duration, Instant};

use lcm_core::govern::AnalysisError;
use lcm_detect::{CacheStatus, Detector, DetectorConfig, EngineKind, FunctionReport, ModuleReport};
use lcm_haunted::{HauntedConfig, HauntedEngine, HauntedModuleReport, HauntedReport};
use lcm_ir::Module;

use crate::fp::{bh_fingerprint, clou_fingerprint};
use crate::{Fingerprint, Store};

/// How a batch of function analyses interacted with the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Functions served entirely from the store.
    pub hits: u64,
    /// Functions analyzed and stored.
    pub misses: u64,
    /// Functions that skipped the cache (no store, or uncacheable).
    pub bypassed: u64,
}

impl CacheCounts {
    /// Accumulates another batch.
    pub fn merge(&mut self, other: CacheCounts) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypassed += other.bypassed;
    }

    /// Tallies the per-function `cache` labels of a module report.
    pub fn of(report: &ModuleReport) -> CacheCounts {
        let mut c = CacheCounts::default();
        for f in &report.functions {
            match f.cache {
                CacheStatus::Hit => c.hits += 1,
                CacheStatus::Miss => c.misses += 1,
                CacheStatus::Bypass => c.bypassed += 1,
            }
        }
        c
    }

    /// Total functions observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses + self.bypassed
    }
}

/// The hit half of the cache rule: stamps a report the store answered
/// for. `runtime` and the `cache` phase bucket become the lookup time,
/// `cache_hits` becomes 1, and `lcm_cache_hits_total` goes up by one.
pub fn stamp_hit(hit: &mut FunctionReport, lookup: Duration) {
    hit.cache = CacheStatus::Hit;
    hit.runtime = lookup;
    hit.timings.cache = lookup;
    hit.timings.cache_hits = 1;
    cache_traffic(CacheStatus::Hit).inc();
}

/// The miss half of the cache rule: labels and counts a freshly
/// analyzed report. With a store, a completed report becomes `Miss` and
/// is inserted under its fingerprint. A degraded one becomes `Bypass`
/// and is never inserted: its findings are a lower bound that would
/// otherwise be served as truth forever. A degraded report is counted
/// unless its error is `WorkerPanic`, since a panicking in-process
/// worker never returns a report to count. With no store the report
/// becomes `Bypass` and is not counted.
pub fn settle(report: &mut FunctionReport, store: Option<(&Store, Fingerprint)>) {
    report.cache = CacheStatus::Bypass;
    let Some((store, fp)) = store else {
        return;
    };
    if report.status.is_completed() {
        report.cache = CacheStatus::Miss;
        store.insert_clou(fp, report);
    } else if matches!(
        report.status.error(),
        Some(AnalysisError::WorkerPanic { .. })
    ) {
        return;
    }
    cache_traffic(report.cache).inc();
}

/// The process-wide counter of one cache disposition
/// (`lcm_cache_{hits,misses,bypass}_total`). [`stamp_hit`] and
/// [`settle`] count through it, and so does [`analyze_module_bh_cached`]
/// for the baseline; the daemon's memo replays credit their hits to it
/// and its `stats` reply reads it.
pub fn cache_traffic(status: CacheStatus) -> &'static lcm_obs::metrics::Counter {
    use lcm_obs::metrics::{global, names, Counter};
    use std::sync::OnceLock;
    static HANDLES: OnceLock<[Counter; 3]> = OnceLock::new();
    let [hits, misses, bypass] = HANDLES.get_or_init(|| {
        let g = global();
        [
            g.counter(names::CACHE_HITS, "Function results served from the store"),
            g.counter(
                names::CACHE_MISSES,
                "Function results analyzed and inserted into the store",
            ),
            g.counter(
                names::CACHE_BYPASS,
                "Function results that skipped the store (degraded/uncacheable)",
            ),
        ]
    });
    match status {
        CacheStatus::Hit => hits,
        CacheStatus::Miss => misses,
        CacheStatus::Bypass => bypass,
    }
}

/// The module-level cache rule, for any executor: looks every public
/// function up, hands the misses to `run`, settles what comes back, and
/// returns the reports in module order.
///
/// The pre-pass fingerprints each function once and, with a store,
/// looks it up; a hit is served by [`stamp_hit`] and reaches no
/// executor. It fans out over `config.jobs` [`lcm_core::par`] threads,
/// one `cache_lookup` span per function. `run` is called once, with
/// the misses' module indices and fingerprints, and must return one
/// report per miss in that order; it is not called when every function
/// hits. Each returned report goes through [`settle`], in module order,
/// and its function's fingerprint, lookup and insertion time is added
/// to its `runtime` and `cache` bucket, so breakdowns still sum to wall
/// clock. The pre-pass has no fault site and does not panic; panics
/// come from analysis, which each executor confines to the function.
pub fn drive_module(
    module: &Module,
    engine: EngineKind,
    config: &DetectorConfig,
    store: Option<&Store>,
    run: impl FnOnce(&[usize], &[Fingerprint]) -> Vec<FunctionReport>,
) -> ModuleReport {
    enum Looked {
        Hit(FunctionReport),
        /// The fingerprint, and the time spent on it and its lookup.
        Miss(Fingerprint, Duration),
    }
    let names: Vec<&str> = module.public_functions().map(|f| f.name.as_str()).collect();
    let looked = lcm_core::par::map_indexed(&names, config.jobs, |_, name| {
        let t0 = Instant::now();
        let mut sp = lcm_obs::span("cache_lookup", "store");
        sp.arg_str("fn", name);
        let fp = clou_fingerprint(module, name, config, engine);
        match store.and_then(|s| s.lookup_clou(fp)) {
            Some(mut hit) => {
                sp.arg_str("cache", CacheStatus::Hit.label());
                stamp_hit(&mut hit, t0.elapsed());
                Looked::Hit(hit)
            }
            None => Looked::Miss(fp, t0.elapsed()),
        }
    });
    let (indices, fps): (Vec<usize>, Vec<Fingerprint>) = looked
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l {
            Looked::Miss(fp, _) => Some((i, *fp)),
            Looked::Hit(_) => None,
        })
        .unzip();
    let mut fresh = if indices.is_empty() {
        Vec::new()
    } else {
        run(&indices, &fps)
    }
    .into_iter();
    let functions = looked
        .into_iter()
        .map(|l| match l {
            Looked::Hit(hit) => hit,
            Looked::Miss(fp, spent) => {
                let mut report = fresh
                    .next()
                    .expect("the executor returns one report per miss");
                let t0 = Instant::now();
                settle(&mut report, store.map(|s| (s, fp)));
                let spent = spent + t0.elapsed();
                report.timings.cache += spent;
                report.runtime += spent;
                report
            }
        })
        .collect();
    ModuleReport { functions }
}

/// [`Detector::analyze_module`] with the store in front: [`drive_module`]
/// with the detector's own fan-out ([`Detector::analyze_functions`]) as
/// the executor of the misses.
pub fn analyze_module_cached(
    det: &Detector,
    module: &Module,
    engine: EngineKind,
    store: &Store,
) -> ModuleReport {
    drive_module(module, engine, det.config(), Some(store), |indices, _| {
        det.analyze_functions(module, engine, indices)
    })
}

/// The baseline (Binsec/Haunted stand-in) with the store in front.
/// Only *exhaustive or capped-but-deterministic* results are cached:
/// the step/path caps are part of the fingerprint, so a cached partial
/// result is exactly reproducible. Degraded functions (A-CFG failure,
/// worker panic) are never cached. [`cache_traffic`] counts each
/// function by the rule [`settle`] applies to Clou reports: a hit, a
/// stored miss, or a degraded bypass; a worker panic is not counted.
pub fn analyze_module_bh_cached(
    module: &Module,
    engine: HauntedEngine,
    config: HauntedConfig,
    store: &Store,
) -> (HauntedModuleReport, CacheCounts) {
    let names: Vec<&str> = module.public_functions().map(|f| f.name.as_str()).collect();
    let results = lcm_core::par::map_indexed_catch(&names, config.jobs, |_, name| {
        cached_bh_function(module, name, engine, config, store)
    });
    let mut counts = CacheCounts::default();
    let functions = results
        .into_iter()
        .zip(&names)
        .map(|(res, name)| match res {
            Ok((report, was_hit)) => {
                let status = if was_hit {
                    counts.hits += 1;
                    CacheStatus::Hit
                } else if report.degraded.is_none() {
                    counts.misses += 1;
                    CacheStatus::Miss
                } else {
                    counts.bypassed += 1;
                    CacheStatus::Bypass
                };
                cache_traffic(status).inc();
                report
            }
            Err(message) => {
                counts.bypassed += 1;
                lcm_haunted::degraded_report(name, format!("worker panic: {message}"))
            }
        })
        .collect();
    (HauntedModuleReport { functions }, counts)
}

fn cached_bh_function(
    module: &Module,
    fname: &str,
    engine: HauntedEngine,
    config: HauntedConfig,
    store: &Store,
) -> (HauntedReport, bool) {
    let t0 = Instant::now();
    let fp = bh_fingerprint(module, fname, &config, engine);
    if let Some(mut hit) = store.lookup_bh(fp) {
        hit.runtime = t0.elapsed();
        return (hit, true);
    }
    let report = lcm_haunted::analyze_function(module, fname, engine, config);
    if report.degraded.is_none() {
        store.insert_bh(fp, &report);
    }
    (report, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lcm-cached-{}-{tag}-{n}.lcmstore",
            std::process::id()
        ))
    }

    fn spectre_module() -> Module {
        lcm_minic::compile(
            r#"
            int A[16]; int B[4096]; int size; int tmp;
            void victim(int y) { if (y < size) tmp &= B[A[y] * 512]; }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn second_run_is_all_hits_with_identical_findings() {
        let path = temp_store("warm");
        let store = Store::open(&path).unwrap();
        let det = Detector::default();
        let m = spectre_module();
        let cold = analyze_module_cached(&det, &m, EngineKind::Pht, &store);
        let warm = analyze_module_cached(&det, &m, EngineKind::Pht, &store);
        assert_eq!(CacheCounts::of(&cold).misses, 1);
        assert_eq!(CacheCounts::of(&warm).hits, 1);
        assert_eq!(warm.functions[0].cache, CacheStatus::Hit);
        // Findings identical modulo timing fields.
        assert_eq!(
            cold.functions[0].transmitters,
            warm.functions[0].transmitters
        );
        assert_eq!(cold.functions[0].saeg_size, warm.functions[0].saeg_size);
        // The warm run's only tracked time is the cache bucket.
        assert_eq!(warm.timings().cache_hits, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn degraded_results_are_never_cached() {
        use lcm_core::fault::site;
        use lcm_detect::DetectorConfig;
        let path = temp_store("degraded");
        let store = Store::open(&path).unwrap();
        let m = spectre_module();
        let mut cfg = DetectorConfig::default();
        cfg.faults = lcm_core::FaultPlan::default().arm(site::SOLVER_ABORT, None);
        let det = Detector::new(cfg);
        let r = analyze_module_cached(&det, &m, EngineKind::Pht, &store);
        assert!(!r.functions[0].status.is_completed());
        assert_eq!(r.functions[0].cache, CacheStatus::Bypass);
        assert!(store.is_empty());
        // A healthy detector afterwards misses (nothing was poisoned).
        let det = Detector::default();
        let r = analyze_module_cached(&det, &m, EngineKind::Pht, &store);
        assert_eq!(r.functions[0].cache, CacheStatus::Miss);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bh_results_cache_too() {
        let path = temp_store("bh");
        let store = Store::open(&path).unwrap();
        let m = spectre_module();
        let cfg = HauntedConfig {
            jobs: 1,
            ..HauntedConfig::default()
        };
        let (cold, c0) = analyze_module_bh_cached(&m, HauntedEngine::Pht, cfg, &store);
        let (warm, c1) = analyze_module_bh_cached(&m, HauntedEngine::Pht, cfg, &store);
        assert_eq!(c0.misses, 1);
        assert_eq!(c1.hits, 1);
        assert_eq!(cold.functions[0].leaks, warm.functions[0].leaks);
        assert_eq!(
            cold.functions[0].paths_explored,
            warm.functions[0].paths_explored
        );
        std::fs::remove_file(&path).ok();
    }
}
