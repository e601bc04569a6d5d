//! Cache-aware analysis drivers: the store wired in front of the
//! engines.

use std::time::Instant;

use lcm_core::govern::AnalysisError;
use lcm_detect::{CacheStatus, Detector, EngineKind, FunctionReport, ModuleReport};
use lcm_haunted::{HauntedConfig, HauntedEngine, HauntedModuleReport, HauntedReport};
use lcm_ir::Module;

use crate::fp::{bh_fingerprint, clou_fingerprint};
use crate::Store;

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

/// Analyzes one function through the cache.
///
/// * **Hit** — the stored findings come back verbatim; `runtime` and the
///   `cache` phase bucket are the lookup time; no engine runs.
/// * **Miss** — the engine runs ([`Detector::analyze_function`]-style,
///   governed, with `index` keying the fault plan); a *completed* result
///   is inserted. Degraded results are never cached: their findings are
///   a lower bound that would otherwise be served as truth forever.
pub fn cached_function_report(
    det: &Detector,
    module: &Module,
    fname: &str,
    engine: EngineKind,
    store: &Store,
) -> FunctionReport {
    let t0 = Instant::now();
    let mut sp = lcm_obs::span("cache_lookup", "store");
    sp.arg_str("fn", fname);
    let fp = clou_fingerprint(module, fname, det.config(), engine);
    if let Some(mut hit) = store.lookup_clou(fp) {
        sp.arg_str("cache", CacheStatus::Hit.label());
        cache_traffic(CacheStatus::Hit).inc();
        let elapsed = t0.elapsed();
        hit.runtime = elapsed;
        hit.timings.cache = elapsed;
        hit.timings.cache_hits = 1;
        return hit;
    }
    drop(sp);
    let mut report = det.analyze_function(module, fname, engine);
    if report.status.is_completed() {
        report.cache = CacheStatus::Miss;
        store.insert_clou(fp, &report);
    } else {
        report.cache = CacheStatus::Bypass;
    }
    cache_traffic(report.cache).inc();
    // Everything this function spent beyond the engine run itself —
    // fingerprinting, lookup, insertion — lands in the cache bucket so
    // the breakdown still sums to wall clock.
    let wall = t0.elapsed();
    report.timings.cache = wall.saturating_sub(report.runtime);
    report.runtime = wall;
    report
}

/// The process-wide counter tracking one cache disposition
/// (`lcm_cache_{hits,misses,bypass}_total`).
fn cache_traffic(status: CacheStatus) -> &'static lcm_obs::metrics::Counter {
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

/// [`Detector::analyze_module`] with the store in front: every public
/// function goes through [`cached_function_report`], fanned out over
/// `det.config().jobs` workers. Worker panics degrade the one function
/// (same discipline as the uncached path).
pub fn analyze_module_cached(
    det: &Detector,
    module: &Module,
    engine: EngineKind,
    store: &Store,
) -> ModuleReport {
    let names: Vec<&str> = module.public_functions().map(|f| f.name.as_str()).collect();
    let results = lcm_core::par::map_indexed_catch(&names, det.config().jobs, |_, name| {
        cached_function_report(det, module, name, engine, store)
    });
    let functions = results
        .into_iter()
        .zip(&names)
        .map(|(res, name)| match res {
            Ok(report) => report,
            Err(message) => {
                FunctionReport::degraded(name.to_string(), AnalysisError::WorkerPanic { message })
            }
        })
        .collect();
    ModuleReport { functions }
}

/// The baseline (Binsec/Haunted stand-in) with the store in front.
/// Only *exhaustive or capped-but-deterministic* results are cached:
/// the step/path caps are part of the fingerprint, so a cached partial
/// result is exactly reproducible. Degraded functions (A-CFG failure,
/// worker panic) are never cached.
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
                if was_hit {
                    counts.hits += 1;
                } else if report.degraded.is_none() {
                    counts.misses += 1;
                } else {
                    counts.bypassed += 1;
                }
                report
            }
            Err(message) => {
                counts.bypassed += 1;
                HauntedReport {
                    name: name.to_string(),
                    leaks: Vec::new(),
                    paths_explored: 0,
                    exhausted: false,
                    runtime: std::time::Duration::ZERO,
                    t_execute: std::time::Duration::ZERO,
                    t_witness: std::time::Duration::ZERO,
                    degraded: Some(format!("worker panic: {message}")),
                }
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
