//! Named counters, gauges, and histograms with Prometheus / JSON
//! exposition.
//!
//! Metrics are always on: an update is a handful of relaxed atomic
//! adds, cheap enough for every hot path in the pipeline (the most
//! frequent observer, the SAT solve-latency histogram, sits next to an
//! actual solver call). Registration is get-or-create by name, so
//! independent subsystems can share a metric without coordination;
//! hot call sites should cache the returned handle (it is an `Arc`)
//! in a `OnceLock` rather than re-resolving the name.
//!
//! Naming follows Prometheus conventions: `lcm_` prefix, `_total`
//! suffix on counters, `_seconds` on time histograms. The well-known
//! names the pipeline registers live in [`names`] — one place to look
//! when grepping a scrape.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Well-known metric names registered by the pipeline.
pub mod names {
    /// SAT queries that reached screen/memo/solver (`FeasStats::queries`).
    pub const SAT_QUERIES: &str = "lcm_sat_queries_total";
    /// Queries answered by the assumption-trie memo.
    pub const SAT_MEMO_HITS: &str = "lcm_sat_memo_hits_total";
    /// Queries avoided entirely by the reachability pre-screen.
    pub const SAT_QUERIES_AVOIDED: &str = "lcm_sat_queries_avoided_total";
    /// Candidate pairs dismissed by the block-reachability prefilter.
    pub const SAT_PREFILTER_HITS: &str = "lcm_sat_prefilter_hits_total";
    /// Wall-clock latency of actual solver calls.
    pub const SOLVE_LATENCY: &str = "lcm_solve_latency_seconds";
    /// Function results served from the store.
    pub const CACHE_HITS: &str = "lcm_cache_hits_total";
    /// Function results analyzed and inserted.
    pub const CACHE_MISSES: &str = "lcm_cache_misses_total";
    /// Function results that skipped the store (degraded/uncacheable).
    pub const CACHE_BYPASS: &str = "lcm_cache_bypass_total";
    /// Resource-governor budget trips (timeouts, conflict/node/edge).
    pub const GOVERNOR_TRIPS: &str = "lcm_governor_trips_total";
    /// Worker panics caught and degraded by the parallel driver.
    pub const WORKER_PANICS: &str = "lcm_worker_panics_total";
    /// Intra-function work units scheduled on the parallel pool (the
    /// haunted baseline's path splits; the Clou engines never split a
    /// function).
    pub const WORK_UNITS: &str = "lcm_work_units_total";
    /// Solver calls served by an already-warm persistent solver.
    pub const SOLVER_REUSES: &str = "lcm_solver_reuses_total";
    /// Learnt clauses retained across queries by persistent solvers.
    pub const SAT_CLAUSES_RETAINED: &str = "lcm_sat_clauses_retained_total";
    /// Daemon connections accepted.
    pub const SERVE_REQUESTS: &str = "lcm_serve_requests_total";
    /// Daemon analyze requests completed, by engine.
    pub const SERVE_ANALYSES_PHT: &str = "lcm_serve_analyses_pht_total";
    /// Daemon analyze requests completed, by engine.
    pub const SERVE_ANALYSES_STL: &str = "lcm_serve_analyses_stl_total";
    /// Daemon analyze requests completed, by engine.
    pub const SERVE_ANALYSES_PSF: &str = "lcm_serve_analyses_psf_total";
    /// Time a queued daemon connection waited for a worker.
    pub const SERVE_QUEUE_WAIT: &str = "lcm_serve_queue_wait_seconds";
    /// v2 protocol frames received by the daemon.
    pub const SERVE_FRAMES: &str = "lcm_serve_frames_total";
    /// Programs submitted inside batched analyze frames.
    pub const SERVE_BATCH_ITEMS: &str = "lcm_serve_batch_items_total";
    /// Frames shed with a `busy` reply (in-flight queue full).
    pub const SERVE_BUSY: &str = "lcm_serve_busy_total";
    /// Enqueue-to-reply latency of daemon analyze frames.
    pub const SERVE_REQUEST_LATENCY: &str = "lcm_serve_request_latency_seconds";
    /// Client-observed request latency recorded by the `loadgen` bench.
    pub const LOADGEN_LATENCY: &str = "lcm_loadgen_latency_seconds";
    /// Programs generated and analyzed by the differential fuzz harness.
    pub const FUZZ_PROGRAMS: &str = "lcm_fuzz_programs_total";
    /// Engine-vs-oracle disagreements found by the fuzz harness.
    pub const FUZZ_MISMATCHES: &str = "lcm_fuzz_mismatches_total";
    /// Candidate executions built by the litmus enumerator.
    pub const ENUM_EXECUTIONS: &str = "lcm_enum_executions_total";
    /// Candidate choice vectors skipped as non-canonical under the
    /// program's symmetry group (location/thread renaming).
    pub const ENUM_SYMMETRY_PRUNED: &str = "lcm_enum_symmetry_pruned_total";
    /// Worker-slot restarts performed by the fleet supervisor.
    pub const FLEET_RESTARTS: &str = "lcm_fleet_restarts_total";
    /// Tasks an idle worker stole from a peer slot's queue.
    pub const FLEET_STEALS: &str = "lcm_fleet_steals_total";
    /// Tasks redelivered to a surviving queue after a worker failure.
    pub const FLEET_REDELIVERIES: &str = "lcm_fleet_redeliveries_total";
    /// Worker incarnations killed by the supervisor. Registered per
    /// reason via [`super::labeled`], e.g.
    /// `lcm_fleet_kills_total{reason="crash"}`.
    pub const FLEET_KILLS: &str = "lcm_fleet_kills_total";
}

/// Builds a single-label series name — `name{key="value"}` — usable as
/// a registry key. [`MetricsRegistry::render_prometheus`] emits one
/// `# HELP`/`# TYPE` preamble per base name, so labeled siblings
/// (adjacent in the sorted registry) render as one metric family.
/// Convention: label counters and gauges only; histogram series
/// already append `_bucket{le=…}` suffixes that do not compose with a
/// labeled base.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    format!("{name}{{{key}=\"{value}\"}}")
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive), ascending; an implicit `+Inf` bucket
    /// follows the last.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; `len() == bounds.len() + 1`.
    buckets: Vec<AtomicU64>,
    /// Sum of observations, in nanoseconds-as-integer (no atomic f64
    /// in std; overflows after ~584 years of accumulated latency).
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

/// A histogram with fixed (typically log-scaled) buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one duration observation.
    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_secs(d.as_secs_f64());
    }

    /// Records one observation, in seconds.
    pub fn observe_secs(&self, v: f64) {
        let i = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.0
            .sum_nanos
            .fetch_add((v * 1e9) as u64, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations, in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.0.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// A point-in-time copy of the buckets, for quantile estimation and
    /// reporting (the bench harness reads percentiles from this).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.0.bounds.clone(),
            counts: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum_secs: self.sum_secs(),
            count: self.count(),
        }
    }

    /// Estimated `q`-quantile in seconds (see
    /// [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of a histogram: bucket bounds, per-bucket
/// (non-cumulative) counts (`counts.len() == bounds.len() + 1`, the
/// last being the `+Inf` overflow bucket), total sum and count.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; one longer than `bounds`.
    pub counts: Vec<u64>,
    /// Sum of all observations, in seconds.
    pub sum_secs: f64,
    /// Total observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0..=1.0`) in seconds by linear
    /// interpolation inside the bucket holding the target rank — the
    /// same estimator `histogram_quantile()` applies to a Prometheus
    /// scrape, so numbers quoted from here match dashboards built on
    /// the exposition. Observations in the `+Inf` overflow bucket clamp
    /// to the highest finite bound. Returns `None` when the histogram
    /// is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let below = cumulative as f64;
            cumulative += c;
            if (cumulative as f64) < rank || c == 0 {
                continue;
            }
            // Rank falls in bucket `i`.
            let Some(&upper) = self.bounds.get(i) else {
                // +Inf bucket: the best we can say is "at least the
                // largest finite bound".
                return self.bounds.last().copied();
            };
            let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            let frac = ((rank - below) / c as f64).clamp(0.0, 1.0);
            return Some(lower + (upper - lower) * frac);
        }
        self.bounds.last().copied()
    }
}

/// `count` log-scaled bucket bounds: `start, start·factor, …`.
pub fn exp_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    (0..count).map(|i| start * factor.powi(i as i32)).collect()
}

/// The default latency scale: 1 µs to ~4.2 s in ×4 steps (12 buckets
/// plus the implicit `+Inf`). Wide enough for screen-avoided queries
/// and governed solver timeouts alike.
pub fn latency_buckets() -> Vec<f64> {
    exp_buckets(1e-6, 4.0, 12)
}

/// A point-in-time value of one metric, detached from any registry.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's current total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's buckets, sum, and count.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a whole registry: `(name, help, value)`
/// triples in name order.
///
/// This is the unit of cross-process metrics aggregation: a worker
/// snapshots its registry around each task, ships
/// [`MetricsSnapshot::delta_since`] the previous snapshot over the
/// wire, and the supervisor folds the delta into its own registry with
/// [`MetricsRegistry::merge_delta`] — counters add, histograms merge
/// bucket-wise, so fleet-wide totals read exactly like in-process ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, help, value)`, ascending by name.
    pub metrics: Vec<(String, String, MetricValue)>,
}

impl MetricsSnapshot {
    /// The additive change from `prev` (an earlier snapshot of the
    /// same registry) to `self`: counters subtract, histograms
    /// subtract per bucket. Zero entries are dropped, so an idle
    /// interval yields an empty delta. Gauges are point-in-time, not
    /// additive — they never appear in a delta and stay process-local.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let before: BTreeMap<&str, &MetricValue> = prev
            .metrics
            .iter()
            .map(|(n, _, v)| (n.as_str(), v))
            .collect();
        let mut metrics = Vec::new();
        for (name, help, value) in &self.metrics {
            let prev_v = before.get(name.as_str());
            let d = match (value, prev_v) {
                (MetricValue::Counter(cur), Some(MetricValue::Counter(p))) => {
                    let d = cur.saturating_sub(*p);
                    if d == 0 {
                        continue;
                    }
                    MetricValue::Counter(d)
                }
                (MetricValue::Counter(cur), _) => {
                    if *cur == 0 {
                        continue;
                    }
                    MetricValue::Counter(*cur)
                }
                (MetricValue::Histogram(cur), prev_v) => {
                    let mut h = cur.clone();
                    if let Some(MetricValue::Histogram(p)) = prev_v {
                        if p.bounds == h.bounds {
                            for (c, pc) in h.counts.iter_mut().zip(&p.counts) {
                                *c = c.saturating_sub(*pc);
                            }
                            h.count = h.count.saturating_sub(p.count);
                            h.sum_secs = (h.sum_secs - p.sum_secs).max(0.0);
                        }
                    }
                    if h.count == 0 {
                        continue;
                    }
                    MetricValue::Histogram(h)
                }
                (MetricValue::Gauge(_), _) => continue,
            };
            metrics.push((name.clone(), help.clone(), d));
        }
        MetricsSnapshot { metrics }
    }
}

#[derive(Debug)]
enum Metric {
    Counter { help: String, handle: Counter },
    Gauge { help: String, handle: Gauge },
    Histogram { help: String, handle: Histogram },
}

/// A set of named metrics. One per process in practice ([`global`]).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// Gets or registers a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        let m = inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter {
                help: help.to_string(),
                handle: Counter(Arc::new(AtomicU64::new(0))),
            });
        match m {
            Metric::Counter { handle, .. } => handle.clone(),
            _ => panic!("metric `{name}` already registered as a non-counter"),
        }
    }

    /// Gets or registers a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        let m = inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge {
                help: help.to_string(),
                handle: Gauge(Arc::new(AtomicI64::new(0))),
            });
        match m {
            Metric::Gauge { handle, .. } => handle.clone(),
            _ => panic!("metric `{name}` already registered as a non-gauge"),
        }
    }

    /// Gets or registers a histogram. `bounds` are inclusive upper
    /// bounds in ascending order; a `+Inf` bucket is implicit. The
    /// bounds of an already-registered histogram win.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different type.
    pub fn histogram(&self, name: &str, help: &str, bounds: Vec<f64>) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        let m = inner.entry(name.to_string()).or_insert_with(|| {
            let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Metric::Histogram {
                help: help.to_string(),
                handle: Histogram(Arc::new(HistogramInner {
                    bounds,
                    buckets,
                    sum_nanos: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })),
            }
        });
        match m {
            Metric::Histogram { handle, .. } => handle.clone(),
            _ => panic!("metric `{name}` already registered as a non-histogram"),
        }
    }

    /// A point-in-time copy of every registered metric, for shipping
    /// across a process boundary (see [`MetricsSnapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            metrics: inner
                .iter()
                .map(|(name, m)| match m {
                    Metric::Counter { help, handle } => (
                        name.clone(),
                        help.clone(),
                        MetricValue::Counter(handle.get()),
                    ),
                    Metric::Gauge { help, handle } => {
                        (name.clone(), help.clone(), MetricValue::Gauge(handle.get()))
                    }
                    Metric::Histogram { help, handle } => (
                        name.clone(),
                        help.clone(),
                        MetricValue::Histogram(handle.snapshot()),
                    ),
                })
                .collect(),
        }
    }

    /// Folds a foreign delta into this registry: counters and gauges
    /// add, histograms add per bucket. Metrics not yet registered here
    /// are created with the shipped help text. A histogram delta whose
    /// bounds disagree with the already-registered histogram is
    /// dropped rather than mis-bucketed (in practice every process
    /// buckets latencies with [`latency_buckets`], so bounds agree).
    pub fn merge_delta(&self, delta: &MetricsSnapshot) {
        for (name, help, value) in &delta.metrics {
            match value {
                MetricValue::Counter(n) => self.counter(name, help).add(*n),
                MetricValue::Gauge(v) => self.gauge(name, help).add(*v),
                MetricValue::Histogram(h) => {
                    let handle = self.histogram(name, help, h.bounds.clone());
                    if handle.0.bounds != h.bounds || h.counts.len() != handle.0.buckets.len() {
                        continue;
                    }
                    for (i, c) in h.counts.iter().enumerate() {
                        handle.0.buckets[i].fetch_add(*c, Ordering::Relaxed);
                    }
                    handle
                        .0
                        .sum_nanos
                        .fetch_add((h.sum_secs * 1e9) as u64, Ordering::Relaxed);
                    handle.0.count.fetch_add(h.count, Ordering::Relaxed);
                }
            }
        }
    }

    /// Renders the registry as Prometheus text exposition (version
    /// 0.0.4): `# HELP` / `# TYPE` preambles, `_bucket{le="…"}` /
    /// `_sum` / `_count` series for histograms. Names sort
    /// lexicographically (the registry is a `BTreeMap`), so output is
    /// deterministic. Labeled series built with [`labeled`] sort
    /// adjacent to their siblings and share one preamble per base
    /// name.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut last_base: Option<String> = None;
        for (name, m) in inner.iter() {
            let base = name.split('{').next().unwrap_or(name).to_string();
            let preamble = last_base.as_deref() != Some(base.as_str());
            last_base = Some(base.clone());
            match m {
                Metric::Counter { help, handle } => {
                    if preamble {
                        out.push_str(&format!("# HELP {base} {help}\n"));
                        out.push_str(&format!("# TYPE {base} counter\n"));
                    }
                    out.push_str(&format!("{name} {}\n", handle.get()));
                }
                Metric::Gauge { help, handle } => {
                    if preamble {
                        out.push_str(&format!("# HELP {base} {help}\n"));
                        out.push_str(&format!("# TYPE {base} gauge\n"));
                    }
                    out.push_str(&format!("{name} {}\n", handle.get()));
                }
                Metric::Histogram { help, handle } => {
                    out.push_str(&format!("# HELP {name} {help}\n"));
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for (i, b) in handle.0.bounds.iter().enumerate() {
                        cumulative += handle.0.buckets[i].load(Ordering::Relaxed);
                        out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cumulative}\n"));
                    }
                    cumulative += handle.0.buckets[handle.0.bounds.len()].load(Ordering::Relaxed);
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                    out.push_str(&format!("{name}_sum {}\n", handle.sum_secs()));
                    out.push_str(&format!("{name}_count {}\n", handle.count()));
                }
            }
        }
        out
    }

    /// Renders the registry as one JSON object keyed by metric name.
    /// Counters and gauges map to numbers; histograms to
    /// `{"buckets": [{"le": …, "count": …}, …], "sum": …, "count": …}`
    /// with per-bucket (non-cumulative) counts and `"le": "+Inf"` for
    /// the overflow bucket.
    pub fn render_json(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::from("{");
        for (i, (name, m)) in inner.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Labeled names carry quotes; escape so the key stays a
            // valid JSON string.
            crate::trace::esc_into(&mut out, name);
            out.push(':');
            match m {
                Metric::Counter { handle, .. } => out.push_str(&handle.get().to_string()),
                Metric::Gauge { handle, .. } => out.push_str(&handle.get().to_string()),
                Metric::Histogram { handle, .. } => {
                    out.push_str("{\"buckets\":[");
                    for (j, b) in handle.0.bounds.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let c = handle.0.buckets[j].load(Ordering::Relaxed);
                        out.push_str(&format!("{{\"le\":{b},\"count\":{c}}}"));
                    }
                    let c = handle.0.buckets[handle.0.bounds.len()].load(Ordering::Relaxed);
                    if !handle.0.bounds.is_empty() {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"le\":\"+Inf\",\"count\":{c}}}"));
                    out.push_str(&format!(
                        "],\"sum\":{},\"count\":{}}}",
                        handle.sum_secs(),
                        handle.count()
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

/// The process-wide registry every subsystem reports into.
pub fn global() -> &'static MetricsRegistry {
    static G: OnceLock<MetricsRegistry> = OnceLock::new();
    G.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_accumulate() {
        let r = MetricsRegistry::new();
        let c1 = r.counter("lcm_test_total", "a test counter");
        let c2 = r.counter("lcm_test_total", "ignored duplicate help");
        c1.inc();
        c2.add(4);
        assert_eq!(c1.get(), 5);
        let g = r.gauge("lcm_depth", "a depth");
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn type_confusion_panics() {
        let r = MetricsRegistry::new();
        r.gauge("lcm_x", "");
        r.counter("lcm_x", "");
    }

    #[test]
    fn histogram_buckets_and_sums() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lcm_lat_seconds", "latency", vec![0.001, 0.01, 0.1]);
        h.observe_secs(0.0005); // bucket 0
        h.observe_secs(0.05); // bucket 2
        h.observe_secs(5.0); // +Inf
        h.observe(Duration::from_millis(2)); // bucket 1
        assert_eq!(h.count(), 4);
        assert!((h.sum_secs() - 5.0525).abs() < 1e-6);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE lcm_lat_seconds histogram"));
        assert!(text.contains("lcm_lat_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("lcm_lat_seconds_bucket{le=\"0.01\"} 2"));
        assert!(text.contains("lcm_lat_seconds_bucket{le=\"0.1\"} 3"));
        assert!(text.contains("lcm_lat_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("lcm_lat_seconds_count 4"));
    }

    #[test]
    fn json_render_is_valid_and_ordered() {
        let r = MetricsRegistry::new();
        r.counter("lcm_b_total", "").add(2);
        r.counter("lcm_a_total", "").add(1);
        let h = r.histogram("lcm_h_seconds", "", vec![1.0]);
        h.observe_secs(0.5);
        let json = r.render_json();
        // BTreeMap order: a before b before h.
        let a = json.find("lcm_a_total").unwrap();
        let b = json.find("lcm_b_total").unwrap();
        assert!(a < b);
        assert!(json.contains("\"lcm_a_total\":1"));
        assert!(json.contains("{\"le\":1,\"count\":1}"));
        assert!(json.contains("{\"le\":\"+Inf\",\"count\":0}"));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lcm_q_seconds", "", vec![0.1, 0.2, 0.4]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 10 observations spread 4 / 4 / 2 across the finite buckets.
        for _ in 0..4 {
            h.observe_secs(0.05);
        }
        for _ in 0..4 {
            h.observe_secs(0.15);
        }
        for _ in 0..2 {
            h.observe_secs(0.3);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![4, 4, 2, 0]);
        assert_eq!(snap.count, 10);
        // Rank 5 is the 1st of 4 observations in (0.1, 0.2]:
        // 0.1 + 0.1·(1/4) = 0.125.
        assert!((snap.quantile(0.5).unwrap() - 0.125).abs() < 1e-9);
        // Rank 10 is the 2nd of 2 in (0.2, 0.4]: 0.2 + 0.2·(2/2) = 0.4.
        assert!((snap.quantile(1.0).unwrap() - 0.4).abs() < 1e-9);
        // Rank 2 is midway through the first bucket: 0.1·(2/4) = 0.05.
        assert!((snap.quantile(0.2).unwrap() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn quantile_clamps_overflow_to_last_finite_bound() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lcm_qo_seconds", "", vec![0.1, 1.0]);
        h.observe_secs(50.0); // +Inf bucket
        h.observe_secs(0.05);
        assert!((h.quantile(0.99).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_delta_merge_folds_worker_metrics() {
        // "Worker" registry: some baseline activity, then a task.
        let w = MetricsRegistry::new();
        let c = w.counter("lcm_sat_queries_total", "queries");
        let h = w.histogram("lcm_solve_latency_seconds", "latency", vec![0.01, 0.1]);
        let g = w.gauge("lcm_depth", "depth");
        c.add(10);
        h.observe_secs(0.005);
        g.set(3);
        let before = w.snapshot();
        // Idle interval: empty delta.
        assert_eq!(w.snapshot().delta_since(&before).metrics.len(), 0);
        // The task: 7 more queries, 2 more observations.
        c.add(7);
        h.observe_secs(0.05);
        h.observe_secs(5.0); // +Inf bucket
        g.set(9);
        let delta = w.snapshot().delta_since(&before);
        // Gauges never ship; zero counters are dropped.
        assert_eq!(delta.metrics.len(), 2, "{delta:?}");
        assert_eq!(
            delta.metrics[0].2,
            MetricValue::Counter(7),
            "counter delta subtracts the baseline"
        );
        let MetricValue::Histogram(hd) = &delta.metrics[1].2 else {
            panic!("expected histogram delta: {delta:?}");
        };
        assert_eq!(hd.counts, vec![0, 1, 1]);
        assert_eq!(hd.count, 2);
        // "Supervisor" registry with its own prior counts.
        let s = MetricsRegistry::new();
        s.counter("lcm_sat_queries_total", "queries").add(100);
        s.merge_delta(&delta);
        assert_eq!(s.counter("lcm_sat_queries_total", "").get(), 107);
        let sh = s
            .histogram("lcm_solve_latency_seconds", "", vec![0.01, 0.1])
            .snapshot();
        assert_eq!(sh.counts, vec![0, 1, 1]);
        assert_eq!(sh.count, 2);
        assert!((sh.sum_secs - 5.05).abs() < 1e-6);
        // Merging the same delta again keeps adding (caller tracks
        // what was already shipped).
        s.merge_delta(&delta);
        assert_eq!(s.counter("lcm_sat_queries_total", "").get(), 114);
        // Mismatched bounds are dropped, not mis-bucketed.
        let t = MetricsRegistry::new();
        t.histogram("lcm_solve_latency_seconds", "", vec![1.0]);
        t.merge_delta(&delta);
        assert_eq!(
            t.histogram("lcm_solve_latency_seconds", "", vec![1.0])
                .count(),
            0
        );
    }

    #[test]
    fn labeled_series_share_one_prometheus_preamble() {
        let r = MetricsRegistry::new();
        r.counter(
            &labeled(names::FLEET_KILLS, "reason", "crash"),
            "workers killed",
        )
        .add(3);
        r.counter(
            &labeled(names::FLEET_KILLS, "reason", "deadline"),
            "workers killed",
        )
        .inc();
        r.counter(names::FLEET_RESTARTS, "restarts").inc();
        let text = r.render_prometheus();
        assert_eq!(
            text.matches("# HELP lcm_fleet_kills_total ").count(),
            1,
            "one preamble for the family: {text}"
        );
        assert_eq!(
            text.matches("# TYPE lcm_fleet_kills_total counter").count(),
            1
        );
        assert!(text.contains("lcm_fleet_kills_total{reason=\"crash\"} 3"));
        assert!(text.contains("lcm_fleet_kills_total{reason=\"deadline\"} 1"));
        assert!(text.contains("# HELP lcm_fleet_restarts_total restarts"));
        // JSON keys escape the embedded quotes and stay parseable.
        let json = r.render_json();
        assert!(json.contains("\"lcm_fleet_kills_total{reason=\\\"crash\\\"}\":3"));
    }

    #[test]
    fn exp_buckets_scale_geometrically() {
        let b = latency_buckets();
        assert_eq!(b.len(), 12);
        assert!((b[0] - 1e-6).abs() < 1e-12);
        for w in b.windows(2) {
            assert!((w[1] / w[0] - 4.0).abs() < 1e-9);
        }
    }
}
