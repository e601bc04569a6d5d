//! Deterministic fault injection for the resilience layer.
//!
//! Every degradation path in the analyzer (timeout, budget exhaustion,
//! malformed IR, worker panic, solver abort) has an *injection site*: a
//! named point in the pipeline that, when armed, fails exactly as the
//! real condition would — same error variant, same recovery path — but
//! deterministically and instantly. Tests arm sites through
//! [`FaultPlan`] (programmatically via `DetectorConfig::faults`, or via
//! the `LCM_FAULT` environment variable), so no test has to construct a
//! genuinely pathological workload to exercise a degradation path.
//!
//! A spec is `site` or `site@index`, where `index` is the position of
//! the target function in the module's function order (the same index
//! `par::map_indexed` hands to workers). A bare `site` arms the fault
//! for every function. Multiple specs are comma-separated:
//!
//! ```text
//! LCM_FAULT=worker_panic@1
//! LCM_FAULT=timeout@0,solver_abort@2
//! ```

use std::fmt;

/// Environment variable consulted by [`FaultPlan::from_env`].
pub const FAULT_ENV: &str = "LCM_FAULT";

/// The injection-site names. Each maps onto one `AnalysisError` variant
/// (see `govern`); the full list doubles as the CI fault matrix.
pub mod site {
    /// Trips the wall-clock deadline at the next governor poll.
    pub const TIMEOUT: &str = "timeout";
    /// Trips the solver-conflict budget at the next feasibility query.
    pub const CONFLICT_BUDGET: &str = "conflict_budget";
    /// Trips the S-AEG node budget at the post-build size check.
    pub const NODE_BUDGET: &str = "node_budget";
    /// Trips the S-AEG edge budget at the post-build size check.
    pub const EDGE_BUDGET: &str = "edge_budget";
    /// Fails A-CFG construction as if the IR were malformed.
    pub const MALFORMED_IR: &str = "malformed_ir";
    /// Panics inside the worker thread (exercises `catch_unwind`).
    pub const WORKER_PANIC: &str = "worker_panic";
    /// Makes the SAT backend report an abort (models a solver
    /// `unknown`/resource-out that is not attributable to our budgets).
    pub const SOLVER_ABORT: &str = "solver_abort";
    /// Corrupts the `index`-th record appended to the result store
    /// (checksum damage on disk; the in-memory copy stays valid), so the
    /// next open exercises the corruption-recovery path. The index is
    /// the append ordinal, not a function index.
    pub const STORE_CORRUPT_RECORD: &str = "store.corrupt_record";
    /// Makes the analysis server drop the `index`-th accepted connection
    /// without replying (exercises client retry). The index is the
    /// request ordinal, not a function index.
    pub const SERVE_DROP_CONN: &str = "serve.drop_conn";
    /// Tears the `index`-th reply the server writes: half the frame's
    /// bytes go out, then the connection is shut down mid-line
    /// (exercises the client's torn-frame detection + backoff retry).
    /// The index is the global reply-write ordinal, not a function
    /// index.
    pub const SERVE_PARTIAL_WRITE: &str = "serve.partial_write";
    /// Aborts `Store::compact` after writing `index` live records to
    /// the temp file, *before* the atomic rename — leaving exactly the
    /// disk state a crash mid-compact leaves (intact old log + partial
    /// temp file). The index is the compaction-write ordinal, not a
    /// function index.
    pub const STORE_COMPACT_CRASH: &str = "store.compact_crash";
    /// Makes the fleet worker process analyzing the function at `index`
    /// kill itself (SIGKILL) mid-task, on the task's first attempt only
    /// — the supervisor's restart + redistribution retry completes, so
    /// the run converges to the in-process result.
    pub const FLEET_WORKER_CRASH: &str = "fleet.worker_crash";
    /// Makes the fleet worker analyzing the function at `index` stall
    /// past the supervisor's per-task deadline (first attempt only); the
    /// supervisor kills and restarts it, and the retry completes.
    pub const FLEET_WORKER_HANG: &str = "fleet.worker_hang";
    /// Tears the fleet result frame for the function at `index` mid
    /// write (half the frame's bytes, then the worker exits; first
    /// attempt only) — exercises the supervisor's torn-frame detection
    /// and redelivery.
    pub const FLEET_TASK_TORN: &str = "fleet.task_torn";

    /// The sites that degrade a function's detector analysis; the
    /// others fire in the result store, the server or the fleet.
    pub const DETECTOR: &[&str] = &[
        TIMEOUT,
        CONFLICT_BUDGET,
        NODE_BUDGET,
        EDGE_BUDGET,
        MALFORMED_IR,
        WORKER_PANIC,
        SOLVER_ABORT,
    ];

    /// All site names, for validation and the CI matrix.
    pub const ALL: &[&str] = &[
        TIMEOUT,
        CONFLICT_BUDGET,
        NODE_BUDGET,
        EDGE_BUDGET,
        MALFORMED_IR,
        WORKER_PANIC,
        SOLVER_ABORT,
        STORE_CORRUPT_RECORD,
        STORE_COMPACT_CRASH,
        SERVE_DROP_CONN,
        SERVE_PARTIAL_WRITE,
        FLEET_WORKER_CRASH,
        FLEET_WORKER_HANG,
        FLEET_TASK_TORN,
    ];
}

/// One armed fault: a site name plus an optional function index
/// (`None` = every function).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultSpec {
    site: String,
    index: Option<usize>,
}

/// A set of armed faults. Empty by default; merging in `LCM_FAULT` is
/// explicit (see [`FaultPlan::merged_with_env`]) so library users are
/// never surprised by ambient state they did not opt into.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

/// A malformed fault spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError(String);

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

impl FaultPlan {
    /// Parses a comma-separated list of `site[@index]` specs. Unknown
    /// site names are errors — a typo must not silently disarm a test.
    pub fn parse(s: &str) -> Result<Self, FaultParseError> {
        let mut specs = Vec::new();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, index) = match part.split_once('@') {
                Some((name, idx)) => {
                    let idx = idx
                        .parse::<usize>()
                        .map_err(|_| FaultParseError(format!("`{part}`: bad index `{idx}`")))?;
                    (name, Some(idx))
                }
                None => (part, None),
            };
            if !site::ALL.contains(&name) {
                return Err(FaultParseError(format!(
                    "`{part}`: unknown site `{name}` (expected one of {})",
                    site::ALL.join(", ")
                )));
            }
            specs.push(FaultSpec {
                site: name.to_string(),
                index,
            });
        }
        Ok(Self { specs })
    }

    /// Reads `LCM_FAULT`. Unset or empty yields an empty plan; a
    /// malformed value is a hard error (panics), because running a
    /// fault campaign with a silently-ignored spec is worse than not
    /// running it at all.
    pub fn from_env() -> Self {
        match std::env::var(FAULT_ENV) {
            Ok(v) if !v.trim().is_empty() => match Self::parse(&v) {
                Ok(plan) => plan,
                Err(e) => panic!("{FAULT_ENV}={v}: {e}"),
            },
            _ => Self::default(),
        }
    }

    /// Arms one more fault (builder-style, used by tests).
    #[must_use]
    pub fn arm(mut self, site: &str, index: Option<usize>) -> Self {
        assert!(site::ALL.contains(&site), "unknown fault site `{site}`");
        self.specs.push(FaultSpec {
            site: site.to_string(),
            index,
        });
        self
    }

    /// This plan plus whatever `LCM_FAULT` arms.
    #[must_use]
    pub fn merged_with_env(&self) -> Self {
        let mut merged = self.clone();
        merged.specs.extend(Self::from_env().specs);
        merged
    }

    /// True when no fault is armed (the overwhelmingly common case;
    /// callers use this to skip per-site checks entirely).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Does `site` fire for the function at `index`?
    #[inline]
    pub fn fires(&self, site: &str, index: usize) -> bool {
        self.specs
            .iter()
            .any(|s| s.site == site && s.index.is_none_or(|i| i == index))
    }

    /// The canonical `site[@index],…` spec string, round-trippable
    /// through [`FaultPlan::parse`]. This is how a plan crosses a
    /// process boundary (the fleet supervisor ships it to workers
    /// inside each task frame).
    pub fn render(&self) -> String {
        self.specs
            .iter()
            .map(|s| match s.index {
                Some(i) => format!("{}@{i}", s.site),
                None => s.site.clone(),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// This plan with every spec naming one of `sites` removed. The
    /// fleet supervisor disarms the `fleet.*` sites on a task's retry
    /// dispatch this way, so an injected process fault fires once and
    /// the run converges.
    #[must_use]
    pub fn without_sites(&self, sites: &[&str]) -> Self {
        FaultPlan {
            specs: self
                .specs
                .iter()
                .filter(|s| !sites.contains(&s.site.as_str()))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_fire() {
        let p = FaultPlan::parse("worker_panic@1, timeout").unwrap();
        assert!(p.fires(site::WORKER_PANIC, 1));
        assert!(!p.fires(site::WORKER_PANIC, 0));
        assert!(p.fires(site::TIMEOUT, 0));
        assert!(p.fires(site::TIMEOUT, 7));
        assert!(!p.fires(site::SOLVER_ABORT, 1));
    }

    #[test]
    fn empty_plan() {
        let p = FaultPlan::parse("").unwrap();
        assert!(p.is_empty());
        assert!(!p.fires(site::TIMEOUT, 0));
    }

    #[test]
    fn unknown_site_rejected() {
        assert!(FaultPlan::parse("worker_pancake@1").is_err());
        assert!(FaultPlan::parse("timeout@x").is_err());
    }

    #[test]
    fn arm_builder() {
        let p = FaultPlan::default().arm(site::NODE_BUDGET, Some(2));
        assert!(p.fires(site::NODE_BUDGET, 2));
        assert!(!p.fires(site::NODE_BUDGET, 3));
    }

    #[test]
    fn every_site_parses() {
        for s in site::ALL {
            let p = FaultPlan::parse(&format!("{s}@0")).unwrap();
            assert!(p.fires(s, 0), "{s}");
        }
    }

    #[test]
    fn render_round_trips() {
        let p = FaultPlan::parse("worker_panic@1,timeout,fleet.worker_crash@3").unwrap();
        assert_eq!(p.render(), "worker_panic@1,timeout,fleet.worker_crash@3");
        assert_eq!(FaultPlan::parse(&p.render()).unwrap(), p);
        assert_eq!(FaultPlan::default().render(), "");
    }

    #[test]
    fn without_sites_strips_only_named_sites() {
        let p = FaultPlan::parse("timeout@0,fleet.worker_crash,fleet.task_torn@2").unwrap();
        let stripped = p.without_sites(&[site::FLEET_WORKER_CRASH, site::FLEET_TASK_TORN]);
        assert!(stripped.fires(site::TIMEOUT, 0));
        assert!(!stripped.fires(site::FLEET_WORKER_CRASH, 5));
        assert!(!stripped.fires(site::FLEET_TASK_TORN, 2));
        // The original plan is untouched.
        assert!(p.fires(site::FLEET_WORKER_CRASH, 5));
    }
}
