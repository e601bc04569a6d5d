//! Per-function resource governance for graceful degradation.
//!
//! Clou's evaluation (§6, Table 2) runs every function under a
//! wall-clock timeout and still reports the functions that finish. The
//! [`ResourceGovernor`] reproduces that discipline for the whole
//! pipeline: one governor per analyzed function carries the configured
//! [`Budgets`] (deadline, S-AEG size budget)
//! plus any armed [`FaultPlan`] sites, and the pipeline polls it at
//! cheap points — engine loop heads, feasibility queries, phase
//! boundaries.
//!
//! Degradation is *sticky and first-wins*: the first exceeded budget
//! (or injected fault) trips the governor with a typed
//! [`AnalysisError`]; every subsequent poll answers "stop" and the
//! engines drain quickly without threading `Result` through every
//! signature. The driver reads [`ResourceGovernor::tripped`] at the end
//! and marks the function `Degraded` instead of aborting the module.
//!
//! With no budgets set and no faults armed (the default), every check
//! is a single relaxed atomic load — the governed pipeline is
//! observationally identical to the ungoverned one.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fault::{site, FaultPlan};

/// Which budget a [`AnalysisError::BudgetExceeded`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Solver conflicts. No solver answers detection queries, so only
    /// the `conflict_budget` fault site reports this kind.
    SolverConflicts,
    /// S-AEG event count after construction.
    SaegNodes,
    /// S-AEG dependency-edge count after construction.
    SaegEdges,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::SolverConflicts => "solver conflicts",
            BudgetKind::SaegNodes => "S-AEG nodes",
            BudgetKind::SaegEdges => "S-AEG edges",
        })
    }
}

/// Why a function's analysis was degraded rather than completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The per-function wall-clock deadline passed.
    Timeout {
        /// The configured budget, in milliseconds (0 if fault-injected
        /// with no timeout configured).
        budget_ms: u64,
    },
    /// A resource budget was exhausted.
    BudgetExceeded { kind: BudgetKind },
    /// The input IR could not be turned into an A-CFG.
    MalformedIr { message: String },
    /// The worker thread analyzing this function panicked.
    WorkerPanic { message: String },
    /// A feasibility query was aborted for a reason not attributable
    /// to our own budgets (only the `solver_abort` fault site reports
    /// it).
    SolverAbort,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Timeout { budget_ms } => {
                write!(f, "timeout (budget {budget_ms} ms)")
            }
            AnalysisError::BudgetExceeded { kind } => {
                write!(f, "budget exceeded: {kind}")
            }
            AnalysisError::MalformedIr { message } => {
                write!(f, "malformed IR: {message}")
            }
            AnalysisError::WorkerPanic { message } => {
                write!(f, "worker panic: {message}")
            }
            AnalysisError::SolverAbort => f.write_str("solver abort"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Per-function resource budgets. The default is fully unlimited, which
/// makes the governor a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budgets {
    /// Wall-clock deadline per function.
    pub timeout: Option<Duration>,
    /// S-AEG event-count ceiling, checked once after construction.
    pub max_saeg_nodes: Option<usize>,
    /// S-AEG dependency-edge ceiling, checked once after construction.
    pub max_saeg_edges: Option<usize>,
}

impl Budgets {
    /// No limits at all (same as `Default`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when no budget is set.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.max_saeg_nodes.is_none() && self.max_saeg_edges.is_none()
    }
}

/// How many strided polls skip the `Instant::now()` deadline read.
/// Poll points sit in engine inner loops, so the common case must be a
/// couple of atomic ops; 32 keeps worst-case deadline overshoot tiny.
const POLL_STRIDE: u64 = 32;

fn governor_trips() -> &'static lcm_obs::metrics::Counter {
    static C: std::sync::OnceLock<lcm_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        lcm_obs::metrics::global().counter(
            lcm_obs::metrics::names::GOVERNOR_TRIPS,
            "Resource-governor budget trips (timeouts, node/edge budgets, injected faults)",
        )
    })
}

/// One per analyzed function; shared across the AEG/engine layers via
/// `Arc`. All state is atomic, so polling needs no lock.
#[derive(Debug)]
pub struct ResourceGovernor {
    start: Instant,
    deadline: Option<Instant>,
    budgets: Budgets,
    /// Strided-poll counter (see [`POLL_STRIDE`]).
    polls: AtomicU64,
    /// Fast path: set once the governor has tripped.
    dead: AtomicBool,
    /// First error wins; later trips are ignored.
    error: Mutex<Option<AnalysisError>>,
    faults: FaultPlan,
    fn_index: usize,
    /// False when budgets are unlimited and no faults are armed: every
    /// check reduces to one relaxed load of `dead`.
    active: bool,
}

impl ResourceGovernor {
    pub fn new(budgets: Budgets, faults: &FaultPlan, fn_index: usize) -> Self {
        let start = Instant::now();
        let active = !budgets.is_unlimited() || !faults.is_empty();
        Self {
            start,
            deadline: budgets.timeout.map(|t| start + t),
            budgets,
            polls: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            error: Mutex::new(None),
            faults: faults.clone(),
            fn_index,
            active,
        }
    }

    /// Index of the governed function in module order (fault keys).
    pub fn fn_index(&self) -> usize {
        self.fn_index
    }

    /// Does the armed fault plan fire `site` for this function?
    #[inline]
    pub fn fault_fires(&self, site: &str) -> bool {
        self.active && self.faults.fires(site, self.fn_index)
    }

    /// Trips the governor; the first error wins and later calls no-op.
    /// The first trip per governor also counts into the process-wide
    /// `lcm_governor_trips_total` metric.
    pub fn trip(&self, err: AnalysisError) {
        let mut slot = self.error.lock().unwrap();
        if slot.is_none() {
            *slot = Some(err);
            governor_trips().inc();
        }
        self.dead.store(true, Ordering::Release);
    }

    /// The error this governor tripped with, if any.
    pub fn tripped(&self) -> Option<AnalysisError> {
        if !self.dead.load(Ordering::Acquire) {
            return None;
        }
        self.error.lock().unwrap().clone()
    }

    /// Cheap liveness check without advancing the poll counter.
    #[inline]
    pub fn ok(&self) -> bool {
        !self.dead.load(Ordering::Relaxed)
    }

    fn timeout_error(&self) -> AnalysisError {
        AnalysisError::Timeout {
            budget_ms: self
                .budgets
                .timeout
                .map(|t| t.as_millis() as u64)
                .unwrap_or(0),
        }
    }

    /// Strided poll for hot loops: checks the deadline (and the
    /// `timeout` fault site) every `POLL_STRIDE` calls. Returns false
    /// once tripped — callers break out of their loop.
    #[inline]
    pub fn poll(&self) -> bool {
        if !self.active {
            return self.ok();
        }
        if !self.ok() {
            return false;
        }
        if self.polls.fetch_add(1, Ordering::Relaxed) % POLL_STRIDE == 0 {
            return self.poll_now();
        }
        true
    }

    /// Unstrided poll for phase boundaries: always checks the deadline.
    #[inline]
    pub fn poll_now(&self) -> bool {
        if !self.active {
            return self.ok();
        }
        if !self.ok() {
            return false;
        }
        if self.fault_fires(site::TIMEOUT) {
            self.trip(self.timeout_error());
            return false;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.trip(self.timeout_error());
                return false;
            }
        }
        true
    }

    /// Post-construction S-AEG size check (and the `node_budget` /
    /// `edge_budget` fault sites). Returns false once tripped.
    #[inline]
    pub fn check_saeg(&self, nodes: usize, edges: usize) -> bool {
        if !self.active {
            return self.ok();
        }
        let node_over = self.fault_fires(site::NODE_BUDGET)
            || self.budgets.max_saeg_nodes.is_some_and(|max| nodes > max);
        if node_over {
            self.trip(AnalysisError::BudgetExceeded {
                kind: BudgetKind::SaegNodes,
            });
            return false;
        }
        let edge_over = self.fault_fires(site::EDGE_BUDGET)
            || self.budgets.max_saeg_edges.is_some_and(|max| edges > max);
        if edge_over {
            self.trip(AnalysisError::BudgetExceeded {
                kind: BudgetKind::SaegEdges,
            });
            return false;
        }
        self.ok()
    }

    /// Time since the governor was created.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_governor_never_trips() {
        let gov = ResourceGovernor::new(Budgets::default(), &FaultPlan::default(), 0);
        for _ in 0..1000 {
            assert!(gov.poll());
        }
        assert!(gov.poll_now());
        assert!(gov.check_saeg(usize::MAX, usize::MAX));
        assert!(gov.tripped().is_none());
    }

    #[test]
    fn zero_timeout_trips_on_first_unstrided_poll() {
        let budgets = Budgets {
            timeout: Some(Duration::ZERO),
            ..Budgets::default()
        };
        let gov = ResourceGovernor::new(budgets, &FaultPlan::default(), 0);
        assert!(!gov.poll_now());
        assert_eq!(gov.tripped(), Some(AnalysisError::Timeout { budget_ms: 0 }));
    }

    #[test]
    fn strided_poll_checks_on_first_call() {
        let budgets = Budgets {
            timeout: Some(Duration::ZERO),
            ..Budgets::default()
        };
        let gov = ResourceGovernor::new(budgets, &FaultPlan::default(), 0);
        // fetch_add returns 0 on the first call, so the very first
        // strided poll already consults the clock.
        assert!(!gov.poll());
    }

    #[test]
    fn saeg_budgets_trip() {
        let budgets = Budgets {
            max_saeg_nodes: Some(5),
            max_saeg_edges: Some(100),
            ..Budgets::default()
        };
        let gov = ResourceGovernor::new(budgets.clone(), &FaultPlan::default(), 0);
        assert!(gov.check_saeg(5, 100));
        let gov = ResourceGovernor::new(budgets.clone(), &FaultPlan::default(), 0);
        assert!(!gov.check_saeg(6, 0));
        assert_eq!(
            gov.tripped(),
            Some(AnalysisError::BudgetExceeded {
                kind: BudgetKind::SaegNodes
            })
        );
        let gov = ResourceGovernor::new(budgets, &FaultPlan::default(), 0);
        assert!(!gov.check_saeg(0, 101));
        assert_eq!(
            gov.tripped(),
            Some(AnalysisError::BudgetExceeded {
                kind: BudgetKind::SaegEdges
            })
        );
    }

    #[test]
    fn first_trip_wins() {
        let gov = ResourceGovernor::new(Budgets::default(), &FaultPlan::default(), 0);
        gov.trip(AnalysisError::SolverAbort);
        gov.trip(AnalysisError::Timeout { budget_ms: 7 });
        assert_eq!(gov.tripped(), Some(AnalysisError::SolverAbort));
        assert!(!gov.ok());
    }

    #[test]
    fn fault_sites_keyed_by_index() {
        let faults = FaultPlan::default().arm(site::TIMEOUT, Some(3));
        let gov = ResourceGovernor::new(Budgets::default(), &faults, 3);
        assert!(!gov.poll_now());
        assert!(matches!(
            gov.tripped(),
            Some(AnalysisError::Timeout { budget_ms: 0 })
        ));
        let gov = ResourceGovernor::new(Budgets::default(), &faults, 2);
        assert!(gov.poll_now());
        assert!(gov.tripped().is_none());
    }
}
