//! `lcm-fleet`: a supervised multi-process analysis worker fleet.
//!
//! The in-process analysis pipeline already degrades gracefully when a
//! worker *thread* panics or blows a budget (`lcm_core::par`,
//! `ResourceGovernor`), but a thread cannot survive a segfault, an
//! OOM-kill, or a wedged solver that never polls its governor. This
//! crate moves that blast radius across a process boundary: a
//! supervisor ([`Fleet`]) shards a module's functions over child
//! *processes* by content fingerprint, speaks a length-delimited binary
//! protocol ([`proto`]) over their stdin/stdout pipes, and enforces
//! per-worker health — heartbeats, per-task deadlines, crash/hang/
//! stuck-output detection, restart with the workspace's deterministic
//! capped-exponential [`lcm_core::backoff_delay`] schedule, and
//! restart-storm circuit breakers that degrade instead of spinning
//! (DESIGN.md §6h).
//!
//! The standing invariant of the whole resilience layer extends to the
//! fleet: rendered results are **byte-identical** to an in-process run
//! at every worker count, under every armed `fleet.*` fault. Findings
//! cross the pipe through the store's own codec, the supervisor applies
//! the store's own cache rule (hits served supervisor-side, completed
//! results inserted, degraded results never cached), and functions are
//! reassembled in module order.
//!
//! Worker identity is solved by re-execution: the supervisor spawns
//! *its own executable* with the [`worker::WORKER_ENV`] marker set, and
//! every host binary calls [`maybe_run_worker`] first thing in `main`.
//! `lcm-cli` additionally exposes the loop as the hidden `worker`
//! subcommand, which is also what the integration tests point
//! `worker_cmd` at.
//!
//! Observability crosses the process boundary too (DESIGN.md §6j):
//! result frames carry the worker's drained span buffer and metrics
//! delta, the supervisor re-bases span timestamps against a
//! hello-exchanged clock offset and merges everything into one
//! multi-process Chrome trace, worker heartbeats mirror a black-box
//! breadcrumb ring for crash forensics, and every supervision decision
//! (kill, restart, steal, redeliver) lands in `lcm_fleet_*` counters
//! and an optional append-only JSONL event log
//! ([`FleetConfig::events_out`]).

pub mod proto;
pub mod supervisor;
pub mod worker;

pub use supervisor::{Fleet, FleetConfig, SlotHealth};
pub use worker::{maybe_run_worker, worker_main, WORKER_ENV};

use lcm_detect::{Detector, EngineKind, ModuleReport};
use lcm_ir::Module;
use lcm_store::Store;

/// Analyzes `module` (compiled from `source`) on whichever executor the
/// caller holds: the fleet's worker processes when there is a fleet,
/// `det`'s thread fan-out otherwise, either one behind the store when
/// there is one. With neither, it is plain [`Detector::analyze_module`],
/// which fingerprints nothing. Rendered reports are byte-identical on
/// every path.
pub fn analyze_module(
    fleet: Option<&Fleet>,
    store: Option<&Store>,
    det: &Detector,
    source: &str,
    module: &Module,
    engine: EngineKind,
) -> ModuleReport {
    match (fleet, store) {
        (Some(fleet), store) => fleet.analyze_module(source, module, engine, det.config(), store),
        (None, Some(store)) => lcm_store::analyze_module_cached(det, module, engine, store),
        (None, None) => det.analyze_module(module, engine),
    }
}
