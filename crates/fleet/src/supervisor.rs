//! The supervisor: spawns, shards, watches, restarts, and reaps.
//!
//! One [`Fleet`] owns a pool of worker child processes. A module run
//! ([`Fleet::analyze_module`]) is lcm-store's [`lcm_store::drive_module`]
//! with the supervisor as executor: `drive_module` looks every function
//! up and settles the results, and the supervisor shards the
//! cache-missing functions across the pool by the content fingerprint
//! `drive_module` computed (the same [`lcm_store::fp::clou_fingerprint`] that keys the
//! result store), so the same function lands on the same worker slot
//! run after run.
//! Idle workers steal from the longest remaining queue, so one straggler
//! function never serializes the tail.
//!
//! Per-worker health, in escalating order of suspicion:
//!
//! * **crash** — the stdout reader sees EOF or a torn frame while a
//!   task is in flight (covers SIGKILL, abort, nonzero exit);
//! * **stuck output** — a busy worker that stops heartbeating past
//!   [`FleetConfig::heartbeat_grace`];
//! * **hang** — a busy worker that beats but blows
//!   [`FleetConfig::task_deadline`] (the process-level layer above the
//!   in-engine `ResourceGovernor` deadline).
//!
//! Every detection kills the incarnation and restarts the slot after
//! the shared deterministic [`lcm_core::backoff_delay`] schedule; the
//! orphaned task is redistributed to survivors. The circuit breakers:
//! a task that kills its worker [`MAX_TASK_ATTEMPTS`]
//! times is reported `Degraded` (partial result kept as a lower bound,
//! never cached) instead of being retried forever, and a slot restarted
//! past [`FleetConfig::max_worker_restarts`] *within one module run* is
//! retired for that run. A fleet whose every slot is retired degrades
//! the remaining work and returns — a restart storm ends the run, never
//! the process — and the next run starts with a fresh budget.
//!
//! Injected `fleet.*` faults are stripped from a task's plan on
//! redelivery (unless [`FleetConfig::refire_faults_on_retry`] keeps
//! them armed, which the restart-storm tests use), so an armed fault
//! fires once and the run converges to the in-process result —
//! byte-identical rendered reports at every worker count, under every
//! armed fault.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lcm_core::backoff_delay;
use lcm_core::fault::{site, FaultPlan};
use lcm_core::govern::AnalysisError;
use lcm_core::jsonw::Json;
use lcm_detect::{DetectorConfig, EngineKind, FunctionReport, ModuleReport};
use lcm_ir::Module;
use lcm_obs::trace;
use lcm_store::{Fingerprint, Store};

use crate::proto::{self, Crumb, FromWorker, Task, Telemetry, ToWorker};
use crate::worker::WORKER_ENV;

/// The fault sites the supervisor disarms on a task's redelivery.
const FLEET_SITES: &[&str] = &[
    site::FLEET_WORKER_CRASH,
    site::FLEET_WORKER_HANG,
    site::FLEET_TASK_TORN,
];

/// How many workers one task may kill before it is reported `Degraded`
/// instead of redelivered (the per-function circuit breaker).
pub const MAX_TASK_ATTEMPTS: usize = 2;

/// Supervision knobs. `new(workers)` gives production defaults; tests
/// shrink the time knobs to keep fault campaigns fast.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker process count (min 1).
    pub workers: usize,
    /// Worker command line. Default: this executable with the
    /// [`WORKER_ENV`] marker — any host binary that calls
    /// `maybe_run_worker` first thing in `main` can be its own worker.
    pub worker_cmd: Vec<String>,
    /// Process-level per-task deadline, layered above the in-engine
    /// governor's wall-clock budget: a worker that blows it is killed
    /// even if the governor is wedged or the engine never polls.
    pub task_deadline: Duration,
    /// How long a *busy* worker may go without a heartbeat before it is
    /// declared stuck and killed.
    pub heartbeat_grace: Duration,
    /// How many times one slot may be restarted within one module run
    /// before it is retired for that run (the per-slot circuit breaker;
    /// all slots retired ends the run). The budget resets every run.
    pub max_worker_restarts: usize,
    /// Keep `fleet.*` fault specs armed on redelivered tasks. Off by
    /// default so injected process faults fire once and the run
    /// converges; the restart-storm tests switch it on to drive the
    /// circuit breaker.
    pub refire_faults_on_retry: bool,
    /// Append-only JSONL event log: one object per supervision event
    /// (worker_exit forensics, restart, steal, redeliver, degraded).
    /// `None` disables the log.
    pub events_out: Option<PathBuf>,
    /// Whether workers record spans and ship them back. `None` (the
    /// default) follows the supervisor's own tracer at dispatch time —
    /// a `--trace-out` run traces its workers, an untraced run does
    /// not. Tests pin it explicitly.
    pub trace_workers: Option<bool>,
}

impl FleetConfig {
    /// Production defaults for `workers` worker processes.
    pub fn new(workers: usize) -> FleetConfig {
        let exe = std::env::current_exe()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|_| "lcm-cli".into());
        FleetConfig {
            workers: workers.max(1),
            worker_cmd: vec![exe],
            task_deadline: Duration::from_secs(600),
            heartbeat_grace: Duration::from_secs(10),
            max_worker_restarts: 8,
            refire_faults_on_retry: false,
            events_out: None,
            trace_workers: None,
        }
    }
}

/// What a reader thread learned from one worker incarnation.
enum Event {
    /// First frame: the worker's pid and its trace-clock sample, from
    /// which the supervisor derives the timestamp re-basing offset.
    Hello {
        now_us: u64,
    },
    /// Liveness beat carrying the worker's breadcrumb ring.
    Beat {
        crumbs: Vec<Crumb>,
    },
    Result(proto::TaskResult),
    /// Final telemetry flush of a cleanly exiting worker.
    Drain(Telemetry),
    /// Stream ended; `reason` distinguishes a clean EOF from a torn
    /// frame or undecodable garbage (all are the death of that
    /// incarnation, but forensics record which).
    Gone {
        reason: &'static str,
    },
}

/// Lifetime health counters for one worker slot, as reported by
/// [`Fleet::health`] (the daemon's `stats` reply and the JSONL event
/// log read from the same numbers). Unlike the per-run restart budget,
/// these never reset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotHealth {
    /// Slot index.
    pub slot: usize,
    /// Current incarnation's OS pid (0 before the first spawn).
    pub pid: u32,
    /// Current incarnation id.
    pub incarnation: u64,
    /// Incarnations spawned beyond the first (i.e. restarts).
    pub restarts: u64,
    /// Tasks this slot executed that it stole from a peer's queue.
    pub steals: u64,
    /// Incarnations the supervisor killed, by any reason.
    pub kills: u64,
    /// Tasks redelivered away from this slot after a failure.
    pub redeliveries: u64,
    /// Results received.
    pub tasks: u64,
    /// Queue depth at the last dispatch sweep (0 when idle).
    pub queue_depth: u64,
    /// Whether the slot is retired for the current run.
    pub retired: bool,
    /// Whether a task is in flight right now.
    pub busy: bool,
    /// The last phase the worker's breadcrumb ring reported, e.g.
    /// `"analyzing victim_a"`.
    pub last_phase: Option<String>,
}

/// One worker slot: at most one live child process at a time, restarted
/// in place across incarnations.
struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Monotonic incarnation id; events from dead incarnations are
    /// discarded by comparing against this.
    incarnation: u64,
    /// Current incarnation's OS pid (0 = never spawned).
    pid: u32,
    /// When the current incarnation was spawned (uptime for forensics).
    spawned_at: Instant,
    /// `supervisor_clock − worker_clock` at hello receipt, µs: added to
    /// every shipped span timestamp to land it on the supervisor's
    /// trace clock.
    epoch_offset_us: i64,
    /// Supervisor-side mirror of the worker's breadcrumb ring (updated
    /// on every beat; the crash postmortem reads it).
    crumbs: Vec<Crumb>,
    /// Which module id this incarnation has been shipped.
    sent_module: Option<u64>,
    /// The in-flight task (index into the run's task table) and its
    /// dispatch time.
    busy: Option<(usize, Instant)>,
    last_beat: Instant,
    /// Consecutive failures since the last successful result — drives
    /// the backoff exponent.
    consecutive_failures: usize,
    /// Restarts within the current run (the retire budget; resets per
    /// run).
    restarts: usize,
    retired: bool,
    /// When the next respawn is allowed (backoff).
    restart_at: Option<Instant>,
    /// Lifetime counters surfaced by [`Fleet::health`]. `health.pid`,
    /// `.incarnation`, `.retired`, `.busy`, `.last_phase` are filled in
    /// at read time.
    health: SlotHealth,
}

impl Slot {
    fn fresh(index: usize) -> Slot {
        Slot {
            child: None,
            stdin: None,
            incarnation: 0,
            pid: 0,
            spawned_at: Instant::now(),
            epoch_offset_us: 0,
            crumbs: Vec::new(),
            sent_module: None,
            busy: None,
            last_beat: Instant::now(),
            consecutive_failures: 0,
            restarts: 0,
            retired: false,
            restart_at: None,
            health: SlotHealth {
                slot: index,
                ..SlotHealth::default()
            },
        }
    }

    fn live(&self) -> bool {
        self.child.is_some() && !self.retired
    }

    /// `"<phase> <fn>"` of the newest breadcrumb, if any.
    fn last_phase(&self) -> Option<String> {
        self.crumbs
            .last()
            .map(|c| format!("{} {}", c.phase.as_str(), c.fn_name))
    }
}

struct Inner {
    config: FleetConfig,
    slots: Vec<Slot>,
    tx: Sender<(usize, u64, Event)>,
    rx: Receiver<(usize, u64, Event)>,
    next_module: u64,
    next_incarnation: u64,
    /// The append-only JSONL event log (`config.events_out`); `None`
    /// when disabled or the open failed (an unwritable log never fails
    /// a run).
    events: Option<std::fs::File>,
}

impl Inner {
    /// Appends one event object to the JSONL log. `fields` follow the
    /// standing `event` + `ts_us` members. Write errors drop the log
    /// for the rest of the process — observability must never fail a
    /// run.
    fn log_event(&mut self, event: &str, fields: Vec<(String, Json)>) {
        let Some(file) = self.events.as_mut() else {
            return;
        };
        let mut members = vec![
            ("event".to_string(), Json::Str(event.to_string())),
            ("ts_us".to_string(), Json::Num(trace::clock_us() as f64)),
        ];
        members.extend(fields);
        let mut line = Json::Obj(members).render();
        line.push('\n');
        if file.write_all(line.as_bytes()).is_err() {
            self.events = None;
        }
    }
}

/// A supervised pool of worker processes. Cheap to share (`&self`
/// methods; a mutex serializes module runs). Dropping the fleet drains
/// nothing — callers finish their runs first by construction — but does
/// close every worker's stdin and reap the children.
pub struct Fleet {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Fleet")
            .field("workers", &inner.config.workers)
            .field("cmd", &inner.config.worker_cmd)
            .finish()
    }
}

/// One cache-missing function's lifecycle through a module run.
struct TaskState {
    fn_index: usize,
    name: String,
    /// The content fingerprint `drive_module` computed: shards the task and
    /// names it in task frames, event logs and forensics.
    fp: u128,
    /// Dispatches so far (first attempt = 0 when dispatched).
    attempts: usize,
    /// Times a worker died (crash/hang/stuck/torn) holding this task.
    lost: usize,
    /// The task's report once it is done or degraded.
    report: Option<FunctionReport>,
}

impl Fleet {
    /// Builds the fleet. Workers are spawned lazily on the first run —
    /// a fleet that is constructed but never used costs nothing.
    pub fn new(config: FleetConfig) -> Fleet {
        let (tx, rx) = channel();
        let slots = (0..config.workers.max(1)).map(Slot::fresh).collect();
        let events = config.events_out.as_ref().and_then(|path| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .ok()
        });
        Fleet {
            inner: Mutex::new(Inner {
                config,
                slots,
                tx,
                rx,
                next_module: 1,
                next_incarnation: 1,
                events,
            }),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.inner.lock().unwrap().config.workers
    }

    /// Per-slot lifetime health: restarts, steals, kills, redeliveries,
    /// queue depths, and the last breadcrumb phase. The daemon's
    /// `stats` reply renders these verbatim.
    pub fn health(&self) -> Vec<SlotHealth> {
        let inner = self.inner.lock().unwrap();
        inner
            .slots
            .iter()
            .map(|s| {
                let mut h = s.health.clone();
                h.pid = s.pid;
                h.incarnation = s.incarnation;
                h.retired = s.retired;
                h.busy = s.busy.is_some();
                h.last_phase = s.last_phase();
                h
            })
            .collect()
    }

    /// Analyzes `module` (compiled from `source`) across the worker
    /// pool under lcm-store's cache rule: [`lcm_store::drive_module`]
    /// serves the hits in this process, and only the misses reach a
    /// worker. Functions come back in module order — rendered output is
    /// byte-identical to `analyze_module_cached` /
    /// `Detector::analyze_module` at every worker count. The fleet's
    /// lock covers supervision only, not the lookups.
    pub fn analyze_module(
        &self,
        source: &str,
        module: &Module,
        engine: EngineKind,
        config: &DetectorConfig,
        store: Option<&Store>,
    ) -> ModuleReport {
        lcm_store::drive_module(module, engine, config, store, |indices, fps| {
            let mut inner = self.inner.lock().unwrap();
            inner.run_misses(source, module, engine, config, indices, fps)
        })
    }

    /// Closes every worker's stdin (they exit on EOF) and reaps the
    /// children, killing any that linger past a short grace.
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.shutdown();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Ok(mut inner) = self.inner.lock() {
            inner.shutdown();
        }
    }
}

impl Inner {
    /// Runs the misses of one module (their module indices and
    /// fingerprints) on the pool: one report per miss, in order.
    fn run_misses(
        &mut self,
        source: &str,
        module: &Module,
        engine: EngineKind,
        config: &DetectorConfig,
        indices: &[usize],
        fps: &[Fingerprint],
    ) -> Vec<FunctionReport> {
        let names: Vec<&str> = module.public_functions().map(|f| f.name.as_str()).collect();
        let mut tasks: Vec<TaskState> = indices
            .iter()
            .zip(fps)
            .map(|(&i, fp)| TaskState {
                fn_index: i,
                name: names[i].to_string(),
                fp: fp.0,
                attempts: 0,
                lost: 0,
                report: None,
            })
            .collect();
        let faults = config.faults.merged_with_env();
        // The supervisor's own lane in a merged trace: one span over
        // the whole fleet run, bracketing every worker's task spans.
        let mut run_span = trace::span("fleet_module", "fleet");
        if trace::is_enabled() {
            run_span.arg_str("engine", engine.label());
            run_span.arg_u64("functions", tasks.len() as u64);
            run_span.arg_u64("workers", self.slots.len() as u64);
        }
        // The restart/retire budget is scoped to one module run: a
        // long-lived fleet (a daemon) must not permanently retire its
        // slots over crashes accumulated across thousands of earlier
        // modules. Within a run the budget still bounds a restart storm.
        for slot in &mut self.slots {
            slot.restarts = 0;
            slot.consecutive_failures = 0;
            slot.retired = false;
            slot.restart_at = None;
        }
        let module_id = self.next_module;
        self.next_module += 1;
        self.drain_stale_events();
        self.supervise(source, module_id, engine, config, &faults, &mut tasks);
        tasks
            .into_iter()
            .map(|t| {
                t.report
                    .expect("supervision ends when every task has a report")
            })
            .collect()
    }

    /// The supervision loop for one module's cache-missing functions:
    /// runs until every task has a report.
    fn supervise(
        &mut self,
        source: &str,
        module_id: u64,
        engine: EngineKind,
        config: &DetectorConfig,
        faults: &FaultPlan,
        tasks: &mut [TaskState],
    ) {
        let workers = self.slots.len();
        // Shard by content fingerprint: the same function lands on the
        // same slot run after run (and across processes).
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (t, task) in tasks.iter().enumerate() {
            queues[(task.fp % workers as u128) as usize].push_back(t);
        }

        while tasks.iter().any(|t| t.report.is_none()) {
            self.respawn_due();
            if self.slots.iter().all(|s| s.retired) {
                // Restart storm: the whole pool burned through its
                // restart budget. Degrade every task still without a
                // report, queued or in flight, in module order — a
                // deterministic lower-bound report, never a spin.
                queues.iter_mut().for_each(VecDeque::clear);
                self.slots.iter_mut().for_each(|s| s.busy = None);
                for task in tasks.iter_mut().filter(|t| t.report.is_none()) {
                    task.report = Some(degraded_pool_exhausted(&task.name));
                    let fields = vec![
                        ("fn".to_string(), Json::Str(task.name.clone())),
                        ("cause".to_string(), Json::Str("pool_exhausted".to_string())),
                    ];
                    self.log_event("degraded", fields);
                }
                continue;
            }

            self.dispatch(
                source,
                module_id,
                engine,
                config,
                faults,
                tasks,
                &mut queues,
            );

            let timeout = self.next_wakeup();
            match self.rx.recv_timeout(timeout) {
                Ok((slot, incarnation, event)) => {
                    if self.slots[slot].incarnation != incarnation {
                        continue; // ghost of a dead incarnation
                    }
                    self.slots[slot].last_beat = Instant::now();
                    match event {
                        Event::Hello { now_us } => {
                            // Re-basing offset: both clocks sampled as
                            // close together as the pipe allows.
                            self.slots[slot].epoch_offset_us =
                                trace::clock_us() as i64 - now_us as i64;
                        }
                        Event::Beat { crumbs } => {
                            self.slots[slot].crumbs = crumbs;
                        }
                        Event::Result(mut res) => {
                            if let Some(telemetry) = res.telemetry.take() {
                                self.absorb_telemetry(slot, telemetry);
                            }
                            let Some((t, _)) = self.slots[slot].busy.take() else {
                                continue; // result for nothing? ignore
                            };
                            if res.task_id != t as u64 {
                                // Protocol confusion: kill and redeliver.
                                self.slots[slot].busy = Some((t, Instant::now()));
                                self.fail_slot(slot, "protocol", tasks, &mut queues);
                                continue;
                            }
                            self.slots[slot].consecutive_failures = 0;
                            self.slots[slot].health.tasks += 1;
                            tasks[t].report = Some(res.report);
                        }
                        Event::Drain(telemetry) => {
                            self.absorb_telemetry(slot, telemetry);
                        }
                        Event::Gone { reason } => {
                            self.fail_slot(slot, reason, tasks, &mut queues);
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("Inner holds a Sender"),
            }

            // Health sweep: deadline-blown and stuck-output workers.
            for i in 0..self.slots.len() {
                let slot = &self.slots[i];
                let Some((_, since)) = slot.busy else {
                    continue;
                };
                if slot.child.is_none() {
                    continue;
                }
                let deadline_blown = since.elapsed() > self.config.task_deadline;
                let beat_stale = slot.last_beat.elapsed() > self.config.heartbeat_grace;
                if deadline_blown || beat_stale {
                    let reason = if deadline_blown { "deadline" } else { "stuck" };
                    self.fail_slot(i, reason, tasks, &mut queues);
                }
            }
        }
        // Record final queue depths (all zero after a clean run; a
        // storm-ended run leaves what it left).
        for (i, q) in queues.iter().enumerate() {
            self.slots[i].health.queue_depth = q.len() as u64;
        }
    }

    /// Folds one worker's shipped telemetry into this process: span
    /// timestamps re-base onto the supervisor's trace clock and queue
    /// under the worker's pid lane; the metrics delta adds into the
    /// global registry.
    fn absorb_telemetry(&mut self, slot: usize, telemetry: Telemetry) {
        let s = &self.slots[slot];
        if !telemetry.spans.is_empty() {
            let offset = s.epoch_offset_us;
            let spans: Vec<_> = telemetry
                .spans
                .into_iter()
                .map(|mut e| {
                    e.ts_us = (e.ts_us as i64).saturating_add(offset).max(0) as u64;
                    e
                })
                .collect();
            trace::add_foreign_events(s.pid, spans);
        }
        if !telemetry.metrics.metrics.is_empty() {
            lcm_obs::metrics::global().merge_delta(&telemetry.metrics);
        }
    }

    /// Spawns every slot whose backoff has elapsed (or that was never
    /// spawned). Spawn errors count as an instant failure of the new
    /// incarnation, feeding the same backoff/retire path as a crash.
    fn respawn_due(&mut self) {
        for i in 0..self.slots.len() {
            let slot = &self.slots[i];
            if slot.child.is_some() || slot.retired {
                continue;
            }
            if let Some(at) = slot.restart_at {
                if Instant::now() < at {
                    continue;
                }
            }
            let incarnation = self.next_incarnation;
            self.next_incarnation += 1;
            match spawn_worker(&self.config.worker_cmd, i, incarnation, &self.tx) {
                Ok((child, stdin)) => {
                    let pid = child.id();
                    let restart = {
                        let slot = &mut self.slots[i];
                        let restart = slot.pid != 0;
                        slot.child = Some(child);
                        slot.stdin = Some(stdin);
                        slot.incarnation = incarnation;
                        slot.pid = pid;
                        slot.spawned_at = Instant::now();
                        slot.epoch_offset_us = 0;
                        slot.crumbs = Vec::new();
                        slot.sent_module = None;
                        slot.busy = None;
                        slot.last_beat = Instant::now();
                        slot.restart_at = None;
                        if restart {
                            slot.health.restarts += 1;
                        }
                        restart
                    };
                    if restart {
                        fleet_counter(Health::Restart).inc();
                        self.log_event(
                            "restart",
                            vec![
                                ("slot".to_string(), Json::Num(i as f64)),
                                ("incarnation".to_string(), Json::Num(incarnation as f64)),
                                ("pid".to_string(), Json::Num(pid as f64)),
                            ],
                        );
                    }
                }
                Err(_) => {
                    let slot = &mut self.slots[i];
                    slot.consecutive_failures += 1;
                    slot.restarts += 1;
                    if slot.restarts > self.config.max_worker_restarts {
                        slot.retired = true;
                    } else {
                        slot.restart_at =
                            Some(Instant::now() + backoff_delay(slot.consecutive_failures));
                    }
                }
            }
        }
    }

    /// Hands tasks to every idle live worker: first from its own
    /// fingerprint-sharded queue, then stolen from the longest queue of
    /// a peer (straggler work-stealing).
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        source: &str,
        module_id: u64,
        engine: EngineKind,
        config: &DetectorConfig,
        faults: &FaultPlan,
        tasks: &mut [TaskState],
        queues: &mut [VecDeque<usize>],
    ) {
        let trace_workers = self.config.trace_workers.unwrap_or_else(trace::is_enabled);
        for i in 0..self.slots.len() {
            if !self.slots[i].live() || self.slots[i].busy.is_some() {
                continue;
            }
            let (t, stolen) = match queues[i].pop_front() {
                Some(t) => (t, false),
                None => {
                    // Steal from the back of the longest peer queue.
                    let victim = (0..queues.len())
                        .filter(|&j| j != i && !queues[j].is_empty())
                        .max_by_key(|&j| queues[j].len());
                    match victim {
                        Some(j) => (queues[j].pop_back().unwrap(), true),
                        None => continue,
                    }
                }
            };
            let task = &mut tasks[t];
            let attempt = task.attempts;
            task.attempts += 1;
            // First delivery carries the armed plan; redeliveries strip
            // the fleet.* sites so injected process faults fire once.
            let plan = if attempt == 0 || self.config.refire_faults_on_retry {
                faults.clone()
            } else {
                faults.without_sites(FLEET_SITES)
            };
            let mut cfg = config.clone();
            cfg.faults = plan;
            let fp = task.fp;
            let fn_name = task.name.clone();
            let frame = ToWorker::Task(Task {
                task_id: t as u64,
                module_id,
                fn_index: task.fn_index as u64,
                fn_name: fn_name.clone(),
                engine,
                config: cfg,
                trace: trace_workers,
                worker_slot: i as u64,
                fingerprint: ((fp >> 64) as u64, fp as u64),
                stolen,
            });
            if stolen {
                self.slots[i].health.steals += 1;
                fleet_counter(Health::Steal).inc();
                self.log_event(
                    "steal",
                    vec![
                        ("slot".to_string(), Json::Num(i as f64)),
                        ("fn".to_string(), Json::Str(fn_name.clone())),
                        ("fingerprint".to_string(), Json::Str(fp_hex(fp))),
                    ],
                );
            }
            let needs_module = self.slots[i].sent_module != Some(module_id);
            let sent = {
                let stdin = self.slots[i].stdin.as_mut().expect("live slot has stdin");
                let module_ok = !needs_module
                    || proto::write_frame(
                        stdin,
                        &ToWorker::Module {
                            id: module_id,
                            source: source.to_string(),
                        }
                        .encode(),
                    )
                    .is_ok();
                module_ok && proto::write_frame(stdin, &frame.encode()).is_ok()
            };
            if sent {
                self.slots[i].sent_module = Some(module_id);
                self.slots[i].busy = Some((t, Instant::now()));
                self.slots[i].last_beat = Instant::now();
            } else {
                // Dead on arrival (EPIPE): put the task back exactly as
                // it was and let the failure path restart the slot. The
                // attempt did not reach a worker, so it does not count.
                task.attempts = attempt;
                queues[i].push_front(t);
                self.reap_incarnation(i, "write_failed", None);
                self.bump_failure(i);
            }
            self.slots[i].health.queue_depth = queues[i].len() as u64;
        }
    }

    /// A worker incarnation died (or was declared dead) — emit the
    /// forensic record, redistribute its task, count the loss, restart
    /// with backoff or retire.
    fn fail_slot(
        &mut self,
        i: usize,
        reason: &'static str,
        tasks: &mut [TaskState],
        queues: &mut [VecDeque<usize>],
    ) {
        // A clean EOF while a task was in flight is a crash; without
        // one it is just an exit (still fatal for the incarnation).
        let busy = self.slots[i].busy;
        let reason = match (reason, busy) {
            ("eof", Some(_)) => "crash",
            ("eof", None) => "exit",
            (r, _) => r,
        };
        let last_task = busy.map(|(t, _)| (tasks[t].name.clone(), tasks[t].fp));
        self.reap_incarnation(i, reason, last_task);
        if let Some((t, _)) = busy {
            self.slots[i].busy = None;
            let task = &mut tasks[t];
            task.lost += 1;
            if task.lost >= MAX_TASK_ATTEMPTS {
                // Per-function circuit breaker: this function has now
                // killed enough workers. Degrade deterministically.
                task.report = Some(degraded_task_fatal(&task.name, task.lost));
                let name = task.name.clone();
                let lost = task.lost;
                self.log_event(
                    "degraded",
                    vec![
                        ("fn".to_string(), Json::Str(name)),
                        ("lost".to_string(), Json::Num(lost as f64)),
                        (
                            "cause".to_string(),
                            Json::Str("task_attempts_exhausted".to_string()),
                        ),
                    ],
                );
            } else {
                // Redistribute to the least-loaded surviving queue (the
                // failed slot's own queue is still valid — it restarts).
                let target = (0..queues.len())
                    .filter(|&j| !self.slots[j].retired)
                    .min_by_key(|&j| queues[j].len())
                    .unwrap_or(i);
                queues[target].push_front(t);
                self.slots[i].health.redeliveries += 1;
                fleet_counter(Health::Redelivery).inc();
                let name = tasks[t].name.clone();
                self.log_event(
                    "redeliver",
                    vec![
                        ("fn".to_string(), Json::Str(name)),
                        ("from_slot".to_string(), Json::Num(i as f64)),
                        ("to_slot".to_string(), Json::Num(target as f64)),
                        ("lost".to_string(), Json::Num(tasks[t].lost as f64)),
                    ],
                );
            }
        }
        self.bump_failure(i);
    }

    /// Emits the black-box forensic record for a dying incarnation
    /// (reason, uptime, restart count, last task, last breadcrumb
    /// phase), bumps the kill counters, then kills and reaps the child.
    fn reap_incarnation(&mut self, i: usize, reason: &str, last_task: Option<(String, u128)>) {
        if self.slots[i].child.is_some() {
            let slot = &self.slots[i];
            let uptime_ms = slot.spawned_at.elapsed().as_millis() as f64;
            let mut fields = vec![
                ("reason".to_string(), Json::Str(reason.to_string())),
                ("slot".to_string(), Json::Num(i as f64)),
                (
                    "incarnation".to_string(),
                    Json::Num(slot.incarnation as f64),
                ),
                ("pid".to_string(), Json::Num(slot.pid as f64)),
                ("uptime_ms".to_string(), Json::Num(uptime_ms)),
                (
                    "restarts".to_string(),
                    Json::Num(slot.health.restarts as f64),
                ),
                (
                    "last_phase".to_string(),
                    slot.last_phase().map_or(Json::Null, Json::Str),
                ),
            ];
            if let Some((fn_name, fp)) = last_task {
                fields.push((
                    "last_task".to_string(),
                    Json::Obj(vec![
                        ("fn".to_string(), Json::Str(fn_name)),
                        ("fingerprint".to_string(), Json::Str(fp_hex(fp))),
                    ]),
                ));
            }
            self.slots[i].health.kills += 1;
            kill_counter(reason).inc();
            self.log_event("worker_exit", fields);
        }
        self.kill_incarnation(i);
    }

    fn bump_failure(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        slot.consecutive_failures += 1;
        slot.restarts += 1;
        if slot.restarts > self.config.max_worker_restarts {
            slot.retired = true;
        } else {
            slot.restart_at = Some(Instant::now() + backoff_delay(slot.consecutive_failures));
        }
    }

    /// Kills and reaps the slot's current child (idempotent).
    fn kill_incarnation(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        slot.stdin = None;
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.sent_module = None;
        slot.busy = None;
    }

    /// How long the event loop may sleep: until the nearest task
    /// deadline, heartbeat-grace expiry, or restart due-time — capped
    /// so supervision stays responsive.
    fn next_wakeup(&self) -> Duration {
        let mut wake = Duration::from_millis(100);
        let now = Instant::now();
        for slot in &self.slots {
            if let Some((_, since)) = slot.busy {
                let deadline = self
                    .config
                    .task_deadline
                    .saturating_sub(now.saturating_duration_since(since));
                let grace = self
                    .config
                    .heartbeat_grace
                    .saturating_sub(now.saturating_duration_since(slot.last_beat));
                wake = wake.min(deadline).min(grace);
            }
            if let Some(at) = slot.restart_at {
                wake = wake.min(at.saturating_duration_since(now));
            }
        }
        // A zero timeout would busy-spin; events still arrive during
        // the minimum sleep.
        wake.max(Duration::from_millis(1))
    }

    /// Throws away events left over from previous runs (dead
    /// incarnations, late beats). Current-incarnation `Gone` events are
    /// kept meaningful by re-checking child liveness lazily — a worker
    /// that died between runs fails on first dispatch write instead.
    fn drain_stale_events(&mut self) {
        while self.rx.try_recv().is_ok() {}
    }

    fn shutdown(&mut self) {
        let had_children = self.slots.iter().any(|s| s.child.is_some());
        // Close every stdin: workers exit on EOF.
        for slot in &mut self.slots {
            slot.stdin = None;
        }
        if !had_children {
            return; // nothing spawned (or already shut down)
        }
        // Grace period for clean exits, then kill stragglers. While
        // waiting, pump the event channel: exiting workers flush a
        // final `Drain` frame (spans recorded after their last result,
        // metrics that accrued outside tasks) that must land in the
        // merged trace.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            while let Ok((slot, incarnation, event)) = self.rx.try_recv() {
                if self.slots[slot].incarnation == incarnation {
                    if let Event::Drain(telemetry) = event {
                        self.absorb_telemetry(slot, telemetry);
                    }
                }
            }
            let mut alive = false;
            for slot in &mut self.slots {
                if let Some(child) = slot.child.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) => {
                            slot.child = None;
                        }
                        _ => alive = true,
                    }
                }
            }
            if !alive || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for slot in &mut self.slots {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        // Children are reaped, but a reader thread may still be
        // flushing a Drain it pulled off the pipe — give it a beat.
        std::thread::sleep(Duration::from_millis(20));
        while let Ok((slot, incarnation, event)) = self.rx.try_recv() {
            if self.slots[slot].incarnation == incarnation {
                if let Event::Drain(telemetry) = event {
                    self.absorb_telemetry(slot, telemetry);
                }
            }
        }
    }
}

/// Spawns one worker and its stdout-reader thread. The reader tags
/// every event with the incarnation id so ghosts of dead incarnations
/// are filtered out by the event loop.
fn spawn_worker(
    cmd: &[String],
    slot: usize,
    incarnation: u64,
    tx: &Sender<(usize, u64, Event)>,
) -> std::io::Result<(Child, ChildStdin)> {
    let (program, args) = cmd.split_first().expect("worker_cmd non-empty");
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .env(WORKER_ENV, "1")
        // Workers must see exactly the plan the supervisor ships in each
        // task — an inherited LCM_FAULT would re-arm stripped fleet
        // sites on every retry and turn one injected crash into a loop.
        .env_remove(lcm_core::fault::FAULT_ENV)
        .spawn()?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let tx = tx.clone();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        loop {
            match proto::read_frame(&mut reader) {
                Ok(Some(body)) => match FromWorker::decode(&body) {
                    Ok(FromWorker::Hello { now_us, .. }) => {
                        let _ = tx.send((slot, incarnation, Event::Hello { now_us }));
                    }
                    Ok(FromWorker::Beat { crumbs }) => {
                        let _ = tx.send((slot, incarnation, Event::Beat { crumbs }));
                    }
                    Ok(FromWorker::Result(res)) => {
                        let _ = tx.send((slot, incarnation, Event::Result(res)));
                    }
                    Ok(FromWorker::Drain(telemetry)) => {
                        let _ = tx.send((slot, incarnation, Event::Drain(telemetry)));
                    }
                    Err(_) => {
                        let _ = tx.send((slot, incarnation, Event::Gone { reason: "corrupt" }));
                        return;
                    }
                },
                Ok(None) => {
                    let _ = tx.send((slot, incarnation, Event::Gone { reason: "eof" }));
                    return;
                }
                Err(_) => {
                    let _ = tx.send((
                        slot,
                        incarnation,
                        Event::Gone {
                            reason: "torn_frame",
                        },
                    ));
                    return;
                }
            }
        }
    });
    Ok((child, stdin))
}

/// The run's content fingerprint rendered the way traces and event
/// logs quote it: 32 lower-case hex digits.
fn fp_hex(fp: u128) -> String {
    format!("{fp:032x}")
}

/// Which fleet health counter to bump.
enum Health {
    Restart,
    Steal,
    Redelivery,
}

/// The supervisor's fleet health counters (`lcm_fleet_*_total`),
/// registered once in the process-global registry.
fn fleet_counter(which: Health) -> &'static lcm_obs::metrics::Counter {
    use lcm_obs::metrics::{global, names, Counter};
    use std::sync::OnceLock;
    static HANDLES: OnceLock<[Counter; 3]> = OnceLock::new();
    let [restarts, steals, redeliveries] = HANDLES.get_or_init(|| {
        let g = global();
        [
            g.counter(
                names::FLEET_RESTARTS,
                "Worker-slot restarts performed by the fleet supervisor",
            ),
            g.counter(
                names::FLEET_STEALS,
                "Tasks an idle worker stole from a peer slot's queue",
            ),
            g.counter(
                names::FLEET_REDELIVERIES,
                "Tasks redelivered to a surviving queue after a worker failure",
            ),
        ]
    });
    match which {
        Health::Restart => restarts,
        Health::Steal => steals,
        Health::Redelivery => redeliveries,
    }
}

/// The per-reason kill counter
/// (`lcm_fleet_kills_total{reason="crash"|"deadline"|…}`). Reasons are
/// a small closed set, so the per-call registry lookup is fine — kills
/// are rare by definition.
fn kill_counter(reason: &str) -> lcm_obs::metrics::Counter {
    use lcm_obs::metrics::{global, labeled, names};
    global().counter(
        &labeled(names::FLEET_KILLS, "reason", reason),
        "Worker incarnations killed by the supervisor, by reason",
    )
}

/// Deterministic degradation for a function that kept killing its
/// workers (the per-function circuit breaker).
fn degraded_task_fatal(name: &str, lost: usize) -> FunctionReport {
    FunctionReport::degraded(
        name.to_string(),
        AnalysisError::WorkerPanic {
            message: format!("fleet: worker process lost {lost} time(s) analyzing `{name}`"),
        },
    )
}

/// Deterministic degradation when the whole pool retired mid-run.
fn degraded_pool_exhausted(name: &str) -> FunctionReport {
    FunctionReport::degraded(
        name.to_string(),
        AnalysisError::WorkerPanic {
            message: format!("fleet: worker pool exhausted analyzing `{name}`"),
        },
    )
}
