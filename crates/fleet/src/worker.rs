//! The worker-process side of the fleet.
//!
//! A worker is a child process speaking [`crate::proto`] over its
//! stdin/stdout: it receives a module's source, compiles it, then
//! analyzes one function per task on one thread, through the same
//! `Detector::analyze_functions` an in-process run uses. An analysis
//! panic is caught there and shipped back as its `WorkerPanic`
//! degradation (and counted in `lcm_worker_panics_total`) — crash
//! isolation changes *where* a panic is caught, never what the caller
//! sees.
//!
//! A detached heartbeat thread writes [`FromWorker::Beat`] frames while
//! a task is in flight, so the supervisor can tell a long-running
//! analysis (beating, leave it alone until its deadline) from a wedged
//! process (silent, kill it at the heartbeat grace).
//!
//! The three `fleet.*` fault sites live here: `fleet.worker_crash`
//! SIGKILLs the process mid-task, `fleet.worker_hang` goes silent and
//! stalls, `fleet.task_torn` ships half a result frame and exits. All
//! three are first-attempt-only in practice because the supervisor
//! strips `fleet.*` specs from redelivered tasks.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lcm_core::fault::site;
use lcm_core::govern::AnalysisError;
use lcm_detect::{Detector, FunctionReport};
use lcm_ir::Module;
use lcm_obs::metrics::MetricsSnapshot;
use lcm_obs::trace;

use crate::proto::{self, Crumb, CrumbPhase, FromWorker, Task, TaskResult, Telemetry, ToWorker};

/// Environment marker the supervisor sets on worker children. A binary
/// that may host workers calls [`maybe_run_worker`] first thing in
/// `main`; seeing this variable, it becomes the worker loop instead of
/// its normal self.
pub const WORKER_ENV: &str = "LCM_FLEET_WORKER";

/// How often a busy worker beats. The supervisor's grace period is a
/// config knob several multiples of this.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(25);

/// Breadcrumbs the black-box ring retains (most recent last). Small on
/// purpose: it rides every heartbeat frame.
pub const CRUMB_RING: usize = 8;

/// The black-box breadcrumb ring, shared between the task loop (which
/// pushes phase marks) and the heartbeat thread (which mirrors the
/// ring to the supervisor on every beat).
#[derive(Clone, Default)]
struct CrumbRing(Arc<Mutex<Vec<Crumb>>>);

impl CrumbRing {
    fn push(&self, task: &Task, phase: CrumbPhase) {
        let mut ring = self.0.lock().unwrap();
        if ring.len() == CRUMB_RING {
            ring.remove(0);
        }
        ring.push(Crumb {
            task_id: task.task_id,
            fn_name: task.fn_name.clone(),
            phase,
            ts_us: trace::clock_us(),
        });
    }

    fn snapshot(&self) -> Vec<Crumb> {
        self.0.lock().unwrap().clone()
    }
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn getpid() -> i32;
}

const SIGKILL: i32 = 9;

/// If this process was spawned as a fleet worker (the [`WORKER_ENV`]
/// marker is set), run the worker loop and exit — never returns in that
/// case. Host binaries (`lcm-cli`, the bench binaries) call this before
/// any argument parsing.
pub fn maybe_run_worker() {
    if std::env::var_os(WORKER_ENV).is_some() {
        worker_main();
    }
}

/// The worker loop over this process's stdin/stdout; exits the process
/// when the supervisor closes the pipe. This is also the body of the
/// hidden `lcm-cli worker` subcommand.
pub fn worker_main() -> ! {
    let code = run_worker(&mut io::stdin().lock());
    std::process::exit(code);
}

fn write_msg(out: &Mutex<io::Stdout>, msg: &FromWorker) -> io::Result<()> {
    let mut out = out.lock().unwrap();
    proto::write_frame(&mut *out, &msg.encode())
}

/// The worker's telemetry state: the last-shipped metrics snapshot,
/// so each result frame carries only the delta since the previous one.
struct TelemetryState {
    last_metrics: MetricsSnapshot,
}

impl TelemetryState {
    /// Collects everything that accrued since the last collection:
    /// buffered spans (when tracing ran) and the metrics delta.
    /// Returns `None` when both are empty, so untraced idle tasks ship
    /// no telemetry bytes at all.
    fn collect(&mut self) -> Option<Telemetry> {
        let spans = if trace::is_enabled() {
            trace::drain_local_events()
        } else {
            Vec::new()
        };
        let cur = lcm_obs::metrics::global().snapshot();
        let metrics = cur.delta_since(&self.last_metrics);
        self.last_metrics = cur;
        if spans.is_empty() && metrics.metrics.is_empty() {
            return None;
        }
        Some(Telemetry { spans, metrics })
    }
}

fn run_worker(input: &mut impl Read) -> i32 {
    let out = Arc::new(Mutex::new(io::stdout()));
    let busy = Arc::new(AtomicBool::new(false));
    let crumbs = CrumbRing::default();
    {
        // Heartbeat thread: beats only while a task is in flight (an
        // idle fleet must not fill the supervisor's event queue). A
        // failed write means the supervisor is gone — nothing left to
        // beat for. Each beat mirrors the breadcrumb ring.
        let out = Arc::clone(&out);
        let busy = Arc::clone(&busy);
        let crumbs = crumbs.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(HEARTBEAT_INTERVAL);
            if busy.load(Ordering::Relaxed) {
                let beat = FromWorker::Beat {
                    crumbs: crumbs.snapshot(),
                };
                if write_msg(&out, &beat).is_err() {
                    std::process::exit(0);
                }
            }
        });
    }
    let pid = unsafe { getpid() } as u64;
    let hello = FromWorker::Hello {
        pid,
        now_us: trace::clock_us(),
    };
    if write_msg(&out, &hello).is_err() {
        return 1;
    }

    let mut telemetry = TelemetryState {
        last_metrics: lcm_obs::metrics::global().snapshot(),
    };
    // The current module: compiled once per `Module` frame, reused by
    // every subsequent task. A compile error is remembered so tasks
    // against the broken module degrade instead of wedging.
    let mut module: Option<(u64, Result<Module, String>)> = None;
    loop {
        let body = match proto::read_frame(input) {
            Ok(Some(body)) => body,
            Ok(None) => {
                // Supervisor closed our stdin: flush whatever telemetry
                // accrued after the last result (module compiles,
                // stray metrics), then exit cleanly. A dead supervisor
                // ignores the write error.
                if let Some(t) = telemetry.collect() {
                    let _ = write_msg(&out, &FromWorker::Drain(t));
                }
                return 0;
            }
            Err(_) => return 1,
        };
        let Ok(msg) = ToWorker::decode(&body) else {
            return 1;
        };
        match msg {
            ToWorker::Module { id, source } => {
                let compiled = lcm_minic::compile(&source).map_err(|e| e.to_string());
                module = Some((id, compiled));
            }
            ToWorker::Task(task) => {
                busy.store(true, Ordering::Relaxed);
                let ok = handle_task(&out, &busy, &crumbs, &mut telemetry, &module, task);
                busy.store(false, Ordering::Relaxed);
                if !ok {
                    return 1;
                }
            }
        }
    }
}

fn handle_task(
    out: &Mutex<io::Stdout>,
    busy: &AtomicBool,
    crumbs: &CrumbRing,
    telemetry: &mut TelemetryState,
    module: &Option<(u64, Result<Module, String>)>,
    task: Task,
) -> bool {
    crumbs.push(&task, CrumbPhase::Received);
    // The supervisor decides per dispatch whether this worker records
    // spans (it follows the run's `--trace-out`). Enabling is sticky
    // until a task says otherwise, so a mixed sequence stays correct.
    if task.trace {
        trace::enable();
    } else {
        trace::disable();
    }
    let idx = task.fn_index as usize;
    let faults = &task.config.faults;
    if faults.fires(site::FLEET_WORKER_CRASH, idx) {
        // Die the hard way: no unwinding, no cleanup, no exit status
        // ambiguity — exactly what a segfaulting worker looks like.
        unsafe { kill(getpid(), SIGKILL) };
        loop {
            std::thread::sleep(Duration::from_secs(1));
        }
    }
    if faults.fires(site::FLEET_WORKER_HANG, idx) {
        // A frozen process: silence the heartbeat thread, ship no
        // result, never exit. The supervisor's stuck-output detection
        // (heartbeat grace) — or the task deadline, whichever is
        // tighter — reaps us.
        busy.store(false, Ordering::Relaxed);
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    crumbs.push(&task, CrumbPhase::Analyzing);
    let mut task_span = trace::span("task", "fleet");
    if trace::is_enabled() {
        task_span.arg_str("fn", &task.fn_name);
        task_span.arg_str("engine", task.engine.label());
        task_span.arg_u64("worker", task.worker_slot);
        task_span.arg_str(
            "fingerprint",
            &format!("{:016x}{:016x}", task.fingerprint.0, task.fingerprint.1),
        );
        task_span.arg_str("dispatch", if task.stolen { "stolen" } else { "owned" });
    }
    let report = match module {
        Some((id, Ok(m))) if *id == task.module_id => Detector::new(task.config.clone())
            .analyze_functions(m, task.engine, &[idx])
            .pop()
            .expect("one index, one report"),
        Some((id, Err(msg))) if *id == task.module_id => FunctionReport::degraded(
            task.fn_name.clone(),
            AnalysisError::MalformedIr {
                message: msg.clone(),
            },
        ),
        _ => FunctionReport::degraded(
            task.fn_name.clone(),
            AnalysisError::WorkerPanic {
                message: "fleet: task for a module this worker never received".into(),
            },
        ),
    };

    drop(task_span);
    crumbs.push(&task, CrumbPhase::Done);
    let body = FromWorker::Result(TaskResult {
        task_id: task.task_id,
        report,
        // Metrics ship whether or not spans were recorded: aggregation
        // must not depend on tracing being on.
        telemetry: telemetry.collect(),
    })
    .encode();
    if faults.fires(site::FLEET_TASK_TORN, idx) {
        // Ship the length prefix and half the body, then die: the
        // supervisor's reader sees EOF mid-frame — a torn frame, not a
        // clean shutdown — and redelivers the task elsewhere.
        let mut o = out.lock().unwrap();
        let _ = o.write_all(&(body.len() as u32).to_le_bytes());
        let _ = o.write_all(&body[..body.len() / 2]);
        let _ = o.flush();
        std::process::exit(1);
    }
    let mut o = out.lock().unwrap();
    proto::write_frame(&mut *o, &body).is_ok()
}
