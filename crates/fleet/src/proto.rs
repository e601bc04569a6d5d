//! The supervisor ↔ worker wire protocol.
//!
//! Length-delimited binary frames (`u32le` length + body) over the
//! child's stdin/stdout pipes, encoded with the same hand-rolled
//! little-endian codec the result store uses on disk (the workspace
//! carries no serde). Findings cross the process boundary through
//! [`lcm_store::codec::encode_finding`] verbatim, so a result decoded
//! from a worker is bit-for-bit the result an in-process run produces.
//!
//! Decoding is *total*: every read is bounds-checked and every tag
//! validated, returning [`Corrupt`] instead of panicking. A worker that
//! ships garbage (torn frame, bad tag) is treated exactly like a worker
//! that crashed: killed, restarted, its task redelivered.

use std::io::{self, Read, Write};
use std::time::Duration;

use lcm_core::govern::{AnalysisError, BudgetKind, Budgets};
use lcm_core::speculation::SpeculationConfig;
use lcm_core::FaultPlan;
use lcm_detect::{DetectorConfig, EngineKind, FunctionReport, FunctionStatus, PhaseTimings};
use lcm_obs::metrics::{HistogramSnapshot, MetricValue, MetricsSnapshot};
use lcm_obs::trace::{ArgValue, ForeignEvent};
use lcm_store::codec::{self, Corrupt, R, W};

/// Refuse absurd frames (a corrupt length prefix must not drive a
/// multi-gigabyte allocation). Same ceiling as the store's payloads.
pub const MAX_FRAME: u32 = 64 << 20;

/// Writes one `u32le`-length-delimited frame and flushes it (results
/// must not sit in a BufWriter while the supervisor waits).
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is EOF at a frame boundary (the peer
/// closed the stream cleanly — or died before starting a frame, which
/// the caller distinguishes by whether work was in flight). EOF *mid*
/// frame is an error: a torn frame from a peer that died mid-write.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::other("fleet frame exceeds MAX_FRAME"));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// One analysis task: which function of which module, under which
/// findings-affecting configuration. The fault plan rides inside the
/// config as its canonical spec string, so the supervisor can strip
/// the `fleet.*` sites on redelivery.
#[derive(Debug, Clone)]
pub struct Task {
    /// Supervisor-assigned id echoed back in the result.
    pub task_id: u64,
    /// Which previously-shipped module this task targets.
    pub module_id: u64,
    /// The function's index in module order (keys the fault plan).
    pub fn_index: u64,
    /// The function's name.
    pub fn_name: String,
    /// Which engine to run.
    pub engine: EngineKind,
    /// The detector configuration.
    pub config: DetectorConfig,
    /// Record spans worker-side and ship them back with the result.
    pub trace: bool,
    /// The supervisor slot this task was dispatched to (trace/forensic
    /// annotation only — results route by `task_id`).
    pub worker_slot: u64,
    /// The function's content fingerprint, split into `(hi, lo)` u64
    /// halves of the u128 (annotation for traces and crash forensics).
    pub fingerprint: (u64, u64),
    /// Whether this dispatch stole the task from a peer slot's queue.
    pub stolen: bool,
}

/// One breadcrumb in a worker's black-box ring: which task it was
/// touching and how far it had gotten. Mirrored supervisor-side from
/// heartbeats so a postmortem can name the last known phase even when
/// the worker dies without a result frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Crumb {
    /// The task this crumb describes.
    pub task_id: u64,
    /// The task's function name.
    pub fn_name: String,
    /// The phase reached.
    pub phase: CrumbPhase,
    /// Microseconds on the worker's trace clock when the crumb was
    /// dropped.
    pub ts_us: u64,
}

/// How far a worker got with a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrumbPhase {
    /// Task frame decoded, not yet analyzing.
    Received,
    /// Analysis in flight.
    Analyzing,
    /// Result written back.
    Done,
}

impl CrumbPhase {
    /// Stable lower-case name, used in event logs and `stats` replies.
    pub fn as_str(self) -> &'static str {
        match self {
            CrumbPhase::Received => "received",
            CrumbPhase::Analyzing => "analyzing",
            CrumbPhase::Done => "done",
        }
    }
}

/// Telemetry shipped from worker to supervisor: the worker's span
/// buffer since the last drain (timestamps still on the worker's
/// clock) and the additive change of its metrics registry. Rides
/// result frames and the final drain frame at clean exit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Drained span events ([`lcm_obs::trace::drain_local_events`]).
    pub spans: Vec<ForeignEvent>,
    /// Registry delta ([`MetricsSnapshot::delta_since`]).
    pub metrics: MetricsSnapshot,
}

/// Supervisor → worker messages.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// Ship a module's source; the worker compiles and caches it under
    /// `id` (one module at a time — a new one replaces the old).
    Module { id: u64, source: String },
    /// Analyze one function of the current module.
    Task(Task),
}

/// One finished task: the worker's verbatim [`FunctionReport`]
/// (including partial findings and the error of a degraded run — the
/// supervisor owns the cache discipline, the worker just reports).
#[derive(Debug, Clone)]
pub struct TaskResult {
    pub task_id: u64,
    pub report: FunctionReport,
    /// Spans + metrics delta accumulated during this task. `None` when
    /// the worker has nothing to ship (tracing off *and* no metric
    /// moved).
    pub telemetry: Option<Telemetry>,
}

/// Worker → supervisor messages.
#[derive(Debug, Clone)]
pub enum FromWorker {
    /// First frame after spawn: the worker is alive. `now_us` is the
    /// worker's trace clock at send time; the supervisor derives the
    /// re-basing offset from it (see [`lcm_obs::trace::clock_us`]).
    Hello { pid: u64, now_us: u64 },
    /// Liveness beat, sent periodically while a task is in flight,
    /// carrying the black-box breadcrumb ring (most recent last).
    Beat { crumbs: Vec<Crumb> },
    /// A finished task.
    Result(TaskResult),
    /// Final telemetry flush at clean worker exit (spans/metrics that
    /// accrued after the last result, e.g. module compilation).
    Drain(Telemetry),
}

fn encode_config(w: &mut W, c: &DetectorConfig) {
    w.u64(c.spec.rob_size as u64);
    w.u64(c.spec.lsq_size as u64);
    w.u64(c.spec.speculation_depth as u64);
    w.u64(c.window as u64);
    // u64::MAX = every class (the fingerprint uses the same sentinel).
    w.u64(
        c.target_class
            .map_or(u64::MAX, |tc| codec::class_code(tc) as u64),
    );
    w.bool(c.gep_filter);
    w.bool(c.universal_needs_transient_access);
    w.bool(c.detect_interference);
    w.opt_u64(c.budgets.timeout.map(|d| d.as_nanos() as u64));
    w.opt_u64(c.budgets.max_saeg_nodes.map(|n| n as u64));
    w.opt_u64(c.budgets.max_saeg_edges.map(|n| n as u64));
    w.str(&c.faults.render());
}

fn decode_config(r: &mut R) -> Result<DetectorConfig, Corrupt> {
    let mut c = DetectorConfig::default();
    c.spec = SpeculationConfig {
        rob_size: r.u64()? as usize,
        lsq_size: r.u64()? as usize,
        speculation_depth: r.u64()? as usize,
    };
    c.window = r.u64()? as usize;
    c.target_class = match r.u64()? {
        u64::MAX => None,
        code => Some(codec::class_of(u8::try_from(code).map_err(|_| Corrupt)?)?),
    };
    c.gep_filter = r.bool()?;
    c.universal_needs_transient_access = r.bool()?;
    c.detect_interference = r.bool()?;
    c.budgets = Budgets {
        timeout: r.opt_u64()?.map(Duration::from_nanos),
        max_saeg_nodes: r.opt_u64()?.map(|n| n as usize),
        max_saeg_edges: r.opt_u64()?.map(|n| n as usize),
    };
    c.faults = FaultPlan::parse(&r.str()?).map_err(|_| Corrupt)?;
    Ok(c)
}

fn encode_error(w: &mut W, e: &AnalysisError) {
    match e {
        AnalysisError::Timeout { budget_ms } => {
            w.u8(0);
            w.u64(*budget_ms);
        }
        AnalysisError::BudgetExceeded { kind } => {
            w.u8(1);
            w.u8(match kind {
                BudgetKind::SolverConflicts => 0,
                BudgetKind::SaegNodes => 1,
                BudgetKind::SaegEdges => 2,
            });
        }
        AnalysisError::MalformedIr { message } => {
            w.u8(2);
            w.str(message);
        }
        AnalysisError::WorkerPanic { message } => {
            w.u8(3);
            w.str(message);
        }
        AnalysisError::SolverAbort => w.u8(4),
    }
}

fn decode_error(r: &mut R) -> Result<AnalysisError, Corrupt> {
    Ok(match r.u8()? {
        0 => AnalysisError::Timeout {
            budget_ms: r.u64()?,
        },
        1 => AnalysisError::BudgetExceeded {
            kind: match r.u8()? {
                0 => BudgetKind::SolverConflicts,
                1 => BudgetKind::SaegNodes,
                2 => BudgetKind::SaegEdges,
                _ => return Err(Corrupt),
            },
        },
        2 => AnalysisError::MalformedIr { message: r.str()? },
        3 => AnalysisError::WorkerPanic { message: r.str()? },
        4 => AnalysisError::SolverAbort,
        _ => return Err(Corrupt),
    })
}

fn encode_timings(w: &mut W, t: &PhaseTimings) {
    for d in [
        t.acfg_build,
        t.saeg_build,
        t.classify,
        t.baseline,
        t.bh_execute,
        t.bh_witness,
        t.cache,
        t.other,
    ] {
        w.u64(d.as_nanos() as u64);
    }
    for v in [t.queries_avoided, t.prefilter_hits, t.cache_hits] {
        w.u64(v);
    }
}

fn decode_timings(r: &mut R) -> Result<PhaseTimings, Corrupt> {
    let mut t = PhaseTimings::default();
    for d in [
        &mut t.acfg_build,
        &mut t.saeg_build,
        &mut t.classify,
        &mut t.baseline,
        &mut t.bh_execute,
        &mut t.bh_witness,
        &mut t.cache,
        &mut t.other,
    ] {
        *d = Duration::from_nanos(r.u64()?);
    }
    for v in [
        &mut t.queries_avoided,
        &mut t.prefilter_hits,
        &mut t.cache_hits,
    ] {
        *v = r.u64()?;
    }
    Ok(t)
}

/// Serializes a full [`FunctionReport`] — unlike the store's
/// `encode_clou`, degraded reports are legal here: their partial
/// findings are a lower bound the supervisor keeps (and never caches).
fn encode_report(w: &mut W, report: &FunctionReport) {
    w.str(&report.name);
    w.u64(report.saeg_size as u64);
    w.u64(report.runtime.as_nanos() as u64);
    encode_timings(w, &report.timings);
    match report.status.error() {
        None => w.u8(0),
        Some(e) => {
            w.u8(1);
            encode_error(w, e);
        }
    }
    codec::encode_findings(w, &report.transmitters);
}

fn decode_report(r: &mut R) -> Result<FunctionReport, Corrupt> {
    let name = r.str()?;
    let saeg_size = r.u64()? as usize;
    let runtime = Duration::from_nanos(r.u64()?);
    let timings = decode_timings(r)?;
    let status = match r.u8()? {
        0 => FunctionStatus::Completed,
        1 => FunctionStatus::Degraded(decode_error(r)?),
        _ => return Err(Corrupt),
    };
    let transmitters = codec::decode_findings(r)?;
    Ok(FunctionReport {
        name,
        transmitters,
        saeg_size,
        runtime,
        timings,
        status,
        // The supervisor stamps the real disposition (hit/miss/bypass);
        // the worker has no cache to consult.
        cache: lcm_detect::CacheStatus::Bypass,
    })
}

fn encode_foreign_event(w: &mut W, e: &ForeignEvent) {
    w.u64(e.tid);
    w.str(&e.name);
    w.str(&e.cat);
    w.bool(e.begin);
    w.u64(e.ts_us);
    w.u32(e.args.len() as u32);
    for (k, v) in &e.args {
        w.str(k);
        match v {
            ArgValue::Str(s) => {
                w.u8(0);
                w.str(s);
            }
            ArgValue::U64(n) => {
                w.u8(1);
                w.u64(*n);
            }
        }
    }
}

fn decode_foreign_event(r: &mut R) -> Result<ForeignEvent, Corrupt> {
    let tid = r.u64()?;
    let name = r.str()?;
    let cat = r.str()?;
    let begin = r.bool()?;
    let ts_us = r.u64()?;
    let n = r.u32()? as usize;
    let mut args = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let k = r.str()?;
        let v = match r.u8()? {
            0 => ArgValue::Str(r.str()?),
            1 => ArgValue::U64(r.u64()?),
            _ => return Err(Corrupt),
        };
        args.push((k, v));
    }
    Ok(ForeignEvent {
        tid,
        name,
        cat,
        begin,
        ts_us,
        args,
    })
}

fn encode_metrics(w: &mut W, s: &MetricsSnapshot) {
    w.u32(s.metrics.len() as u32);
    for (name, help, value) in &s.metrics {
        w.str(name);
        w.str(help);
        match value {
            MetricValue::Counter(n) => {
                w.u8(1);
                w.u64(*n);
            }
            MetricValue::Gauge(v) => {
                w.u8(2);
                w.u64(*v as u64);
            }
            MetricValue::Histogram(h) => {
                w.u8(3);
                w.u32(h.bounds.len() as u32);
                for b in &h.bounds {
                    w.u64(b.to_bits());
                }
                w.u32(h.counts.len() as u32);
                for c in &h.counts {
                    w.u64(*c);
                }
                w.u64(h.sum_secs.to_bits());
                w.u64(h.count);
            }
        }
    }
}

fn decode_metrics(r: &mut R) -> Result<MetricsSnapshot, Corrupt> {
    let n = r.u32()? as usize;
    let mut metrics = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        let name = r.str()?;
        let help = r.str()?;
        let value = match r.u8()? {
            1 => MetricValue::Counter(r.u64()?),
            2 => MetricValue::Gauge(r.u64()? as i64),
            3 => {
                let nb = r.u32()? as usize;
                let mut bounds = Vec::with_capacity(nb.min(64));
                for _ in 0..nb {
                    bounds.push(f64::from_bits(r.u64()?));
                }
                let nc = r.u32()? as usize;
                let mut counts = Vec::with_capacity(nc.min(64));
                for _ in 0..nc {
                    counts.push(r.u64()?);
                }
                let sum_secs = f64::from_bits(r.u64()?);
                let count = r.u64()?;
                MetricValue::Histogram(HistogramSnapshot {
                    bounds,
                    counts,
                    sum_secs,
                    count,
                })
            }
            _ => return Err(Corrupt),
        };
        metrics.push((name, help, value));
    }
    Ok(MetricsSnapshot { metrics })
}

fn encode_telemetry(w: &mut W, t: &Telemetry) {
    w.u32(t.spans.len() as u32);
    for e in &t.spans {
        encode_foreign_event(w, e);
    }
    encode_metrics(w, &t.metrics);
}

fn decode_telemetry(r: &mut R) -> Result<Telemetry, Corrupt> {
    let n = r.u32()? as usize;
    let mut spans = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        spans.push(decode_foreign_event(r)?);
    }
    let metrics = decode_metrics(r)?;
    Ok(Telemetry { spans, metrics })
}

fn encode_crumbs(w: &mut W, crumbs: &[Crumb]) {
    w.u32(crumbs.len() as u32);
    for c in crumbs {
        w.u64(c.task_id);
        w.str(&c.fn_name);
        w.u8(match c.phase {
            CrumbPhase::Received => 0,
            CrumbPhase::Analyzing => 1,
            CrumbPhase::Done => 2,
        });
        w.u64(c.ts_us);
    }
}

fn decode_crumbs(r: &mut R) -> Result<Vec<Crumb>, Corrupt> {
    let n = r.u32()? as usize;
    let mut crumbs = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        crumbs.push(Crumb {
            task_id: r.u64()?,
            fn_name: r.str()?,
            phase: match r.u8()? {
                0 => CrumbPhase::Received,
                1 => CrumbPhase::Analyzing,
                2 => CrumbPhase::Done,
                _ => return Err(Corrupt),
            },
            ts_us: r.u64()?,
        });
    }
    Ok(crumbs)
}

impl ToWorker {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new();
        match self {
            ToWorker::Module { id, source } => {
                w.u8(1);
                w.u64(*id);
                w.str(source);
            }
            ToWorker::Task(t) => {
                w.u8(2);
                w.u64(t.task_id);
                w.u64(t.module_id);
                w.u64(t.fn_index);
                w.str(&t.fn_name);
                w.u8(t.engine.code() as u8);
                encode_config(&mut w, &t.config);
                w.bool(t.trace);
                w.u64(t.worker_slot);
                w.u64(t.fingerprint.0);
                w.u64(t.fingerprint.1);
                w.bool(t.stolen);
            }
        }
        w.0
    }

    pub fn decode(body: &[u8]) -> Result<Self, Corrupt> {
        let mut r = R::new(body);
        let msg = match r.u8()? {
            1 => ToWorker::Module {
                id: r.u64()?,
                source: r.str()?,
            },
            2 => ToWorker::Task(Task {
                task_id: r.u64()?,
                module_id: r.u64()?,
                fn_index: r.u64()?,
                fn_name: r.str()?,
                engine: *EngineKind::ALL.get(r.u8()? as usize).ok_or(Corrupt)?,
                config: decode_config(&mut r)?,
                trace: r.bool()?,
                worker_slot: r.u64()?,
                fingerprint: (r.u64()?, r.u64()?),
                stolen: r.bool()?,
            }),
            _ => return Err(Corrupt),
        };
        r.finish()?;
        Ok(msg)
    }
}

impl FromWorker {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = W::new();
        match self {
            FromWorker::Hello { pid, now_us } => {
                w.u8(1);
                w.u64(*pid);
                w.u64(*now_us);
            }
            FromWorker::Beat { crumbs } => {
                w.u8(2);
                encode_crumbs(&mut w, crumbs);
            }
            FromWorker::Result(res) => {
                w.u8(3);
                w.u64(res.task_id);
                encode_report(&mut w, &res.report);
                match &res.telemetry {
                    None => w.u8(0),
                    Some(t) => {
                        w.u8(1);
                        encode_telemetry(&mut w, t);
                    }
                }
            }
            FromWorker::Drain(t) => {
                w.u8(4);
                encode_telemetry(&mut w, t);
            }
        }
        w.0
    }

    pub fn decode(body: &[u8]) -> Result<Self, Corrupt> {
        let mut r = R::new(body);
        let msg = match r.u8()? {
            1 => FromWorker::Hello {
                pid: r.u64()?,
                now_us: r.u64()?,
            },
            2 => FromWorker::Beat {
                crumbs: decode_crumbs(&mut r)?,
            },
            3 => FromWorker::Result(TaskResult {
                task_id: r.u64()?,
                report: decode_report(&mut r)?,
                telemetry: match r.u8()? {
                    0 => None,
                    1 => Some(decode_telemetry(&mut r)?),
                    _ => return Err(Corrupt),
                },
            }),
            4 => FromWorker::Drain(decode_telemetry(&mut r)?),
            _ => return Err(Corrupt),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_core::fault::site;
    use lcm_core::taxonomy::TransmitterClass;

    fn sample_config() -> DetectorConfig {
        let mut c = DetectorConfig::default();
        c.window = 99;
        c.target_class = Some(TransmitterClass::UniversalData);
        c.budgets.timeout = Some(Duration::from_millis(1500));
        c.budgets.max_saeg_nodes = Some(4096);
        c.faults = FaultPlan::default().arm(site::WORKER_PANIC, Some(1));
        c
    }

    #[test]
    fn task_round_trips() {
        let msg = ToWorker::Task(Task {
            task_id: 7,
            module_id: 3,
            fn_index: 2,
            fn_name: "victim".into(),
            engine: EngineKind::Stl,
            config: sample_config(),
            trace: true,
            worker_slot: 5,
            fingerprint: (0xdead_beef, 0xcafe),
            stolen: true,
        });
        let body = msg.encode();
        let ToWorker::Task(t) = ToWorker::decode(&body).unwrap() else {
            panic!("wrong tag");
        };
        assert_eq!(t.task_id, 7);
        assert_eq!(t.fn_name, "victim");
        assert_eq!(t.engine, EngineKind::Stl);
        assert_eq!(t.config.window, 99);
        assert_eq!(t.config.target_class, Some(TransmitterClass::UniversalData));
        assert_eq!(t.config.budgets.timeout, Some(Duration::from_millis(1500)));
        assert_eq!(t.config.budgets.max_saeg_nodes, Some(4096));
        assert!(t.config.faults.fires(site::WORKER_PANIC, 1));
        assert!(t.trace);
        assert_eq!(t.worker_slot, 5);
        assert_eq!(t.fingerprint, (0xdead_beef, 0xcafe));
        assert!(t.stolen);
    }

    #[test]
    fn module_round_trips() {
        let msg = ToWorker::Module {
            id: 5,
            source: "int x;".into(),
        };
        let ToWorker::Module { id, source } = ToWorker::decode(&msg.encode()).unwrap() else {
            panic!("wrong tag");
        };
        assert_eq!((id, source.as_str()), (5, "int x;"));
    }

    #[test]
    fn degraded_result_round_trips_with_partial_findings() {
        use lcm_detect::CacheStatus;
        // A degraded report that still carries findings (the governor
        // tripping mid-run keeps what it found): the fleet codec must
        // ship both, which the store's encode_clou refuses.
        let mut report = FunctionReport::degraded(
            "victim".into(),
            AnalysisError::BudgetExceeded {
                kind: BudgetKind::SaegNodes,
            },
        );
        report.saeg_size = 41;
        let msg = FromWorker::Result(TaskResult {
            task_id: 9,
            report,
            telemetry: None,
        });
        let FromWorker::Result(res) = FromWorker::decode(&msg.encode()).unwrap() else {
            panic!("wrong tag");
        };
        assert_eq!(res.task_id, 9);
        assert_eq!(res.report.saeg_size, 41);
        assert_eq!(res.report.cache, CacheStatus::Bypass);
        assert_eq!(
            res.report.status.error().map(|e| e.to_string()),
            Some("budget exceeded: S-AEG nodes".into())
        );
    }

    fn sample_telemetry() -> Telemetry {
        Telemetry {
            spans: vec![
                ForeignEvent {
                    tid: 1,
                    name: "task".into(),
                    cat: "fleet".into(),
                    begin: true,
                    ts_us: 100,
                    args: vec![
                        ("fn".into(), ArgValue::Str("victim".into())),
                        ("worker".into(), ArgValue::U64(2)),
                    ],
                },
                ForeignEvent {
                    tid: 1,
                    name: "task".into(),
                    cat: "fleet".into(),
                    begin: false,
                    ts_us: 250,
                    args: Vec::new(),
                },
            ],
            metrics: MetricsSnapshot {
                metrics: vec![
                    (
                        "lcm_sat_queries_avoided_total".into(),
                        "queries".into(),
                        MetricValue::Counter(17),
                    ),
                    (
                        "lcm_solve_latency_seconds".into(),
                        "latency".into(),
                        MetricValue::Histogram(HistogramSnapshot {
                            bounds: vec![0.01, 0.1],
                            counts: vec![3, 1, 0],
                            sum_secs: 0.0625,
                            count: 4,
                        }),
                    ),
                ],
            },
        }
    }

    #[test]
    fn telemetry_round_trips_on_result_hello_beat_and_drain() {
        // Hello carries the clock sample for re-basing.
        let FromWorker::Hello { pid, now_us } = FromWorker::decode(
            &FromWorker::Hello {
                pid: 42,
                now_us: 777,
            }
            .encode(),
        )
        .unwrap() else {
            panic!("wrong tag");
        };
        assert_eq!((pid, now_us), (42, 777));
        // Beat carries the breadcrumb ring.
        let crumbs = vec![
            Crumb {
                task_id: 3,
                fn_name: "victim_a".into(),
                phase: CrumbPhase::Done,
                ts_us: 10,
            },
            Crumb {
                task_id: 4,
                fn_name: "victim_b".into(),
                phase: CrumbPhase::Analyzing,
                ts_us: 20,
            },
        ];
        let FromWorker::Beat { crumbs: got } = FromWorker::decode(
            &FromWorker::Beat {
                crumbs: crumbs.clone(),
            }
            .encode(),
        )
        .unwrap() else {
            panic!("wrong tag");
        };
        assert_eq!(got, crumbs);
        assert_eq!(got[1].phase.as_str(), "analyzing");
        // Result carries optional telemetry, bit-exact (f64 ships as
        // raw bits, so histogram sums survive).
        let telemetry = sample_telemetry();
        let msg = FromWorker::Result(TaskResult {
            task_id: 9,
            report: FunctionReport::degraded("victim".into(), AnalysisError::SolverAbort),
            telemetry: Some(telemetry.clone()),
        });
        let FromWorker::Result(res) = FromWorker::decode(&msg.encode()).unwrap() else {
            panic!("wrong tag");
        };
        assert_eq!(res.telemetry, Some(telemetry.clone()));
        // Drain is a bare telemetry frame.
        let FromWorker::Drain(got) =
            FromWorker::decode(&FromWorker::Drain(telemetry.clone()).encode()).unwrap()
        else {
            panic!("wrong tag");
        };
        assert_eq!(got, telemetry);
    }

    #[test]
    fn every_truncation_is_corrupt_not_panic() {
        let body = ToWorker::Task(Task {
            task_id: 1,
            module_id: 1,
            fn_index: 0,
            fn_name: "f".into(),
            engine: EngineKind::Pht,
            config: sample_config(),
            trace: true,
            worker_slot: 0,
            fingerprint: (1, 2),
            stolen: false,
        })
        .encode();
        for cut in 0..body.len() {
            assert!(ToWorker::decode(&body[..cut]).is_err(), "cut at {cut}");
        }
        // Telemetry-bearing frames are total too.
        let body = FromWorker::Drain(sample_telemetry()).encode();
        for cut in 0..body.len() {
            assert!(FromWorker::decode(&body[..cut]).is_err(), "cut at {cut}");
        }
        let body = FromWorker::Beat {
            crumbs: vec![Crumb {
                task_id: 1,
                fn_name: "f".into(),
                phase: CrumbPhase::Received,
                ts_us: 5,
            }],
        }
        .encode();
        for cut in 0..body.len() {
            assert!(FromWorker::decode(&body[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn frame_layer_round_trips_and_detects_tears() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // A torn frame (length says 5, only 2 bytes arrive) is an error,
        // not a silent EOF.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"hello").unwrap();
        torn.truncate(6);
        let mut r = &torn[..];
        assert!(read_frame(&mut r).is_err());
    }
}
