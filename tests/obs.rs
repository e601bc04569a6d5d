//! Tier-1: observability must never observe its way into the results.
//!
//! The `lcm-obs` tracer and metrics registry sit inside every analysis
//! phase (A-CFG build, S-AEG build, engines, cache, daemon).
//! The contract is that they are *write-only* side channels: enabling
//! tracing changes what gets recorded, never what gets computed. This
//! test enforces that differentially — the rendered `ModuleReport`
//! wire JSON (timing-free by construction) must be byte-identical with
//! tracing off and on, for every engine, including under any
//! `LCM_FAULT` campaign the CI matrix arms (faults key off the function
//! index, so both runs see the same failures).
//!
//! The same test then validates the trace it just recorded with the
//! bench crate's Chrome-trace shape checker (the library behind the
//! `tracecheck` binary CI runs on `--trace-out` artifacts): balanced
//! begin/end, per-thread monotone timestamps, proper nesting.
//!
//! The fleet extends the contract across the process boundary
//! (DESIGN.md §6j): worker-side span recording and metrics shipping
//! must be byte-invisible in the rendered findings at every worker
//! count and under every armed `fleet.*` fault, and a supervised crash
//! must produce exactly one structured forensic record naming the task
//! that was in flight — without perturbing the findings.

use std::time::Duration;

use lcm::core::fault::{site, FaultPlan};
use lcm::detect::{Detector, DetectorConfig, EngineKind};
use lcm::fleet::{Fleet, FleetConfig};
use lcm::serve::wire::{analyze_reply, module_report_json};

fn env_faults_armed() -> bool {
    std::env::var(lcm::core::fault::FAULT_ENV).is_ok_and(|v| !v.trim().is_empty())
}

const VICTIMS: &str = r#"
    int A[16]; int B[4096]; int size; int tmp; int sec_key;
    void victim_a(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_b(int y) { if (y < size) tmp &= B[A[y] * 256]; }
    void safe(int y) { tmp = y + sec_key; }
"#;

/// One test function on purpose: the tracer's enabled flag is process
/// global, so interleaving with a concurrently running sibling test
/// would make "tracing off" a lie.
#[test]
fn reports_are_byte_identical_with_tracing_on_and_off() {
    let det = Detector::new(DetectorConfig::default());
    let engines = [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf];
    let run_all = || -> Vec<Result<String, String>> {
        engines
            .iter()
            .map(|&engine| {
                lcm::analyze_source(VICTIMS, &det, engine)
                    .map(|r| module_report_json(&r).render())
                    .map_err(|e| e.to_string())
            })
            .collect()
    };

    assert!(!lcm::obs::trace::is_enabled());
    let off = run_all();

    lcm::obs::trace::enable();
    let on = run_all();
    lcm::obs::trace::disable();

    for ((off, on), engine) in off.iter().zip(&on).zip(engines) {
        assert_eq!(
            off, on,
            "{engine:?}: rendered report must not depend on tracing"
        );
    }

    // The traced runs must have produced a structurally valid Chrome
    // trace covering the analysis pipeline.
    let doc = lcm::obs::trace::export_chrome_trace();
    let stats = lcm_bench::trace::validate(&doc).expect("exported trace must be shape-valid");

    // Span taxonomy: with no faults armed, a full three-engine run over
    // a compiling module must include the pipeline's named phases.
    // (Under a fault campaign a fault can fire before any span opens —
    // e.g. `worker_panic` aborts every worker at its first instruction —
    // so there only the exported shape is asserted.)
    if !env_faults_armed() {
        assert!(stats.spans > 0, "traced analysis produced no spans");
        for name in ["acfg_build", "saeg_build", "engine_run"] {
            assert!(
                doc.contains(&format!("\"name\":\"{name}\"")),
                "trace is missing expected span `{name}`"
            );
        }
        // The same pipeline feeds the registry; a clean run must have
        // registered the feasibility-query counter.
        let prom = lcm::obs::metrics::global().render_prometheus();
        assert!(prom.contains("# TYPE lcm_sat_queries_avoided_total counter"));
    }

    // Whatever the fault plan did to the run, the JSON exposition block
    // the bench binaries print must stay parseable.
    let json = lcm::obs::metrics::global().render_json();
    lcm::core::jsonw::parse(&json).expect("metrics JSON block must parse");
}

/// A four-gadget module (mirrors tests/fleet.rs): enough functions to
/// shard across workers, small enough for debug-profile processes.
const FOUR_VICTIMS: &str = r#"
    int A[16]; int B[4096]; int size; int tmp;
    void victim_0(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_1(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_2(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_3(int y) { if (y < size) tmp &= B[A[y] * 512]; }
"#;

/// Fleet knobs for tests: the sibling `lcm-cli worker` binary, and the
/// heartbeat grace shrunk so injected failures reap in ~1s. Worker
/// tracing is pinned per fleet via [`FleetConfig::trace_workers`] —
/// these tests never touch the process-global tracer, which belongs to
/// the single-test-function contract above.
fn test_fleet(workers: usize, trace_workers: bool) -> FleetConfig {
    FleetConfig {
        worker_cmd: vec![env!("CARGO_BIN_EXE_lcm-cli").to_string(), "worker".into()],
        task_deadline: Duration::from_secs(60),
        heartbeat_grace: Duration::from_secs(1),
        trace_workers: Some(trace_workers),
        ..FleetConfig::new(workers)
    }
}

fn fleet_reply(fleet: &Fleet, config: &DetectorConfig, engine: EngineKind) -> String {
    let m = lcm::minic::compile(FOUR_VICTIMS).expect("compiles");
    let report = fleet.analyze_module(FOUR_VICTIMS, &m, engine, config, None);
    analyze_reply(&report, engine)
}

/// The cross-process differential: worker-side telemetry (span
/// recording + metrics deltas riding every result frame) must be
/// byte-invisible in the rendered findings, at 1 and 4 workers, for
/// all three engines. Runs under the CI `LCM_FAULT` matrix unskipped:
/// both sides see the same armed plan, and `fleet.*` sites converge by
/// redelivery on both sides.
#[test]
fn fleet_findings_are_byte_identical_with_worker_tracing_on_and_off() {
    let config = DetectorConfig::default();
    for workers in [1, 4] {
        let traced = Fleet::new(test_fleet(workers, true));
        let untraced = Fleet::new(test_fleet(workers, false));
        for engine in [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf] {
            let on = fleet_reply(&traced, &config, engine);
            let off = fleet_reply(&untraced, &config, engine);
            assert_eq!(
                on, off,
                "{workers} worker(s), {engine:?}: worker tracing must be byte-invisible"
            );
        }
        traced.shutdown();
        untraced.shutdown();
    }
}

/// Crash forensics: an armed `fleet.worker_crash` (a real SIGKILL
/// mid-task) must emit exactly one structured `worker_exit` crash
/// record into the JSONL event log, naming the faulted task's function
/// and store fingerprint — while the findings converge byte-identical
/// to the in-process run. Skipped under the env fault matrix, which
/// arms sites this test's event-count assertion does not model.
#[test]
fn armed_worker_crash_emits_one_forensic_event_naming_the_task() {
    if env_faults_armed() {
        return;
    }
    let events_path =
        std::env::temp_dir().join(format!("lcm-t-forensics-{}.jsonl", std::process::id()));
    std::fs::remove_file(&events_path).ok();

    // Fire the SIGKILL on victim_1's first delivery only.
    let config = DetectorConfig {
        faults: FaultPlan::default().arm(site::FLEET_WORKER_CRASH, Some(1)),
        ..DetectorConfig::default()
    };
    let m = lcm::minic::compile(FOUR_VICTIMS).expect("compiles");
    let engine = EngineKind::Pht;
    let clean = analyze_reply(
        &Detector::new(DetectorConfig::default()).analyze_module(&m, engine),
        engine,
    );

    let fleet = Fleet::new(FleetConfig {
        events_out: Some(events_path.clone()),
        ..test_fleet(2, false)
    });
    let got = fleet_reply(&fleet, &config, engine);
    fleet.shutdown();
    assert_eq!(got, clean, "a crashed-and-redelivered run must converge");

    let log = std::fs::read_to_string(&events_path).expect("event log must exist");
    std::fs::remove_file(&events_path).ok();
    let events: Vec<lcm::core::jsonw::Json> = log
        .lines()
        .map(|l| lcm::core::jsonw::parse(l).expect("every event line must parse"))
        .collect();
    assert!(!events.is_empty(), "the supervision run must log events");

    let crashes: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("event").and_then(|v| v.as_str()) == Some("worker_exit")
                && e.get("reason").and_then(|v| v.as_str()) == Some("crash")
        })
        .collect();
    assert_eq!(
        crashes.len(),
        1,
        "exactly one crash record expected, got: {log}"
    );
    let crash = crashes[0];
    let last_task = crash.get("last_task").expect("crash record names its task");
    assert_eq!(
        last_task.get("fn").and_then(|v| v.as_str()),
        Some("victim_1"),
        "the faulted function must be named"
    );
    let fp = lcm::store::clou_fingerprint(&m, "victim_1", &config, engine);
    assert_eq!(
        last_task.get("fingerprint").and_then(|v| v.as_str()),
        Some(format!("{:032x}", fp.0).as_str()),
        "the forensic record must carry the task's store fingerprint"
    );
    for field in ["slot", "incarnation", "pid", "uptime_ms", "restarts"] {
        assert!(
            crash.get(field).is_some(),
            "crash record missing `{field}`: {log}"
        );
    }

    // The redelivery that absorbed the crash is also on the record.
    assert!(
        events
            .iter()
            .any(|e| e.get("event").and_then(|v| v.as_str()) == Some("redeliver")),
        "the crash's redelivery must be logged: {log}"
    );
}
