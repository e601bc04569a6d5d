//! Tier-1: the supervised multi-process worker fleet is byte-invisible.
//!
//! The standing invariant (DESIGN.md §6h): a fleet run's rendered
//! report is byte-identical to the in-process run at every worker
//! count, under every armed `fleet.*` fault. Process crashes, hangs,
//! and torn result frames are absorbed by redelivery; only the two
//! circuit breakers (per-function attempts, per-slot restarts) are
//! allowed to surface — as deterministic `Degraded` results that are
//! never cached.
//!
//! Workers are the test binary's sibling `lcm-cli` in `worker` mode —
//! never `current_exe` (which is the test harness itself and would
//! recurse into the test suite).

use std::time::Duration;

use lcm::core::fault::{site, FaultPlan};
use lcm::core::govern::AnalysisError;
use lcm::detect::{CacheStatus, Detector, DetectorConfig, EngineKind, FunctionStatus};
use lcm::fleet::{Fleet, FleetConfig};
use lcm::serve::wire::analyze_reply;

/// True when the surrounding environment armed `LCM_FAULT` (the CI
/// fault matrix). Tests that assert on *specific* degradations skip
/// then; the byte-equality tests run regardless — both sides of the
/// comparison see the same armed plan, and `fleet.*` sites must
/// converge by redelivery (that convergence is exactly what the CI
/// matrix exercises here).
fn env_faults_armed() -> bool {
    std::env::var(lcm::core::fault::FAULT_ENV).is_ok_and(|v| !v.trim().is_empty())
}

/// A four-gadget module: enough functions to shard across workers,
/// small enough for debug-profile worker processes.
const FOUR_VICTIMS: &str = r#"
    int A[16]; int B[4096]; int size; int tmp;
    void victim_0(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_1(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_2(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_3(int y) { if (y < size) tmp &= B[A[y] * 512]; }
"#;

/// Fleet knobs for tests: the sibling `lcm-cli worker` binary, and
/// time knobs shrunk so injected hangs are reaped in milliseconds.
fn test_fleet(workers: usize) -> FleetConfig {
    FleetConfig {
        worker_cmd: vec![env!("CARGO_BIN_EXE_lcm-cli").to_string(), "worker".into()],
        task_deadline: Duration::from_secs(60),
        // Long enough for a debug-profile worker to exec and start
        // beating, short enough that injected hangs reap in ~1s.
        heartbeat_grace: Duration::from_secs(1),
        ..FleetConfig::new(workers)
    }
}

fn in_process_reply(source: &str, config: &DetectorConfig, engine: EngineKind) -> String {
    let m = lcm::minic::compile(source).expect("compiles");
    let report = Detector::new(config.clone()).analyze_module(&m, engine);
    analyze_reply(&report, engine)
}

fn fleet_reply(fleet: &Fleet, source: &str, config: &DetectorConfig, engine: EngineKind) -> String {
    let m = lcm::minic::compile(source).expect("compiles");
    let report = fleet.analyze_module(source, &m, engine, config, None);
    analyze_reply(&report, engine)
}

/// The standing invariant, fault-free: worker counts 1 and 4 both
/// render byte-identically to the in-process run, for every engine.
#[test]
fn fleet_reply_is_byte_identical_to_in_process() {
    let config = DetectorConfig::default();
    for workers in [1, 4] {
        let fleet = Fleet::new(test_fleet(workers));
        for engine in [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf] {
            let expect = in_process_reply(FOUR_VICTIMS, &config, engine);
            let got = fleet_reply(&fleet, FOUR_VICTIMS, &config, engine);
            assert_eq!(got, expect, "{workers} worker(s), {engine:?}");
        }
        fleet.shutdown();
    }
}

/// The standing invariant under every armed `fleet.*` fault: the first
/// delivery of each task crashes / freezes / tears its worker, the
/// redelivery (faults stripped) succeeds, and the rendered reply is
/// byte-identical to the clean in-process run. `fleet.worker_crash` is
/// a real `SIGKILL` mid-task — this is the kill-9 end-to-end test.
#[test]
fn armed_fleet_faults_converge_to_identical_bytes() {
    let clean = in_process_reply(FOUR_VICTIMS, &DetectorConfig::default(), EngineKind::Pht);
    for fault_site in [
        site::FLEET_WORKER_CRASH,
        site::FLEET_WORKER_HANG,
        site::FLEET_TASK_TORN,
    ] {
        let config = DetectorConfig {
            faults: FaultPlan::default().arm(fault_site, None),
            ..DetectorConfig::default()
        };
        let fleet = Fleet::new(test_fleet(2));
        let got = fleet_reply(&fleet, FOUR_VICTIMS, &config, EngineKind::Pht);
        assert_eq!(got, clean, "armed {fault_site} must converge");
        fleet.shutdown();
    }
}

/// A SIGKILLed worker never loses completed work: functions whose
/// results were already received stay completed; only in-flight work is
/// redelivered. Run the module twice through the same fleet — the
/// second run proves the pool recovered (restart budget resets per
/// run) and still matches byte-for-byte.
#[test]
fn killed_workers_lose_nothing_and_the_pool_recovers() {
    let clean = in_process_reply(FOUR_VICTIMS, &DetectorConfig::default(), EngineKind::Pht);
    let config = DetectorConfig {
        faults: FaultPlan::default().arm(site::FLEET_WORKER_CRASH, None),
        ..DetectorConfig::default()
    };
    let fleet = Fleet::new(test_fleet(2));
    let first = fleet_reply(&fleet, FOUR_VICTIMS, &config, EngineKind::Pht);
    let second = fleet_reply(&fleet, FOUR_VICTIMS, &config, EngineKind::Pht);
    assert_eq!(first, clean);
    assert_eq!(second, clean);
    fleet.shutdown();
}

/// The per-function circuit breaker: with `refire_faults_on_retry` the
/// injected SIGKILL fires on every delivery, so the function kills
/// `lcm_fleet::supervisor::MAX_TASK_ATTEMPTS` workers and is then
/// reported `Degraded` — and its degraded result is never inserted into
/// the store.
#[test]
fn restart_storm_trips_the_circuit_breaker_and_is_never_cached() {
    if env_faults_armed() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("lcm-t-fleetstorm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("results.lcmstore");
    std::fs::remove_file(&store_path).ok();
    let store = lcm::store::Store::open(&store_path).unwrap();

    let config = DetectorConfig {
        faults: FaultPlan::default().arm(site::FLEET_WORKER_CRASH, None),
        ..DetectorConfig::default()
    };
    let fleet = Fleet::new(FleetConfig {
        refire_faults_on_retry: true,
        ..test_fleet(2)
    });
    let m = lcm::minic::compile(FOUR_VICTIMS).expect("compiles");
    let report = fleet.analyze_module(FOUR_VICTIMS, &m, EngineKind::Pht, &config, Some(&store));
    fleet.shutdown();

    assert_eq!(report.functions.len(), 4);
    for f in &report.functions {
        match &f.status {
            FunctionStatus::Degraded(AnalysisError::WorkerPanic { message }) => {
                assert!(
                    message.contains("fleet: worker")
                        && (message.contains("lost") || message.contains("exhausted")),
                    "{}: unexpected degradation `{message}`",
                    f.name
                );
            }
            other => panic!("{}: expected fleet degradation, got {other:?}", f.name),
        }
        assert_eq!(
            f.cache,
            CacheStatus::Bypass,
            "{}: degraded ⇒ bypass",
            f.name
        );
        let fp = lcm::store::clou_fingerprint(&m, &f.name, &config, EngineKind::Pht);
        assert!(
            store.lookup_clou(fp).is_none(),
            "{}: a repeatedly-fatal function must never be cached",
            f.name
        );
    }
    assert_eq!(store.len(), 0, "nothing cacheable came out of the storm");
    std::fs::remove_file(&store_path).ok();
}

/// The per-slot circuit breaker: a worker command that dies instantly
/// burns through the restart budget; the run ends with every function
/// deterministically degraded — never a spin, never a panic.
#[test]
fn unrunnable_worker_pool_degrades_and_terminates() {
    if env_faults_armed() {
        return;
    }
    let fleet = Fleet::new(FleetConfig {
        worker_cmd: vec!["false".into()],
        max_worker_restarts: 2,
        ..test_fleet(2)
    });
    let m = lcm::minic::compile(FOUR_VICTIMS).expect("compiles");
    let report = fleet.analyze_module(
        FOUR_VICTIMS,
        &m,
        EngineKind::Pht,
        &DetectorConfig::default(),
        None,
    );
    fleet.shutdown();
    assert_eq!(report.functions.len(), 4);
    for f in &report.functions {
        assert!(
            matches!(
                &f.status,
                FunctionStatus::Degraded(AnalysisError::WorkerPanic { message })
                    if message.starts_with("fleet:")
            ),
            "{}: got {:?}",
            f.name,
            f.status
        );
        assert!(f.transmitters.is_empty());
    }
}

/// Fleet + store: a cold fleet run misses and inserts, a warm fleet run
/// is all hits, and both runs' findings match the in-process cached
/// path byte-for-byte (modulo the runtime fields the reply does not
/// render for hits — `analyze_reply` output is compared whole).
#[test]
fn fleet_cache_discipline_matches_in_process() {
    if env_faults_armed() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("lcm-t-fleetcache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("results.lcmstore");
    std::fs::remove_file(&store_path).ok();
    let store = lcm::store::Store::open(&store_path).unwrap();

    let config = DetectorConfig::default();
    let m = lcm::minic::compile(FOUR_VICTIMS).expect("compiles");
    let fleet = Fleet::new(test_fleet(2));
    let cold = fleet.analyze_module(FOUR_VICTIMS, &m, EngineKind::Pht, &config, Some(&store));
    let warm = fleet.analyze_module(FOUR_VICTIMS, &m, EngineKind::Pht, &config, Some(&store));
    fleet.shutdown();

    assert!(cold.functions.iter().all(|f| f.cache == CacheStatus::Miss));
    assert!(warm.functions.iter().all(|f| f.cache == CacheStatus::Hit));
    for (c, w) in cold.functions.iter().zip(&warm.functions) {
        assert_eq!(c.transmitters, w.transmitters, "{}", c.name);
    }

    // The warm fleet reply matches the warm in-process cached reply.
    let det = Detector::new(config.clone());
    let in_proc = lcm::store::analyze_module_cached(&det, &m, EngineKind::Pht, &store);
    assert_eq!(
        analyze_reply(&warm, EngineKind::Pht),
        analyze_reply(&in_proc, EngineKind::Pht),
    );
    std::fs::remove_file(&store_path).ok();
}
