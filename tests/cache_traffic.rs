//! Tier-1: fleet runs and in-process runs count cache traffic alike.
//!
//! `lcm_cache_{hits,misses,bypass}_total` are process-global, and this
//! is the only test in its binary, so the counter deltas it reads are
//! exactly the runs it makes. A cold run, a warm run and a degraded run
//! through `Fleet::analyze_module` must each move the three counters by
//! what `analyze_module_cached` moves them on the same module, and
//! render the same reply. A cold and a warm baseline run through
//! `analyze_module_bh_cached` must move them by the counts they return.

use std::time::Duration;

use lcm::core::fault::{site, FaultPlan};
use lcm::detect::{Detector, DetectorConfig, EngineKind};
use lcm::fleet::{Fleet, FleetConfig};
use lcm::haunted::{HauntedConfig, HauntedEngine};
use lcm::obs::metrics::{global, names};
use lcm::serve::wire::analyze_reply;
use lcm::store::{analyze_module_bh_cached, analyze_module_cached, CacheCounts, Store};

const FOUR_VICTIMS: &str = r#"
    int A[16]; int B[4096]; int size; int tmp;
    void victim_0(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_1(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_2(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_3(int y) { if (y < size) tmp &= B[A[y] * 512]; }
"#;

/// The three cache-traffic counters: hits, misses, bypass.
fn traffic() -> [u64; 3] {
    [names::CACHE_HITS, names::CACHE_MISSES, names::CACHE_BYPASS]
        .map(|name| global().counter(name, "cache traffic").get())
}

/// How much `run` moved each cache-traffic counter.
fn delta(run: impl FnOnce()) -> [u64; 3] {
    let before = traffic();
    run();
    let after = traffic();
    [0, 1, 2].map(|i| after[i] - before[i])
}

fn fresh_store(dir: &std::path::Path, name: &str) -> Store {
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    Store::open(&path).unwrap()
}

#[test]
fn fleet_cache_traffic_matches_in_process() {
    // Armed faults change which functions degrade on which side of a
    // redelivery; the CI fault matrix covers those paths elsewhere.
    if std::env::var(lcm::core::fault::FAULT_ENV).is_ok_and(|v| !v.trim().is_empty()) {
        return;
    }
    let dir = std::env::temp_dir().join(format!("lcm-t-cachetraffic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let m = lcm::minic::compile(FOUR_VICTIMS).expect("compiles");
    let fleet = Fleet::new(FleetConfig {
        worker_cmd: vec![env!("CARGO_BIN_EXE_lcm-cli").to_string(), "worker".into()],
        task_deadline: Duration::from_secs(60),
        heartbeat_grace: Duration::from_secs(5),
        ..FleetConfig::new(2)
    });

    // Degraded: one function aborts its solver (counted as a bypass),
    // one panics its worker (never counted), the other two complete.
    let degraded = DetectorConfig {
        faults: FaultPlan::default()
            .arm(site::SOLVER_ABORT, Some(1))
            .arm(site::WORKER_PANIC, Some(2)),
        ..DetectorConfig::default()
    };
    // [hits, misses, bypass] of the cold run, then of the warm run.
    let runs = [
        ("clean", DetectorConfig::default(), [[0, 4, 0], [4, 0, 0]]),
        ("degraded", degraded, [[0, 2, 1], [2, 0, 1]]),
    ];
    for (label, config, expected) in runs {
        let fleet_store = fresh_store(&dir, &format!("{label}-fleet.lcmstore"));
        let local_store = fresh_store(&dir, &format!("{label}-local.lcmstore"));
        let det = Detector::new(config.clone());
        for (run, expected) in ["cold", "warm"].into_iter().zip(expected) {
            let mut fleet_report = None;
            let by_fleet = delta(|| {
                fleet_report = Some(fleet.analyze_module(
                    FOUR_VICTIMS,
                    &m,
                    EngineKind::Pht,
                    &config,
                    Some(&fleet_store),
                ));
            });
            let mut local_report = None;
            let in_process = delta(|| {
                local_report = Some(analyze_module_cached(
                    &det,
                    &m,
                    EngineKind::Pht,
                    &local_store,
                ));
            });
            // Per-function labels, status and findings, in module order.
            assert_eq!(
                analyze_reply(&fleet_report.unwrap(), EngineKind::Pht),
                analyze_reply(&local_report.unwrap(), EngineKind::Pht),
                "{label} {run}: rendered reply"
            );
            assert_eq!(
                by_fleet, in_process,
                "{label} {run}: [hits, misses, bypass]"
            );
            assert_eq!(
                in_process, expected,
                "{label} {run}: [hits, misses, bypass]"
            );
        }
    }
    fleet.shutdown();

    let bh_store = fresh_store(&dir, "bh.lcmstore");
    for (run, expected) in [("cold", [0, 4, 0]), ("warm", [4, 0, 0])] {
        let mut counts = CacheCounts::default();
        let moved = delta(|| {
            let config = HauntedConfig::default();
            counts = analyze_module_bh_cached(&m, HauntedEngine::Pht, config, &bh_store).1;
        });
        assert_eq!(moved, expected, "baseline {run}: [hits, misses, bypass]");
        assert_eq!(
            moved,
            [counts.hits, counts.misses, counts.bypassed],
            "baseline {run}: counters against the returned counts"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
