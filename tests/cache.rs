//! Tier-1: the content-addressed result store is invisible except for
//! speed.
//!
//! Three guarantees back `--cache-dir` and the daemon's cache:
//!
//! 1. **cold vs warm differential** — a warm re-run of unchanged source
//!    performs *zero* engine analyses (every function `cache: hit`) and
//!    its findings are byte-identical to the cold run's, modulo the
//!    timing fields and the hit/miss labels themselves;
//! 2. **precise invalidation** — a one-byte source change invalidates
//!    exactly the changed function (and its callers, whose canonical
//!    encoding embeds the callee); untouched functions still hit;
//! 3. **corruption recovery** — a truncated tail, a flipped checksum
//!    byte, or a garbage header degrade the store to cold (recovered or
//!    reset, re-analyzed, re-inserted), never to an abort.

use lcm::core::fault::FaultPlan;
use lcm::detect::{CacheStatus, Detector, DetectorConfig, EngineKind, ModuleReport};
use lcm::serve::wire::module_report_json;
use lcm::store::{CacheCounts, Store};
use std::path::PathBuf;

/// See tests/resilience.rs: the CI fault matrix arms `LCM_FAULT` for
/// every test in the workspace, and `Store::open` merges it in.
fn env_faults_armed() -> bool {
    std::env::var(lcm::core::fault::FAULT_ENV).is_ok_and(|v| !v.trim().is_empty())
}

/// A fresh store path in the temp dir (unique per test).
fn temp_store(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("lcm-cache-{tag}-{}.lcmstore", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

const THREE_VICTIMS: &str = r#"
    int A[16]; int B[4096]; int size; int tmp;
    void victim_a(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    void victim_b(int y) { if (y < size) tmp &= B[A[y] * 256]; }
    void victim_c(int y) { if (y < size) tmp &= B[A[y] * 128]; }
"#;

fn detector() -> Detector {
    Detector::new(DetectorConfig::default())
}

/// The findings as a canonical string with the volatile fields removed:
/// `module_report_json` already excludes timing, and the cache labels
/// (the one legitimate cold/warm difference) are normalized away.
fn findings_fingerprint(report: &ModuleReport) -> String {
    module_report_json(report)
        .render()
        .replace("\"cache\":\"hit\"", "\"cache\":\"-\"")
        .replace("\"cache\":\"miss\"", "\"cache\":\"-\"")
}

#[test]
fn warm_rerun_is_all_hits_with_identical_findings() {
    if env_faults_armed() {
        return;
    }
    let path = temp_store("warm");
    let store = Store::open(&path).unwrap();
    let det = detector();

    let cold = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
    assert_eq!(
        CacheCounts::of(&cold),
        CacheCounts {
            hits: 0,
            misses: 3,
            bypassed: 0
        }
    );
    assert!(!cold.is_clean(), "the gadgets must actually leak");

    let warm = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
    assert_eq!(
        CacheCounts::of(&warm),
        CacheCounts {
            hits: 3,
            misses: 0,
            bypassed: 0
        }
    );
    // Zero engine analyses on the warm run: no feasibility queries, and
    // the per-function phase clocks attribute time only to `cache`.
    let t = warm.timings();
    assert_eq!(t.queries_avoided, 0, "warm run must not run an engine");
    assert_eq!(t.cache_hits, 3);

    assert_eq!(findings_fingerprint(&cold), findings_fingerprint(&warm));

    // An uncached run agrees too (the cache changes nothing but labels).
    let uncached = lcm::analyze_source(THREE_VICTIMS, &det, EngineKind::Pht).unwrap();
    assert_eq!(
        findings_fingerprint(&uncached).replace("\"cache\":\"bypass\"", "\"cache\":\"-\""),
        findings_fingerprint(&warm)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn engines_and_configs_do_not_share_entries() {
    if env_faults_armed() {
        return;
    }
    let path = temp_store("keyed");
    let store = Store::open(&path).unwrap();
    let det = detector();
    lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();

    // A different engine misses (fingerprints embed the engine tag)...
    let stl = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Stl, &store).unwrap();
    assert_eq!(CacheCounts::of(&stl).hits, 0);

    // ...as does a findings-affecting config change...
    let deep = Detector::new(DetectorConfig {
        window: DetectorConfig::default().window + 1,
        ..DetectorConfig::default()
    });
    let r = lcm::analyze_source_cached(THREE_VICTIMS, &deep, EngineKind::Pht, &store).unwrap();
    assert_eq!(CacheCounts::of(&r).hits, 0, "speculation window is keyed");

    // ...but a speed-only change (jobs) still hits every entry.
    let par = Detector::new(DetectorConfig {
        jobs: 4,
        ..DetectorConfig::default()
    });
    let r = lcm::analyze_source_cached(THREE_VICTIMS, &par, EngineKind::Pht, &store).unwrap();
    assert_eq!(CacheCounts::of(&r).hits, 3, "jobs must not be keyed");
    std::fs::remove_file(&path).ok();
}

#[test]
fn one_byte_change_invalidates_exactly_that_function() {
    if env_faults_armed() {
        return;
    }
    let path = temp_store("invalidate");
    let store = Store::open(&path).unwrap();
    let det = detector();
    lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();

    // One byte: victim_b's multiplier 256 -> 255.
    let edited = THREE_VICTIMS.replace("A[y] * 256", "A[y] * 255");
    assert_eq!(edited.len(), THREE_VICTIMS.len());
    let r = lcm::analyze_source_cached(&edited, &det, EngineKind::Pht, &store).unwrap();
    for f in &r.functions {
        let expect = if f.name == "victim_b" {
            CacheStatus::Miss
        } else {
            CacheStatus::Hit
        };
        assert_eq!(f.cache, expect, "{}", f.name);
    }

    // The edited variant is now cached as well — both versions coexist
    // (content addressing, not path addressing).
    let r = lcm::analyze_source_cached(&edited, &det, EngineKind::Pht, &store).unwrap();
    assert_eq!(CacheCounts::of(&r).hits, 3);
    let r = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
    assert_eq!(CacheCounts::of(&r).hits, 3);
    std::fs::remove_file(&path).ok();
}

#[test]
fn editing_a_callee_invalidates_its_callers_too() {
    if env_faults_armed() {
        return;
    }
    let src_v1 = r#"
        int A[16]; int B[4096]; int size; int tmp;
        int leak(int x) { return B[x * 512]; }
        void caller(int y) { if (y < size) tmp &= leak(A[y]); }
        void bystander(int y) { if (y < size) tmp &= B[A[y] * 512]; }
    "#;
    // Change only `leak`'s body; `caller`'s text is untouched but its
    // behaviour (and canonical encoding, which embeds callees) changed.
    let src_v2 = src_v1.replace("x * 512", "x * 256");

    let path = temp_store("deps");
    let store = Store::open(&path).unwrap();
    let det = detector();
    lcm::analyze_source_cached(src_v1, &det, EngineKind::Pht, &store).unwrap();
    let r = lcm::analyze_source_cached(&src_v2, &det, EngineKind::Pht, &store).unwrap();
    for f in &r.functions {
        let expect = if f.name == "bystander" {
            CacheStatus::Hit
        } else {
            CacheStatus::Miss
        };
        assert_eq!(f.cache, expect, "{}", f.name);
    }
    std::fs::remove_file(&path).ok();
}

/// Damages the store file with `mutate`, reopens, and proves the store
/// degrades to (at worst) cold: open succeeds, a full re-run completes
/// with findings identical to the pristine run, and a further re-run is
/// warm again.
fn corruption_round_trip(tag: &str, mutate: impl FnOnce(&mut Vec<u8>)) {
    let path = temp_store(tag);
    let det = detector();
    let pristine = {
        let store = Store::open(&path).unwrap();
        lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap()
    }; // drop closes the file

    let mut bytes = std::fs::read(&path).unwrap();
    mutate(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();

    let store = Store::open(&path).expect("recovery must not fail the open");
    let s = store.stats();
    assert!(
        s.recovered_drop > 0 || s.reset || s.loaded < 3,
        "damage went unnoticed: {s:?}"
    );
    let rerun = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
    assert_eq!(
        module_report_json(&pristine)
            .render()
            .replace("\"cache\":\"miss\"", "\"cache\":\"-\"")
            .replace("\"cache\":\"hit\"", "\"cache\":\"-\""),
        module_report_json(&rerun)
            .render()
            .replace("\"cache\":\"miss\"", "\"cache\":\"-\"")
            .replace("\"cache\":\"hit\"", "\"cache\":\"-\""),
        "recovered run differs from pristine"
    );
    // Dropped records were re-inserted by the rerun: warm again.
    let warm = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
    assert_eq!(
        CacheCounts::of(&warm),
        CacheCounts {
            hits: 3,
            misses: 0,
            bypassed: 0
        }
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_tail_recovers_to_cold() {
    if env_faults_armed() {
        return;
    }
    corruption_round_trip("truncate", |bytes| {
        // A torn final write: half the last record is gone.
        let cut = bytes.len() - bytes.len() / 8;
        bytes.truncate(cut);
    });
}

#[test]
fn flipped_checksum_byte_recovers_to_cold() {
    if env_faults_armed() {
        return;
    }
    corruption_round_trip("bitflip", |bytes| {
        // Flip one byte near the tail (inside the last record's
        // payload or checksum) — the record must fail verification.
        let i = bytes.len() - 9;
        bytes[i] ^= 0xFF;
    });
}

#[test]
fn garbage_header_resets_the_store() {
    if env_faults_armed() {
        return;
    }
    corruption_round_trip("header", |bytes| {
        bytes[0] = b'#'; // no longer the JSON header line
    });
}

/// The `store.corrupt_record` fault site end to end: the store damages
/// its own appended records on disk, and the *next* open recovers. The
/// running process keeps its in-memory copy, so the current session is
/// unaffected — exactly the torn-write model.
#[test]
fn corrupt_record_fault_degrades_next_open_to_cold() {
    if env_faults_armed() {
        return;
    }
    let path = temp_store("fault");
    let det = detector();
    {
        let faults =
            FaultPlan::default().arm(lcm::core::fault::site::STORE_CORRUPT_RECORD, Some(1));
        let store = Store::open_with_faults(&path, faults).unwrap();
        let r = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
        assert_eq!(CacheCounts::of(&r).misses, 3);
        // Same session: in-memory copies answer regardless of the disk.
        let r = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
        assert_eq!(CacheCounts::of(&r).hits, 3);
    }
    let store = Store::open(&path).expect("open recovers");
    assert!(store.stats().recovered_drop > 0, "{:?}", store.stats());
    let r = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
    let c = CacheCounts::of(&r);
    assert!(c.misses > 0, "the damaged record must miss: {c:?}");
    assert_eq!(c.hits + c.misses, 3);
    std::fs::remove_file(&path).ok();
}

/// CI fault-matrix entry point for `store.corrupt_record`: with the
/// site armed through `LCM_FAULT`, the store damages its own appended
/// records on disk ([`Store::open`] merges the env plan itself), the
/// next open must *recover* rather than abort, and a full re-run must
/// complete with correct results — proving the env wiring end to end.
/// A no-op when the armed plan does not include the site.
#[test]
fn env_armed_corrupt_record_recovers_end_to_end() {
    let Ok(armed) = std::env::var(lcm::core::fault::FAULT_ENV) else {
        return;
    };
    if !armed.split(',').any(|spec| {
        spec.trim()
            .starts_with(lcm::core::fault::site::STORE_CORRUPT_RECORD)
    }) {
        return;
    }
    let path = temp_store("envfault");
    let det = detector();
    let pristine = {
        let store = Store::open(&path).unwrap();
        lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap()
    };
    assert!(pristine.all_completed());
    let store = Store::open(&path).expect("recovery must not fail the open");
    assert!(
        store.stats().recovered_drop > 0,
        "armed fault never damaged a record: {:?}",
        store.stats()
    );
    let rerun = lcm::analyze_source_cached(THREE_VICTIMS, &det, EngineKind::Pht, &store).unwrap();
    assert!(rerun.all_completed());
    assert_eq!(
        findings_fingerprint(&pristine),
        findings_fingerprint(&rerun)
    );
    std::fs::remove_file(&path).ok();
}

/// Degraded analyses are never cached: a warm run cannot launder a
/// lower-bound result into a completed-looking hit.
#[test]
fn degraded_results_are_not_cached() {
    if env_faults_armed() {
        return;
    }
    let path = temp_store("degraded");
    let store = Store::open(&path).unwrap();
    let strict = Detector::new(DetectorConfig {
        budgets: lcm::core::govern::Budgets {
            timeout: Some(std::time::Duration::ZERO),
            ..lcm::core::govern::Budgets::default()
        },
        ..DetectorConfig::default()
    });
    let r = lcm::analyze_source_cached(THREE_VICTIMS, &strict, EngineKind::Pht, &store).unwrap();
    assert_eq!(r.degraded_count(), 3);
    // A degraded function bypasses the cache (its findings are a lower
    // bound, not the answer).
    assert_eq!(
        CacheCounts::of(&r),
        CacheCounts {
            hits: 0,
            misses: 0,
            bypassed: 3
        }
    );
    assert_eq!(store.len(), 0, "nothing persisted");

    // With the budget lifted, the same module misses (no poisoning) and
    // completes.
    let r =
        lcm::analyze_source_cached(THREE_VICTIMS, &detector(), EngineKind::Pht, &store).unwrap();
    assert_eq!(CacheCounts::of(&r).misses, 3);
    assert!(r.all_completed());
    std::fs::remove_file(&path).ok();
}
