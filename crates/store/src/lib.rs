//! `lcm-store`: a persistent, content-addressed cache of per-function
//! analysis results.
//!
//! Clou's per-function analysis is expensive (S-AEG construction and
//! chain enumeration) but *pure*: the findings are a function of the IR, the
//! engine, and the configuration knobs that shape findings. This crate
//! exploits that purity. Each completed [`FunctionReport`] (and each
//! completed baseline [`HauntedReport`]) is keyed by a structural
//! [`Fingerprint`] of everything that can influence it — the function's
//! canonical encoding, its transitive callees (inlining makes their
//! bodies part of the analyzed A-CFG), referenced globals, engine, and
//! findings-affecting config — and persisted in an append-only log.
//!
//! On a warm run the engines never execute: [`drive_module`], the one
//! module-level cache rule, serves every unchanged function from the
//! store, reporting it as `cache: Hit` with the (micro-second scale)
//! fingerprint and lookup time in the `cache` phase bucket, and hands
//! only the misses to an executor: the detector's thread fan-out
//! ([`analyze_module_cached`]) or the worker fleet
//! (`lcm_fleet::Fleet::analyze_module`). Editing one function
//! invalidates exactly that function (plus its callers) — see
//! [`lcm_ir::canon`].
//!
//! Failure discipline mirrors the resilience layer (DESIGN.md §6c): a
//! missing, truncated, corrupt, or version-skewed store file **never**
//! fails analysis. Damage is repaired on open by dropping the invalid
//! suffix; an unopenable path degrades to running without a cache.

mod cached;
pub mod codec;
pub mod fp;
pub mod log;

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use lcm_core::fault::{site, FaultPlan};
use lcm_detect::FunctionReport;
use lcm_haunted::HauntedReport;

pub use cached::{
    analyze_module_bh_cached, analyze_module_cached, cache_traffic, drive_module, settle,
    stamp_hit, CacheCounts,
};
pub use fp::{bh_fingerprint, clou_fingerprint, Fingerprint};
pub use log::STORE_VERSION;

use log::{Record, RecordKind};

/// Counters describing one open store's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing (or an undecodable payload).
    pub misses: u64,
    /// Records inserted this session.
    pub inserts: u64,
    /// Records loaded from disk at open.
    pub loaded: u64,
    /// Records dropped by corruption recovery at open.
    pub recovered_drop: u64,
    /// True when the file had to be reset (unreadable header).
    pub reset: bool,
}

struct Inner {
    path: PathBuf,
    /// In-memory index over the log. Later records win, so re-inserting
    /// a fingerprint (e.g. after a recovered tear) just shadows the old
    /// payload. Payloads are boxed at their exact length: the codec
    /// grows its buffer by doubling, and a long-lived daemon holds one
    /// payload per function it ever analyzed.
    map: HashMap<(RecordKind, Fingerprint), Box<[u8]>>,
    file: File,
    stats: StoreStats,
    faults: FaultPlan,
    /// Append ordinal, keys the `store.corrupt_record` fault site.
    appended: usize,
}

/// A handle to one on-disk result cache. Cheap to share: all methods
/// take `&self` (a mutex guards the map and file).
pub struct Store {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Store")
            .field("path", &inner.path)
            .field("entries", &inner.map.len())
            .finish()
    }
}

impl Store {
    /// Opens (creating or repairing as needed) the store at `path`.
    /// `path` is a file; a conventional name is `results.lcmstore`.
    /// Errors only on real I/O failure — damaged content self-repairs.
    pub fn open(path: &Path) -> std::io::Result<Store> {
        Self::open_with_faults(path, FaultPlan::default())
    }

    /// [`Store::open`] with an explicit fault plan (tests arm
    /// `store.corrupt_record` this way; `LCM_FAULT` is merged in too).
    pub fn open_with_faults(path: &Path, faults: FaultPlan) -> std::io::Result<Store> {
        let (scan, file) = log::read_log(path)?;
        let stats = StoreStats {
            loaded: scan.records.len() as u64,
            recovered_drop: scan.dropped,
            reset: scan.reset,
            ..StoreStats::default()
        };
        let mut map = HashMap::with_capacity(scan.records.len());
        for Record { kind, fp, payload } in scan.records {
            map.insert((kind, fp), payload.into_boxed_slice());
        }
        Ok(Store {
            inner: Mutex::new(Inner {
                path: path.to_path_buf(),
                map,
                file,
                stats,
                faults: faults.merged_with_env(),
                appended: 0,
            }),
        })
    }

    /// The file backing this store.
    pub fn path(&self) -> PathBuf {
        self.inner.lock().unwrap().path.clone()
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().unwrap().stats
    }

    /// Entries currently indexed.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a cached Clou report. A present-but-undecodable payload
    /// counts as a miss (and is dropped from the index so it is not
    /// retried every lookup).
    pub fn lookup_clou(&self, fp: Fingerprint) -> Option<FunctionReport> {
        self.lookup(RecordKind::Clou, fp, |payload| {
            codec::decode_clou(payload).ok()
        })
    }

    /// Caches a completed Clou report. Degraded reports are rejected by
    /// the caller ([`settle`]), not here, because this
    /// layer cannot distinguish "legitimately empty" from "cut short".
    pub fn insert_clou(&self, fp: Fingerprint, report: &FunctionReport) {
        self.insert(RecordKind::Clou, fp, codec::encode_clou(report));
    }

    /// Looks up a cached baseline report.
    pub fn lookup_bh(&self, fp: Fingerprint) -> Option<HauntedReport> {
        self.lookup(RecordKind::Bh, fp, |payload| codec::decode_bh(payload).ok())
    }

    /// Caches a completed baseline report.
    pub fn insert_bh(&self, fp: Fingerprint, report: &HauntedReport) {
        self.insert(RecordKind::Bh, fp, codec::encode_bh(report));
    }

    fn lookup<T>(
        &self,
        kind: RecordKind,
        fp: Fingerprint,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let mut inner = self.inner.lock().unwrap();
        let key = (kind, fp);
        match inner.map.get(&key).map(|p| decode(p)) {
            Some(Some(v)) => {
                inner.stats.hits += 1;
                Some(v)
            }
            Some(None) => {
                inner.map.remove(&key);
                inner.stats.misses += 1;
                None
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Rewrites the log so it holds exactly the live entries — shadowed
    /// duplicates and recovered-over garbage dropped — in deterministic
    /// `(kind, fingerprint)` order. Returns the record count of the
    /// compacted log.
    ///
    /// Crash discipline: every byte goes to a sibling temp file first
    /// and the old log is only replaced by one atomic `rename`, so a
    /// crash at any point (the `store.compact_crash` fault site
    /// simulates one after `index` records) leaves either the old log
    /// fully intact or the new one fully written — never a torn store.
    /// A leftover temp file is inert debris; the next compact
    /// overwrites it.
    pub fn compact(&self) -> std::io::Result<u64> {
        let mut inner = self.inner.lock().unwrap();
        let tmp_path = compact_tmp_path(&inner.path);
        let mut entries: Vec<_> = inner.map.iter().map(|(k, v)| (*k, v.clone())).collect();
        entries.sort_by_key(|&((kind, fp), _)| (kind, fp.0));
        {
            let tmp = File::create(&tmp_path)?;
            let mut w = std::io::BufWriter::new(tmp);
            w.write_all(log::header_line().as_bytes())?;
            for (i, ((kind, fp), payload)) in entries.iter().enumerate() {
                if inner.faults.fires(site::STORE_COMPACT_CRASH, i) {
                    // Simulated crash: flush the partial temp file (the
                    // debris a real crash leaves) and bail before the
                    // rename. The live log is untouched.
                    w.flush()?;
                    return Err(std::io::Error::other(format!(
                        "injected fault: store.compact_crash after {i} records"
                    )));
                }
                w.write_all(&log::encode_record(*kind, *fp, payload))?;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp_path, &inner.path)?;
        // Swap the append handle onto the compacted file.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&inner.path)?;
        file.seek(SeekFrom::End(0))?;
        inner.file = file;
        Ok(entries.len() as u64)
    }

    fn insert(&self, kind: RecordKind, fp: Fingerprint, payload: Vec<u8>) {
        let mut inner = self.inner.lock().unwrap();
        let mut encoded = log::encode_record(kind, fp, &payload);
        if inner
            .faults
            .fires(site::STORE_CORRUPT_RECORD, inner.appended)
        {
            // Damage the on-disk bytes only: flip one payload byte after
            // the checksum was computed. The in-memory index keeps the
            // good copy, so this session is unaffected; the *next* open
            // exercises the recovery path.
            let idx = encoded.len() - 9; // last payload byte
            encoded[idx] ^= 0xFF;
        }
        inner.appended += 1;
        // A write failure (disk full, file deleted underneath us) makes
        // the entry session-only: still indexed in memory, just not
        // persisted. Analysis must not fail because the cache could not.
        if log::append_record(&mut inner.file, &encoded).is_ok() {
            inner.stats.inserts += 1;
        }
        inner.map.insert((kind, fp), payload.into_boxed_slice());
    }
}

/// The sibling temp file `compact` writes before the atomic rename.
fn compact_tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "store".into());
    name.push(".compact-tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_store(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lcm-store-{}-{tag}-{n}.lcmstore",
            std::process::id()
        ))
    }

    fn sample_report(name: &str) -> FunctionReport {
        FunctionReport {
            name: name.into(),
            transmitters: vec![],
            saeg_size: 17,
            runtime: std::time::Duration::ZERO,
            timings: Default::default(),
            status: lcm_detect::FunctionStatus::Completed,
            cache: lcm_detect::CacheStatus::Miss,
        }
    }

    #[test]
    fn insert_lookup_reopen() {
        let path = temp_store("basic");
        let fp = Fingerprint(42);
        {
            let store = Store::open(&path).unwrap();
            assert!(store.lookup_clou(fp).is_none());
            store.insert_clou(fp, &sample_report("f"));
            let hit = store.lookup_clou(fp).unwrap();
            assert_eq!(hit.name, "f");
            assert_eq!(hit.saeg_size, 17);
            let s = store.stats();
            assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        }
        let store = Store::open(&path).unwrap();
        assert_eq!(store.stats().loaded, 1);
        assert_eq!(store.lookup_clou(fp).unwrap().name, "f");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_fault_damages_disk_not_session() {
        let path = temp_store("fault");
        let fp0 = Fingerprint(1);
        let fp1 = Fingerprint(2);
        {
            let faults = FaultPlan::default().arm(site::STORE_CORRUPT_RECORD, Some(0));
            let store = Store::open_with_faults(&path, faults).unwrap();
            store.insert_clou(fp0, &sample_report("damaged"));
            store.insert_clou(fp1, &sample_report("clean"));
            // In-memory copies are intact either way.
            assert!(store.lookup_clou(fp0).is_some());
            assert!(store.lookup_clou(fp1).is_some());
        }
        // Reopen: record 0 is damaged on disk, so recovery drops it (and
        // everything after the damage — append-only logs recover a
        // prefix). Analysis still works; the entries are just misses.
        let store = Store::open(&path).unwrap();
        assert!(store.stats().recovered_drop >= 1);
        assert!(store.lookup_clou(fp0).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_keeps_only_live_records() {
        let path = temp_store("compact");
        {
            let store = Store::open(&path).unwrap();
            // Shadow fp 1 twice: three appends, two live entries.
            store.insert_clou(Fingerprint(1), &sample_report("old"));
            store.insert_clou(Fingerprint(1), &sample_report("new"));
            store.insert_clou(Fingerprint(2), &sample_report("other"));
            assert_eq!(store.compact().unwrap(), 2);
            // The compacted store keeps serving this session.
            assert_eq!(store.lookup_clou(Fingerprint(1)).unwrap().name, "new");
            store.insert_clou(Fingerprint(3), &sample_report("appended"));
        }
        // Reopen: exactly the live records (+ the post-compact append),
        // the shadowed duplicate gone.
        let store = Store::open(&path).unwrap();
        assert_eq!(store.stats().loaded, 3);
        assert_eq!(store.stats().recovered_drop, 0);
        assert_eq!(store.lookup_clou(Fingerprint(1)).unwrap().name, "new");
        assert_eq!(store.lookup_clou(Fingerprint(3)).unwrap().name, "appended");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_crash_leaves_old_log_fully_intact() {
        let path = temp_store("compact-crash");
        {
            let faults = FaultPlan::default().arm(site::STORE_COMPACT_CRASH, Some(1));
            let store = Store::open_with_faults(&path, faults).unwrap();
            store.insert_clou(Fingerprint(1), &sample_report("a"));
            store.insert_clou(Fingerprint(2), &sample_report("b"));
            let err = store.compact().unwrap_err();
            assert!(err.to_string().contains("store.compact_crash"));
            // The crash left partial-temp debris but never touched the
            // live log.
            assert!(compact_tmp_path(&path).exists());
        }
        // Reopen the old log: every record still there, nothing torn.
        let store = Store::open(&path).unwrap();
        assert_eq!(store.stats().loaded, 2);
        assert!(!store.stats().reset);
        assert_eq!(store.stats().recovered_drop, 0);
        assert!(store.lookup_clou(Fingerprint(1)).is_some());
        assert!(store.lookup_clou(Fingerprint(2)).is_some());
        // A retry without the fault completes and replaces the debris.
        assert_eq!(store.compact().unwrap(), 2);
        assert!(!compact_tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clou_and_bh_namespaces_are_disjoint() {
        let path = temp_store("ns");
        let store = Store::open(&path).unwrap();
        let fp = Fingerprint(7);
        store.insert_clou(fp, &sample_report("f"));
        assert!(store.lookup_bh(fp).is_none());
        assert!(store.lookup_clou(fp).is_some());
        std::fs::remove_file(&path).ok();
    }
}
