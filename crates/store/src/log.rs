//! The append-only on-disk record log.
//!
//! File layout:
//!
//! ```text
//! {"magic": "lcm-store", "version": 2, "canon": 1}\n   // JSON header line
//! [record]*                                           // binary records
//! ```
//!
//! Each record is:
//!
//! ```text
//! magic    u32le  0x4C434D52 ("RMCL" little-endian)
//! kind     u8     1 = Clou result, 2 = baseline result
//! fp       16B    fingerprint, little-endian
//! len      u32le  payload length
//! payload  len B
//! checksum u64le  fnv64(kind || fp || payload)
//! ```
//!
//! Recovery discipline: on open, records are scanned in order; the scan
//! stops at the first damaged record (bad magic, bad kind, truncation,
//! checksum mismatch) and the file is truncated back to the last valid
//! prefix. A crash mid-append therefore costs at most the records after
//! the tear — never the store, and never the analysis (a dropped record
//! is just a future cache miss). An unreadable *header* abandons the
//! whole file: the format version is unknown, so no record can be
//! trusted.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use lcm_core::jsonw::{self, Json};

use crate::fp::{fnv64, Fingerprint};

/// Record magic: "RMCL" when viewed as little-endian bytes.
const RECORD_MAGIC: u32 = 0x4C434D52;
/// Header magic string.
const HEADER_MAGIC: &str = "lcm-store";
/// On-disk format version. Bumped whenever a fingerprint's input
/// changes, so records keyed the old way reset on open. Version 2
/// dropped the secrecy-filter word from Clou fingerprints.
pub const STORE_VERSION: u64 = 2;
/// Refuse absurd payloads (a corrupt length prefix must not drive a
/// multi-gigabyte allocation).
const MAX_PAYLOAD: u32 = 64 << 20;

/// Payload discriminator. Declaration order is code order, so
/// `compact` writes records sorted by kind code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordKind {
    /// A Clou [`lcm_detect::FunctionReport`].
    Clou,
    /// A baseline [`lcm_haunted::HauntedReport`].
    Bh,
}

impl RecordKind {
    fn code(self) -> u8 {
        match self {
            RecordKind::Clou => 1,
            RecordKind::Bh => 2,
        }
    }

    fn of(code: u8) -> Option<Self> {
        match code {
            1 => Some(RecordKind::Clou),
            2 => Some(RecordKind::Bh),
            _ => None,
        }
    }
}

/// One decoded record.
#[derive(Debug, Clone)]
pub struct Record {
    pub kind: RecordKind,
    pub fp: Fingerprint,
    pub payload: Vec<u8>,
}

/// What [`read_log`] found.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Valid records, in append order.
    pub records: Vec<Record>,
    /// Byte offset of the end of the valid prefix (where appends resume).
    pub valid_len: u64,
    /// Records dropped by recovery (damaged suffix). `0` on a clean log.
    pub dropped: u64,
    /// True when the header itself was unreadable and the file is being
    /// started over.
    pub reset: bool,
}

/// The serialized header line.
pub fn header_line() -> String {
    let header = Json::Obj(vec![
        ("magic".into(), Json::Str(HEADER_MAGIC.into())),
        ("version".into(), Json::Num(STORE_VERSION as f64)),
        (
            "canon".into(),
            Json::Num(lcm_ir::canon::CANON_VERSION as f64),
        ),
    ]);
    let mut line = header.render();
    line.push('\n');
    line
}

fn header_ok(line: &str) -> bool {
    let Ok(h) = jsonw::parse(line) else {
        return false;
    };
    h.get("magic").and_then(Json::as_str) == Some(HEADER_MAGIC)
        && h.get("version").and_then(Json::as_u64) == Some(STORE_VERSION)
        && h.get("canon").and_then(Json::as_u64) == Some(lcm_ir::canon::CANON_VERSION as u64)
}

/// Serializes one record (used for both appends and the corruption
/// fault, which flips a byte of this buffer before it reaches disk).
pub fn encode_record(kind: RecordKind, fp: Fingerprint, payload: &[u8]) -> Vec<u8> {
    let mut sum = Vec::with_capacity(17 + payload.len());
    sum.push(kind.code());
    sum.extend_from_slice(&fp.to_bytes());
    sum.extend_from_slice(payload);
    let checksum = fnv64(&sum);
    let mut out = Vec::with_capacity(33 + payload.len());
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.push(kind.code());
    out.extend_from_slice(&fp.to_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

fn read_exact_at(buf: &[u8], pos: usize, n: usize) -> Option<&[u8]> {
    buf.get(pos..pos.checked_add(n)?)
}

/// Scans `bytes` (the file after the header) and returns every valid
/// record plus the length of the valid prefix in `bytes`.
fn scan_records(bytes: &[u8]) -> (Vec<Record>, usize, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut dropped = 0u64;
    loop {
        let start = pos;
        let Some(magic) = read_exact_at(bytes, pos, 4) else {
            // Clean EOF (or a tear shorter than a magic) — whatever
            // remains is dropped.
            dropped += (bytes.len() > start) as u64;
            return (records, start, dropped);
        };
        if u32::from_le_bytes(magic.try_into().unwrap()) != RECORD_MAGIC {
            return (records, start, dropped + 1);
        }
        pos += 4;
        let Some(&code) = bytes.get(pos) else {
            return (records, start, dropped + 1);
        };
        let Some(kind) = RecordKind::of(code) else {
            return (records, start, dropped + 1);
        };
        pos += 1;
        let Some(fp_bytes) = read_exact_at(bytes, pos, 16) else {
            return (records, start, dropped + 1);
        };
        let fp = Fingerprint::from_bytes(fp_bytes.try_into().unwrap());
        pos += 16;
        let Some(len_bytes) = read_exact_at(bytes, pos, 4) else {
            return (records, start, dropped + 1);
        };
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap());
        if len > MAX_PAYLOAD {
            return (records, start, dropped + 1);
        }
        pos += 4;
        let Some(payload) = read_exact_at(bytes, pos, len as usize) else {
            return (records, start, dropped + 1);
        };
        pos += len as usize;
        let Some(sum_bytes) = read_exact_at(bytes, pos, 8) else {
            return (records, start, dropped + 1);
        };
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        pos += 8;
        let mut sum = Vec::with_capacity(17 + payload.len());
        sum.push(code);
        sum.extend_from_slice(&fp.to_bytes());
        sum.extend_from_slice(payload);
        if fnv64(&sum) != stored {
            return (records, start, dropped + 1);
        }
        records.push(Record {
            kind,
            fp,
            payload: payload.to_vec(),
        });
    }
}

/// Reads (and, if damaged, repairs) the log at `path`, returning the
/// valid records and a file handle positioned for appends.
///
/// Never errors on *content* — damage yields recovery, not failure.
/// I/O errors (permissions, missing parent directory) do propagate.
pub fn read_log(path: &Path) -> std::io::Result<(LogScan, File)> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;

    let mut scan = LogScan::default();
    if bytes.is_empty() {
        // Fresh store: write the header.
        file.write_all(header_line().as_bytes())?;
        scan.valid_len = file.stream_position()?;
        return Ok((scan, file));
    }

    let header_end = bytes.iter().position(|&b| b == b'\n').map(|i| i + 1);
    let header_valid = header_end
        .map(|end| {
            std::str::from_utf8(&bytes[..end])
                .map(header_ok)
                .unwrap_or(false)
        })
        .unwrap_or(false);
    if !header_valid {
        // Unknown format (or version skew): start over. The old bytes
        // cannot be interpreted safely; dropping them only costs misses.
        scan.reset = true;
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(header_line().as_bytes())?;
        scan.valid_len = file.stream_position()?;
        return Ok((scan, file));
    }
    let header_end = header_end.unwrap();
    let (records, body_len, dropped) = scan_records(&bytes[header_end..]);
    scan.records = records;
    scan.dropped = dropped;
    scan.valid_len = (header_end + body_len) as u64;
    if scan.valid_len < bytes.len() as u64 {
        // Damaged suffix: truncate it away so the next append produces a
        // clean log rather than burying garbage mid-file.
        file.set_len(scan.valid_len)?;
    }
    file.seek(SeekFrom::Start(scan.valid_len))?;
    Ok((scan, file))
}

/// Appends one already-encoded record and flushes it.
pub fn append_record(file: &mut File, encoded: &[u8]) -> std::io::Result<()> {
    let mut w = BufWriter::new(&mut *file);
    w.write_all(encoded)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "lcm-store-log-{}-{tag}-{n}.bin",
            std::process::id()
        ))
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn round_trip_and_reopen() {
        let path = temp_path("rt");
        {
            let (scan, mut file) = read_log(&path).unwrap();
            assert!(scan.records.is_empty());
            append_record(&mut file, &encode_record(RecordKind::Clou, fp(1), b"alpha")).unwrap();
            append_record(&mut file, &encode_record(RecordKind::Bh, fp(2), b"beta")).unwrap();
        }
        let (scan, _file) = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.dropped, 0);
        assert!(!scan.reset);
        assert_eq!(scan.records[0].payload, b"alpha");
        assert_eq!(scan.records[1].kind, RecordKind::Bh);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_mid_record_recovers_prefix() {
        let path = temp_path("trunc");
        {
            let (_, mut file) = read_log(&path).unwrap();
            append_record(&mut file, &encode_record(RecordKind::Clou, fp(1), b"keep")).unwrap();
            append_record(&mut file, &encode_record(RecordKind::Clou, fp(2), b"torn")).unwrap();
        }
        // Tear the last record: drop its final 3 bytes.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (scan, mut file) = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.dropped, 1);
        assert_eq!(scan.records[0].payload, b"keep");
        // The file was truncated to the valid prefix; appending works.
        append_record(&mut file, &encode_record(RecordKind::Clou, fp(3), b"next")).unwrap();
        drop(file);
        let (scan, _) = read_log(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.dropped, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_flip_drops_suffix() {
        let path = temp_path("flip");
        {
            let (_, mut file) = read_log(&path).unwrap();
            append_record(&mut file, &encode_record(RecordKind::Clou, fp(1), b"good")).unwrap();
            append_record(&mut file, &encode_record(RecordKind::Clou, fp(2), b"bad!")).unwrap();
            append_record(&mut file, &encode_record(RecordKind::Clou, fp(3), b"lost")).unwrap();
        }
        // Flip one payload byte of the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        let needle = bytes.windows(4).position(|w| w == b"bad!").unwrap();
        bytes[needle] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (scan, _) = read_log(&path).unwrap();
        // Recovery keeps the prefix before the damage; the record after
        // the flip is unreachable (scan stops at first damage).
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, b"good");
        assert!(scan.dropped >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_resets() {
        let path = temp_path("hdr");
        std::fs::write(&path, b"not a header\n\x52\x4d\x43\x4c junk").unwrap();
        let (scan, mut file) = read_log(&path).unwrap();
        assert!(scan.reset);
        assert!(scan.records.is_empty());
        append_record(&mut file, &encode_record(RecordKind::Clou, fp(9), b"new")).unwrap();
        drop(file);
        let (scan, _) = read_log(&path).unwrap();
        assert!(!scan.reset);
        assert_eq!(scan.records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn absurd_length_is_damage_not_allocation() {
        let path = temp_path("len");
        {
            let (_, mut file) = read_log(&path).unwrap();
            let mut rec = encode_record(RecordKind::Clou, fp(1), b"x");
            // Overwrite the length field (offset 21) with a huge value.
            rec[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
            append_record(&mut file, &rec).unwrap();
        }
        let (scan, _) = read_log(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.dropped, 1);
        std::fs::remove_file(&path).ok();
    }
}
