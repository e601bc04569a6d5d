//! Binary payload encoding of cached results.
//!
//! Hand-rolled little-endian records (the workspace carries no serde;
//! DESIGN.md §6). Decoding is *total*: every read is bounds-checked and
//! every tag validated, returning [`Corrupt`] instead of panicking, so
//! a damaged record on disk degrades to a cache miss rather than an
//! abort.

use std::time::Duration;

use lcm_aeg::EventId;
use lcm_core::speculation::SpeculationPrimitive;
use lcm_core::taxonomy::TransmitterClass;
use lcm_detect::{CacheStatus, Finding, FunctionReport, FunctionStatus, PhaseTimings};
use lcm_haunted::{HauntedLeak, HauntedReport};
use lcm_ir::{BlockId, InstId};

/// A payload that failed to decode (bad tag, truncated field, absurd
/// length). The store treats this exactly like a checksum failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrupt;

impl std::fmt::Display for Corrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("corrupt cache payload")
    }
}

impl std::error::Error for Corrupt {}

/// Byte-appending writer.
pub struct W(pub Vec<u8>);

impl W {
    pub fn new() -> Self {
        W(Vec::with_capacity(64))
    }
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn bool(&mut self, v: bool) {
        self.0.push(v as u8);
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    /// An optional `u64`: a presence byte, then the value if present.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }
}

impl Default for W {
    fn default() -> Self {
        Self::new()
    }
}

/// Bounds-checked cursor reader.
pub struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        R { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Corrupt> {
        let end = self.pos.checked_add(n).ok_or(Corrupt)?;
        if end > self.buf.len() {
            return Err(Corrupt);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, Corrupt> {
        Ok(self.take(1)?[0])
    }
    pub fn bool(&mut self) -> Result<bool, Corrupt> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Corrupt),
        }
    }
    pub fn u32(&mut self) -> Result<u32, Corrupt> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Result<u64, Corrupt> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn str(&mut self) -> Result<String, Corrupt> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Corrupt)
    }
    /// Inverse of [`W::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, Corrupt> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(Corrupt),
        }
    }
    /// Every byte must be consumed — trailing garbage is corruption.
    pub fn finish(self) -> Result<(), Corrupt> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Corrupt)
        }
    }
}

/// The wire and disk tag of a transmitter class.
pub fn class_code(c: TransmitterClass) -> u8 {
    match c {
        TransmitterClass::Address => 0,
        TransmitterClass::Control => 1,
        TransmitterClass::Data => 2,
        TransmitterClass::UniversalControl => 3,
        TransmitterClass::UniversalData => 4,
    }
}

/// Inverse of [`class_code`].
pub fn class_of(code: u8) -> Result<TransmitterClass, Corrupt> {
    Ok(match code {
        0 => TransmitterClass::Address,
        1 => TransmitterClass::Control,
        2 => TransmitterClass::Data,
        3 => TransmitterClass::UniversalControl,
        4 => TransmitterClass::UniversalData,
        _ => return Err(Corrupt),
    })
}

fn primitive_code(p: SpeculationPrimitive) -> u8 {
    match p {
        SpeculationPrimitive::ConditionalBranch => 0,
        SpeculationPrimitive::StoreForwarding => 1,
        SpeculationPrimitive::AliasPrediction => 2,
    }
}

fn primitive_of(code: u8) -> Result<SpeculationPrimitive, Corrupt> {
    Ok(match code {
        0 => SpeculationPrimitive::ConditionalBranch,
        1 => SpeculationPrimitive::StoreForwarding,
        2 => SpeculationPrimitive::AliasPrediction,
        _ => return Err(Corrupt),
    })
}

/// Serializes one [`Finding`] into `w`. Public because the fleet wire
/// protocol (`lcm-fleet`) ships findings across the worker-process
/// boundary with the identical encoding the store uses on disk.
pub fn encode_finding(w: &mut W, f: &Finding) {
    w.str(&f.function);
    w.u64(f.transmitter.0 as u64);
    w.u32(f.transmitter_inst.0);
    w.u8(class_code(f.class));
    w.bool(f.transient_transmitter);
    w.opt_u64(f.access.map(|e| e.0 as u64));
    w.bool(f.access_transient);
    w.opt_u64(f.index.map(|e| e.0 as u64));
    w.u8(primitive_code(f.primitive));
    w.opt_u64(f.branch.map(|b| b.0 as u64));
    w.opt_u64(f.bypassed_store.map(|e| e.0 as u64));
    w.bool(f.interference);
    w.u32(f.witness_blocks.len() as u32);
    for b in &f.witness_blocks {
        w.u32(b.0);
    }
    match f.witness_dir {
        None => w.u8(0),
        Some((b, taken)) => {
            w.u8(1);
            w.u32(b.0);
            w.bool(taken);
        }
    }
}

/// Deserializes one [`Finding`] (inverse of [`encode_finding`]).
pub fn decode_finding(r: &mut R) -> Result<Finding, Corrupt> {
    let function = r.str()?;
    let transmitter = EventId(r.u64()? as usize);
    let transmitter_inst = InstId(r.u32()?);
    let class = class_of(r.u8()?)?;
    let transient_transmitter = r.bool()?;
    let access = r.opt_u64()?.map(|v| EventId(v as usize));
    let access_transient = r.bool()?;
    let index = r.opt_u64()?.map(|v| EventId(v as usize));
    let primitive = primitive_of(r.u8()?)?;
    let branch = r.opt_u64()?.map(|v| BlockId(v as u32));
    let bypassed_store = r.opt_u64()?.map(|v| EventId(v as usize));
    let interference = r.bool()?;
    let n = r.u32()? as usize;
    // A length prefix beyond the payload is caught by `take`, but cap it
    // anyway so a corrupt prefix cannot trigger a huge allocation.
    if n > r.buf.len() {
        return Err(Corrupt);
    }
    let mut witness_blocks = Vec::with_capacity(n);
    for _ in 0..n {
        witness_blocks.push(BlockId(r.u32()?));
    }
    let witness_dir = match r.u8()? {
        0 => None,
        1 => Some((BlockId(r.u32()?), r.bool()?)),
        _ => return Err(Corrupt),
    };
    Ok(Finding {
        function,
        transmitter,
        transmitter_inst,
        class,
        transient_transmitter,
        access,
        access_transient,
        index,
        primitive,
        branch,
        bypassed_store,
        interference,
        witness_blocks,
        witness_dir,
    })
}

/// Serializes a findings list: a `u32` count, then each finding.
pub fn encode_findings(w: &mut W, findings: &[Finding]) {
    w.u32(findings.len() as u32);
    for f in findings {
        encode_finding(w, f);
    }
}

/// Deserializes a findings list (inverse of [`encode_findings`]).
pub fn decode_findings(r: &mut R) -> Result<Vec<Finding>, Corrupt> {
    let n = r.u32()? as usize;
    // Every finding takes more than one byte, so a count beyond the
    // buffer is corrupt; refusing it here keeps a corrupt prefix from
    // driving a huge allocation.
    if n > r.buf.len() {
        return Err(Corrupt);
    }
    let mut findings = Vec::with_capacity(n);
    for _ in 0..n {
        findings.push(decode_finding(r)?);
    }
    Ok(findings)
}

/// Serializes a completed [`FunctionReport`]. Timing fields are not
/// stored — a cache hit's `runtime` is the (tiny) time spent serving it,
/// which callers fill in.
pub fn encode_clou(report: &FunctionReport) -> Vec<u8> {
    debug_assert!(report.status.is_completed());
    let mut w = W::new();
    w.str(&report.name);
    w.u64(report.saeg_size as u64);
    encode_findings(&mut w, &report.transmitters);
    w.0
}

/// Deserializes a [`FunctionReport`] with `cache: Hit` and zeroed
/// timings (the caller stamps lookup time into `timings.cache`).
pub fn decode_clou(payload: &[u8]) -> Result<FunctionReport, Corrupt> {
    let mut r = R::new(payload);
    let name = r.str()?;
    let saeg_size = r.u64()? as usize;
    let transmitters = decode_findings(&mut r)?;
    r.finish()?;
    Ok(FunctionReport {
        name,
        transmitters,
        saeg_size,
        runtime: Duration::ZERO,
        timings: PhaseTimings::default(),
        status: FunctionStatus::Completed,
        cache: CacheStatus::Hit,
    })
}

/// Serializes a completed (non-degraded) baseline report.
pub fn encode_bh(report: &HauntedReport) -> Vec<u8> {
    debug_assert!(report.degraded.is_none());
    let mut w = W::new();
    w.str(&report.name);
    w.u32(report.leaks.len() as u32);
    for l in &report.leaks {
        w.str(&l.function);
        w.u32(l.inst.0);
        w.u8(primitive_code(l.primitive));
    }
    w.u64(report.paths_explored as u64);
    w.bool(report.exhausted);
    w.0
}

/// Deserializes a baseline report (zero runtime; caller stamps it).
pub fn decode_bh(payload: &[u8]) -> Result<HauntedReport, Corrupt> {
    let mut r = R::new(payload);
    let name = r.str()?;
    let n = r.u32()? as usize;
    if n > payload.len() {
        return Err(Corrupt);
    }
    let mut leaks = Vec::with_capacity(n);
    for _ in 0..n {
        leaks.push(HauntedLeak {
            function: r.str()?,
            inst: InstId(r.u32()?),
            primitive: primitive_of(r.u8()?)?,
        });
    }
    let paths_explored = r.u64()? as usize;
    let exhausted = r.bool()?;
    r.finish()?;
    Ok(HauntedReport {
        name,
        leaks,
        paths_explored,
        exhausted,
        runtime: Duration::ZERO,
        t_execute: Duration::ZERO,
        t_witness: Duration::ZERO,
        degraded: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            function: "victim".into(),
            transmitter: EventId(7),
            transmitter_inst: InstId(3),
            class: TransmitterClass::UniversalData,
            transient_transmitter: true,
            access: Some(EventId(2)),
            access_transient: true,
            index: Some(EventId(1)),
            primitive: SpeculationPrimitive::ConditionalBranch,
            branch: Some(BlockId(0)),
            bypassed_store: None,
            interference: false,
            witness_blocks: vec![BlockId(0), BlockId(2)],
            witness_dir: Some((BlockId(0), true)),
        }
    }

    #[test]
    fn clou_round_trip() {
        let report = FunctionReport {
            name: "victim".into(),
            transmitters: vec![finding()],
            saeg_size: 42,
            runtime: Duration::from_millis(9),
            timings: PhaseTimings::default(),
            status: FunctionStatus::Completed,
            cache: CacheStatus::Miss,
        };
        let bytes = encode_clou(&report);
        let back = decode_clou(&bytes).unwrap();
        assert_eq!(back.name, report.name);
        assert_eq!(back.saeg_size, report.saeg_size);
        assert_eq!(back.transmitters, report.transmitters);
        assert_eq!(back.cache, CacheStatus::Hit);
        assert!(back.status.is_completed());
    }

    #[test]
    fn bh_round_trip() {
        let report = HauntedReport {
            name: "victim".into(),
            leaks: vec![HauntedLeak {
                function: "victim".into(),
                inst: InstId(5),
                primitive: SpeculationPrimitive::StoreForwarding,
            }],
            paths_explored: 12,
            exhausted: true,
            runtime: Duration::ZERO,
            t_execute: Duration::ZERO,
            t_witness: Duration::ZERO,
            degraded: None,
        };
        let bytes = encode_bh(&report);
        let back = decode_bh(&bytes).unwrap();
        assert_eq!(back.leaks, report.leaks);
        assert_eq!(back.paths_explored, 12);
        assert!(back.exhausted);
    }

    #[test]
    fn every_truncation_is_corrupt_not_panic() {
        let report = FunctionReport {
            name: "f".into(),
            transmitters: vec![finding(), finding()],
            saeg_size: 9,
            runtime: Duration::ZERO,
            timings: PhaseTimings::default(),
            status: FunctionStatus::Completed,
            cache: CacheStatus::Miss,
        };
        let bytes = encode_clou(&report);
        for cut in 0..bytes.len() {
            assert!(decode_clou(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = encode_bh(&HauntedReport {
            name: "f".into(),
            leaks: vec![],
            paths_explored: 0,
            exhausted: false,
            runtime: Duration::ZERO,
            t_execute: Duration::ZERO,
            t_witness: Duration::ZERO,
            degraded: None,
        });
        assert!(decode_bh(&bytes).is_ok());
        bytes.push(0);
        assert!(decode_bh(&bytes).is_err());
    }

    #[test]
    fn bad_tags_are_corrupt() {
        let mut w = W::new();
        w.str("f");
        w.u64(1);
        w.u32(1);
        // A finding whose class tag is invalid.
        w.str("f");
        w.u64(0);
        w.u32(0);
        w.u8(99);
        assert!(decode_clou(&w.0).is_err());
    }
}
