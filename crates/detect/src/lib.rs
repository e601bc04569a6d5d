//! Clou-style static leakage detection (§5 of the paper).
//!
//! The [`Detector`] runs a *leakage detection engine* (§5.3) over the
//! S-AEG of every public function of a module:
//!
//! * [`EngineKind::Pht`] — control-flow speculation (Spectre v1 / v1.1):
//!   a mispredicted conditional branch opens a window in which transient
//!   transmitters execute;
//! * [`EngineKind::Stl`] — store-to-load forwarding (Spectre v4): a load
//!   bypasses an older, unresolved same-address store and forwards stale
//!   data into a transmitter chain.
//!
//! Both engines search for rf-non-interference violations (§4.1) realised
//! as transmitter patterns of Table 1, generalised with `(data.rf)*.addr`
//! chains (§5.3), filtered by `addr_gep` (PHT only) and attacker taint,
//! and checked for architectural path feasibility, which block
//! reachability over the acyclic A-CFG decides exactly.
//! [`repair`] inserts a minimal set of `lfence`s and the tests confirm
//! re-analysis comes back clean.
//!
//! # Examples
//!
//! ```
//! use lcm_detect::{repair, Detector, DetectorConfig, EngineKind};
//! use lcm_core::taxonomy::TransmitterClass;
//!
//! let module = lcm_minic::compile(r#"
//!     int A[16]; int B[4096]; int size; int tmp;
//!     void victim(int y) {
//!         if (y < size)
//!             tmp &= B[A[y] * 512];
//!     }
//! "#).unwrap();
//! let det = Detector::new(DetectorConfig::default());
//! let report = det.analyze_module(&module, EngineKind::Pht);
//! assert!(report.count(TransmitterClass::UniversalData) >= 1);
//!
//! let (fixed, fences) = repair(&module, &det, EngineKind::Pht);
//! assert_eq!(fences, 1);
//! assert!(det.analyze_module(&fixed, EngineKind::Pht).is_clean());
//! ```

mod engine;
mod repair;
mod report;
mod witness;

pub use engine::{secret_relevant, Detector, DetectorConfig, EngineKind};
pub use repair::{repair, repair_all, repair_function, repair_once};
pub use report::{
    CacheStatus, Finding, FunctionReport, FunctionStatus, ModuleReport, PhaseTimings,
};
pub use witness::{describe, witness_dot};
