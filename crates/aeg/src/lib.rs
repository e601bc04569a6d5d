//! Symbolic Abstract Event Graph (S-AEG) construction — §5.2 of the paper.
//!
//! An S-AEG over-approximates all candidate executions of one function's
//! A-CFG. Nodes are the function's memory events; the symbolic part —
//! which-path, which-speculation, which-aliasing — is decided by the
//! engines' queries over block reachability, the alias oracle and the
//! speculative windows (the paper discharges it with Z3; see
//! DESIGN.md).
//!
//! This crate computes everything the leakage detection engines (crate
//! `lcm-detect`) consume:
//!
//! * the event list with program positions ([`MemEvent`]),
//! * symbolic addresses with a may/must/no-alias oracle ([`addr`]),
//! * `addr` / `addr_gep` / `data` dependencies and their
//!   `(data.rf)*.addr` generalization ([`deps`]),
//! * attacker-control taint (§5.3) ([`taint`]),
//! * speculative windows per branch, fence-aware ([`Saeg::spec_window`]),
//! * architectural path feasibility, decided exactly by block
//!   reachability over the acyclic A-CFG ([`Feasibility`]).
//!
//! # Examples
//!
//! ```
//! use lcm_aeg::Saeg;
//! use lcm_core::speculation::SpeculationConfig;
//!
//! let module = lcm_minic::compile(
//!     "int A[8]; int t; void f(int i) { if (i < 8) { t = A[i]; } }",
//! ).unwrap();
//! let saeg = Saeg::build(&module, "f", SpeculationConfig::default()).unwrap();
//! assert_eq!(saeg.branches.len(), 1);
//! // The if-body load is transiently fetchable when the bounds check
//! // mispredicts toward the body.
//! let window = saeg.spec_window(&saeg.branches[0], true);
//! assert!(!window.is_empty());
//! ```

pub mod addr;
pub mod deps;
pub mod taint;
pub mod trace;

mod build;
mod reach;

pub use build::{BranchInfo, EventId, EventKind, MemEvent, Saeg};
pub use reach::{FeasStats, Feasibility, WitnessSeed};
