//! Differential fuzzing oracle for the leakage engines (DESIGN.md §6i).
//!
//! The static engines in `lcm-detect` over-approximate the paper's
//! axiomatic semantics; nothing in the fixed suites checks their
//! behaviour on programs we didn't write. This crate closes that gap
//! with the oracle-plus-generator shape of Cats-vs-Spectre and the
//! leakage-contract-synthesis line of work:
//!
//! * [`gen`] — a deterministic, seed-keyed random program generator over
//!   a speculation-gadget grammar, rendered as minic source;
//! * [`oracle`] — a bounded-exhaustive speculative oracle deciding
//!   two-run secret non-interference concretely, run as a speculation
//!   hook on the one IR interpreter (`lcm_ir::interp`);
//! * [`shrink`] — a greedy AST minimizer for failing programs;
//! * [`diff`] — the harness: engine-vs-oracle cross-checking, `repair()`
//!   re-verification, and a SAT-backed fence-minimality certificate.

#![warn(missing_docs)]

pub mod diff;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use diff::{
    certify_minimal_fences, evaluate, run_sweep, FuzzConfig, MinimalityReport, Mismatch,
    SweepReport,
};
pub use gen::{generate, generate_batch, Program};
pub use oracle::{analyze, LeakKind, OracleConfig, OracleReport};
pub use shrink::shrink;
