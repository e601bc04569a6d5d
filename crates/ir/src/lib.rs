//! A compact LLVM-flavoured IR and the Abstract-CFG pipeline of Clou §5.1.
//!
//! Clou consumes LLVM IR produced by `clang -O0`. This crate provides the
//! stand-in: a control-flow-graph IR whose feature set is exactly what the
//! leakage analysis observes —
//!
//! * memory operations (`load` / `store` / `alloca` / global addresses),
//! * `getelementptr`-style address arithmetic ([`Inst::Gep`]), which is what
//!   distinguishes `addr_gep` dependencies (§5.2),
//! * calls (later inlined) and *havoc* calls modelling undefined external
//!   functions ("a load or store to one of its pointer operands", §5.1),
//! * branches (speculation primitives) and fences (the repair primitive).
//!
//! Design note: only memory operations, calls, and fences are *scheduled*
//! in basic blocks. Arithmetic, constants, parameters and address
//! computations are pure dataflow nodes referenced by id — dependency
//! extraction (`addr`/`data`/`ctrl`) follows this operand graph, mirroring
//! how Clou reads LLVM's use-def chains.
//!
//! The A-CFG transformation lives in [`acfg`]: loop summarization by
//! two-fold unrolling and exhaustive inlining with two-fold recursion
//! expansion. [`interp`] is the one IR interpreter: it validates that
//! those transformations preserve straight-line semantics, and through
//! its [`interp::Hook`] seam it also runs the speculative oracle of
//! `lcm-fuzz`.

pub mod acfg;
pub mod canon;
pub mod cfg;
pub mod interp;
mod types;
pub mod verify;

pub use types::{
    BinOp, Block, BlockId, Function, Global, GlobalId, Inst, InstId, Module, Terminator, Ty, Value,
};
