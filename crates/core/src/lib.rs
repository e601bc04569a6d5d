//! Leakage containment models (LCMs): the axiomatic vocabulary of
//! *"Axiomatic Hardware-Software Contracts for Security"* (ISCA 2022).
//!
//! An LCM compares two semantics of the same program:
//!
//! * an **architectural semantics** — the consistent candidate executions of
//!   the program under a memory consistency model (MCM), whose information
//!   flows are the `com = rf ∪ co ∪ fr` relation (§2);
//! * a **microarchitectural semantics** — executions extended with accesses
//!   to *extra-architectural state* (xstate: cache lines / LSQ entries),
//!   whose information flows are `comx = rfx ∪ cox ∪ frx` (§3.2), constrained
//!   by a *confidentiality predicate* instead of a consistency predicate.
//!
//! Microarchitectural **leakage** is a consistent candidate execution whose
//! `comx` deviates from what its `com` implies under non-interference
//! (§3.2.3, §4.1). The culprit `com` edges point at **receivers**; events
//! that source an `rfx` edge into a receiver are **transmitters**, classified
//! by the taxonomy of Table 1 (§3.2.4).
//!
//! # Module map
//!
//! | module | paper section |
//! |---|---|
//! | [`event`] | §2.1.1 events, ⊤/⊥, transient marking |
//! | [`exec`] | §2.1.2 candidate executions, §3.2 microarchitectural witness |
//! | [`noninterference`] | §4.1 rf/co/fr non-interference |
//! | [`taxonomy`] | §3.2.4 transmitter taxonomy (Table 1) |
//! | [`speculation`] | §3.3 speculative semantics (tfo, windows) |
//! | [`cat`] | §2.1.3 consistency and §3.2.2/§4.2 confidentiality predicates as cat text: SC, x86-TSO and four LCMs as presets |
//! | [`leakage`] | §3.2.3 leak detection over complete executions |
//!
//! # Examples
//!
//! Build the not-taken Spectre v1 candidate execution of Fig. 1c and check
//! it is TSO-consistent:
//!
//! ```
//! use lcm_core::cat::presets;
//! use lcm_core::exec::ExecutionBuilder;
//!
//! let mut b = ExecutionBuilder::new();
//! let r1 = b.read("size");
//! let r2 = b.read("y");
//! b.po(r1, r2);
//! let exec = b.build();
//! assert!(presets::tso().check(&exec).is_ok());
//! ```

pub mod backoff;
pub mod cat;
pub mod event;
pub mod exec;
pub mod fault;
pub mod govern;
pub mod jsonw;
pub mod leakage;
pub mod noninterference;
pub mod par;
pub mod speculation;
pub mod taxonomy;

pub use backoff::backoff_delay;
pub use event::{AccessMode, Event, EventId, EventKind, Location, XState};
pub use exec::{Execution, ExecutionBuilder};
pub use fault::FaultPlan;
pub use govern::{AnalysisError, BudgetKind, Budgets, ResourceGovernor};
pub use leakage::{detect_leakage, LeakageReport};
pub use noninterference::{NiPredicate, Violation};
pub use taxonomy::{Transmitter, TransmitterClass};
