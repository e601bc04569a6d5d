//! A CDCL SAT solver with assumptions.
//!
//! Clou (§5.2–5.3) discharges its path formulas to an SMT solver. This
//! repository decides path feasibility exactly by block reachability
//! over the acyclic A-CFG (`lcm_aeg::Feasibility`), and keeps this
//! solver as the independent oracle for that decision:
//! `crates/aeg/tests/feasibility.rs` encodes Fig. 7's edge formulas in
//! CNF and checks that both agree on random CFGs and assumption stacks
//! (see DESIGN.md for the substitution argument).
//!
//! Features:
//!
//! * two-watched-literal propagation, first-UIP clause learning,
//!   VSIDS-style activity with phase saving, and Luby restarts
//!   ([`Solver`]);
//! * solving under **assumptions** on a solver that stays usable for
//!   the next query ([`Solver::solve_with`]);
//! * a formula-building layer with Tseitin AND/OR gates and implications
//!   ([`cnf::Cnf`]).
//!
//! # Examples
//!
//! ```
//! use lcm_sat::{Lit, SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a)]);
//! match s.solve() {
//!     SolveResult::Sat(model) => assert!(model.value(Lit::pos(b))),
//!     _ => unreachable!(),
//! }
//! ```

pub mod cnf;
mod solver;

pub use solver::{Model, SolveResult, Solver};

use std::fmt;
use std::ops::Not;

/// A boolean variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the positive literal.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}",
            if self.is_pos() { "" } else { "¬" },
            self.var().0
        )
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_roundtrip() {
        let v = Var(7);
        assert_eq!(Lit::pos(v).var(), v);
        assert_eq!(Lit::neg(v).var(), v);
        assert!(Lit::pos(v).is_pos());
        assert!(!Lit::neg(v).is_pos());
        assert_eq!(!Lit::pos(v), Lit::neg(v));
        assert_eq!(!!Lit::pos(v), Lit::pos(v));
    }

    #[test]
    fn literal_display() {
        assert_eq!(Lit::pos(Var(3)).to_string(), "x3");
        assert_eq!(Lit::neg(Var(3)).to_string(), "¬x3");
    }
}
