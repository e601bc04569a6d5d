//! Formula-building helpers: Tseitin gates and implications.
//!
//! [`Cnf`] wraps a [`Solver`] and provides gate-level operations that
//! return a literal representing the gate output, so a formula (the path
//! formula of `lcm-aeg`'s feasibility test) can be composed without
//! manual clause bookkeeping.

use crate::{Lit, Solver};

/// Clause/gate builder over a [`Solver`].
///
/// # Examples
///
/// ```
/// use lcm_sat::cnf::Cnf;
///
/// let mut f = Cnf::new();
/// let a = f.fresh();
/// let b = f.fresh();
/// let both = f.and(a, b);
/// f.assert_lit(both);
/// let m = f.solver_mut().solve();
/// let m = m.model().unwrap();
/// assert!(m.value(a) && m.value(b));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Cnf {
    solver: Solver,
    true_lit: Option<Lit>,
}

impl Cnf {
    /// An empty formula.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Access to the underlying solver (e.g. to call
    /// [`Solver::solve_with`]).
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// A fresh positive literal.
    pub fn fresh(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    /// The constant-true literal (allocated lazily).
    pub fn constant_true(&mut self) -> Lit {
        match self.true_lit {
            Some(t) => t,
            None => {
                let t = self.fresh();
                self.solver.add_clause([t]);
                self.true_lit = Some(t);
                t
            }
        }
    }

    /// The constant-false literal.
    pub fn constant_false(&mut self) -> Lit {
        !self.constant_true()
    }

    /// Asserts a literal (unit clause).
    pub fn assert_lit(&mut self, l: Lit) {
        self.solver.add_clause([l]);
    }

    /// Asserts `a → b`.
    pub fn assert_implies(&mut self, a: Lit, b: Lit) {
        self.solver.add_clause([!a, b]);
    }

    /// Tseitin AND gate: returns `t ↔ a ∧ b`.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let t = self.fresh();
        self.solver.add_clause([!t, a]);
        self.solver.add_clause([!t, b]);
        self.solver.add_clause([t, !a, !b]);
        t
    }

    /// N-ary Tseitin OR. The empty disjunction is constant false.
    pub fn or_all(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => self.constant_false(),
            [l] => *l,
            _ => {
                let t = self.fresh();
                for &l in lits {
                    self.solver.add_clause([t, !l]);
                }
                let mut c = vec![!t];
                c.extend(lits.iter().copied());
                self.solver.add_clause(c);
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    fn model_of(f: &mut Cnf) -> crate::Model {
        match f.solver_mut().solve() {
            SolveResult::Sat(m) => m,
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn and_gate_semantics() {
        let mut f = Cnf::new();
        let a = f.fresh();
        let b = f.fresh();
        let t = f.and(a, b);
        f.assert_lit(t);
        let m = model_of(&mut f);
        assert!(m.value(a) && m.value(b));

        let mut f = Cnf::new();
        let a = f.fresh();
        let b = f.fresh();
        let t = f.and(a, b);
        f.assert_lit(!t);
        f.assert_lit(a);
        let m = model_of(&mut f);
        assert!(!m.value(b));
    }

    #[test]
    fn nary_gates() {
        let mut f = Cnf::new();
        let xs: Vec<Lit> = (0..5).map(|_| f.fresh()).collect();
        let any = f.or_all(&xs);
        f.assert_lit(!any);
        let m = model_of(&mut f);
        assert!(xs.iter().all(|&x| !m.value(x)));
    }

    #[test]
    fn empty_gates_are_constants() {
        let mut f = Cnf::new();
        let fa = f.or_all(&[]);
        f.assert_lit(!fa);
        assert!(f.solver_mut().solve().is_sat());
    }
}
