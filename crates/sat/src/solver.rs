//! The CDCL solving engine.

use crate::{Lit, Var};

/// A satisfying assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// The truth value of a literal under this model.
    ///
    /// # Panics
    ///
    /// Panics if the literal's variable was not part of the solved
    /// instance.
    pub fn value(&self, l: Lit) -> bool {
        self.values[l.var().index()] == l.is_pos()
    }

    /// The truth value of a variable.
    pub fn var_value(&self, v: Var) -> bool {
        self.values[v.index()]
    }
}

/// Outcome of a solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable (under the assumptions, if any).
    Unsat,
}

impl SolveResult {
    /// `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

const UNASSIGNED: u8 = 2;

type ClauseRef = u32;

/// A CDCL SAT solver (MiniSat-style).
///
/// # Examples
///
/// ```
/// use lcm_sat::{Lit, Solver};
///
/// let mut s = Solver::new();
/// let (a, b) = (s.new_var(), s.new_var());
/// s.add_clause([Lit::pos(a), Lit::pos(b)]);
/// // Unsat under the assumptions ¬a ∧ ¬b; the assumptions are retracted
/// // afterwards, so the same solver answers the next query:
/// assert!(!s.solve_with(&[Lit::neg(a), Lit::neg(b)]).is_sat());
/// assert!(s.solve_with(&[Lit::neg(a)]).is_sat());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Solver {
    clauses: Vec<Vec<Lit>>,
    // watches[lit.index()] = clause refs watching ¬lit... we watch the
    // first two literals of each clause; watches are indexed by the
    // *falsified* literal.
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    contradiction: bool,
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ..Default::default()
        }
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    fn value_lit(&self, l: Lit) -> u8 {
        let a = self.assign[l.var().index()];
        if a == UNASSIGNED {
            UNASSIGNED
        } else {
            (a == l.is_pos() as u8) as u8
        }
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Duplicate literals are removed; tautological clauses are dropped;
    /// the empty clause makes the instance trivially unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable not created with
    /// [`Self::new_var`].
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        assert!(
            self.trail_lim.is_empty(),
            "add_clause at decision level 0 only"
        );
        if self.contradiction {
            return;
        }
        let mut c: Vec<Lit> = lits.into_iter().collect();
        for l in &c {
            assert!(l.var().index() < self.num_vars(), "unknown variable {l}");
        }
        c.sort_unstable();
        c.dedup();
        // Tautology?
        if c.windows(2)
            .any(|w| w[0] == !w[1] || w[0].var() == w[1].var())
        {
            return;
        }
        // Remove root-level falsified literals; detect satisfied clauses.
        c.retain(|&l| self.value_lit(l) != 0);
        if c.iter().any(|&l| self.value_lit(l) == 1) {
            return;
        }
        match c.len() {
            0 => self.contradiction = true,
            1 => {
                self.enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.contradiction = true;
                }
            }
            _ => {
                self.attach_clause(c);
            }
        }
    }

    fn attach_clause(&mut self, c: Vec<Lit>) -> ClauseRef {
        let cref = self.clauses.len() as ClauseRef;
        self.watches[(!c[0]).index()].push(cref);
        self.watches[(!c[1]).index()].push(cref);
        self.clauses.push(c);
        cref
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, from: Option<ClauseRef>) -> bool {
        if self.value_lit(l) != UNASSIGNED {
            return self.value_lit(l) == 1;
        }
        let v = l.var().index();
        self.assign[v] = l.is_pos() as u8;
        self.level[v] = self.decision_level();
        self.reason[v] = from;
        self.trail.push(l);
        true
    }

    /// Unit propagation. Returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let mut i = 0;
            // Take the watch list for p (clauses where ¬p is watched... we
            // index watches by the literal that became true; stored under
            // (!watched_lit).index()). A clause watching literal w is in
            // watches[(!w).index()], so when w becomes false (i.e. !w = p
            // becomes true) we visit it.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            'clauses: while i < ws.len() {
                let cref = ws[i];
                let false_lit = !p;
                // Normalize: watched literals are positions 0 and 1.
                {
                    let c = &mut self.clauses[cref as usize];
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                }
                let first = self.clauses[cref as usize][0];
                if self.value_lit(first) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cref as usize].len();
                for k in 2..len {
                    let lk = self.clauses[cref as usize][k];
                    if self.value_lit(lk) != 0 {
                        self.clauses[cref as usize].swap(1, k);
                        let new_watch = self.clauses[cref as usize][1];
                        self.watches[(!new_watch).index()].push(cref);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // Clause is unit or conflicting.
                if !self.enqueue(first, Some(cref)) {
                    // Conflict: restore remaining watches and report.
                    self.watches[p.index()].extend_from_slice(&ws[i..]);
                    self.watches[p.index()].extend_from_slice(&ws[..i]);
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                i += 1;
            }
            self.watches[p.index()].extend_from_slice(&ws);
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = Some(confl);
        let mut index = self.trail.len();

        loop {
            let c = confl.expect("analysis requires a reason") as usize;
            let start = usize::from(p.is_some());
            let clause_lits: Vec<Lit> = self.clauses[c][start..].to_vec();
            for q in clause_lits {
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to look at.
            loop {
                index -= 1;
                if seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            confl = self.reason[lit.var().index()];
        }

        // Backtrack level: max level among learnt[1..].
        let bt = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        self.var_inc *= 1.0 / 0.95;
        (learnt, bt)
    }

    fn cancel_until(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let lim = self.trail_lim[lvl as usize];
        for &l in &self.trail[lim..] {
            let v = l.var().index();
            self.phase[v] = l.is_pos();
            self.assign[v] = UNASSIGNED;
            self.reason[v] = None;
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&self) -> Option<Var> {
        (0..self.num_vars())
            .filter(|&v| self.assign[v] == UNASSIGNED)
            .max_by(|&a, &b| {
                self.activity[a]
                    .partial_cmp(&self.activity[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|v| Var(v as u32))
    }

    /// Solves the instance with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// The solver remains usable afterwards (assumptions are retracted;
    /// learnt clauses are kept).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.contradiction {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        let mut restarts = 0u32;
        let mut conflicts_budget = luby(restarts) * 64;

        loop {
            if let Some(confl) = self.propagate() {
                if self.decision_level() == 0 {
                    self.contradiction = true;
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                if (self.decision_level() as usize) <= assumptions.len() {
                    // Conflict entirely under assumptions.
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                let bt = bt.min(self.decision_level() - 1);
                self.cancel_until(bt);
                let assert_lit = learnt[0];
                if learnt.len() == 1 {
                    self.cancel_until(0);
                    self.enqueue(assert_lit, None);
                } else {
                    let cref = self.attach_clause(learnt);
                    self.enqueue(assert_lit, Some(cref));
                }
                conflicts_budget -= 1;
                if conflicts_budget == 0 {
                    restarts += 1;
                    conflicts_budget = luby(restarts) * 64;
                    self.cancel_until(0);
                }
                continue;
            }

            // Re-apply assumptions that were rolled back (by restarts or
            // deep backjumps).
            if (self.decision_level() as usize) < assumptions.len() {
                let a = assumptions[self.decision_level() as usize];
                match self.value_lit(a) {
                    1 => {
                        // Already implied: introduce an empty decision level
                        // so indices stay aligned.
                        self.trail_lim.push(self.trail.len());
                    }
                    0 => {
                        // Assumption conflicts with current implications.
                        self.cancel_until(0);
                        return SolveResult::Unsat;
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, None);
                    }
                }
                continue;
            }

            match self.pick_branch_var() {
                None => {
                    let values = (0..self.num_vars()).map(|v| self.assign[v] == 1).collect();
                    self.cancel_until(0);
                    return SolveResult::Sat(Model { values });
                }
                Some(v) => {
                    self.trail_lim.push(self.trail.len());
                    let lit = if self.phase[v.index()] {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    };
                    self.enqueue(lit, None);
                }
            }
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...), 0-indexed.
fn luby(i: u32) -> u64 {
    let mut i = i as u64 + 1;
    loop {
        let k = 64 - i.leading_zeros() as u64;
        if i == (1 << k) - 1 {
            return 1 << (k - 1);
        }
        i -= (1 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: Var) -> Lit {
        Lit::pos(v)
    }
    fn n(v: Var) -> Lit {
        Lit::neg(v)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([p(a)]);
        assert!(s.solve().is_sat());
        s.add_clause([n(a)]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn empty_instance_is_sat() {
        assert!(Solver::new().solve().is_sat());
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause([n(w[0]), p(w[1])]); // v_i -> v_{i+1}
        }
        s.add_clause([p(vars[0])]);
        match s.solve() {
            SolveResult::Sat(m) => {
                for &v in &vars {
                    assert!(m.var_value(v));
                }
            }
            _ => panic!("should be sat"),
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 xor x2, x2 xor x3, x1 xor x3 with odd parity constraints is
        // unsat: encode (a!=b), (b!=c), (a!=c).
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        for (x, y) in [(a, b), (b, c), (a, c)] {
            s.add_clause([p(x), p(y)]);
            s.add_clause([n(x), n(y)]);
        }
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{i,j}: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut v = [[Var(0); 2]; 3];
        for row in &mut v {
            for x in row.iter_mut() {
                *x = s.new_var();
            }
        }
        for row in &v {
            s.add_clause([p(row[0]), p(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([n(v[i1][j]), n(v[i2][j])]);
                }
            }
        }
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        let clauses: Vec<Vec<Lit>> = vec![
            vec![p(vars[0]), n(vars[1]), p(vars[2])],
            vec![n(vars[0]), p(vars[3])],
            vec![p(vars[4]), p(vars[5])],
            vec![n(vars[4]), n(vars[5])],
            vec![n(vars[2]), n(vars[3]), p(vars[6])],
            vec![p(vars[7]), n(vars[6])],
            vec![n(vars[7]), p(vars[1])],
        ];
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        match s.solve() {
            SolveResult::Sat(m) => {
                for c in &clauses {
                    assert!(c.iter().any(|&l| m.value(l)), "clause {c:?} unsatisfied");
                }
            }
            _ => panic!("should be sat"),
        }
    }

    #[test]
    fn assumptions_flip_satisfiability() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([n(a), p(b)]);
        s.add_clause([n(b)]);
        assert!(s.solve().is_sat());
        assert!(!s.solve_with(&[p(a)]).is_sat());
        // Solver usable again afterwards.
        assert!(s.solve().is_sat());
        assert!(s.solve_with(&[n(a)]).is_sat());
    }

    #[test]
    fn implied_assumption_handled() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([p(a)]);
        s.add_clause([n(a), p(b)]);
        // Both assumptions already implied.
        assert!(s.solve_with(&[p(a), p(b)]).is_sat());
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..9).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }

    #[test]
    fn cloned_solver_diverges_independently() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([p(a), p(b)]);
        let mut t = s.clone();
        t.add_clause([n(a)]);
        t.add_clause([n(b)]);
        assert!(!t.solve().is_sat());
        assert!(s.solve().is_sat());
        assert!(s.solve_with(&[n(a)]).is_sat());
    }

    #[test]
    fn solver_reusable_across_many_queries() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        s.add_clause([p(vars[0]), p(vars[1]), p(vars[2])]);
        s.add_clause([n(vars[0]), p(vars[3])]);
        for v in vars.iter().take(3) {
            assert!(s.solve_with(&[p(*v)]).is_sat());
            assert!(s.solve_with(&[n(*v)]).is_sat());
        }
        s.add_clause([n(vars[3])]);
        assert!(!s.solve_with(&[p(vars[0])]).is_sat());
        assert!(s.solve_with(&[p(vars[1])]).is_sat());
    }
}
