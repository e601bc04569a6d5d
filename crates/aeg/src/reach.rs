//! SAT encoding of architectural path feasibility (§5.2).
//!
//! Mirrors Fig. 7's edge formulas: each block gets an architectural-
//! execution literal `A[b]`; each conditional branch a decision literal;
//! `A[b] ⇔ ⋁ (A[p] ∧ edge taken)`. A leakage query asserts that its
//! required events are all architecturally (or, for the mispredicting
//! branch, transiently) executed and asks the solver for a consistent
//! branch-decision assignment.
//!
//! Engines drive queries through an **assumption stack** ([`Feasibility::push`],
//! [`Feasibility::mark`], [`Feasibility::truncate`]) instead of cloning a
//! base request per candidate, so the hot loops allocate nothing per
//! query.
//!
//! Two layers answer queries before the solver does:
//!
//! 1. A **block-reachability pre-screen** ([`BlockScreen`]): since the
//!    A-CFG is acyclic and every satisfying model of the path formula is
//!    exactly one root-to-return path (entry is asserted, and the in-edge
//!    equivalences force the executed set to follow branch decisions),
//!    a stack of positive `A[b]` literals plus at most one decision
//!    literal can be decided *exactly* from the reflexive-transitive
//!    reachability relation — no solver, no memo, O(k²) bit probes.
//!    Stacks outside that fragment (negated arch literals, several
//!    decision literals, literals from gate encodings) fall through.
//! 2. A **stack-structured trie memo**: queries that reach the memo walk
//!    a trie keyed by the literal sequence itself (deduplicated on the
//!    walk), so a hit costs a pointer chase with no allocation and no
//!    sort, unlike the previous sorted-`Vec<Lit>` hash key.
//!
//! Counters for both layers are tracked in [`FeasStats`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm_core::fault::site;
use lcm_core::govern::{AnalysisError, BudgetKind, ResourceGovernor};
use lcm_ir::{BlockId, Terminator};
use lcm_relalg::Relation;
use lcm_sat::cnf::Cnf;
use lcm_sat::{AbortReason, Lit, SolveLimits, SolveResult};

use crate::build::Saeg;

/// Environment variable that force-disables the reachability pre-screen
/// (every query goes through the memo + solver). Used by the
/// differential test suite; any value other than `0` disables.
pub const DISABLE_PREFILTER_ENV: &str = "LCM_DISABLE_PREFILTER";

/// `true` when `LCM_DISABLE_PREFILTER` is set in the environment.
pub fn prefilter_disabled_by_env() -> bool {
    std::env::var_os(DISABLE_PREFILTER_ENV).is_some_and(|v| v != "0")
}

/// Environment variable that force-disables persistent incremental
/// solving: every solver-bound query runs on a fresh clone of the
/// pristine encoded instance instead of the long-lived solver, so no
/// learnt clause survives across queries. This is the oracle half of
/// the incremental-SAT differential tests; any value other than `0`
/// disables.
pub const DISABLE_INCREMENTAL_ENV: &str = "LCM_DISABLE_INCREMENTAL";

/// `true` when `LCM_DISABLE_INCREMENTAL` is set in the environment.
pub fn incremental_disabled_by_env() -> bool {
    std::env::var_os(DISABLE_INCREMENTAL_ENV).is_some_and(|v| v != "0")
}

/// Query counters and phase timings for one [`Feasibility`] instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeasStats {
    /// Feasibility questions that reached the memo/solver layer
    /// (including memo hits).
    pub queries: u64,
    /// Questions answered from the memo without touching the solver.
    pub memo_hits: u64,
    /// Questions answered by the block-reachability pre-screen without
    /// reaching the memo or the solver.
    pub queries_avoided: u64,
    /// Engine-level candidate checks skipped entirely because a hoisted
    /// pre-screen (window bitsets, duplicate-block fast paths) proved the
    /// stack unchanged or the answer forced.
    pub prefilter_hits: u64,
    /// Time spent building the CNF encoding and the reachability matrix.
    pub encode: Duration,
    /// Time spent inside the SAT solver.
    pub solve: Duration,
    /// Solver calls answered by a solver that had already served an
    /// earlier call on this instance — the persistent-incremental reuse
    /// count. Always 0 in fresh-per-query oracle mode.
    pub solver_reuses: u64,
    /// Learnt clauses newly retained in the persistent solver's database
    /// across calls (clauses learned and kept for future queries).
    pub clauses_retained: u64,
}

fn solve_latency() -> &'static lcm_obs::metrics::Histogram {
    static H: std::sync::OnceLock<lcm_obs::metrics::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| {
        lcm_obs::metrics::global().histogram(
            lcm_obs::metrics::names::SOLVE_LATENCY,
            "Wall-clock latency of SAT solver calls (screened and memoized queries never reach here)",
            lcm_obs::metrics::latency_buckets(),
        )
    })
}

/// The architectural skeleton of a witness, recoverable from an
/// assumption stack without solving: the blocks required to execute and
/// the direction of the constrained branch, if any.
///
/// [`Saeg::arch_witness_path`] expands a seed into a concrete
/// root-to-return block path on demand, so findings can stay compact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WitnessSeed {
    /// Blocks asserted architecturally executed, in push order.
    pub blocks: Vec<BlockId>,
    /// Constrained branch block and its direction (`true` = then-target).
    pub branch_dir: Option<(BlockId, bool)>,
}

/// What a solver variable means, for pre-screening and seed recovery.
#[derive(Debug, Clone, Copy)]
enum LitKind {
    /// `A[b]`: block `b` executes architecturally.
    Arch(u32),
    /// Decision literal of the conditional branch terminating `b`.
    Decision(u32),
}

/// One-shot reachability data consulted before the solver.
#[derive(Debug)]
struct BlockScreen {
    /// Reflexive-transitive reachability over A-CFG blocks.
    reach: Relation,
    /// `(then, else)` targets per conditional-branch block.
    targets: HashMap<u32, (u32, u32)>,
}

/// A trie node keyed by assumption literals; the memo for one
/// [`Feasibility`] instance. Children are unsorted — stacks are short
/// and push order is deterministic, so a linear probe wins over sorting.
#[derive(Debug, Default)]
struct MemoNode {
    children: Vec<(Lit, u32)>,
    /// Memoized `check_stack` answer.
    result: Option<bool>,
    /// Memoized `witness_path_stack` answer.
    path: Option<Option<Vec<BlockId>>>,
}

#[derive(Debug)]
struct Memo {
    nodes: Vec<MemoNode>,
}

impl Memo {
    fn new() -> Memo {
        Memo {
            nodes: vec![MemoNode::default()],
        }
    }

    /// Walks (creating nodes as needed) to the node for `stack`'s literal
    /// sequence, skipping literals already seen earlier in the stack so
    /// `[l, l]` and `[l]` share a node. Allocation-free when the path
    /// already exists.
    fn locate(&mut self, stack: &[Lit]) -> usize {
        let mut cur = 0usize;
        for (i, &lit) in stack.iter().enumerate() {
            if stack[..i].contains(&lit) {
                continue;
            }
            cur = match self.nodes[cur].children.iter().find(|&&(l, _)| l == lit) {
                Some(&(_, child)) => child as usize,
                None => {
                    let id = self.nodes.len();
                    self.nodes.push(MemoNode::default());
                    self.nodes[cur].children.push((lit, id as u32));
                    id
                }
            };
        }
        cur
    }
}

/// A reusable feasibility checker over one S-AEG.
///
/// Queries are memoized: leakage engines re-ask the same path questions
/// for every chain sharing a speculation site.
///
/// The underlying solver is **persistent and incremental**: one
/// [`Cnf`]-wrapped solver answers every query via assumptions, so learnt
/// clauses accumulate across stacks (bounded by the solver's clause-DB
/// reduction policy). One instance serves one function's engine run, on
/// one thread.
#[derive(Debug)]
pub struct Feasibility {
    cnf: Cnf,
    arch: Vec<Lit>,
    decision: HashMap<u32, Lit>,
    /// Solver-variable index → meaning, for the pre-screen and seeds.
    lit_kind: HashMap<u32, LitKind>,
    /// Reachability pre-screen; `None` when force-disabled.
    screen: Option<BlockScreen>,
    memo: Memo,
    /// Current assumption set, manipulated via `push`/`mark`/`truncate`.
    stack: Vec<Lit>,
    /// Scratch for the pre-screen's required-block set; reused across
    /// queries so screening allocates nothing.
    blocks_buf: Vec<u32>,
    stats: FeasStats,
    /// Per-function resource governor, when the caller runs governed.
    governor: Option<Arc<ResourceGovernor>>,
    /// Pristine encoded solver, present only in fresh-per-query oracle
    /// mode (see [`Self::set_incremental`]): each solver-bound query
    /// clones it and discards the clone, so nothing persists.
    oracle_base: Option<Box<lcm_sat::Solver>>,
    /// Whether the persistent solver has served a call yet (drives
    /// [`FeasStats::solver_reuses`]).
    solver_used: bool,
}

impl Feasibility {
    /// Builds the path-constraint formula for the S-AEG's A-CFG, with
    /// the reachability pre-screen enabled (unless
    /// `LCM_DISABLE_PREFILTER` is set).
    pub fn new(saeg: &Saeg) -> Self {
        Self::with_prefilter(saeg, true)
    }

    /// Like [`Self::new`], but with explicit control over the
    /// reachability pre-screen. With `prefilter == false` every query
    /// goes through the memo and solver — the differential-testing
    /// configuration.
    pub fn with_prefilter(saeg: &Saeg, prefilter: bool) -> Self {
        let t0 = Instant::now();
        let f = &saeg.acfg;
        let mut cnf = Cnf::new();
        let arch: Vec<Lit> = (0..f.blocks.len()).map(|_| cnf.fresh()).collect();
        let mut decision: HashMap<u32, Lit> = HashMap::new();
        for (bi, b) in f.iter_blocks() {
            if matches!(b.term, Terminator::CondBr { .. }) {
                decision.insert(bi.0, cnf.fresh());
            }
        }
        let mut lit_kind: HashMap<u32, LitKind> = HashMap::new();
        for (bi, &l) in arch.iter().enumerate() {
            lit_kind.insert(l.var().0, LitKind::Arch(bi as u32));
        }
        for (&bi, &l) in &decision {
            lit_kind.insert(l.var().0, LitKind::Decision(bi));
        }
        // Entry is executed.
        cnf.assert_lit(arch[0]);
        // In-edge literals per block; CFG edges for the pre-screen.
        let mut in_edges: Vec<Vec<Lit>> = vec![Vec::new(); f.blocks.len()];
        let mut edges = Relation::empty(f.blocks.len());
        let mut targets: HashMap<u32, (u32, u32)> = HashMap::new();
        for (bi, b) in f.iter_blocks() {
            match &b.term {
                Terminator::Br(t) => {
                    in_edges[t.0 as usize].push(arch[bi.0 as usize]);
                    edges.insert(bi.0 as usize, t.0 as usize);
                }
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => {
                    let d = decision[&bi.0];
                    let taken = cnf.and(arch[bi.0 as usize], d);
                    let not_taken = cnf.and(arch[bi.0 as usize], !d);
                    in_edges[then_bb.0 as usize].push(taken);
                    in_edges[else_bb.0 as usize].push(not_taken);
                    edges.insert(bi.0 as usize, then_bb.0 as usize);
                    edges.insert(bi.0 as usize, else_bb.0 as usize);
                    targets.insert(bi.0, (then_bb.0, else_bb.0));
                }
                Terminator::Ret(_) => {}
            }
        }
        for (bi, block_edges) in in_edges.iter().enumerate() {
            if bi == 0 {
                continue;
            }
            let any = cnf.or_all(block_edges);
            // arch[bi] <-> any
            cnf.assert_implies(arch[bi], any);
            cnf.assert_implies(any, arch[bi]);
        }
        let screen = if prefilter && !prefilter_disabled_by_env() {
            Some(BlockScreen {
                reach: edges.reflexive_transitive_closure(),
                targets,
            })
        } else {
            None
        };
        let stats = FeasStats {
            encode: t0.elapsed(),
            ..FeasStats::default()
        };
        Feasibility {
            cnf,
            arch,
            decision,
            lit_kind,
            screen,
            memo: Memo::new(),
            stack: Vec::new(),
            blocks_buf: Vec::new(),
            stats,
            governor: None,
            oracle_base: None,
            solver_used: false,
        }
    }

    /// Switches between persistent incremental solving (the default) and
    /// a fresh-solver-per-query oracle mode. Turning incrementality
    /// *off* snapshots the current solver as the pristine instance every
    /// later query re-starts from — call it right after construction,
    /// before any query, so the snapshot carries no learnt clauses.
    ///
    /// Findings are identical either way: engines consume only the
    /// sat/unsat verdict (plus the stack-derived witness seed), and
    /// satisfiability under assumptions is a semantic property learnt
    /// clauses cannot change. The mode exists for the differential tests
    /// and for memory-constrained runs.
    pub fn set_incremental(&mut self, on: bool) {
        self.oracle_base = if on {
            None
        } else {
            Some(Box::new(self.cnf.solver_mut().clone()))
        };
    }

    /// Attaches a per-function resource governor: subsequent queries
    /// honour its deadline and conflict budget, and once it trips every
    /// query answers "infeasible" so the engines drain quickly. With no
    /// budgets set and no faults armed the governed instance behaves
    /// identically to an ungoverned one.
    pub fn attach_governor(&mut self, gov: Arc<ResourceGovernor>) {
        self.governor = Some(gov);
    }

    /// Strided governor poll for engine loop heads. Always true when
    /// ungoverned; false once the governor has tripped.
    #[inline]
    pub fn governor_ok(&self) -> bool {
        self.governor.as_ref().is_none_or(|g| g.poll())
    }

    /// Governor gate at query entry: fires the `solver_abort` /
    /// `conflict_budget` fault sites and polls the deadline. Returns
    /// false when the query must not run (the governor has tripped).
    #[inline]
    fn governor_gate(&self) -> bool {
        let Some(g) = &self.governor else { return true };
        if g.fault_fires(site::SOLVER_ABORT) {
            g.trip(AnalysisError::SolverAbort);
            return false;
        }
        if g.fault_fires(site::CONFLICT_BUDGET) {
            g.trip(AnalysisError::BudgetExceeded {
                kind: BudgetKind::SolverConflicts,
            });
            return false;
        }
        g.poll()
    }

    /// One governed solver call over the current stack: applies the
    /// governor's remaining budget as [`SolveLimits`], charges the
    /// conflicts the call spent, and converts an abort into a trip.
    ///
    /// In the default incremental mode the call runs on the persistent
    /// solver, so its learnt clauses carry into the next query; in
    /// oracle mode it runs on a throwaway clone of the pristine
    /// encoding.
    fn solve_stack_governed(&mut self) -> SolveResult {
        let limits = self.governor.as_ref().map(|g| SolveLimits {
            max_conflicts: g.remaining_conflicts(),
            deadline: g.deadline(),
        });
        let mut span = lcm_obs::span("sat_solve", "sat");
        span.arg_u64("assumptions", self.stack.len() as u64);
        let (res, spent) = if let Some(base) = &self.oracle_base {
            let mut fresh = (**base).clone();
            if let Some(l) = limits {
                fresh.set_limits(l);
            }
            let (c0, _, _) = fresh.stats();
            let t0 = Instant::now();
            let res = fresh.solve_with(&self.stack);
            solve_latency().observe(t0.elapsed());
            let (c1, _, _) = fresh.stats();
            (res, c1 - c0)
        } else {
            if let Some(l) = limits {
                self.cnf.solver_mut().set_limits(l);
            }
            if self.solver_used {
                self.stats.solver_reuses += 1;
            }
            self.solver_used = true;
            let retained0 = self.cnf.solver_mut().learnt_stats().retained;
            let (c0, _, _) = self.cnf.solver_mut().stats();
            let t0 = Instant::now();
            let res = self.cnf.solver_mut().solve_with(&self.stack);
            solve_latency().observe(t0.elapsed());
            let (c1, _, _) = self.cnf.solver_mut().stats();
            let retained1 = self.cnf.solver_mut().learnt_stats().retained;
            self.stats.clauses_retained += retained1.saturating_sub(retained0) as u64;
            (res, c1 - c0)
        };
        drop(span);
        if let Some(g) = &self.governor {
            g.charge_conflicts(spent);
            if let SolveResult::Aborted(reason) = &res {
                match reason {
                    AbortReason::Deadline => g.trip_timeout(),
                    AbortReason::Conflicts => g.trip(AnalysisError::BudgetExceeded {
                        kind: BudgetKind::SolverConflicts,
                    }),
                }
            }
        }
        res
    }

    /// The literal asserting block `b` is architecturally executed.
    pub fn arch_lit(&self, b: BlockId) -> Lit {
        self.arch[b.0 as usize]
    }

    /// The branch-decision literal of the conditional branch terminating
    /// `b` (true = then-target taken architecturally), if any.
    pub fn decision_lit(&self, b: BlockId) -> Option<Lit> {
        self.decision.get(&b.0).copied()
    }

    /// Query counters and timings accumulated so far.
    pub fn stats(&self) -> FeasStats {
        self.stats
    }

    /// Records one engine-level check skipped by a hoisted pre-screen.
    pub fn note_prefilter_hit(&mut self) {
        self.stats.prefilter_hits += 1;
    }

    // ----- assumption stack ---------------------------------------------

    /// Pushes an assumption onto the current query's requirement set.
    pub fn push(&mut self, lit: Lit) {
        self.stack.push(lit);
    }

    /// Pushes every literal in `lits`.
    pub fn push_all(&mut self, lits: &[Lit]) {
        self.stack.extend_from_slice(lits);
    }

    /// The current stack depth; pass to [`Self::truncate`] to restore.
    pub fn mark(&self) -> usize {
        self.stack.len()
    }

    /// Pops assumptions back to a depth previously taken with
    /// [`Self::mark`].
    pub fn truncate(&mut self, mark: usize) {
        self.stack.truncate(mark);
    }

    /// The witness skeleton encoded by the current stack: required
    /// blocks (in push order, deduplicated) and the constrained branch's
    /// direction. Valid for any stack the engines build — literals from
    /// gate encodings are ignored.
    pub fn stack_seed(&self) -> WitnessSeed {
        let mut seed = WitnessSeed::default();
        for &lit in &self.stack {
            match self.lit_kind.get(&lit.var().0) {
                Some(&LitKind::Arch(b)) if lit.is_pos() => {
                    let b = BlockId(b);
                    if !seed.blocks.contains(&b) {
                        seed.blocks.push(b);
                    }
                }
                Some(&LitKind::Decision(c)) => {
                    if seed.branch_dir.is_none() {
                        seed.branch_dir = Some((BlockId(c), lit.is_pos()));
                    }
                }
                _ => {}
            }
        }
        seed
    }

    /// Decides the current stack from block reachability alone, when it
    /// lies in the decidable fragment: positive `A[b]` literals plus at
    /// most one decision literal whose branch block is itself required.
    ///
    /// The answer is exact, not conservative. In an acyclic A-CFG a set
    /// of blocks lies on a common root path iff every block is
    /// entry-reachable and every pair is reach-comparable (paths in a
    /// DAG concatenate without revisiting); a decision constraint
    /// additionally forces every required block after the branch to be
    /// reachable *through the chosen target*.
    fn screen_stack(&mut self) -> Option<bool> {
        let screen = self.screen.as_ref()?;
        self.blocks_buf.clear();
        let mut dec: Option<(u32, bool)> = None;
        for &lit in &self.stack {
            match self.lit_kind.get(&lit.var().0) {
                Some(&LitKind::Arch(b)) => {
                    if !lit.is_pos() {
                        return None;
                    }
                    self.blocks_buf.push(b);
                }
                Some(&LitKind::Decision(c)) => {
                    let then = lit.is_pos();
                    match dec {
                        None => dec = Some((c, then)),
                        Some((c0, then0)) if c0 == c => {
                            if then0 != then {
                                // d ∧ ¬d on the same branch.
                                return Some(false);
                            }
                        }
                        Some(_) => return None,
                    }
                }
                None => return None,
            }
        }
        let blocks = &self.blocks_buf;
        for &b in blocks {
            if !screen.reach.contains(0, b as usize) {
                return Some(false);
            }
        }
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                let (a, b) = (blocks[i] as usize, blocks[j] as usize);
                if a != b && !screen.reach.contains(a, b) && !screen.reach.contains(b, a) {
                    return Some(false);
                }
            }
        }
        if let Some((c, then)) = dec {
            // The constraint is only exactly checkable when the branch
            // block itself is required to execute.
            if !blocks.contains(&c) {
                return None;
            }
            let (then_t, else_t) = screen.targets[&c];
            let t = if then { then_t } else { else_t } as usize;
            for &b in blocks {
                if b == c {
                    continue;
                }
                if screen.reach.contains(c as usize, b as usize)
                    && !screen.reach.contains(t, b as usize)
                {
                    return Some(false);
                }
            }
        }
        Some(true)
    }

    /// Checks whether the current assumption stack is jointly
    /// satisfiable. Answered by the reachability pre-screen when
    /// possible; otherwise by the trie memo, then the solver.
    /// Allocation-free on screened and memoized queries.
    /// Once the attached governor (if any) trips, every call answers
    /// `false` — engines treat the remaining candidates as infeasible
    /// and drain quickly; the driver reports the function `Degraded`.
    pub fn check_stack(&mut self) -> bool {
        if !self.governor_gate() {
            return false;
        }
        if let Some(ans) = self.screen_stack() {
            self.stats.queries_avoided += 1;
            return ans;
        }
        self.stats.queries += 1;
        let node = self.memo.locate(&self.stack);
        if let Some(r) = self.memo.nodes[node].result {
            self.stats.memo_hits += 1;
            return r;
        }
        let t0 = Instant::now();
        let res = self.solve_stack_governed();
        self.stats.solve += t0.elapsed();
        if res.is_aborted() {
            // Not an answer: leave the memo untouched.
            return false;
        }
        let r = res.is_sat();
        self.memo.nodes[node].result = Some(r);
        r
    }

    /// Like [`Self::check_stack`] but returning the architectural path
    /// (executed blocks) of a witness, if satisfiable. Only the
    /// infeasible case can be screened — a feasible answer still needs
    /// the model.
    pub fn witness_path_stack(&mut self) -> Option<Vec<BlockId>> {
        if !self.governor_gate() {
            return None;
        }
        if self.screen_stack() == Some(false) {
            self.stats.queries_avoided += 1;
            return None;
        }
        self.stats.queries += 1;
        let node = self.memo.locate(&self.stack);
        if let Some(r) = &self.memo.nodes[node].path {
            self.stats.memo_hits += 1;
            return r.clone();
        }
        let t0 = Instant::now();
        let res = self.solve_stack_governed();
        self.stats.solve += t0.elapsed();
        let r = match res {
            SolveResult::Sat(m) => Some(
                self.arch
                    .iter()
                    .enumerate()
                    .filter(|(_, &l)| m.value(l))
                    .map(|(i, _)| BlockId(i as u32))
                    .collect(),
            ),
            SolveResult::Unsat(_) => None,
            // Not an answer: leave the memo untouched.
            SolveResult::Aborted(_) => return None,
        };
        self.memo.nodes[node].path = Some(r.clone());
        r
    }

    // ----- slice API (stack-independent) --------------------------------

    /// Checks whether the required literals are jointly satisfiable.
    ///
    /// Equivalent to pushing `required` onto an empty stack and calling
    /// [`Self::check_stack`]; shares the same memo.
    pub fn check(&mut self, required: &[Lit]) -> bool {
        let mark = self.mark();
        let base: Vec<Lit> = std::mem::take(&mut self.stack);
        self.stack.extend_from_slice(required);
        let r = self.check_stack();
        self.stack = base;
        debug_assert_eq!(self.mark(), mark);
        r
    }

    /// Like [`Self::check`] but returning the architectural path (executed
    /// blocks) of a witness, if satisfiable. Memoized like `check`.
    pub fn witness_path(&mut self, required: &[Lit]) -> Option<Vec<BlockId>> {
        let base: Vec<Lit> = std::mem::take(&mut self.stack);
        self.stack.extend_from_slice(required);
        let r = self.witness_path_stack();
        self.stack = base;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Saeg;
    use lcm_core::speculation::SpeculationConfig;

    fn feas(src: &str, f: &str) -> (Saeg, Feasibility) {
        let m = lcm_minic::compile(src).unwrap();
        let s = Saeg::build(&m, f, SpeculationConfig::default()).unwrap();
        let fe = Feasibility::new(&s);
        (s, fe)
    }

    #[test]
    fn straight_line_all_blocks_executed() {
        let (s, mut fe) = feas("int G; void f() { G = 1; G = 2; }", "f");
        let req: Vec<Lit> = s.topo_blocks().iter().map(|&b| fe.arch_lit(b)).collect();
        assert!(fe.check(&req));
    }

    #[test]
    fn diamond_sides_mutually_exclusive() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        // Find the two store blocks.
        let stores: Vec<_> = s
            .events
            .iter()
            .filter(|e| e.kind == crate::build::EventKind::Store)
            .collect();
        // Skip the parameter spill store (entry block).
        let body_stores: Vec<_> = stores
            .iter()
            .filter(|e| e.block != lcm_ir::BlockId(0))
            .collect();
        assert_eq!(body_stores.len(), 2);
        let l1 = fe.arch_lit(body_stores[0].block);
        let l2 = fe.arch_lit(body_stores[1].block);
        assert!(fe.check(&[l1]));
        assert!(fe.check(&[l2]));
        assert!(
            !fe.check(&[l1, l2]),
            "both sides of a diamond cannot co-execute"
        );
    }

    #[test]
    fn nested_if_requires_outer() {
        let (s, mut fe) = feas(
            "int G; void f(int a, int b) { if (a) { if (b) { G = 1; } } else { G = 2; } }",
            "f",
        );
        let inner_store = s
            .events
            .iter()
            .find(|e| e.kind == crate::build::EventKind::Store && e.block != lcm_ir::BlockId(0))
            .unwrap();
        // inner store together with the else-side store: infeasible.
        let else_store = s
            .events
            .iter()
            .rfind(|e| e.kind == crate::build::EventKind::Store && e.block != lcm_ir::BlockId(0))
            .unwrap();
        assert_ne!(inner_store.block, else_store.block);
        assert!(fe.check(&[fe.arch_lit(inner_store.block)]));
        let (a, b) = (
            fe.arch_lit(inner_store.block),
            fe.arch_lit(else_store.block),
        );
        assert!(!fe.check(&[a, b]));
    }

    #[test]
    fn witness_path_returns_consistent_blocks() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } G = 3; }",
            "f",
        );
        let last = s.events.iter().last().unwrap();
        let req = [fe.arch_lit(last.block)];
        let path = fe.witness_path(&req).unwrap();
        assert!(path.contains(&lcm_ir::BlockId(0)));
        assert!(path.contains(&last.block));
    }

    #[test]
    fn decision_literal_forces_direction() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        let br = &s.branches[0];
        let d = fe.decision_lit(br.block).unwrap();
        let then_lit = fe.arch_lit(br.then_bb);
        let else_lit = fe.arch_lit(br.else_bb);
        assert!(!fe.check(&[d, else_lit]));
        assert!(fe.check(&[d, then_lit]));
        assert!(!fe.check(&[!d, then_lit]));
    }

    #[test]
    fn stack_api_matches_slice_api() {
        let (s, mut fe) = feas(
            "int G; void f(int c, int d) { if (c) { G = 1; } if (d) { G = 2; } G = 3; }",
            "f",
        );
        let mut fresh = Feasibility::new(&s);
        let blocks = s.topo_blocks();
        // Exercise every pair through both APIs on independent instances.
        for &a in blocks {
            for &b in blocks {
                let req = [fe.arch_lit(a), fe.arch_lit(b)];
                let via_slice = fresh.check(&req);

                let m = fe.mark();
                fe.push(fe.arch_lit(a));
                fe.push(fe.arch_lit(b));
                let via_stack = fe.check_stack();
                fe.truncate(m);
                assert_eq!(via_slice, via_stack, "blocks {a:?},{b:?}");
            }
        }
        assert_eq!(fe.mark(), 0);
    }

    #[test]
    fn memo_hits_accumulate() {
        // Pre-screen disabled so the queries reach the memo layer.
        let m = lcm_minic::compile("int G; void f(int c) { if (c) { G = 1; } }").unwrap();
        let s = Saeg::build(&m, "f", SpeculationConfig::default()).unwrap();
        let mut fe = Feasibility::with_prefilter(&s, false);
        let lit = fe.arch_lit(s.topo_blocks()[0]);
        assert!(fe.check(&[lit]));
        assert!(fe.check(&[lit]));
        assert!(fe.check(&[lit, lit])); // dedups to the same trie node
        let st = fe.stats();
        assert_eq!(st.queries, 3);
        assert_eq!(st.memo_hits, 2);
        assert_eq!(st.queries_avoided, 0);
    }

    #[test]
    fn prescreen_counts_avoided_queries() {
        let (s, mut fe) = feas("int G; void f(int c) { if (c) { G = 1; } }", "f");
        let lit = fe.arch_lit(s.topo_blocks()[0]);
        assert!(fe.check(&[lit]));
        assert!(fe.check(&[lit]));
        let st = fe.stats();
        assert_eq!(st.queries, 0, "screened queries never reach the solver");
        assert_eq!(st.queries_avoided, 2);
    }

    #[test]
    fn prescreen_matches_solver_on_block_pairs_and_decisions() {
        let srcs = [
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } G = 3; }",
            "int G; void f(int a, int b) { if (a) { if (b) { G = 1; } } else { G = 2; } }",
            "int G; void f(int c, int d) { if (c) { G = 1; } if (d) { G = 2; } G = 3; }",
        ];
        for src in srcs {
            let m = lcm_minic::compile(src).unwrap();
            let s = Saeg::build(&m, "f", SpeculationConfig::default()).unwrap();
            let mut screened = Feasibility::new(&s);
            let mut solved = Feasibility::with_prefilter(&s, false);
            assert!(screened.screen.is_some());
            let blocks = s.topo_blocks().to_vec();
            for &a in &blocks {
                for &b in &blocks {
                    let req = [screened.arch_lit(a), screened.arch_lit(b)];
                    assert_eq!(
                        screened.check(&req),
                        solved.check(&req),
                        "{src}: {a:?},{b:?}"
                    );
                    // With one decision literal on a required branch.
                    for &c in &blocks {
                        if let Some(d) = screened.decision_lit(c) {
                            for dir in [d, !d] {
                                let req3 = [
                                    screened.arch_lit(a),
                                    screened.arch_lit(b),
                                    screened.arch_lit(c),
                                    dir,
                                ];
                                assert_eq!(
                                    screened.check(&req3),
                                    solved.check(&req3),
                                    "{src}: {a:?},{b:?} br {c:?}"
                                );
                            }
                        }
                    }
                }
            }
            // Everything decidable here lies in the screened fragment.
            assert_eq!(screened.stats().queries, 0);
            assert!(screened.stats().queries_avoided > 0);
        }
    }

    #[test]
    fn contradictory_decision_screens_infeasible() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        let br = &s.branches[0];
        let d = fe.decision_lit(br.block).unwrap();
        let b = fe.arch_lit(br.block);
        assert!(!fe.check(&[b, d, !d]));
        assert_eq!(fe.stats().queries, 0);
    }

    #[test]
    fn stack_seed_recovers_blocks_and_direction() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        let br = &s.branches[0];
        let d = fe.decision_lit(br.block).unwrap();
        fe.push(fe.arch_lit(br.block));
        fe.push(fe.arch_lit(br.block)); // duplicates collapse
        fe.push(!d);
        fe.push(fe.arch_lit(br.else_bb));
        let seed = fe.stack_seed();
        assert_eq!(seed.blocks, vec![br.block, br.else_bb]);
        assert_eq!(seed.branch_dir, Some((br.block, false)));
    }

    #[test]
    fn oracle_mode_matches_incremental_and_never_reuses() {
        let src = "int G; void f(int a, int b) { if (a) { if (b) { G = 1; } } else { G = 2; } }";
        let m = lcm_minic::compile(src).unwrap();
        let s = Saeg::build(&m, "f", SpeculationConfig::default()).unwrap();
        // Pre-screen off so every query is solver traffic.
        let mut inc = Feasibility::with_prefilter(&s, false);
        let mut fresh = Feasibility::with_prefilter(&s, false);
        fresh.set_incremental(false);
        let blocks = s.topo_blocks().to_vec();
        for &a in &blocks {
            for &b in &blocks {
                let req = [inc.arch_lit(a), inc.arch_lit(b)];
                assert_eq!(inc.check(&req), fresh.check(&req), "{a:?},{b:?}");
            }
        }
        assert!(
            inc.stats().solver_reuses > 0,
            "persistent solver must be reused"
        );
        assert_eq!(
            fresh.stats().solver_reuses,
            0,
            "oracle mode must never reuse a solver"
        );
    }

    #[test]
    fn truncate_restores_outer_assumptions() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        let br = &s.branches[0];
        let d = fe.decision_lit(br.block).unwrap();
        fe.push(d);
        let m = fe.mark();
        fe.push(fe.arch_lit(br.else_bb));
        assert!(!fe.check_stack());
        fe.truncate(m);
        fe.push(fe.arch_lit(br.then_bb));
        assert!(fe.check_stack());
    }
}
