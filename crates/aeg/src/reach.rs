//! Architectural path feasibility (§5.2) as block reachability.
//!
//! The paper's Clou discharges Fig. 7's path formulas with an SMT
//! solver: each block gets an architectural-execution literal `A[b]`,
//! each conditional branch a decision literal, and
//! `A[b] ⇔ ⋁ (A[p] ∧ edge taken)`. Here the A-CFG is acyclic, so every
//! model of those formulas is exactly one root-to-return path (entry is
//! asserted, and the in-edge equivalences make the executed set follow
//! the branch decisions). Every query the engines ask is a set of blocks
//! that must all execute plus at most one direction of a required
//! branch, and such a query is decided *exactly* by the
//! reflexive-transitive reachability relation over blocks: O(k²) bit
//! probes for k requirements, no solver. `tests/feasibility.rs` checks
//! this against the CNF encoding of the edge formulas solved by
//! `lcm-sat`.
//!
//! Engines drive queries through an **assumption stack**
//! ([`Feasibility::push_block`], [`Feasibility::push_decision`],
//! [`Feasibility::mark`], [`Feasibility::truncate`]) instead of cloning
//! a base request per candidate, so the hot loops allocate nothing per
//! query. Counters are tracked in [`FeasStats`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm_core::fault::site;
use lcm_core::govern::{AnalysisError, BudgetKind, ResourceGovernor};
use lcm_ir::{BlockId, Terminator};
use lcm_relalg::Relation;

use crate::build::Saeg;

/// Query counters and the closure-build time for one [`Feasibility`]
/// instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeasStats {
    /// Feasibility questions answered from block reachability: every
    /// [`Feasibility::check_stack`] call the governor lets through. The
    /// name dates from when undecided queries went on to a SAT solver;
    /// the metric built from it and the recorded benchmarks keep it.
    pub queries_avoided: u64,
    /// Engine-level candidate checks skipped entirely because a hoisted
    /// pre-screen (window bitsets, duplicate-block fast paths) proved the
    /// stack unchanged.
    pub prefilter_hits: u64,
    /// Time spent building the reachability closure.
    pub encode: Duration,
}

/// The architectural skeleton of a witness, recoverable from an
/// assumption stack: the blocks required to execute and the direction
/// of the constrained branch, if any.
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

/// A reusable feasibility checker over one S-AEG. One instance serves
/// one function's engine run, on one thread.
#[derive(Debug)]
pub struct Feasibility {
    /// Reflexive-transitive reachability over A-CFG blocks.
    reach: Relation,
    /// `(then, else)` targets of each block ending in a conditional
    /// branch.
    targets: Vec<Option<(u32, u32)>>,
    /// Required blocks, in push order. A decision pushes its branch
    /// block again, so `mark`/`truncate` undo it like any other push.
    stack: Vec<u32>,
    /// The stack's branch decision: the index of its entry in `stack`
    /// and its direction (`true` = then-target taken architecturally).
    decision: Option<(usize, bool)>,
    stats: FeasStats,
    /// Per-function resource governor, when the caller runs governed.
    governor: Option<Arc<ResourceGovernor>>,
}

impl Feasibility {
    /// Builds the block-reachability closure of the S-AEG's A-CFG.
    pub fn new(saeg: &Saeg) -> Self {
        let t0 = Instant::now();
        let f = &saeg.acfg;
        let mut edges = Relation::empty(f.blocks.len());
        let mut targets = vec![None; f.blocks.len()];
        for (bi, b) in f.iter_blocks() {
            let from = bi.0 as usize;
            match &b.term {
                Terminator::Br(t) => edges.insert(from, t.0 as usize),
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => {
                    edges.insert(from, then_bb.0 as usize);
                    edges.insert(from, else_bb.0 as usize);
                    targets[from] = Some((then_bb.0, else_bb.0));
                }
                Terminator::Ret(_) => {}
            }
        }
        let reach = edges.reflexive_transitive_closure();
        Feasibility {
            reach,
            targets,
            stack: Vec::new(),
            decision: None,
            stats: FeasStats {
                encode: t0.elapsed(),
                ..FeasStats::default()
            },
            governor: None,
        }
    }

    /// Attaches a per-function resource governor: subsequent queries
    /// honour its deadline, and once it trips every query answers
    /// "infeasible" so the engines drain quickly. With no budgets set
    /// and no faults armed the governed instance behaves identically to
    /// an ungoverned one.
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

    /// Query counters and timings accumulated so far.
    pub fn stats(&self) -> FeasStats {
        self.stats
    }

    /// Records one engine-level check skipped by a hoisted pre-screen.
    pub fn note_prefilter_hit(&mut self) {
        self.stats.prefilter_hits += 1;
    }

    // ----- assumption stack ---------------------------------------------

    /// Requires block `b` to execute architecturally.
    pub fn push_block(&mut self, b: BlockId) {
        self.stack.push(b.0);
    }

    /// Requires the conditional branch ending block `b` to go to its
    /// then-target (`then == true`) or its else-target architecturally.
    /// `b` must already be on the stack, and a stack holds at most one
    /// decision: together these keep every stack exactly decidable by
    /// reachability.
    pub fn push_decision(&mut self, b: BlockId, then: bool) {
        debug_assert!(self.decision.is_none(), "one branch decision per stack");
        debug_assert!(
            self.requires(b),
            "a decision's branch block is pushed first"
        );
        debug_assert!(
            self.targets[b.0 as usize].is_some(),
            "decisions sit on conditional branches"
        );
        self.decision = Some((self.stack.len(), then));
        self.stack.push(b.0);
    }

    /// Whether block `b` is already required by the stack.
    pub fn requires(&self, b: BlockId) -> bool {
        self.stack.contains(&b.0)
    }

    /// The current stack depth; pass to [`Self::truncate`] to restore.
    pub fn mark(&self) -> usize {
        self.stack.len()
    }

    /// Pops requirements back to a depth previously taken with
    /// [`Self::mark`].
    pub fn truncate(&mut self, mark: usize) {
        self.stack.truncate(mark);
        if self.decision.is_some_and(|(at, _)| at >= mark) {
            self.decision = None;
        }
    }

    /// The witness skeleton encoded by the current stack: required
    /// blocks (in push order, deduplicated) and the constrained branch's
    /// direction.
    pub fn stack_seed(&self) -> WitnessSeed {
        let mut blocks: Vec<BlockId> = Vec::new();
        for &b in &self.stack {
            if !blocks.contains(&BlockId(b)) {
                blocks.push(BlockId(b));
            }
        }
        WitnessSeed {
            blocks,
            branch_dir: self
                .decision
                .map(|(at, then)| (BlockId(self.stack[at]), then)),
        }
    }

    /// Whether some root-to-return path executes every required block
    /// and follows the decision.
    ///
    /// In an acyclic A-CFG a set of blocks lies on a common root path
    /// iff every block is entry-reachable and every pair is
    /// reach-comparable (paths in a DAG concatenate without revisiting);
    /// a decision additionally forces every required block after the
    /// branch to be reachable *through the chosen target*.
    fn screen(&self) -> bool {
        let (reach, blocks) = (&self.reach, &self.stack);
        if !blocks.iter().all(|&b| reach.contains(0, b as usize)) {
            return false;
        }
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                let (a, b) = (blocks[i] as usize, blocks[j] as usize);
                if a != b && !reach.contains(a, b) && !reach.contains(b, a) {
                    return false;
                }
            }
        }
        let Some((at, then)) = self.decision else {
            return true;
        };
        let c = blocks[at] as usize;
        let (then_t, else_t) = self.targets[c].expect("decisions sit on conditional branches");
        let t = if then { then_t } else { else_t } as usize;
        blocks.iter().all(|&b| {
            b as usize == c || !reach.contains(c, b as usize) || reach.contains(t, b as usize)
        })
    }

    /// Checks whether the current stack's requirements can hold
    /// together on one architectural path. Allocation-free.
    /// Once the attached governor (if any) trips, every call answers
    /// `false` — engines treat the remaining candidates as infeasible
    /// and drain quickly; the driver reports the function `Degraded`.
    pub fn check_stack(&mut self) -> bool {
        if !self.governor_gate() {
            return false;
        }
        self.stats.queries_avoided += 1;
        self.screen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{EventKind, Saeg};
    use lcm_core::speculation::SpeculationConfig;

    fn feas(src: &str, f: &str) -> (Saeg, Feasibility) {
        let m = lcm_minic::compile(src).unwrap();
        let s = Saeg::build(&m, f, SpeculationConfig::default()).unwrap();
        let fe = Feasibility::new(&s);
        (s, fe)
    }

    /// Checks `blocks` on an otherwise empty stack.
    fn check(fe: &mut Feasibility, blocks: &[BlockId]) -> bool {
        for &b in blocks {
            fe.push_block(b);
        }
        let r = fe.check_stack();
        fe.truncate(0);
        r
    }

    /// Blocks holding a store, other than the entry's parameter spills.
    fn store_blocks(s: &Saeg) -> Vec<BlockId> {
        s.events
            .iter()
            .filter(|e| e.kind == EventKind::Store && e.block != BlockId(0))
            .map(|e| e.block)
            .collect()
    }

    #[test]
    fn straight_line_all_blocks_executed() {
        let (s, mut fe) = feas("int G; void f() { G = 1; G = 2; }", "f");
        assert!(check(&mut fe, s.topo_blocks()));
    }

    #[test]
    fn diamond_sides_mutually_exclusive() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        let stores = store_blocks(&s);
        assert_eq!(stores.len(), 2);
        assert!(check(&mut fe, &stores[..1]));
        assert!(check(&mut fe, &stores[1..]));
        assert!(
            !check(&mut fe, &stores),
            "both sides of a diamond cannot co-execute"
        );
    }

    #[test]
    fn nested_if_requires_outer() {
        let (s, mut fe) = feas(
            "int G; void f(int a, int b) { if (a) { if (b) { G = 1; } } else { G = 2; } }",
            "f",
        );
        // The inner store together with the else-side store: infeasible.
        let stores = store_blocks(&s);
        let (inner, else_side) = (stores[0], *stores.last().unwrap());
        assert_ne!(inner, else_side);
        assert!(check(&mut fe, &[inner]));
        assert!(!check(&mut fe, &[inner, else_side]));
    }

    #[test]
    fn decision_forces_direction() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        let br = &s.branches[0];
        for (then, target, expect) in [
            (true, br.else_bb, false),
            (true, br.then_bb, true),
            (false, br.then_bb, false),
            (false, br.else_bb, true),
        ] {
            fe.push_block(br.block);
            fe.push_decision(br.block, then);
            fe.push_block(target);
            assert_eq!(fe.check_stack(), expect, "then={then} target {target:?}");
            fe.truncate(0);
        }
    }

    #[test]
    fn every_check_counts_as_avoided() {
        let (s, mut fe) = feas("int G; void f(int c) { if (c) { G = 1; } }", "f");
        let entry = s.topo_blocks()[0];
        assert!(check(&mut fe, &[entry]));
        assert!(check(&mut fe, &[entry]));
        assert_eq!(fe.stats().queries_avoided, 2);
    }

    #[test]
    fn stack_seed_recovers_blocks_and_direction() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        let br = &s.branches[0];
        fe.push_block(br.block);
        fe.push_block(br.block); // duplicates collapse
        fe.push_decision(br.block, false);
        fe.push_block(br.else_bb);
        let seed = fe.stack_seed();
        assert_eq!(seed.blocks, vec![br.block, br.else_bb]);
        assert_eq!(seed.branch_dir, Some((br.block, false)));
    }

    #[test]
    fn truncate_restores_outer_assumptions() {
        let (s, mut fe) = feas(
            "int G; void f(int c) { if (c) { G = 1; } else { G = 2; } }",
            "f",
        );
        let br = &s.branches[0];
        fe.push_block(br.block);
        fe.push_decision(br.block, true);
        let m = fe.mark();
        fe.push_block(br.else_bb);
        assert!(!fe.check_stack());
        fe.truncate(m);
        fe.push_block(br.then_bb);
        assert!(fe.check_stack());
        // Popping below the decision drops it too.
        fe.truncate(1);
        fe.push_block(br.else_bb);
        assert!(fe.check_stack());
        assert_eq!(fe.stack_seed().branch_dir, None);
    }
}
