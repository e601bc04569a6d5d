//! Block reachability decides path feasibility exactly.
//!
//! `Feasibility` answers every assumption stack from the reachability
//! closure of the A-CFG. This test keeps the proof that each answer is
//! the path formula's: it builds the CNF encoding of Fig. 7's edge
//! formulas (an architectural literal `A[b]` per block, a decision
//! literal per conditional branch, `A[b] ⇔ ⋁ (A[p] ∧ edge taken)`, the
//! entry asserted), solves it with `lcm-sat` under the same
//! requirements, and compares the two on random acyclic CFGs and random
//! stacks of everything the stack API can express: repeated blocks,
//! blocks unreachable from the entry, and one decision in either
//! direction anywhere after its branch block.

use lcm_aeg::{Feasibility, Saeg, WitnessSeed};
use lcm_core::speculation::SpeculationConfig;
use lcm_ir::{BlockId, Function, Terminator, Ty};
use lcm_sat::cnf::Cnf;
use lcm_sat::Lit;
use proptest::prelude::*;

/// One push onto the assumption stack.
#[derive(Debug, Clone, Copy)]
enum Push {
    Block(u32),
    Decision(u32, bool),
}

impl Push {
    fn apply(self, feas: &mut Feasibility) {
        match self {
            Push::Block(b) => feas.push_block(BlockId(b)),
            Push::Decision(b, then) => feas.push_decision(BlockId(b), then),
        }
    }

    fn block(self) -> u32 {
        match self {
            Push::Block(b) | Push::Decision(b, _) => b,
        }
    }
}

/// Fig. 7's path formula over one function's blocks.
struct PathFormula {
    cnf: Cnf,
    arch: Vec<Lit>,
    decision: Vec<Option<Lit>>,
}

impl PathFormula {
    fn encode(f: &Function) -> PathFormula {
        let mut cnf = Cnf::new();
        let arch: Vec<Lit> = f.blocks.iter().map(|_| cnf.fresh()).collect();
        let decision: Vec<Option<Lit>> = f
            .blocks
            .iter()
            .map(|b| matches!(b.term, Terminator::CondBr { .. }).then(|| cnf.fresh()))
            .collect();
        cnf.assert_lit(arch[0]);
        let mut in_edges: Vec<Vec<Lit>> = vec![Vec::new(); f.blocks.len()];
        for (bi, b) in f.iter_blocks() {
            let a = arch[bi.0 as usize];
            match &b.term {
                Terminator::Br(t) => in_edges[t.0 as usize].push(a),
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => {
                    let d = decision[bi.0 as usize].expect("branch has a decision literal");
                    let taken = cnf.and(a, d);
                    let not_taken = cnf.and(a, !d);
                    in_edges[then_bb.0 as usize].push(taken);
                    in_edges[else_bb.0 as usize].push(not_taken);
                }
                Terminator::Ret(_) => {}
            }
        }
        for (bi, edges) in in_edges.iter().enumerate().skip(1) {
            let any = cnf.or_all(edges);
            cnf.assert_implies(arch[bi], any);
            cnf.assert_implies(any, arch[bi]);
        }
        PathFormula {
            cnf,
            arch,
            decision,
        }
    }

    fn satisfiable(&mut self, stack: &[Push]) -> bool {
        let lits: Vec<Lit> = stack
            .iter()
            .map(|&p| match p {
                Push::Block(b) => self.arch[b as usize],
                Push::Decision(b, then) => {
                    let d = self.decision[b as usize].expect("decision on a branch");
                    if then {
                        d
                    } else {
                        !d
                    }
                }
            })
            .collect();
        self.cnf.solver_mut().solve_with(&lits).is_sat()
    }
}

/// A function of `terms.len()` blocks where block `i` ends in a return,
/// a jump, or a conditional branch to later blocks (so the CFG is
/// acyclic and some blocks may be unreachable from the entry). Each
/// `(kind, x, y)` picks block `i`'s terminator and targets.
fn acyclic_function(terms: &[(u8, u32, u32)]) -> Function {
    let n = terms.len() as u32;
    let mut f = Function::new("f", &[("c", Ty::Int)]);
    for i in 1..n {
        f.add_block(&format!("b{i}"));
    }
    let cond = f.param(0);
    for (i, &(kind, x, y)) in (0..n - 1).zip(terms) {
        let later = |v: u32| BlockId(i + 1 + v % (n - 1 - i));
        let term = match kind {
            0 => Terminator::Ret(None),
            1 => Terminator::Br(later(x)),
            _ => Terminator::CondBr {
                cond,
                then_bb: later(x),
                else_bb: later(y),
            },
        };
        f.set_term(BlockId(i), term);
    }
    f
}

/// The stack `picks` describes over `f`: block pushes, plus one decision
/// on a pushed branch block, inserted somewhere after that push, when
/// `decision` asks for one and a branch block was pushed.
fn stack_of(f: &Function, picks: &[u32], decision: Option<(u32, u32, bool)>) -> Vec<Push> {
    let n = f.blocks.len() as u32;
    let mut ops: Vec<Push> = picks.iter().map(|&p| Push::Block(p % n)).collect();
    let branches: Vec<usize> = (0..ops.len())
        .filter(|&i| {
            let b = ops[i].block() as usize;
            matches!(f.blocks[b].term, Terminator::CondBr { .. })
        })
        .collect();
    if let (Some((anchor, at, then)), false) = (decision, branches.is_empty()) {
        let anchor = branches[anchor as usize % branches.len()];
        let at = anchor + 1 + at as usize % (ops.len() - anchor);
        ops.insert(at, Push::Decision(ops[anchor].block(), then));
    }
    ops
}

/// The seed a stack encodes: its blocks deduplicated in push order, and
/// its decision.
fn expected_seed(ops: &[Push]) -> WitnessSeed {
    let mut seed = WitnessSeed::default();
    for &p in ops {
        let b = BlockId(p.block());
        match p {
            Push::Block(_) if !seed.blocks.contains(&b) => seed.blocks.push(b),
            Push::Block(_) => {}
            Push::Decision(_, then) => seed.branch_dir = Some((b, then)),
        }
    }
    seed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn reachability_agrees_with_the_path_formula(
        terms in (2..=9usize).prop_flat_map(|n| {
            proptest::collection::vec((0..4u8, any::<u32>(), any::<u32>()), n..=n)
        }),
        picks in proptest::collection::vec(any::<u32>(), 0..=6),
        decision in (any::<bool>(), any::<u32>(), any::<u32>(), any::<bool>())
            .prop_map(|(on, anchor, at, then)| on.then_some((anchor, at, then))),
        cut in any::<usize>(),
    ) {
        let f = acyclic_function(&terms);
        let saeg = Saeg::from_acfg("f", f.clone(), SpeculationConfig::default());
        let mut feas = Feasibility::new(&saeg);
        let mut formula = PathFormula::encode(&f);
        let ops = stack_of(&f, &picks, decision);

        // 1. Every prefix of the stack is decided as the formula decides it.
        let mut marks = vec![feas.mark()];
        prop_assert_eq!(feas.check_stack(), formula.satisfiable(&[]), "empty stack");
        for i in 0..ops.len() {
            ops[i].apply(&mut feas);
            marks.push(feas.mark());
            prop_assert_eq!(
                feas.check_stack(),
                formula.satisfiable(&ops[..=i]),
                "{:?} on {:?}",
                &ops[..=i],
                &terms
            );
        }

        // 2. The seed is the stack's blocks in push order and its decision.
        prop_assert_eq!(feas.stack_seed(), expected_seed(&ops));

        // 3. Pushing a block already required never changes the answer
        //    (the engines' duplicate-block shortcut relies on it).
        let answer = feas.check_stack();
        for p in &ops {
            let m = feas.mark();
            feas.push_block(BlockId(p.block()));
            prop_assert_eq!(feas.check_stack(), answer, "re-pushed {:?} onto {:?}", p, &ops);
            feas.truncate(m);
        }

        // Truncating to an earlier mark restores that prefix, decision
        // included.
        let k = cut % (ops.len() + 1);
        feas.truncate(marks[k]);
        prop_assert_eq!(feas.check_stack(), formula.satisfiable(&ops[..k]), "truncated to {}", k);
        prop_assert_eq!(feas.stack_seed(), expected_seed(&ops[..k]));
    }
}
