//! Abstract-CFG construction (§5.1): loop summarization and inlining.
//!
//! Clou eliminates loops by observing that, given may-alias summaries, all
//! relevant `com`/`comx` interactions involving loop instructions are
//! modelled with **two** loop unrollings; calls are inlined exhaustively
//! with recursive calls expanded twice; calls to undefined functions are
//! interpreted as a load **or** store to one of their pointer operands
//! (a *havoc*), with the solver considering all options.
//!
//! [`build_acfg`] runs the whole pipeline for one function of a module.

use std::collections::HashMap;

use crate::cfg::{has_cycle, natural_loops};
use crate::{BlockId, Function, Inst, InstId, Module, Terminator, Ty, Value};

/// Errors from A-CFG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcfgError {
    /// The function was not found in the module.
    UnknownFunction(String),
    /// Loop structure did not reduce (irreducible control flow).
    Irreducible(String),
}

impl std::fmt::Display for AcfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcfgError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            AcfgError::Irreducible(n) => write!(f, "irreducible control flow in `{n}`"),
        }
    }
}

impl std::error::Error for AcfgError {}

/// How many times loops are unrolled and recursion expanded (§5.1).
pub const SUMMARY_COPIES: usize = 2;

/// Builds the Abstract CFG for `fname`: inlines all calls (recursion
/// expanded [`SUMMARY_COPIES`] times, undefined calls havocked) and then
/// unrolls all loops [`SUMMARY_COPIES`] times. The result is loop- and
/// call-free.
///
/// # Errors
///
/// Returns [`AcfgError::UnknownFunction`] if `fname` is not in the module,
/// or [`AcfgError::Irreducible`] if loop elimination does not converge.
pub fn build_acfg(module: &Module, fname: &str) -> Result<Function, AcfgError> {
    let f = module
        .function(fname)
        .ok_or_else(|| AcfgError::UnknownFunction(fname.to_string()))?;
    let mut out = f.clone();
    inline_all_calls(&mut out, module);
    unroll_loops(&mut out, SUMMARY_COPIES)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Value cloning helpers
// ---------------------------------------------------------------------

/// Clones the pure operand tree of `v` inside `f`, remapping any reference
/// found in `map` (scheduled instructions already cloned). Memoized in
/// `memo`.
fn clone_pure(
    f: &mut Function,
    v: Value,
    map: &HashMap<u32, u32>,
    memo: &mut HashMap<u32, u32>,
) -> Value {
    if let Some(&m) = map.get(&v.0) {
        return InstId(m);
    }
    if let Some(&m) = memo.get(&v.0) {
        return InstId(m);
    }
    let inst = f.inst(v).clone();
    if inst.is_scheduled() {
        // Scheduled instruction outside the cloned region: reference as-is.
        return v;
    }
    let cloned = match inst {
        Inst::Const(_) | Inst::Param { .. } | Inst::GlobalAddr(_) => inst,
        Inst::Gep { base, index, scale } => Inst::Gep {
            base: clone_pure(f, base, map, memo),
            index: clone_pure(f, index, map, memo),
            scale,
        },
        Inst::Bin { op, lhs, rhs } => Inst::Bin {
            op,
            lhs: clone_pure(f, lhs, map, memo),
            rhs: clone_pure(f, rhs, map, memo),
        },
        other => other,
    };
    let id = f.value(cloned);
    memo.insert(v.0, id.0);
    id
}

/// Imports the pure operand tree of `v` from `src` into `dst`, remapping
/// scheduled references via `map` and parameters via `args`.
fn import_pure(
    dst: &mut Function,
    src: &Function,
    v: Value,
    map: &HashMap<u32, u32>,
    args: &[Value],
    memo: &mut HashMap<u32, u32>,
) -> Value {
    if let Some(&m) = map.get(&v.0) {
        return InstId(m);
    }
    if let Some(&m) = memo.get(&v.0) {
        return InstId(m);
    }
    let inst = src.inst(v).clone();
    let out = match inst {
        Inst::Param { index, .. } => args[index],
        Inst::Const(_) | Inst::GlobalAddr(_) => dst.value(inst),
        Inst::Gep { base, index, scale } => {
            let base = import_pure(dst, src, base, map, args, memo);
            let index = import_pure(dst, src, index, map, args, memo);
            dst.value(Inst::Gep { base, index, scale })
        }
        Inst::Bin { op, lhs, rhs } => {
            let lhs = import_pure(dst, src, lhs, map, args, memo);
            let rhs = import_pure(dst, src, rhs, map, args, memo);
            dst.value(Inst::Bin { op, lhs, rhs })
        }
        sched => {
            debug_assert!(
                sched.is_scheduled(),
                "unexpected pure inst {sched:?} not handled"
            );
            // Scheduled instruction of the callee must already be mapped.
            unreachable!("operand {v:?} is scheduled in callee but unmapped")
        }
    };
    memo.insert(v.0, out.0);
    out
}

// ---------------------------------------------------------------------
// Loop unrolling
// ---------------------------------------------------------------------

/// Unrolls every natural loop `copies` times, truncating paths that would
/// iterate more than `copies` full iterations (their continuation ends in
/// a path-terminating block). Each round unrolls one innermost loop away
/// without creating another, so a reducible CFG is acyclic after as many
/// rounds as it has loops.
///
/// # Errors
///
/// Returns [`AcfgError::Irreducible`] if the CFG fails to become acyclic
/// (irreducible control flow — our front end never produces it).
pub fn unroll_loops(f: &mut Function, copies: usize) -> Result<(), AcfgError> {
    for _ in 0..=natural_loops(f).len() {
        let mut loops = natural_loops(f);
        if loops.is_empty() {
            if has_cycle(f) {
                return Err(AcfgError::Irreducible(f.name.clone()));
            }
            return Ok(());
        }
        // Unroll an innermost loop: one whose body contains no other
        // loop's header.
        loops.sort_by_key(|l| l.body.len());
        let headers: Vec<BlockId> = loops.iter().map(|l| l.header).collect();
        let target = loops
            .iter()
            .find(|l| {
                headers
                    .iter()
                    .all(|&h| h == l.header || !l.body.contains(&h))
            })
            .cloned()
            .unwrap_or_else(|| loops[0].clone());
        unroll_one(f, &target.body, target.header, copies);
    }
    Err(AcfgError::Irreducible(f.name.clone()))
}

/// Unrolls a single loop given its body and header.
fn unroll_one(f: &mut Function, body: &[BlockId], header: BlockId, copies: usize) {
    // Truncation block for paths needing > `copies` iterations.
    let trunc = f.add_block("loop.trunc");
    f.set_term(trunc, Terminator::Ret(None));
    f.blocks[trunc.0 as usize].name = "loop.trunc".into();

    // Clone the body `copies` times. In each copy, edges to the original
    // header are iteration edges: they are left pointing at the original
    // header and fixed up below.
    let mut entries: Vec<BlockId> = Vec::new(); // header clone of each copy
    let mut copy_maps: Vec<HashMap<u32, u32>> = Vec::new();
    for k in 0..copies {
        let mut block_map: HashMap<u32, u32> = HashMap::new();
        for &b in body {
            let name = format!("{}.u{}", f.blocks[b.0 as usize].name, k + 1);
            let nb = f.add_block(&name);
            block_map.insert(b.0, nb.0);
        }
        // Phase 1: clone scheduled instructions verbatim, establishing the
        // id map (operands may forward-reference blocks cloned later).
        let mut inst_map: HashMap<u32, u32> = HashMap::new();
        for &b in body {
            let src_insts = f.blocks[b.0 as usize].insts.clone();
            let dst_b = BlockId(block_map[&b.0]);
            for iid in src_insts {
                let inst = f.inst(iid).clone();
                let nid = f.push(dst_b, inst);
                inst_map.insert(iid.0, nid.0);
            }
        }
        // Phase 2: rewrite operands through the completed map, cloning
        // pure operand trees; then clone terminators.
        let mut memo: HashMap<u32, u32> = HashMap::new();
        let cloned_ids: Vec<u32> = inst_map.values().copied().collect();
        for nid in cloned_ids {
            let inst = f.insts[nid as usize].clone();
            let rewritten = match inst {
                Inst::Alloca { .. } | Inst::Fence => continue,
                Inst::Load { addr, ty } => Inst::Load {
                    addr: clone_pure(f, addr, &inst_map, &mut memo),
                    ty,
                },
                Inst::Store { addr, value } => Inst::Store {
                    addr: clone_pure(f, addr, &inst_map, &mut memo),
                    value: clone_pure(f, value, &inst_map, &mut memo),
                },
                Inst::Call { callee, args, ty } => Inst::Call {
                    callee,
                    args: args
                        .iter()
                        .map(|&a| clone_pure(f, a, &inst_map, &mut memo))
                        .collect(),
                    ty,
                },
                Inst::Havoc {
                    callee,
                    ptr_args,
                    ty,
                } => Inst::Havoc {
                    callee,
                    ptr_args: ptr_args
                        .iter()
                        .map(|&a| clone_pure(f, a, &inst_map, &mut memo))
                        .collect(),
                    ty,
                },
                pure => {
                    debug_assert!(!pure.is_scheduled());
                    continue;
                }
            };
            f.insts[nid as usize] = rewritten;
        }
        for &b in body {
            let dst_b = BlockId(block_map[&b.0]);
            let term = f.blocks[b.0 as usize].term.clone();
            let remap_bb = |t: BlockId| -> BlockId {
                if t == header {
                    header // iteration edge: fixed up below
                } else {
                    match block_map.get(&t.0) {
                        Some(&nb) => BlockId(nb),
                        None => t, // loop exit
                    }
                }
            };
            let new_term = match term {
                Terminator::Br(t) => Terminator::Br(remap_bb(t)),
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => Terminator::CondBr {
                    cond: clone_pure(f, cond, &inst_map, &mut memo),
                    then_bb: remap_bb(then_bb),
                    else_bb: remap_bb(else_bb),
                },
                Terminator::Ret(v) => {
                    Terminator::Ret(v.map(|v| clone_pure(f, v, &inst_map, &mut memo)))
                }
            };
            f.set_term(dst_b, new_term);
        }
        entries.push(BlockId(block_map[&header.0]));
        copy_maps.push(block_map);
    }

    // Fix up iteration edges: original body latches -> entries[0];
    // copy k latches -> entries[k+1]; last copy -> trunc.
    let redirect = |f: &mut Function, blocks: Vec<BlockId>, from: BlockId, to: BlockId| {
        for b in blocks {
            let term = &mut f.blocks[b.0 as usize].term;
            match term {
                Terminator::Br(t) if *t == from => *t = to,
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => {
                    if *then_bb == from {
                        *then_bb = to;
                    }
                    if *else_bb == from {
                        *else_bb = to;
                    }
                }
                _ => {}
            }
        }
    };
    let originals: Vec<BlockId> = body.iter().copied().filter(|&b| b != header).collect();
    // Original header's back edges (do-while) also count; include header's
    // own latch edges but header->header self loops are handled uniformly:
    let mut orig_all = originals.clone();
    orig_all.push(header);
    redirect(f, orig_all, header, entries[0]);
    for k in 0..copies {
        let copy_blocks: Vec<BlockId> = copy_maps[k].values().map(|&b| BlockId(b)).collect();
        let to = if k + 1 < copies {
            entries[k + 1]
        } else {
            trunc
        };
        redirect(f, copy_blocks, header, to);
    }
}

// ---------------------------------------------------------------------
// Inlining
// ---------------------------------------------------------------------

/// Inlines every call in `f` using definitions from `module`. Recursive
/// calls are expanded [`SUMMARY_COPIES`] times; further recursion and
/// undefined callees become [`Inst::Havoc`].
pub fn inline_all_calls(f: &mut Function, module: &Module) {
    // Inline stack per call instruction id (names of enclosing inlined
    // callees), used to bound recursion.
    let mut stacks: HashMap<u32, Vec<String>> = HashMap::new();
    loop {
        let Some((bb, pos, call_id)) = find_call(f) else {
            return;
        };
        let (callee, args, ty) = match f.inst(call_id).clone() {
            Inst::Call { callee, args, ty } => (callee, args, ty),
            _ => unreachable!(),
        };
        let stack = stacks.get(&call_id.0).cloned().unwrap_or_default();
        let depth = stack.iter().filter(|s| *s == &callee).count();
        let defined = module.function(&callee).is_some();
        if !defined || depth >= SUMMARY_COPIES {
            // Havoc: may load or store any pointer operand.
            let ptr_args: Vec<Value> = args
                .iter()
                .copied()
                .filter(|&a| f.inst(a).result_ty() == Some(Ty::Ptr))
                .collect();
            f.insts[call_id.0 as usize] = Inst::Havoc {
                callee,
                ptr_args,
                ty,
            };
            continue;
        }
        let callee_fn = module.function(&callee).unwrap().clone();
        splice(
            f,
            bb,
            pos,
            call_id,
            &callee_fn,
            &args,
            ty,
            &stack,
            &mut stacks,
        );
    }
}

fn find_call(f: &Function) -> Option<(BlockId, usize, InstId)> {
    for (bi, b) in f.iter_blocks() {
        for (pos, &iid) in b.insts.iter().enumerate() {
            if matches!(f.inst(iid), Inst::Call { .. }) {
                return Some((bi, pos, iid));
            }
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn splice(
    f: &mut Function,
    bb: BlockId,
    pos: usize,
    call_id: InstId,
    callee: &Function,
    args: &[Value],
    ret_ty: Ty,
    stack: &[String],
    stacks: &mut HashMap<u32, Vec<String>>,
) {
    // Split the block at the call site.
    let tail_insts: Vec<InstId> = f.blocks[bb.0 as usize].insts.split_off(pos + 1);
    f.blocks[bb.0 as usize].insts.pop(); // remove the call itself
    let old_term = f.blocks[bb.0 as usize].term.clone();
    let cont = f.add_block(&format!("{}.cont", callee.name));
    f.blocks[cont.0 as usize].insts = tail_insts;
    f.set_term(cont, old_term);

    // Return slot (always materialized; harmless if unused).
    let ret_slot = f.insts.len();
    f.insts.push(Inst::Alloca {
        name: format!("{}.ret", callee.name),
        size: 1,
    });
    let ret_slot = InstId(ret_slot as u32);
    f.blocks[bb.0 as usize].insts.push(ret_slot);

    // Clone callee blocks.
    let mut block_map: HashMap<u32, u32> = HashMap::new();
    for (cbi, cb) in callee.iter_blocks() {
        let nb = f.add_block(&format!("{}.{}", callee.name, cb.name));
        block_map.insert(cbi.0, nb.0);
    }
    // Phase 1: clone scheduled instructions verbatim (operands still refer
    // to callee ids), establishing the id map.
    let mut inst_map: HashMap<u32, u32> = HashMap::new();
    let mut new_stack = stack.to_vec();
    new_stack.push(callee.name.clone());
    for (cbi, _) in callee.iter_blocks() {
        let dst_b = BlockId(block_map[&cbi.0]);
        let src_insts = callee.blocks[cbi.0 as usize].insts.clone();
        for iid in src_insts {
            let inst = callee.inst(iid).clone();
            let nid = f.push(dst_b, inst);
            inst_map.insert(iid.0, nid.0);
            if matches!(f.inst(nid), Inst::Call { .. }) {
                stacks.insert(nid.0, new_stack.clone());
            }
        }
    }
    // Phase 2: rewrite operands through the completed map.
    let mut memo: HashMap<u32, u32> = HashMap::new();
    let cloned: Vec<(u32, u32)> = inst_map.iter().map(|(&a, &b)| (a, b)).collect();
    for (src_id, nid) in cloned {
        let inst = callee.inst(InstId(src_id)).clone();
        let rewritten = match inst {
            Inst::Alloca { .. } | Inst::Fence => continue,
            Inst::Load { addr, ty } => Inst::Load {
                addr: import_pure(f, callee, addr, &inst_map, args, &mut memo),
                ty,
            },
            Inst::Store { addr, value } => Inst::Store {
                addr: import_pure(f, callee, addr, &inst_map, args, &mut memo),
                value: import_pure(f, callee, value, &inst_map, args, &mut memo),
            },
            Inst::Call {
                callee: c2,
                args: a2,
                ty,
            } => Inst::Call {
                callee: c2,
                args: a2
                    .iter()
                    .map(|&a| import_pure(f, callee, a, &inst_map, args, &mut memo))
                    .collect(),
                ty,
            },
            Inst::Havoc {
                callee: c2,
                ptr_args,
                ty,
            } => Inst::Havoc {
                callee: c2,
                ptr_args: ptr_args
                    .iter()
                    .map(|&a| import_pure(f, callee, a, &inst_map, args, &mut memo))
                    .collect(),
                ty,
            },
            pure => {
                debug_assert!(!pure.is_scheduled());
                continue;
            }
        };
        f.insts[nid as usize] = rewritten;
    }
    // Terminators.
    for (cbi, _) in callee.iter_blocks() {
        let dst_b = BlockId(block_map[&cbi.0]);
        let term = callee.blocks[cbi.0 as usize].term.clone();
        let new_term = match term {
            Terminator::Br(t) => Terminator::Br(BlockId(block_map[&t.0])),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => Terminator::CondBr {
                cond: import_pure(f, callee, cond, &inst_map, args, &mut memo),
                then_bb: BlockId(block_map[&then_bb.0]),
                else_bb: BlockId(block_map[&else_bb.0]),
            },
            Terminator::Ret(v) => {
                // Store return value and jump to continuation.
                if let Some(v) = v {
                    let val = import_pure(f, callee, v, &inst_map, args, &mut memo);
                    let st = Inst::Store {
                        addr: ret_slot,
                        value: val,
                    };
                    f.push(dst_b, st);
                }
                Terminator::Br(cont)
            }
        };
        f.set_term(dst_b, new_term);
    }

    // Jump into the inlined entry.
    f.set_term(bb, Terminator::Br(BlockId(block_map[&callee.entry().0])));
    // The call's result becomes a load of the return slot, scheduled at the
    // head of the continuation (reusing the call's arena slot keeps users
    // valid).
    f.insts[call_id.0 as usize] = Inst::Load {
        addr: ret_slot,
        ty: ret_ty,
    };
    f.blocks[cont.0 as usize].insts.insert(0, call_id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::has_cycle;
    use crate::interp::{run, InterpOutcome};
    use crate::{BinOp, Global};

    /// sum(n): s = 0; i = 0; while (i < n) { s += i; i += 1 } return s —
    /// at -O0 style with allocas.
    fn sum_module() -> Module {
        let mut m = Module::new();
        let mut f = Function::new("sum", &[("n", Ty::Int)]);
        let entry = f.entry();
        let header = f.add_block("header");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let s = f.push(
            entry,
            Inst::Alloca {
                name: "s".into(),
                size: 1,
            },
        );
        let i = f.push(
            entry,
            Inst::Alloca {
                name: "i".into(),
                size: 1,
            },
        );
        let zero = f.iconst(0);
        f.push(
            entry,
            Inst::Store {
                addr: s,
                value: zero,
            },
        );
        f.push(
            entry,
            Inst::Store {
                addr: i,
                value: zero,
            },
        );
        f.set_term(entry, Terminator::Br(header));
        let iv = f.push(
            header,
            Inst::Load {
                addr: i,
                ty: Ty::Int,
            },
        );
        let n = f.param(0);
        let cond = f.bin(BinOp::Lt, iv, n);
        f.set_term(
            header,
            Terminator::CondBr {
                cond,
                then_bb: body,
                else_bb: exit,
            },
        );
        let sv = f.push(
            body,
            Inst::Load {
                addr: s,
                ty: Ty::Int,
            },
        );
        let iv2 = f.push(
            body,
            Inst::Load {
                addr: i,
                ty: Ty::Int,
            },
        );
        let sum = f.bin(BinOp::Add, sv, iv2);
        f.push(
            body,
            Inst::Store {
                addr: s,
                value: sum,
            },
        );
        let one = f.iconst(1);
        let inc = f.bin(BinOp::Add, iv2, one);
        f.push(
            body,
            Inst::Store {
                addr: i,
                value: inc,
            },
        );
        f.set_term(body, Terminator::Br(header));
        let res = f.push(
            exit,
            Inst::Load {
                addr: s,
                ty: Ty::Int,
            },
        );
        f.set_term(exit, Terminator::Ret(Some(res)));
        m.add_function(f);
        m
    }

    #[test]
    fn unroll_makes_acyclic() {
        let m = sum_module();
        let acfg = build_acfg(&m, "sum").unwrap();
        assert!(!has_cycle(&acfg));
        assert!(acfg.blocks.len() > m.function("sum").unwrap().blocks.len());
    }

    #[test]
    fn unroll_preserves_semantics_up_to_two_iterations() {
        let m = sum_module();
        let acfg = build_acfg(&m, "sum").unwrap();
        let mut m2 = Module::new();
        m2.add_function(acfg);
        for n in 0..=2i64 {
            let expect = (0..n).sum::<i64>();
            let orig = run(&m, "sum", &[n], 10_000).unwrap();
            let unrolled = run(&m2, "sum", &[n], 10_000).unwrap();
            assert_eq!(orig, InterpOutcome::Returned(Some(expect)));
            assert_eq!(unrolled, InterpOutcome::Returned(Some(expect)), "n={n}");
        }
    }

    #[test]
    fn unroll_truncates_longer_paths() {
        let m = sum_module();
        let acfg = build_acfg(&m, "sum").unwrap();
        let mut m2 = Module::new();
        m2.add_function(acfg);
        // 3 iterations exceed the two modelled copies: path truncated.
        let r = run(&m2, "sum", &[3], 10_000).unwrap();
        assert_eq!(r, InterpOutcome::Returned(None));
    }

    fn callee_module() -> Module {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "G".into(),
            size: 4,
            is_ptr: false,
            secret: false,
            init: vec![],
        });

        let mut callee = Function::new("get", &[("i", Ty::Int)]);
        let e = callee.entry();
        let base = callee.global_addr(g);
        let i = callee.param(0);
        let addr = callee.gep(base, i);
        let v = callee.push(e, Inst::Load { addr, ty: Ty::Int });
        let two = callee.iconst(2);
        let dbl = callee.bin(BinOp::Mul, v, two);
        callee.set_term(e, Terminator::Ret(Some(dbl)));
        m.add_function(callee);

        let mut caller = Function::new("caller", &[("i", Ty::Int)]);
        let e = caller.entry();
        let i = caller.param(0);
        let c = caller.push(
            e,
            Inst::Call {
                callee: "get".into(),
                args: vec![i],
                ty: Ty::Int,
            },
        );
        let one = caller.iconst(1);
        let r = caller.bin(BinOp::Add, c, one);
        caller.set_term(e, Terminator::Ret(Some(r)));
        m.add_function(caller);
        m
    }

    #[test]
    fn inline_preserves_semantics() {
        let m = callee_module();
        let acfg = build_acfg(&m, "caller").unwrap();
        assert!(
            !acfg.insts.iter().any(|i| matches!(i, Inst::Call { .. })),
            "all calls inlined"
        );
        let mut m2 = Module::new();
        m2.globals = m.globals.clone();
        m2.add_function(acfg);
        let args_mem = |mm: &Module| {
            let mut st = crate::interp::Machine::new(mm);
            st.set_global("G", 2, 21);
            st.call("caller", &[2], 10_000).unwrap()
        };
        // rename for clarity
        let orig = {
            let mut st = crate::interp::Machine::new(&m);
            st.set_global("G", 2, 21);
            st.call("caller", &[2], 10_000).unwrap()
        };
        let inlined = args_mem(&m2);
        assert_eq!(orig, InterpOutcome::Returned(Some(43)));
        assert_eq!(inlined, InterpOutcome::Returned(Some(43)));
    }

    #[test]
    fn undefined_call_becomes_havoc_on_pointer_args() {
        let mut m = Module::new();
        let g = m.add_global(Global {
            name: "buf".into(),
            size: 8,
            is_ptr: false,
            secret: false,
            init: vec![],
        });
        let mut f = Function::new("f", &[("x", Ty::Int)]);
        let e = f.entry();
        let base = f.global_addr(g);
        let x = f.param(0);
        let c = f.push(
            e,
            Inst::Call {
                callee: "memcmp".into(),
                args: vec![base, x],
                ty: Ty::Int,
            },
        );
        f.set_term(e, Terminator::Ret(Some(c)));
        m.add_function(f);
        let acfg = build_acfg(&m, "f").unwrap();
        let havoc = acfg
            .insts
            .iter()
            .find_map(|i| match i {
                Inst::Havoc {
                    callee, ptr_args, ..
                } => Some((callee.clone(), ptr_args.len())),
                _ => None,
            })
            .expect("havoc present");
        assert_eq!(havoc.0, "memcmp");
        assert_eq!(havoc.1, 1, "only the pointer operand is havocked");
    }

    fn recursive_module() -> Module {
        // rec(n) = n <= 0 ? 0 : n + rec(n - 1)
        let mut m = Module::new();
        let mut f = Function::new("rec", &[("n", Ty::Int)]);
        let e = f.entry();
        let then_b = f.add_block("base");
        let else_b = f.add_block("rec");
        let n = f.param(0);
        let zero = f.iconst(0);
        let cond = f.bin(BinOp::Le, n, zero);
        f.set_term(
            e,
            Terminator::CondBr {
                cond,
                then_bb: then_b,
                else_bb: else_b,
            },
        );
        let z = f.iconst(0);
        f.set_term(then_b, Terminator::Ret(Some(z)));
        let one = f.iconst(1);
        let n1 = f.bin(BinOp::Sub, n, one);
        let c = f.push(
            else_b,
            Inst::Call {
                callee: "rec".into(),
                args: vec![n1],
                ty: Ty::Int,
            },
        );
        let sum = f.bin(BinOp::Add, n, c);
        f.set_term(else_b, Terminator::Ret(Some(sum)));
        m.add_function(f);
        m
    }

    #[test]
    fn recursion_expanded_twice_then_havocked() {
        let m = recursive_module();
        let acfg = build_acfg(&m, "rec").unwrap();
        assert!(!acfg.insts.iter().any(|i| matches!(i, Inst::Call { .. })));
        assert!(!has_cycle(&acfg));
        // Exactly one havoc: the third-level recursive call.
        let havocs = acfg
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Havoc { .. }))
            .count();
        assert_eq!(havocs, 1);
        // Semantics preserved for depth <= 2 (base cases n = 0, 1, 2).
        let mut m2 = Module::new();
        m2.add_function(acfg);
        for n in 0..=2i64 {
            let expect = (1..=n).sum::<i64>();
            assert_eq!(
                run(&m2, "rec", &[n], 100_000).unwrap(),
                InterpOutcome::Returned(Some(expect)),
                "n={n}"
            );
        }
    }

    #[test]
    fn unknown_function_error() {
        let m = Module::new();
        assert_eq!(
            build_acfg(&m, "nope").unwrap_err(),
            AcfgError::UnknownFunction("nope".into())
        );
    }

    /// `n` loops in sequence, each `while (c) {}` on the parameter.
    fn sequential_loops(n: usize) -> Function {
        let mut f = Function::new("seq", &[("c", Ty::Int)]);
        let c = f.param(0);
        let mut prev = f.entry();
        for k in 0..n {
            let header = f.add_block(&format!("h{k}"));
            let body = f.add_block(&format!("b{k}"));
            f.set_term(prev, Terminator::Br(header));
            f.set_term(body, Terminator::Br(header));
            let next = f.add_block(&format!("x{k}"));
            f.set_term(
                header,
                Terminator::CondBr {
                    cond: c,
                    then_bb: body,
                    else_bb: next,
                },
            );
            prev = next;
        }
        f
    }

    #[test]
    fn more_than_sixty_four_loops_unroll() {
        let mut f = sequential_loops(65);
        assert_eq!(natural_loops(&f).len(), 65);
        unroll_loops(&mut f, 2).unwrap();
        assert!(!has_cycle(&f));
    }

    #[test]
    fn irreducible_cycle_is_reported() {
        // entry branches into both blocks of a two-entry cycle.
        let mut f = Function::new("irr", &[("c", Ty::Int)]);
        let c = f.param(0);
        let (a, b) = (f.add_block("a"), f.add_block("b"));
        f.set_term(
            f.entry(),
            Terminator::CondBr {
                cond: c,
                then_bb: a,
                else_bb: b,
            },
        );
        f.set_term(a, Terminator::Br(b));
        f.set_term(b, Terminator::Br(a));
        assert_eq!(
            unroll_loops(&mut f, 2),
            Err(AcfgError::Irreducible("irr".into()))
        );
    }

    #[test]
    fn nested_loops_unroll() {
        // for i in 0..n { for j in 0..n { fence } } — checks reducible
        // nested unrolling converges.
        let mut m = Module::new();
        let mut f = Function::new("nest", &[("n", Ty::Int)]);
        let e = f.entry();
        let oh = f.add_block("oh");
        let ob = f.add_block("ob");
        let ih = f.add_block("ih");
        let ib = f.add_block("ib");
        let oinc = f.add_block("oinc");
        let exit = f.add_block("exit");
        let iv = f.push(
            e,
            Inst::Alloca {
                name: "i".into(),
                size: 1,
            },
        );
        let jv = f.push(
            e,
            Inst::Alloca {
                name: "j".into(),
                size: 1,
            },
        );
        let zero = f.iconst(0);
        let one = f.iconst(1);
        let n = f.param(0);
        f.push(
            e,
            Inst::Store {
                addr: iv,
                value: zero,
            },
        );
        f.set_term(e, Terminator::Br(oh));
        let i0 = f.push(
            oh,
            Inst::Load {
                addr: iv,
                ty: Ty::Int,
            },
        );
        let c0 = f.bin(BinOp::Lt, i0, n);
        f.set_term(
            oh,
            Terminator::CondBr {
                cond: c0,
                then_bb: ob,
                else_bb: exit,
            },
        );
        f.push(
            ob,
            Inst::Store {
                addr: jv,
                value: zero,
            },
        );
        f.set_term(ob, Terminator::Br(ih));
        let j0 = f.push(
            ih,
            Inst::Load {
                addr: jv,
                ty: Ty::Int,
            },
        );
        let c1 = f.bin(BinOp::Lt, j0, n);
        f.set_term(
            ih,
            Terminator::CondBr {
                cond: c1,
                then_bb: ib,
                else_bb: oinc,
            },
        );
        f.push(ib, Inst::Fence);
        let j1 = f.bin(BinOp::Add, j0, one);
        f.push(
            ib,
            Inst::Store {
                addr: jv,
                value: j1,
            },
        );
        f.set_term(ib, Terminator::Br(ih));
        let i1 = f.bin(BinOp::Add, i0, one);
        f.push(
            oinc,
            Inst::Store {
                addr: iv,
                value: i1,
            },
        );
        f.set_term(oinc, Terminator::Br(oh));
        f.set_term(exit, Terminator::Ret(None));
        m.add_function(f);

        let acfg = build_acfg(&m, "nest").unwrap();
        assert!(!has_cycle(&acfg));
        // 1x1 iteration still runs to completion.
        let mut m2 = Module::new();
        m2.add_function(acfg);
        assert_eq!(
            run(&m2, "nest", &[1], 100_000).unwrap(),
            InterpOutcome::Returned(None)
        );
    }
}
