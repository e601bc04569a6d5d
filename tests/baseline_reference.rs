//! Differential oracle for the Binsec/Haunted stand-in.
//!
//! `reference` below is the baseline's cost model written the plain way:
//! list every architectural path (up to `max_paths`), then walk the list
//! in order, charging each path its full cost against `step_budget` and
//! collecting its candidates, until the budget runs out. The witness
//! checks then confirm the candidates. `lcm::haunted::analyze_function`
//! must agree with it on the leak set, `paths_explored` and `exhausted`
//! for both engines, on random synthetic functions and random caps.
//!
//! Only public `lcm::{ir, aeg}` APIs are used, so the reference shares
//! no code with the implementation under test.

use std::collections::{HashMap, HashSet};

use lcm::aeg::addr::{alias, feeding_loads, AddrOracle, AliasResult};
use lcm::aeg::taint::attacker_controlled;
use lcm::corpus::synth::{synthetic_library, SynthConfig};
use lcm::haunted::{HauntedConfig, HauntedEngine};
use lcm::ir::acfg::build_acfg;
use lcm::ir::{BlockId, Function, Inst, InstId, Module, Terminator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The baseline's verdict on one function.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    leaks: Vec<InstId>,
    paths_explored: usize,
    exhausted: bool,
}

fn reference(
    module: &Module,
    fname: &str,
    engine: HauntedEngine,
    config: HauntedConfig,
) -> Verdict {
    let f = build_acfg(module, fname).expect("synthetic functions build");
    let mut paths = Vec::new();
    let mut exhausted = false;
    list_paths(
        &f,
        f.entry(),
        &mut Vec::new(),
        &mut paths,
        config.max_paths,
        &mut exhausted,
    );

    let mut budget = config.step_budget.max(1) as i64;
    let mut paths_explored = 0;
    let mut pht = HashSet::new();
    let mut stl = HashSet::new();
    let mut oracle = AddrOracle::new(&f);
    for path in &paths {
        if budget <= 0 {
            exhausted = true;
            break;
        }
        let cost = match engine {
            HauntedEngine::Pht => pht_path(&f, path, config, &mut pht),
            HauntedEngine::Stl => stl_path(&f, path, config, &mut oracle, &mut stl),
        };
        budget -= cost as i64;
        paths_explored += 1;
    }

    let mut leaks = match engine {
        HauntedEngine::Pht => pht_witness(&f, &pht),
        HauntedEngine::Stl => stl_witness(&f, &stl),
    };
    leaks.sort_unstable();
    leaks.dedup();
    Verdict {
        leaks,
        paths_explored,
        exhausted,
    }
}

/// Every architectural block path through the acyclic A-CFG, in
/// then-before-else order. Any step past the `cap`-th path marks the
/// search exhausted.
fn list_paths(
    f: &Function,
    b: BlockId,
    cur: &mut Vec<BlockId>,
    out: &mut Vec<Vec<BlockId>>,
    cap: usize,
    exhausted: &mut bool,
) {
    if out.len() >= cap {
        *exhausted = true;
        return;
    }
    cur.push(b);
    match &f.blocks[b.0 as usize].term {
        Terminator::Ret(_) => out.push(cur.clone()),
        Terminator::Br(t) => list_paths(f, *t, cur, out, cap, exhausted),
        Terminator::CondBr {
            then_bb, else_bb, ..
        } => {
            list_paths(f, *then_bb, cur, out, cap, exhausted);
            list_paths(f, *else_bb, cur, out, cap, exhausted);
        }
    }
    cur.pop();
}

/// PHT over one path: at each conditional branch, walk every transient
/// sub-path down the side the path does not take, at most `rob` memory
/// operations deep, stopping at fences and after 4096 forks. Every
/// visited access is a candidate; every visited instruction costs 1.
fn pht_path(
    f: &Function,
    path: &[BlockId],
    config: HauntedConfig,
    cands: &mut HashSet<InstId>,
) -> u64 {
    let mut cost = 0;
    for (i, &b) in path.iter().enumerate() {
        let Terminator::CondBr {
            then_bb, else_bb, ..
        } = &f.blocks[b.0 as usize].term
        else {
            continue;
        };
        let wrong = if path.get(i + 1) == Some(then_bb) {
            *else_bb
        } else {
            *then_bb
        };
        let mut stack = vec![(wrong, 0)];
        let mut forks = 0;
        while let Some((blk, depth)) = stack.pop() {
            forks += 1;
            if forks > 4096 {
                break;
            }
            let mut d = depth;
            let mut stop = false;
            for &iid in &f.blocks[blk.0 as usize].insts {
                cost += 1;
                if d >= config.rob {
                    stop = true;
                    break;
                }
                match f.inst(iid) {
                    Inst::Fence => {
                        stop = true;
                        break;
                    }
                    Inst::Load { .. } | Inst::Store { .. } => {
                        d += 1;
                        cands.insert(iid);
                    }
                    Inst::Havoc { .. } => d += 1,
                    _ => {}
                }
            }
            if !stop && d < config.rob {
                for s in f.blocks[blk.0 as usize].term.successors() {
                    stack.push((s, d));
                }
            }
        }
    }
    cost
}

/// STL over one path: each load may bypass each older store within the
/// `lsq` window that may alias it with no fence in between; the stale
/// value may then reach every later access on the path. Each memory
/// operation costs 1, each window slot 1, and each bypassing store the
/// length of the rest of the path.
fn stl_path(
    f: &Function,
    path: &[BlockId],
    config: HauntedConfig,
    oracle: &mut AddrOracle<'_>,
    cands: &mut HashSet<(InstId, InstId)>,
) -> u64 {
    let ops: Vec<InstId> = path
        .iter()
        .flat_map(|b| f.blocks[b.0 as usize].insts.iter().copied())
        .filter(|&i| {
            matches!(
                f.inst(i),
                Inst::Load { .. } | Inst::Store { .. } | Inst::Havoc { .. } | Inst::Fence
            )
        })
        .collect();
    let fence_between = |lo: usize, hi: usize| {
        ops[lo..hi]
            .iter()
            .any(|&i| matches!(f.inst(i), Inst::Fence))
    };
    let mut cost = 0;
    for (li, &l) in ops.iter().enumerate() {
        cost += 1;
        let Inst::Load { addr: laddr, .. } = f.inst(l) else {
            continue;
        };
        let la = oracle.addr(*laddr);
        for si in li.saturating_sub(config.lsq)..li {
            cost += 1;
            let Inst::Store { addr: saddr, .. } = f.inst(ops[si]) else {
                continue;
            };
            if alias(la, oracle.addr(*saddr)) == AliasResult::No || fence_between(si, li) {
                continue;
            }
            cost += (ops.len() - li - 1) as u64;
            for &t in &ops[li + 1..] {
                if matches!(f.inst(t), Inst::Load { .. } | Inst::Store { .. }) {
                    cands.insert((l, t));
                }
            }
        }
    }
    cost
}

/// A PHT candidate leaks iff its address is attacker controlled.
fn pht_witness(f: &Function, cands: &HashSet<InstId>) -> Vec<InstId> {
    cands
        .iter()
        .copied()
        .filter(|&i| match f.inst(i) {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => attacker_controlled(f, *addr),
            _ => false,
        })
        .collect()
}

/// An STL candidate `(load, target)` leaks at the target iff the load
/// feeds the target's address.
fn stl_witness(f: &Function, cands: &HashSet<(InstId, InstId)>) -> Vec<InstId> {
    let mut feeds: HashMap<InstId, Vec<(InstId, bool)>> = HashMap::new();
    cands
        .iter()
        .filter(|&&(l, t)| match f.inst(t) {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => feeds
                .entry(*addr)
                .or_insert_with(|| feeding_loads(f, *addr))
                .iter()
                .any(|&(ld, _)| ld == l),
            _ => false,
        })
        .map(|&(_, t)| t)
        .collect()
}

/// Puts an `lfence();` before about `pct`% of the statements of the
/// synthetic functions, which emit none themselves.
fn with_fences(src: &str, seed: u64, pct: u32) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    for line in src.lines() {
        if line.starts_with("    ")
            && !line.starts_with("    int ")
            && rng.gen_range(0u32..100) < pct
        {
            out.push_str("    lfence();\n");
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random synthetic functions under random ROB/LSQ depths, path caps
    /// and step budgets (both caps drawn log-uniformly, so exhaustion by
    /// either is common): the baseline's verdict is the reference's.
    #[test]
    fn baseline_matches_the_per_path_reference(
        (seed, functions, max_stmts, fence_pct) in (any::<u64>(), 1..=3usize, 3..=40usize, 0..=20u32),
        (budget_exp, paths_exp) in (0..=5000u32, 0..=1200u32),
        (rob, lsq, jobs) in (1..=200usize, 1..=20usize, 1..=2usize),
    ) {
        let (src, truth) = synthetic_library(SynthConfig {
            seed,
            functions,
            max_stmts,
            pht_gadget_pct: 30,
            stl_gadget_pct: 30,
        });
        let src = with_fences(&src, seed, fence_pct);
        let module = lcm::minic::compile(&src).expect("synthetic source compiles");
        let config = HauntedConfig {
            rob,
            lsq,
            max_paths: 2f64.powf(f64::from(paths_exp) / 100.0).round() as usize,
            step_budget: 10f64.powf(f64::from(budget_exp) / 1000.0).round() as u64,
            jobs,
        };
        for t in &truth {
            for engine in [HauntedEngine::Pht, HauntedEngine::Stl] {
                let got = lcm::haunted::analyze_function(&module, &t.function, engine, config);
                prop_assert!(got.degraded.is_none(), "{}: {:?}", t.function, got.degraded);
                let got = Verdict {
                    leaks: got.leaks.iter().map(|l| l.inst).collect(),
                    paths_explored: got.paths_explored,
                    exhausted: got.exhausted,
                };
                let want = reference(&module, &t.function, engine, config);
                prop_assert!(
                    got == want,
                    "{} {engine:?} under {config:?}: got {got:?}, want {want:?}",
                    t.function
                );
            }
        }
    }
}
