//! Differential oracle for the Clou engines' candidate loop.
//!
//! `Reference` below is the engine loop written the plain way: every
//! work unit ((branch, direction) for PHT, load for STL/PSF) checks and
//! emits every chain it finds, even one an earlier unit already
//! reported, and a post-hoc pass keeps the first finding per
//! `Finding::key`. Store-forwarding pairs are screened by a fence check
//! that walks the fence-free paths between the two events. Then the
//! `target_class` filter applies. `Detector::analyze_saeg` must return
//! exactly the same findings, in the same order and with the same
//! witness seeds, for all three engines, on random synthetic libraries
//! with random fences and random detector configurations.
//!
//! Only public `lcm::aeg` APIs are used, so the reference shares no
//! code with the engines under test.

use std::collections::HashSet;
use std::fmt::Write as _;

use lcm::aeg::addr::{alias, AliasResult};
use lcm::aeg::deps::{ctrl_edges, generalized_addr};
use lcm::aeg::taint::attacker_controlled;
use lcm::aeg::{BranchInfo, EventId, EventKind, Feasibility, Saeg};
use lcm::core::speculation::{SpeculationConfig, SpeculationPrimitive};
use lcm::core::taxonomy::TransmitterClass;
use lcm::corpus::synth::{synthetic_library, SynthConfig};
use lcm::detect::{Detector, DetectorConfig, EngineKind, Finding};
use lcm::ir::{BlockId, Inst, Module};
use lcm::relalg::Relation;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fence positions per block.
fn fences_by_block(saeg: &Saeg) -> Vec<Vec<usize>> {
    let mut fences = vec![Vec::new(); saeg.acfg.blocks.len()];
    for e in saeg.events.iter().filter(|e| e.kind == EventKind::Fence) {
        fences[e.block.0 as usize].push(e.pos);
    }
    fences
}

/// `true` if every path from event `a` to event `b` crosses a fence:
/// a depth-first search over the blocks between them that never enters
/// a fenced block. `fences` is [`fences_by_block`].
fn fenced_between(saeg: &Saeg, fences: &[Vec<usize>], a: EventId, b: EventId) -> bool {
    let (ea, eb) = (&saeg.events[a.0], &saeg.events[b.0]);
    if !saeg.precedes(a, b) {
        return false;
    }
    let fence_in_range = |block: BlockId, from: Option<usize>, to: Option<usize>| {
        fences[block.0 as usize]
            .iter()
            .any(|&p| from.is_none_or(|f| p > f) && to.is_none_or(|t| p < t))
    };
    if ea.block == eb.block {
        return fence_in_range(ea.block, Some(ea.pos), Some(eb.pos));
    }
    if fence_in_range(ea.block, Some(ea.pos), None) {
        return true;
    }
    let mut stack = saeg.acfg.blocks[ea.block.0 as usize].term.successors();
    let mut seen = vec![false; saeg.acfg.blocks.len()];
    while let Some(blk) = stack.pop() {
        if std::mem::replace(&mut seen[blk.0 as usize], true) {
            continue;
        }
        if blk == eb.block {
            if !fence_in_range(blk, None, Some(eb.pos)) {
                return false;
            }
            continue;
        }
        if fence_in_range(blk, None, None) {
            continue;
        }
        if saeg.block_reaches(blk, eb.block) {
            stack.extend(saeg.acfg.blocks[blk.0 as usize].term.successors());
        }
    }
    true
}

/// Ascending predecessor lists of a relation.
fn preds(r: &Relation, n: usize) -> Vec<Vec<EventId>> {
    let t = r.transpose();
    (0..n)
        .map(|e| t.successors(e).map(EventId).collect())
        .collect()
}

/// One engine run, emitting every feasible chain of every unit.
struct Reference<'a> {
    config: &'a DetectorConfig,
    saeg: &'a Saeg,
    kind: EngineKind,
    gaddr: Relation,
    ctrl: Relation,
    gaddr_preds: Vec<Vec<EventId>>,
    gep_preds: Vec<Vec<EventId>>,
    ctrl_preds: Vec<Vec<EventId>>,
    fences: Vec<Vec<usize>>,
    in_win: Vec<bool>,
    out: Vec<Finding>,
}

impl<'a> Reference<'a> {
    fn run(config: &'a DetectorConfig, saeg: &'a Saeg, kind: EngineKind) -> Vec<Finding> {
        let n = saeg.events.len();
        let g = generalized_addr(saeg);
        let ctrl = ctrl_edges(saeg);
        let mut r = Reference {
            config,
            saeg,
            kind,
            gaddr_preds: preds(&g.plain, n),
            gep_preds: preds(&g.gep, n),
            ctrl_preds: preds(&ctrl, n),
            gaddr: g.plain,
            ctrl,
            fences: fences_by_block(saeg),
            in_win: vec![false; n],
            out: Vec::new(),
        };
        let mut feas = Feasibility::new(saeg);
        match kind {
            EngineKind::Pht => {
                for br in &saeg.branches {
                    r.pht_unit(&mut feas, br, true);
                    r.pht_unit(&mut feas, br, false);
                }
            }
            EngineKind::Stl | EngineKind::Psf => {
                let loads: Vec<EventId> = saeg.loads().map(|e| e.id).collect();
                for l in loads {
                    r.forward_unit(&mut feas, l);
                }
            }
        }
        let mut seen = HashSet::new();
        let mut out = r.out;
        out.retain(|f| seen.insert(f.key()));
        if let Some(c) = config.target_class {
            out.retain(|f| f.class == c);
        }
        out
    }

    fn within_window(&self, a: EventId, t: EventId) -> bool {
        let (pa, pt) = (self.saeg.events[a.0].pos, self.saeg.events[t.0].pos);
        pt >= pa && pt - pa <= self.config.window
    }

    fn block(&self, e: EventId) -> BlockId {
        self.saeg.events[e.0].block
    }

    /// Requires `blocks` and asks the checker; returns the mark to
    /// truncate back to when the stack stays feasible.
    fn check(feas: &mut Feasibility, blocks: &[BlockId]) -> Option<usize> {
        let m = feas.mark();
        for &b in blocks {
            feas.push_block(b);
        }
        if feas.check_stack() {
            Some(m)
        } else {
            feas.truncate(m);
            None
        }
    }

    fn steerable(&self, access: EventId) -> bool {
        let e = &self.saeg.events[access.0];
        match self.saeg.acfg.inst(e.inst) {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                attacker_controlled(&self.saeg.acfg, *addr)
            }
            Inst::Havoc { .. } => true,
            _ => false,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        feas: &Feasibility,
        branch: Option<BlockId>,
        store: Option<EventId>,
        t: EventId,
        class: TransmitterClass,
        access: EventId,
        index: Option<EventId>,
    ) -> &mut Finding {
        let seed = feas.stack_seed();
        self.out.push(Finding {
            function: self.saeg.fname.clone(),
            transmitter: t,
            transmitter_inst: self.saeg.events[t.0].inst,
            class,
            transient_transmitter: true,
            access: Some(access),
            access_transient: true,
            index,
            primitive: match self.kind {
                EngineKind::Pht => SpeculationPrimitive::ConditionalBranch,
                EngineKind::Stl => SpeculationPrimitive::StoreForwarding,
                EngineKind::Psf => SpeculationPrimitive::AliasPrediction,
            },
            branch,
            bypassed_store: store,
            interference: false,
            witness_blocks: seed.blocks,
            witness_dir: seed.branch_dir,
        });
        self.out.last_mut().expect("just pushed")
    }

    fn pht_unit(&mut self, feas: &mut Feasibility, br: &BranchInfo, mispredict_then: bool) {
        let base = feas.mark();
        feas.push_block(br.block);
        feas.push_decision(br.block, !mispredict_then);
        if !feas.check_stack() {
            feas.truncate(base);
            return;
        }
        let window = self.saeg.spec_window(br, mispredict_then);
        for &e in &window {
            self.in_win[e.0] = true;
        }
        for &t in &window {
            if self.saeg.events[t.0].kind == EventKind::Fence {
                continue;
            }
            self.pht_chains(feas, br.block, t, TransmitterClass::Data);
            if self.config.detect_interference {
                self.interference(feas, br.block, t);
            }
            self.pht_chains(feas, br.block, t, TransmitterClass::Control);
        }
        for &e in &window {
            self.in_win[e.0] = false;
        }
        feas.truncate(base);
    }

    fn pht_chains(
        &mut self,
        feas: &mut Feasibility,
        branch: BlockId,
        t: EventId,
        chain: TransmitterClass,
    ) {
        let data = chain == TransmitterClass::Data;
        let accesses = if data {
            self.gaddr_preds[t.0].clone()
        } else {
            self.ctrl_preds[t.0].clone()
        };
        for access in accesses {
            if access == t || !self.within_window(access, t) {
                continue;
            }
            let transient = self.in_win[access.0];
            if data && !transient && !self.saeg.precedes(access, t) {
                continue;
            }
            let blocks = if transient {
                vec![]
            } else {
                vec![self.block(access)]
            };
            let Some(m) = Self::check(feas, &blocks) else {
                continue;
            };
            let b = Some(branch);
            self.push(feas, b, None, t, chain, access, None)
                .access_transient = transient;
            if self.steerable(access)
                && (!self.config.universal_needs_transient_access || transient)
            {
                let universal = if data {
                    TransmitterClass::UniversalData
                } else {
                    TransmitterClass::UniversalControl
                };
                let indexes = if self.config.gep_filter {
                    self.gep_preds[access.0].clone()
                } else {
                    self.gaddr_preds[access.0].clone()
                };
                for index in indexes {
                    if index == access || !self.within_window(index, t) {
                        continue;
                    }
                    self.push(feas, b, None, t, universal, access, Some(index))
                        .access_transient = transient;
                }
            }
            feas.truncate(m);
        }
    }

    fn interference(&mut self, feas: &mut Feasibility, branch: BlockId, t: EventId) {
        let Some(t_addr) = self.saeg.events[t.0].addr else {
            return;
        };
        let saeg = self.saeg;
        for e in saeg.loads() {
            if e.id == t {
                continue;
            }
            let Some(e_addr) = e.addr else { continue };
            if alias(t_addr, e_addr) == AliasResult::No {
                continue;
            }
            let Some(m) = Self::check(feas, &[e.block]) else {
                continue;
            };
            for access in self.gaddr_preds[t.0].clone() {
                if access != t {
                    let data = TransmitterClass::Data;
                    self.push(feas, Some(branch), None, t, data, access, None)
                        .interference = true;
                }
            }
            feas.truncate(m);
        }
    }

    fn forward_unit(&mut self, feas: &mut Feasibility, l: EventId) {
        let psf = self.kind == EngineKind::Psf;
        let saeg = self.saeg;
        let le = &saeg.events[l.0];
        for s in saeg.stores().map(|e| e.id) {
            if s == l || !saeg.precedes(s, l) {
                continue;
            }
            let se = &saeg.events[s.0];
            if le.pos - se.pos > self.config.spec.lsq_size {
                continue;
            }
            let a = match (se.addr, le.addr) {
                (Some(x), Some(y)) => alias(x, y),
                _ => AliasResult::May,
            };
            if (a == AliasResult::No) != psf || fenced_between(saeg, &self.fences, s, l) {
                continue;
            }
            self.forward(feas, s, l);
            if !psf {
                break;
            }
        }
    }

    fn forward(&mut self, feas: &mut Feasibility, s: EventId, l: EventId) {
        let Some(base) = Self::check(feas, &[self.block(s), self.block(l)]) else {
            return;
        };
        let stl = self.kind == EngineKind::Stl;
        let st = Some(s);
        let (data, udt) = (TransmitterClass::Data, TransmitterClass::UniversalData);
        let (ct, uct) = (
            TransmitterClass::Control,
            TransmitterClass::UniversalControl,
        );
        let ts: Vec<EventId> = self.gaddr.successors(l.0).map(EventId).collect();
        for t in ts {
            if t == l || !self.within_window(l, t) || !self.saeg.precedes(l, t) {
                continue;
            }
            let Some(m) = Self::check(feas, &[self.block(t)]) else {
                continue;
            };
            self.push(feas, None, st, t, data, l, None);
            let t2s: Vec<EventId> = self.gaddr.successors(t.0).map(EventId).collect();
            for t2 in t2s {
                if t2 == t || !self.within_window(t, t2) || !self.saeg.precedes(t, t2) {
                    continue;
                }
                let Some(m2) = Self::check(feas, &[self.block(t2)]) else {
                    continue;
                };
                self.push(feas, None, st, t2, udt, t, Some(l));
                feas.truncate(m2);
            }
            if stl {
                let t2s: Vec<EventId> = self.ctrl.successors(t.0).map(EventId).collect();
                for t2 in t2s {
                    if t2 == t || !self.within_window(t, t2) {
                        continue;
                    }
                    let Some(m2) = Self::check(feas, &[self.block(t2)]) else {
                        continue;
                    };
                    self.push(feas, None, st, t2, uct, t, Some(l))
                        .transient_transmitter = false;
                    feas.truncate(m2);
                }
            }
            feas.truncate(m);
        }
        if stl {
            let ts: Vec<EventId> = self.ctrl.successors(l.0).map(EventId).collect();
            for t in ts {
                if t == l || !self.within_window(l, t) {
                    continue;
                }
                let Some(m) = Self::check(feas, &[self.block(t)]) else {
                    continue;
                };
                self.push(feas, None, st, t, ct, l, None)
                    .transient_transmitter = false;
                feas.truncate(m);
            }
        }
        feas.truncate(base);
    }
}

/// Puts `lfence();` before about `pct` percent of the statements of a
/// synthetic library's function bodies.
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

const CLASSES: [TransmitterClass; 4] = [
    TransmitterClass::Data,
    TransmitterClass::Control,
    TransmitterClass::UniversalData,
    TransmitterClass::UniversalControl,
];

/// A random `victim(int x, int y)`: loads, stores, transmits and
/// fences nested in if/else diamonds whose conditions may themselves
/// load. One chain's access can then commit under one branch's window
/// and execute transiently under the next, the case where a PHT unit
/// owes only a chain's universal upgrade.
fn diamond_program(rng: &mut StdRng) -> String {
    let mut src = String::from(
        "int A[16]; int B[512]; int C[8]; int n; int t;\n\
         void victim(int x, int y) {\n    int u = 0;\n    int v = 0;\n",
    );
    for _ in 0..rng.gen_range(2..=7usize) {
        statement(rng, 1, &mut src);
    }
    src.push_str("}\n");
    src
}

fn statement(rng: &mut StdRng, depth: usize, out: &mut String) {
    let pad = "    ".repeat(depth);
    let pick = |rng: &mut StdRng, xs: &[&'static str]| xs[rng.gen_range(0..xs.len())];
    let (p, l) = (pick(rng, &["x", "y"]), pick(rng, &["u", "v"]));
    let line = match rng.gen_range(0..9u32) {
        0 => format!("{l} = A[{p}];"),
        1 => format!("t &= B[{l} * 8];"),
        2 => format!("t &= B[A[{p}] * 8];"),
        3 => format!("C[{p} & 7] = {};", pick(rng, &["x", "y", "u", "v"])),
        4 => format!("{l} = C[{p} & 7];"),
        5 => "lfence();".to_string(),
        _ if depth < 3 => {
            let cond = pick(rng, &["x", "y", "u", "A[x]", "A[y]"]);
            let _ = writeln!(out, "{pad}if ({cond} < n) {{");
            for _ in 0..rng.gen_range(1..=3usize) {
                statement(rng, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}}} else {{");
            for _ in 0..rng.gen_range(0..=3usize) {
                statement(rng, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
            return;
        }
        _ => format!("t &= B[C[{p} & 7]];"),
    };
    let _ = writeln!(out, "{pad}{line}");
}

/// Compares every public function of `module` under one configuration:
/// the fence check with the path search on every (store, load) pair,
/// and each engine's findings with the reference's.
fn check_module(module: &Module, config: &DetectorConfig) -> Result<(), TestCaseError> {
    let det = Detector::new(config.clone());
    for f in module.public_functions() {
        let saeg = Saeg::build(module, &f.name, config.spec).expect("generated functions build");
        let fences = fences_by_block(&saeg);
        for a in saeg.stores().map(|e| e.id) {
            for b in saeg.loads().map(|e| e.id) {
                prop_assert_eq!(
                    saeg.always_fenced_between(a, b),
                    fenced_between(&saeg, &fences, a, b),
                    "{}: fence between {:?} and {:?}",
                    &f.name,
                    a,
                    b
                );
            }
        }
        for engine in [EngineKind::Pht, EngineKind::Stl, EngineKind::Psf] {
            let got = det.analyze_saeg(&saeg, engine);
            let want = Reference::run(config, &saeg, engine);
            prop_assert!(
                got == want,
                "{} {engine:?} under {config:?}: {} findings, reference {}",
                &f.name,
                got.len(),
                want.len()
            );
        }
    }
    Ok(())
}

/// A detector configuration from drawn sizes and switches.
fn config(
    (window, rob, lsq, depth): (usize, usize, usize, usize),
    (gep_filter, needs_transient, interference, class): (bool, bool, bool, usize),
) -> DetectorConfig {
    DetectorConfig {
        spec: SpeculationConfig {
            rob_size: rob,
            lsq_size: lsq,
            speculation_depth: depth,
        },
        window,
        target_class: CLASSES.get(class).copied(),
        gep_filter,
        universal_needs_transient_access: needs_transient,
        detect_interference: interference,
        jobs: 1,
        ..DetectorConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random synthetic libraries with random fences under random
    /// windows, filters, extensions and ROB/LSQ/depth sizes.
    #[test]
    fn engines_match_the_reference_on_synthetic_libraries(
        (seed, functions, max_stmts, fence_pct) in (any::<u64>(), 1..=3usize, 3..=40usize, 0..=25u32),
        sizes in (1..=300usize, 1..=300usize, 1..=60usize, 1..=300usize),
        switches in (any::<bool>(), any::<bool>(), any::<bool>(), 0..=4usize),
    ) {
        let (src, _) = synthetic_library(SynthConfig {
            seed,
            functions,
            max_stmts,
            pht_gadget_pct: 40,
            stl_gadget_pct: 40,
        });
        let src = with_fences(&src, seed, fence_pct);
        let module = lcm::minic::compile(&src).expect("synthetic source compiles");
        check_module(&module, &config(sizes, switches))?;
    }

    /// Random if/else diamonds under the same random configurations.
    #[test]
    fn engines_match_the_reference_on_diamonds(
        seed in any::<u64>(),
        sizes in (1..=300usize, 1..=300usize, 1..=60usize, 1..=300usize),
        switches in (any::<bool>(), any::<bool>(), any::<bool>(), 0..=4usize),
    ) {
        let src = diamond_program(&mut StdRng::seed_from_u64(seed));
        let module = lcm::minic::compile(&src).unwrap_or_else(|e| panic!("{e}: {src}"));
        check_module(&module, &config(sizes, switches))?;
    }
}
