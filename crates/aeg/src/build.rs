//! S-AEG construction from an A-CFG.

use std::collections::HashMap;
use std::sync::OnceLock;

use lcm_core::speculation::SpeculationConfig;
use lcm_ir::acfg::{build_acfg, AcfgError};
use lcm_ir::cfg::{reverse_postorder, successors};
use lcm_ir::{BlockId, Function, Inst, InstId, Module, Terminator, Ty};
use lcm_relalg::Relation;

use crate::addr::{feeding_loads, symbolic_addr, SymAddr};
use crate::deps::{ctrl_edges, generalized_addr, Gaddr};

/// Index of a memory event within one [`Saeg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub usize);

/// Kind of a memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An architectural load.
    Load,
    /// An architectural store.
    Store,
    /// An undefined external call: may act as a load *or* store to any of
    /// its pointer operands (the solver considers both, §5.1).
    Havoc,
    /// A speculation barrier.
    Fence,
}

/// One node of the S-AEG.
#[derive(Debug, Clone)]
pub struct MemEvent {
    /// Event id (index into [`Saeg::events`]).
    pub id: EventId,
    /// Backing IR instruction.
    pub inst: InstId,
    /// Kind.
    pub kind: EventKind,
    /// Containing block.
    pub block: BlockId,
    /// Topological program position (Fig. 8's node-count axis counts
    /// these).
    pub pos: usize,
    /// Symbolic address (`None` for fences).
    pub addr: Option<SymAddr>,
    /// Events (loads/havocs) feeding the address operand, tagged with
    /// `via_gep_index` (the `addr` vs `addr_gep` discriminator, §5.2).
    pub addr_deps: Vec<(EventId, bool)>,
    /// Events feeding a store's data operand (`data` dependencies).
    pub value_deps: Vec<EventId>,
    /// `true` when the accessed slot is pointer-typed.
    pub ty_ptr: bool,
}

/// A conditional branch of the A-CFG (a PHT speculation primitive).
#[derive(Debug, Clone)]
pub struct BranchInfo {
    /// Block whose terminator is the branch.
    pub block: BlockId,
    /// Taken target.
    pub then_bb: BlockId,
    /// Not-taken target.
    pub else_bb: BlockId,
    /// Events feeding the branch condition (`ctrl` dependency sources).
    pub cond_deps: Vec<EventId>,
    /// Position of the branch (after the last event of its block).
    pub pos: usize,
}

/// The symbolic abstract event graph of one function.
#[derive(Debug, Clone)]
pub struct Saeg {
    /// Analyzed function name.
    pub fname: String,
    /// The loop- and call-free A-CFG the graph was built from.
    pub acfg: Function,
    /// Memory events in topological program order.
    pub events: Vec<MemEvent>,
    /// Conditional branches.
    pub branches: Vec<BranchInfo>,
    /// Analysis capacities (ROB/LSQ/speculation depth).
    pub config: SpeculationConfig,
    inst_to_event: HashMap<u32, usize>,
    /// Blocks in topological order.
    topo: Vec<BlockId>,
    /// `(a, b)` iff block `b` is reachable from block `a` (reflexive on
    /// the blocks reachable from the entry; blocks the entry cannot
    /// reach relate to nothing).
    block_reach: Relation,
    /// Where the fences are, for [`Saeg::always_fenced_between`]; built
    /// on its first query, so S-AEG users that never ask do not pay.
    fences: OnceLock<FenceTable>,
    /// [`Saeg::gaddr`] and [`Saeg::ctrl`], built on first use and then
    /// shared by every engine run over this S-AEG.
    gaddr: OnceLock<Gaddr>,
    ctrl: OnceLock<Relation>,
}

/// Fence positions of one S-AEG, answering
/// [`Saeg::always_fenced_between`] in O(1). Events are numbered in
/// topological block order, so each block's events hold consecutive
/// positions.
#[derive(Debug, Clone)]
struct FenceTable {
    /// `before[p]`: how many fences sit at positions below `p`.
    before: Vec<u32>,
    /// Each block's first and last fence position, if it has a fence.
    span: Vec<Option<(usize, usize)>>,
    /// `(x, y)`: some edge path leads from block `x` to block `y` whose
    /// blocks strictly between them hold no fence.
    clear: Relation,
}

impl FenceTable {
    fn build(saeg: &Saeg) -> FenceTable {
        let nblocks = saeg.acfg.blocks.len();
        let mut before = Vec::with_capacity(saeg.events.len() + 1);
        let mut span: Vec<Option<(usize, usize)>> = vec![None; nblocks];
        let mut count = 0;
        for e in &saeg.events {
            before.push(count);
            if e.kind == EventKind::Fence {
                count += 1;
                let s = &mut span[e.block.0 as usize];
                *s = Some(s.map_or((e.pos, e.pos), |(first, _)| (first, e.pos)));
            }
        }
        before.push(count);
        // Reverse topological order: a successor's row is final before
        // a predecessor reads it.
        let mut clear = Relation::empty(nblocks);
        for &x in saeg.topo.iter().rev() {
            let x = x.0 as usize;
            for z in saeg.acfg.blocks[x].term.successors() {
                let z = z.0 as usize;
                clear.insert(x, z);
                if span[z].is_none() {
                    clear.union_row_into(z, x);
                }
            }
        }
        FenceTable {
            before,
            span,
            clear,
        }
    }
}

impl Saeg {
    /// Builds the S-AEG for `fname`: constructs the A-CFG (§5.1) and
    /// extracts events, dependencies, and branches.
    ///
    /// # Errors
    ///
    /// Propagates [`AcfgError`] from A-CFG construction.
    pub fn build(
        module: &Module,
        fname: &str,
        config: SpeculationConfig,
    ) -> Result<Saeg, AcfgError> {
        let acfg = build_acfg(module, fname)?;
        Ok(Self::from_acfg(fname, acfg, config))
    }

    /// Total dependency-edge count (address, value, and branch-condition
    /// dependencies) — the edge measure the resource governor's S-AEG
    /// budget is checked against.
    pub fn edge_count(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.addr_deps.len() + e.value_deps.len())
            .sum::<usize>()
            + self
                .branches
                .iter()
                .map(|b| b.cond_deps.len())
                .sum::<usize>()
    }

    /// Builds the S-AEG from an already-constructed (acyclic) A-CFG.
    pub fn from_acfg(fname: &str, acfg: Function, config: SpeculationConfig) -> Saeg {
        let topo = reverse_postorder(&acfg);
        let nblocks = acfg.blocks.len();
        // Static block reachability (reflexive), in reverse topological
        // order so each successor's row is final before it is read.
        let succ = successors(&acfg);
        let mut block_reach = Relation::empty(nblocks);
        for &b in topo.iter().rev() {
            let bi = b.0 as usize;
            block_reach.insert(bi, bi);
            for s in &succ[bi] {
                block_reach.union_row_into(s.0 as usize, bi);
            }
        }

        // Events in topological order.
        let mut events: Vec<MemEvent> = Vec::new();
        let mut inst_to_event: HashMap<u32, usize> = HashMap::new();
        for &b in &topo {
            for &iid in &acfg.blocks[b.0 as usize].insts {
                let (kind, addr_v, value_v, ty_ptr) = match acfg.inst(iid) {
                    Inst::Load { addr, ty } => (EventKind::Load, Some(*addr), None, *ty == Ty::Ptr),
                    Inst::Store { addr, value } => {
                        let ptr = acfg.inst(*value).result_ty() == Some(Ty::Ptr);
                        (EventKind::Store, Some(*addr), Some(*value), ptr)
                    }
                    Inst::Havoc { .. } => (EventKind::Havoc, None, None, false),
                    Inst::Fence => (EventKind::Fence, None, None, false),
                    Inst::Alloca { .. } => continue,
                    other => {
                        debug_assert!(!other.is_scheduled());
                        continue;
                    }
                };
                let id = EventId(events.len());
                inst_to_event.insert(iid.0, events.len());
                events.push(MemEvent {
                    id,
                    inst: iid,
                    kind,
                    block: b,
                    pos: events.len(),
                    addr: addr_v.map(|a| symbolic_addr(&acfg, a)),
                    addr_deps: Vec::new(),
                    value_deps: Vec::new(),
                    ty_ptr,
                });
                // Havoc's "address" stays None: it may touch any of its
                // pointer args (Unknown region is implied).
                let _ = value_v;
            }
        }

        // Dependencies (need inst_to_event complete).
        let mut addr_deps_all: Vec<Vec<(EventId, bool)>> = vec![Vec::new(); events.len()];
        let mut value_deps_all: Vec<Vec<EventId>> = vec![Vec::new(); events.len()];
        for ev in &events {
            match acfg.inst(ev.inst) {
                Inst::Load { addr, .. } => {
                    addr_deps_all[ev.id.0] = map_loads(&acfg, *addr, &inst_to_event);
                }
                Inst::Store { addr, value } => {
                    addr_deps_all[ev.id.0] = map_loads(&acfg, *addr, &inst_to_event);
                    value_deps_all[ev.id.0] = map_loads(&acfg, *value, &inst_to_event)
                        .into_iter()
                        .map(|(e, _)| e)
                        .collect();
                }
                Inst::Havoc { ptr_args, .. } => {
                    let mut deps = Vec::new();
                    for &a in ptr_args {
                        deps.extend(map_loads(&acfg, a, &inst_to_event));
                    }
                    addr_deps_all[ev.id.0] = deps;
                }
                _ => {}
            }
        }
        for (i, ev) in events.iter_mut().enumerate() {
            ev.addr_deps = std::mem::take(&mut addr_deps_all[i]);
            ev.value_deps = std::mem::take(&mut value_deps_all[i]);
        }

        // Branches.
        let mut branches = Vec::new();
        for &b in &topo {
            if let Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } = &acfg.blocks[b.0 as usize].term
            {
                let cond_deps = map_loads(&acfg, *cond, &inst_to_event)
                    .into_iter()
                    .map(|(e, _)| e)
                    .collect();
                let pos = acfg.blocks[b.0 as usize]
                    .insts
                    .iter()
                    .rev()
                    .find_map(|i| inst_to_event.get(&i.0))
                    .map_or_else(
                        || {
                            // No events in this block: position of the first
                            // event of any successor, approximated by scanning.
                            events
                                .iter()
                                .find(|e| e.block == *then_bb || e.block == *else_bb)
                                .map_or(events.len(), |e| e.pos)
                        },
                        |&i| events[i].pos + 1,
                    );
                branches.push(BranchInfo {
                    block: b,
                    then_bb: *then_bb,
                    else_bb: *else_bb,
                    cond_deps,
                    pos,
                });
            }
        }

        Saeg {
            fname: fname.to_string(),
            acfg,
            events,
            branches,
            config,
            inst_to_event,
            topo,
            block_reach,
            fences: OnceLock::new(),
            gaddr: OnceLock::new(),
            ctrl: OnceLock::new(),
        }
    }

    /// The event backing an IR instruction, if it is a memory event.
    pub fn event_of_inst(&self, inst: InstId) -> Option<&MemEvent> {
        self.inst_to_event.get(&inst.0).map(|&i| &self.events[i])
    }

    /// Blocks in topological order.
    pub fn topo_blocks(&self) -> &[BlockId] {
        &self.topo
    }

    /// `true` iff `b` is reachable from `a` (reflexive).
    pub fn block_reaches(&self, a: BlockId, b: BlockId) -> bool {
        self.block_reach.contains(a.0 as usize, b.0 as usize)
    }

    /// The block-reachability closure behind [`Self::block_reaches`].
    pub(crate) fn block_closure(&self) -> &Relation {
        &self.block_reach
    }

    /// The generalized address dependencies, `(data.rf)*; addr`
    /// ([`generalized_addr`]). The closure is the costliest relation of
    /// an engine run, so it is built once per S-AEG, on first use.
    pub fn gaddr(&self) -> &Gaddr {
        self.gaddr.get_or_init(|| generalized_addr(self))
    }

    /// The `ctrl` dependencies ([`ctrl_edges`]), built once per S-AEG,
    /// on first use.
    pub fn ctrl(&self) -> &Relation {
        self.ctrl.get_or_init(|| ctrl_edges(self))
    }

    /// Deterministically expands a witness seed — blocks that must
    /// execute, plus the constrained branch's direction — into a concrete
    /// architectural path (executed blocks, in control-flow order from
    /// the entry to a return). Findings store only the compact seed; the
    /// path is built here on demand when a witness is rendered.
    ///
    /// Returns an empty path when no such path exists (a seed taken from
    /// a verified-feasible assumption stack always expands).
    pub fn arch_witness_path(
        &self,
        required: &[BlockId],
        branch_dir: Option<(BlockId, bool)>,
    ) -> Vec<BlockId> {
        let nb = self.acfg.blocks.len();
        // Successors, honoring the constrained branch's direction.
        let succs = |b: BlockId| -> Vec<BlockId> {
            if let Some((c, then)) = branch_dir {
                if b == c {
                    if let Terminator::CondBr {
                        then_bb, else_bb, ..
                    } = &self.acfg.blocks[b.0 as usize].term
                    {
                        return vec![if then { *then_bb } else { *else_bb }];
                    }
                }
            }
            self.acfg.blocks[b.0 as usize].term.successors()
        };
        // Visit required blocks in topological order: in an acyclic CFG
        // any joint path must pass them in that order.
        let mut tpos = vec![usize::MAX; nb];
        for (i, &b) in self.topo.iter().enumerate() {
            tpos[b.0 as usize] = i;
        }
        let mut targets: Vec<BlockId> = required.to_vec();
        targets.sort_by_key(|b| tpos[b.0 as usize]);
        targets.dedup();
        // Shortest `from → goal` block segment (excluding `from`),
        // breadth-first so the expansion is deterministic.
        let bfs = |from: BlockId, goal: &dyn Fn(BlockId) -> bool| -> Option<Vec<BlockId>> {
            if goal(from) {
                return Some(Vec::new());
            }
            let mut parent = vec![u32::MAX; nb];
            let mut seen = vec![false; nb];
            seen[from.0 as usize] = true;
            let mut queue = std::collections::VecDeque::from([from]);
            while let Some(b) = queue.pop_front() {
                for s in succs(b) {
                    if seen[s.0 as usize] {
                        continue;
                    }
                    seen[s.0 as usize] = true;
                    parent[s.0 as usize] = b.0;
                    if goal(s) {
                        let mut seg = vec![s];
                        let mut x = b;
                        while x != from {
                            seg.push(x);
                            x = BlockId(parent[x.0 as usize]);
                        }
                        seg.reverse();
                        return Some(seg);
                    }
                    queue.push_back(s);
                }
            }
            None
        };
        let entry = BlockId(0);
        let mut path = vec![entry];
        let mut cur = entry;
        for &t in &targets {
            if t == cur {
                continue;
            }
            match bfs(cur, &|b| b == t) {
                Some(seg) => {
                    path.extend(seg);
                    cur = t;
                }
                None => return Vec::new(),
            }
        }
        let is_ret = |b: BlockId| matches!(self.acfg.blocks[b.0 as usize].term, Terminator::Ret(_));
        if !is_ret(cur) {
            match bfs(cur, &is_ret) {
                Some(seg) => path.extend(seg),
                None => return Vec::new(),
            }
        }
        path
    }

    /// `true` iff event `a` can precede event `b` on some path.
    pub fn precedes(&self, a: EventId, b: EventId) -> bool {
        let (ea, eb) = (&self.events[a.0], &self.events[b.0]);
        if ea.block == eb.block {
            ea.pos < eb.pos
        } else {
            self.block_reaches(ea.block, eb.block)
        }
    }

    /// The events transiently fetchable in the speculative window opened
    /// when the branch of `br` *mispredicts toward* `target_then`
    /// (§3.3): up to `speculation_depth` instructions along paths from
    /// that successor, never crossing a fence.
    pub fn spec_window(&self, br: &BranchInfo, target_then: bool) -> Vec<EventId> {
        let start = if target_then { br.then_bb } else { br.else_bb };
        let mut out = Vec::new();
        // BFS over blocks in topo order; count events; fence stops the
        // window within its path.
        let mut frontier: Vec<BlockId> = vec![start];
        let mut visited = vec![false; self.acfg.blocks.len()];
        let mut budget = self.config.speculation_depth;
        while let Some(b) = frontier.pop() {
            if visited[b.0 as usize] || budget == 0 {
                continue;
            }
            visited[b.0 as usize] = true;
            let mut fenced = false;
            for &iid in &self.acfg.blocks[b.0 as usize].insts {
                if budget == 0 {
                    break;
                }
                if let Some(&ei) = self.inst_to_event.get(&iid.0) {
                    if self.events[ei].kind == EventKind::Fence {
                        fenced = true;
                        break;
                    }
                    out.push(EventId(ei));
                    budget -= 1;
                }
            }
            if !fenced && budget > 0 {
                frontier.extend(self.acfg.blocks[b.0 as usize].term.successors());
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `true` if every path from event `a` to event `b` crosses a fence —
    /// i.e. speculation started before `a` cannot reach `b`, and loads at
    /// `b` cannot bypass stores at `a`.
    pub fn always_fenced_between(&self, a: EventId, b: EventId) -> bool {
        if !self.precedes(a, b) {
            return false;
        }
        let ft = self.fences.get_or_init(|| FenceTable::build(self));
        let (ea, eb) = (&self.events[a.0], &self.events[b.0]);
        if ea.block == eb.block {
            return ft.before[eb.pos] > ft.before[ea.pos + 1];
        }
        // Every path leaves `a`'s block past its tail and enters `b`'s
        // block at its head; in between it may avoid fenced blocks.
        let (xa, xb) = (ea.block.0 as usize, eb.block.0 as usize);
        ft.span[xa].is_some_and(|(_, last)| last > ea.pos)
            || ft.span[xb].is_some_and(|(first, _)| first < eb.pos)
            || !ft.clear.contains(xa, xb)
    }

    /// Load events (including havocs, which may act as loads).
    pub fn loads(&self) -> impl Iterator<Item = &MemEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Load | EventKind::Havoc))
    }

    /// Store events (including havocs, which may act as stores).
    pub fn stores(&self) -> impl Iterator<Item = &MemEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Store | EventKind::Havoc))
    }

    /// Renders the S-AEG in DOT form (the Fig. 7 artifact): events as
    /// nodes, `addr`/`addr_gep`/`data` dependency edges labelled, branches
    /// as diamonds.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.fname);
        let _ = writeln!(s, "  node [shape=box, fontname=\"monospace\"];");
        for e in &self.events {
            let label = format!("{}: {:?} {:?}", e.pos, e.kind, self.acfg.inst(e.inst));
            let _ = writeln!(s, "  e{} [label=\"{}\"];", e.id.0, label.replace('"', "'"));
        }
        for e in &self.events {
            for &(d, gep) in &e.addr_deps {
                let lbl = if gep { "addr_gep" } else { "addr" };
                let _ = writeln!(
                    s,
                    "  e{} -> e{} [label=\"{lbl}\", color=gray40];",
                    d.0, e.id.0
                );
            }
            for &d in &e.value_deps {
                let _ = writeln!(
                    s,
                    "  e{} -> e{} [label=\"data\", color=gray55];",
                    d.0, e.id.0
                );
            }
        }
        for (i, br) in self.branches.iter().enumerate() {
            let _ = writeln!(s, "  br{i} [shape=diamond, label=\"br@bb{}\"];", br.block.0);
            for &d in &br.cond_deps {
                let _ = writeln!(s, "  e{} -> br{i} [label=\"ctrl\", color=gray70];", d.0);
            }
        }
        s.push_str("}\n");
        s
    }
}

fn map_loads(
    f: &Function,
    v: lcm_ir::Value,
    inst_to_event: &HashMap<u32, usize>,
) -> Vec<(EventId, bool)> {
    feeding_loads(f, v)
        .into_iter()
        .filter_map(|(iid, gep)| inst_to_event.get(&iid.0).map(|&e| (EventId(e), gep)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saeg_of(src: &str, f: &str) -> Saeg {
        let m = lcm_minic::compile(src).unwrap();
        Saeg::build(&m, f, SpeculationConfig::default()).unwrap()
    }

    const SPECTRE_V1: &str = "int A[16]; int B[256]; int size_A; int tmp;\n         void victim(int y) { if (y < size_A) { tmp &= B[A[y]]; } }";

    #[test]
    fn spectre_v1_event_structure() {
        let s = saeg_of(SPECTRE_V1, "victim");
        assert!(!s.events.is_empty());
        assert_eq!(s.branches.len(), 1, "one speculation primitive");
        // The B-load's address depends on the A-load via a gep index.
        let b_load = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Load)
            .find(|e| {
                e.addr_deps.iter().any(|&(d, gep)| {
                    gep && s.events[d.0].kind == EventKind::Load
                        && !s.events[d.0].addr_deps.is_empty()
                })
            });
        assert!(b_load.is_some(), "B[A[y]] chain present");
    }

    #[test]
    fn positions_follow_topological_order() {
        let s = saeg_of(SPECTRE_V1, "victim");
        for (i, e) in s.events.iter().enumerate() {
            assert_eq!(e.pos, i);
            assert_eq!(e.id.0, i);
        }
    }

    #[test]
    fn precedes_within_and_across_blocks() {
        let s = saeg_of(
            "int G; int f(int x) { int a = x; if (x) { G = a; } return G; }",
            "f",
        );
        let loads: Vec<EventId> = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Load)
            .map(|e| e.id)
            .collect();
        let stores: Vec<EventId> = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Store)
            .map(|e| e.id)
            .collect();
        // Parameter spill precedes everything after it.
        assert!(s.precedes(stores[0], *loads.last().unwrap()));
        assert!(!s.precedes(*loads.last().unwrap(), stores[0]));
    }

    #[test]
    fn spec_window_contains_wrong_path_events() {
        let s = saeg_of(SPECTRE_V1, "victim");
        let br = &s.branches[0];
        // Window toward the if-body contains the A/B loads.
        let w_then = s.spec_window(br, true);
        let w_else = s.spec_window(br, false);
        let body_loads = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Load && !e.addr_deps.is_empty())
            .count();
        assert!(body_loads >= 2);
        assert!(
            w_then.len() + w_else.len() >= body_loads,
            "some window covers the body"
        );
    }

    #[test]
    fn spec_window_respects_depth() {
        let src = "int A[64]; int t; void f(int c) { if (c) { t = A[0] + A[1] + A[2] + A[3] + A[4] + A[5]; } }";
        let m = lcm_minic::compile(src).unwrap();
        let full = Saeg::build(&m, "f", SpeculationConfig::default()).unwrap();
        let shallow = Saeg::build(&m, "f", SpeculationConfig::default().with_depth(2)).unwrap();
        let br_f = &full.branches[0];
        let br_s = &shallow.branches[0];
        let (wf, ws) = (
            full.spec_window(br_f, true),
            shallow.spec_window(br_s, true),
        );
        assert!(ws.len() <= 2);
        assert!(wf.len() > ws.len());
    }

    #[test]
    fn spec_window_stops_at_fence() {
        let src = "int A[8]; int t; void f(int c) { if (c) { lfence(); t = A[0]; } }";
        let s = saeg_of(src, "f");
        let br = &s.branches[0];
        let w = s.spec_window(br, true);
        // The A[0] load is behind the fence: not speculatively fetchable.
        let a_load_in_window = w.iter().any(|&e| {
            s.events[e.0].kind == EventKind::Load
                && matches!(
                    s.events[e.0].addr,
                    Some(crate::addr::SymAddr {
                        region: crate::addr::Region::Global(_),
                        ..
                    })
                )
        });
        assert!(!a_load_in_window);
    }

    #[test]
    fn always_fenced_between_detects_barriers() {
        let src = "int G; int H; void f() { G = 1; lfence(); H = G; }";
        let s = saeg_of(src, "f");
        let store_g = s
            .events
            .iter()
            .find(|e| e.kind == EventKind::Store)
            .unwrap()
            .id;
        let load_g = s
            .events
            .iter()
            .rfind(|e| e.kind == EventKind::Load)
            .unwrap()
            .id;
        assert!(s.always_fenced_between(store_g, load_g));

        let src2 = "int G; int H; void f() { G = 1; H = G; }";
        let s2 = saeg_of(src2, "f");
        let store_g = s2
            .events
            .iter()
            .find(|e| e.kind == EventKind::Store)
            .unwrap()
            .id;
        let load_g = s2
            .events
            .iter()
            .rfind(|e| e.kind == EventKind::Load)
            .unwrap()
            .id;
        assert!(!s2.always_fenced_between(store_g, load_g));
    }

    #[test]
    fn havoc_events_extracted_with_deps() {
        let src = "int buf[8]; void f(int i) { memcpy(buf, i); }";
        let s = saeg_of(src, "f");
        let h = s.events.iter().find(|e| e.kind == EventKind::Havoc);
        assert!(h.is_some(), "undefined call becomes a havoc event");
    }

    #[test]
    fn to_dot_mentions_addr_gep() {
        let s = saeg_of(SPECTRE_V1, "victim");
        let dot = s.to_dot();
        assert!(dot.contains("addr_gep"));
        assert!(dot.contains("digraph"));
        assert!(dot.contains("diamond"));
    }
}
