//! A Binsec/Haunted-style baseline detector (the paper's comparator, §6).
//!
//! Binsec/Haunted (Daniel et al., NDSS'21) detects Spectre-PHT and
//! Spectre-STL violations with relational symbolic execution: it
//! *enumerates architectural paths*, forks transient paths at speculation
//! points, and reports instructions whose transient behaviour depends on
//! attacker input. The tool itself is a closed research binary built on
//! Binsec, so this crate provides an algorithmically faithful stand-in
//! (see DESIGN.md):
//!
//! * **path enumeration** — analysis cost grows with the number of
//!   architectural paths (2^branches), unlike Clou's one-shot per-function
//!   encoding; this is what makes the baseline scale poorly on large
//!   functions (Table 2, Fig. 8);
//! * **no transmitter taxonomy** — it reports flat "violations"
//!   (the paper: "BH does not distinguish between the different classes of
//!   transmitters we define");
//! * configuration defaults ROB 200 / LSQ 20, as in the original paper.
//!
//! PHT mode explores every transient sub-path in every window; STL mode
//! additionally enumerates load × older-store bypass pairs per path —
//! the product that made `bh-stl` the paper's worst scaler (Table 2).
//!
//! That cost is **charged, not paid**. Each path is charged what
//! re-executing it would take ([`HauntedConfig::step_budget`] counts
//! those steps), but the work itself is shared: a branch's transient
//! walk depends only on its wrong-side block, so it runs once per
//! block, and a bypass scan depends only on the path prefix, so it runs
//! once per prefix of a depth-first walk over the paths. The verdict —
//! leaks, paths explored, and where the budget ran out — is the one the
//! per-path re-execution reaches; only the wall clock is smaller.
//!
//! # Examples
//!
//! ```
//! use lcm_haunted::{analyze_module, HauntedConfig, HauntedEngine};
//!
//! let module = lcm_minic::compile(r#"
//!     int A[16]; int B[4096]; int size; int tmp;
//!     void victim(int y) { if (y < size) tmp &= B[A[y] * 512]; }
//! "#).unwrap();
//! let report = analyze_module(&module, HauntedEngine::Pht, HauntedConfig::default());
//! assert!(report.total_leaks() >= 1); // found, but with no taxonomy
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};

use lcm_aeg::addr::{AddrOracle, AliasResult, SymAddr};
use lcm_aeg::taint::attacker_controlled;
use lcm_core::speculation::SpeculationPrimitive;
use lcm_ir::acfg::build_acfg;
use lcm_ir::{BlockId, Function, Inst, InstId, Module, Terminator, Value};

/// Baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct HauntedConfig {
    /// Reorder-buffer depth bound for transient windows (paper: 200).
    pub rob: usize,
    /// Store queue depth for STL bypasses (paper: 20).
    pub lsq: usize,
    /// Cap on enumerated architectural paths per function (keeps the
    /// worst case finite, as BH's timeouts do).
    pub max_paths: usize,
    /// Per-function work budget in instruction visits (architectural and
    /// transient) across path checks. The paper runs BH with 1-hour /
    /// 6-hour wall-clock timeouts and reports partial results in bold;
    /// the same convention applies here (partial leaks + `exhausted =
    /// true`), but as a deterministic work budget rather than a wall
    /// clock so results are independent of machine load and of `jobs`.
    /// Paths are charged in order, each with the full cost of
    /// re-executing it, and the first path that starts with the budget
    /// spent is cut along with every later one. The charge is a count:
    /// shared work is done once, so the budget models BH's runtime but
    /// not this crate's.
    pub step_budget: u64,
    /// Functions analyzed at once: `0` uses all available cores, `1` is
    /// exact serial execution. Each function runs on one thread, so a
    /// module with fewer functions than `jobs` leaves the spare workers
    /// idle. Reports are identical at every value.
    pub jobs: usize,
}

impl Default for HauntedConfig {
    fn default() -> Self {
        HauntedConfig {
            rob: 200,
            lsq: 20,
            max_paths: 1 << 12,
            step_budget: 50_000_000,
            jobs: 0,
        }
    }
}

/// Which engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HauntedEngine {
    /// Spectre-PHT (control-flow speculation).
    Pht,
    /// Spectre-STL (store-to-load forwarding).
    Stl,
}

/// One reported violation (flat — no taxonomy).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HauntedLeak {
    /// Function name.
    pub function: String,
    /// The culprit (transiently leaking) instruction.
    pub inst: InstId,
    /// Which primitive was exploited.
    pub primitive: SpeculationPrimitive,
}

/// Per-function result.
#[derive(Debug, Clone)]
pub struct HauntedReport {
    /// Function name.
    pub name: String,
    /// Distinct violations.
    pub leaks: Vec<HauntedLeak>,
    /// Architectural paths explored.
    pub paths_explored: usize,
    /// Whether the path cap or the step budget was hit (a "timeout").
    pub exhausted: bool,
    /// Serial runtime.
    pub runtime: Duration,
    /// Time in relational execution: the walk over architectural paths
    /// with its transient forks (PHT) or bypass scans (STL).
    pub t_execute: Duration,
    /// Time confirming candidates as attacker-observable (the PHT taint
    /// walks; STL confirms each pair as the walk finds it).
    pub t_witness: Duration,
    /// `Some(reason)` when this function's analysis was cut short (the
    /// A-CFG failed to build, or the worker panicked); its `leaks` are
    /// then a lower bound. `None` for a completed run.
    pub degraded: Option<String>,
}

/// Module-level result.
#[derive(Debug, Clone, Default)]
pub struct HauntedModuleReport {
    /// Per-function reports.
    pub functions: Vec<HauntedReport>,
}

impl HauntedModuleReport {
    /// Total distinct violations.
    pub fn total_leaks(&self) -> usize {
        self.functions.iter().map(|f| f.leaks.len()).sum()
    }

    /// Total serial runtime.
    pub fn total_runtime(&self) -> Duration {
        self.functions.iter().map(|f| f.runtime).sum()
    }

    /// How many functions were degraded (cut short).
    pub fn degraded_count(&self) -> usize {
        self.functions
            .iter()
            .filter(|f| f.degraded.is_some())
            .count()
    }
}

/// Runs the baseline over every public function, fanning out over
/// [`HauntedConfig::jobs`] worker threads (reports stay in module order).
///
/// Workers are isolated: a panic while analyzing one function degrades
/// that function's report ([`HauntedReport::degraded`]) and leaves the
/// rest of the module untouched.
pub fn analyze_module(
    module: &Module,
    engine: HauntedEngine,
    config: HauntedConfig,
) -> HauntedModuleReport {
    let names: Vec<&str> = module.public_functions().map(|f| f.name.as_str()).collect();
    let results = lcm_core::par::map_indexed_catch(&names, config.jobs, |_, name| {
        analyze_function(module, name, engine, config)
    });
    let functions = results
        .into_iter()
        .zip(&names)
        .map(|(res, name)| match res {
            Ok(report) => report,
            Err(message) => degraded_report(name, format!("worker panic: {message}")),
        })
        .collect();
    HauntedModuleReport { functions }
}

/// The report of a function the baseline could not analyze: no leaks,
/// no paths, zero times, and `reason` as [`HauntedReport::degraded`].
pub fn degraded_report(name: &str, reason: String) -> HauntedReport {
    HauntedReport {
        name: name.to_string(),
        leaks: Vec::new(),
        paths_explored: 0,
        exhausted: false,
        runtime: Duration::ZERO,
        t_execute: Duration::ZERO,
        t_witness: Duration::ZERO,
        degraded: Some(reason),
    }
}

/// Runs the baseline over one function on the calling thread. A function
/// that does not exist (or has irreducible control flow) yields a
/// degraded report, not a panic.
///
/// After the A-CFG is built, the analysis runs in two timed phases:
///
/// 1. **relational execution** — one depth-first walk over the
///    architectural paths, then-side first, up to `max_paths` of them.
///    Each path is charged its cost when the walk reaches its return,
///    and its candidates are kept: the accesses transiently reached down
///    the wrong side of each of its branches (PHT), or the later
///    accesses whose address a bypassing load feeds (STL);
/// 2. **witness check** — PHT candidates are confirmed with the taint
///    walk, once per distinct address.
///
/// The work budget is **path-granular**: a path is explored only if the
/// paths before it left budget over, so once one path is cut every later
/// one is. The walk checks this before each block it enters, so it keeps
/// nothing from a cut path.
pub fn analyze_function(
    module: &Module,
    fname: &str,
    engine: HauntedEngine,
    config: HauntedConfig,
) -> HauntedReport {
    let start = Instant::now();
    let acfg = match build_acfg(module, fname) {
        Ok(a) => a,
        Err(e) => {
            let mut r = degraded_report(fname, format!("malformed IR: {e}"));
            r.runtime = start.elapsed();
            return r;
        }
    };
    match engine {
        HauntedEngine::Pht => run(&acfg, fname, config, Pht::new(&acfg, config.rob), start),
        HauntedEngine::Stl => run(&acfg, fname, config, Stl::new(&acfg, config.lsq), start),
    }
}

/// [`analyze_function`]'s two timed phases with one engine.
fn run<E: Relational>(
    f: &Function,
    fname: &str,
    config: HauntedConfig,
    mut engine: E,
    start: Instant,
) -> HauntedReport {
    let t1 = Instant::now();
    let mut walk = PathWalk {
        budget: config.step_budget.max(1) as i64,
        max_paths: config.max_paths,
        paths_explored: 0,
        exhausted: false,
    };
    {
        let mut span = lcm_obs::span("bh_execute", "haunted");
        walk.visit(f, &mut engine, f.entry(), None);
        span.arg_u64("paths", walk.paths_explored as u64);
    }
    let t_execute = t1.elapsed();

    let t2 = Instant::now();
    let leaks = {
        let _span = lcm_obs::span("bh_witness", "haunted");
        engine.leaks(f, fname)
    };
    HauntedReport {
        name: fname.to_string(),
        leaks,
        paths_explored: walk.paths_explored,
        exhausted: walk.exhausted,
        runtime: start.elapsed(),
        t_execute,
        t_witness: t2.elapsed(),
        degraded: None,
    }
}

/// One engine's side of the path walk.
trait Relational {
    /// What [`Relational::leave`] needs to undo an `enter`.
    type Mark;
    /// Extends the current path with block `b`. `wrong` is the other
    /// side of the branch `b` was reached from, if it was.
    fn enter(&mut self, f: &Function, b: BlockId, wrong: Option<BlockId>) -> Self::Mark;
    /// Takes the last entered block off the current path.
    fn leave(&mut self, mark: Self::Mark);
    /// The cost of re-executing the current path, which has just
    /// reached a return.
    fn path_cost(&self) -> u64;
    /// The confirmed leaks of every explored path.
    fn leaks(self, f: &Function, fname: &str) -> Vec<HauntedLeak>;
}

/// The depth-first walk over architectural paths, and its budget.
struct PathWalk {
    /// Step budget left; a path is explored only while it is positive.
    budget: i64,
    max_paths: usize,
    paths_explored: usize,
    exhausted: bool,
}

impl PathWalk {
    /// Walks every path that continues the current one into `b`,
    /// then-side first. A block the walk enters leads to at least one
    /// return, and neither the budget nor the path count changes before
    /// the walk reaches it, so whatever the engine finds on entering `b`
    /// belongs to a path that is explored.
    fn visit<E: Relational>(
        &mut self,
        f: &Function,
        engine: &mut E,
        b: BlockId,
        wrong: Option<BlockId>,
    ) {
        if self.budget <= 0 || self.paths_explored >= self.max_paths {
            self.exhausted = true; // the BH-style timeout: partial results
            return;
        }
        let mark = engine.enter(f, b, wrong);
        match &f.blocks[b.0 as usize].term {
            Terminator::Ret(_) => {
                self.budget -= engine.path_cost() as i64;
                self.paths_explored += 1;
            }
            Terminator::Br(t) => self.visit(f, engine, *t, None),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                self.visit(f, engine, *then_bb, Some(*else_bb));
                self.visit(f, engine, *else_bb, Some(*then_bb));
            }
        }
        engine.leave(mark);
    }
}

/// Forks a transient walk follows before giving up.
const FORK_GUARD: usize = 4096;

/// PHT: at each conditional branch of a path, every transient sub-path
/// down the side the path does not take. That walk depends only on its
/// first block (and `rob`), so it runs once per block; a path is charged
/// the sum of its branches' walk costs.
struct Pht {
    rob: usize,
    /// Per block: the cost of the transient walk from it, once run.
    walk_cost: Vec<Option<u64>>,
    /// The current path's charge so far.
    cost: u64,
    /// Per instruction: whether a walk of an explored path reached it.
    reached: Vec<bool>,
}

impl Pht {
    fn new(f: &Function, rob: usize) -> Pht {
        Pht {
            rob,
            walk_cost: vec![None; f.blocks.len()],
            cost: 0,
            reached: vec![false; f.insts.len()],
        }
    }

    /// Explores every transient sub-path from `start`, at most `rob`
    /// memory operations deep, stopping at fences and after
    /// [`FORK_GUARD`] forks; marks each access reached and returns the
    /// instructions visited.
    fn walk(&mut self, f: &Function, start: BlockId) -> u64 {
        let mut cost = 0;
        let mut stack: Vec<(BlockId, usize)> = vec![(start, 0)];
        let mut forks = 0;
        while let Some((blk, depth)) = stack.pop() {
            forks += 1;
            if forks > FORK_GUARD {
                break;
            }
            let mut d = depth;
            let mut stop = false;
            for &iid in &f.blocks[blk.0 as usize].insts {
                cost += 1;
                if d >= self.rob {
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
                        self.reached[iid.0 as usize] = true;
                    }
                    Inst::Havoc { .. } => d += 1,
                    _ => {}
                }
            }
            if !stop && d < self.rob {
                for s in f.blocks[blk.0 as usize].term.successors() {
                    stack.push((s, d));
                }
            }
        }
        cost
    }
}

impl Relational for Pht {
    type Mark = u64;

    fn enter(&mut self, f: &Function, _: BlockId, wrong: Option<BlockId>) -> u64 {
        let Some(w) = wrong else { return 0 };
        let cost = match self.walk_cost[w.0 as usize] {
            Some(c) => c,
            None => {
                let c = self.walk(f, w);
                self.walk_cost[w.0 as usize] = Some(c);
                c
            }
        };
        self.cost += cost;
        cost
    }

    fn leave(&mut self, cost: u64) {
        self.cost -= cost;
    }

    fn path_cost(&self) -> u64 {
        self.cost
    }

    /// A reached access leaks iff its address is attacker controlled —
    /// computed once per distinct address.
    fn leaks(self, f: &Function, fname: &str) -> Vec<HauntedLeak> {
        let mut taint: HashMap<Value, bool> = HashMap::new();
        let leaking = marked(&self.reached).filter(|&iid| match f.inst(iid) {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => *taint
                .entry(*addr)
                .or_insert_with(|| attacker_controlled(f, *addr)),
            _ => false,
        });
        finish_leaks(fname, leaking, SpeculationPrimitive::ConditionalBranch)
    }
}

/// A memory operation on the current path.
struct MemOp {
    /// The store's address, for stores.
    store: Option<SymAddr>,
    /// Fences before it on the path.
    fences: u32,
    /// The load's instruction, for loads that bypass a store on the path.
    bypassing: Option<InstId>,
}

/// STL: each load may bypass each older store within the `lsq` window
/// that may alias it with no fence in between, and the stale value may
/// reach every later access on the path. Re-executing a path visits each
/// of its N memory operations, scans P window slots, and walks the rest
/// of the path once for each of its K bypassing stores, whose loads sit
/// at positions summing to A − K: N + P + K·N − A steps. Only N depends
/// on more than the prefix, so the walk keeps P, K and A per prefix.
struct Stl<'f> {
    lsq: usize,
    oracle: AddrOracle<'f>,
    /// The current path's memory operations, in order.
    ops: Vec<MemOp>,
    fences: u32,
    /// P, K and A of the current path.
    scanned: u64,
    bypasses: u64,
    bypass_ends: u64,
    /// Per instruction: how often it is a bypassing load on the path.
    bypassing: Vec<u32>,
    /// Per address: the loads that feed it.
    feeds: HashMap<Value, Vec<InstId>>,
    /// Per instruction: whether an explored path has a bypassing load
    /// before it that feeds its address — a leak.
    leaking: Vec<bool>,
}

impl<'f> Stl<'f> {
    fn new(f: &'f Function, lsq: usize) -> Stl<'f> {
        Stl {
            lsq,
            oracle: AddrOracle::new(f),
            ops: Vec::new(),
            fences: 0,
            scanned: 0,
            bypasses: 0,
            bypass_ends: 0,
            bypassing: vec![0; f.insts.len()],
            feeds: HashMap::new(),
            leaking: vec![false; f.insts.len()],
        }
    }

    /// Marks access `t` leaking if a bypassing load earlier on the path
    /// feeds its address.
    fn target(&mut self, f: &Function, t: InstId, addr: Value) {
        if self.leaking[t.0 as usize] {
            return;
        }
        let feeds = self.feeds.entry(addr).or_insert_with(|| {
            lcm_aeg::addr::feeding_loads(f, addr)
                .into_iter()
                .map(|(l, _)| l)
                .collect()
        });
        self.leaking[t.0 as usize] = feeds.iter().any(|l| self.bypassing[l.0 as usize] > 0);
    }

    /// Whether a load at the end of the path bypasses a store in its
    /// window; charges the window's slots and each bypassing store.
    fn bypasses_a_store(&mut self, addr: SymAddr) -> bool {
        let li = self.ops.len();
        let lo = li.saturating_sub(self.lsq);
        self.scanned += (li - lo) as u64;
        let mut bypassing = false;
        for op in &self.ops[lo..] {
            let Some(sa) = op.store else { continue };
            if lcm_aeg::addr::alias(addr, sa) == AliasResult::No || op.fences < self.fences {
                continue;
            }
            self.bypasses += 1;
            self.bypass_ends += li as u64 + 1;
            bypassing = true;
        }
        bypassing
    }
}

impl Relational for Stl<'_> {
    type Mark = (usize, u32, u64, u64, u64);

    fn enter(&mut self, f: &Function, b: BlockId, _: Option<BlockId>) -> Self::Mark {
        let mark = (
            self.ops.len(),
            self.fences,
            self.scanned,
            self.bypasses,
            self.bypass_ends,
        );
        for &i in &f.blocks[b.0 as usize].insts {
            let mut op = MemOp {
                store: None,
                fences: self.fences,
                bypassing: None,
            };
            match f.inst(i) {
                Inst::Load { addr, .. } => {
                    self.target(f, i, *addr);
                    let a = self.oracle.addr(*addr);
                    if self.bypasses_a_store(a) {
                        self.bypassing[i.0 as usize] += 1;
                        op.bypassing = Some(i);
                    }
                }
                Inst::Store { addr, .. } => {
                    self.target(f, i, *addr);
                    op.store = Some(self.oracle.addr(*addr));
                }
                Inst::Havoc { .. } => {}
                Inst::Fence => self.fences += 1,
                _ => continue,
            }
            self.ops.push(op);
        }
        mark
    }

    fn leave(&mut self, (len, fences, scanned, bypasses, bypass_ends): Self::Mark) {
        for op in self.ops.drain(len..) {
            if let Some(l) = op.bypassing {
                self.bypassing[l.0 as usize] -= 1;
            }
        }
        self.fences = fences;
        self.scanned = scanned;
        self.bypasses = bypasses;
        self.bypass_ends = bypass_ends;
    }

    fn path_cost(&self) -> u64 {
        let n = self.ops.len() as u64;
        n + self.scanned + self.bypasses * n - self.bypass_ends
    }

    fn leaks(self, _: &Function, fname: &str) -> Vec<HauntedLeak> {
        finish_leaks(
            fname,
            marked(&self.leaking),
            SpeculationPrimitive::StoreForwarding,
        )
    }
}

/// The instructions whose flag is set, in instruction order.
fn marked(flags: &[bool]) -> impl Iterator<Item = InstId> + '_ {
    (0..flags.len() as u32)
        .map(InstId)
        .filter(|iid| flags[iid.0 as usize])
}

fn finish_leaks(
    fname: &str,
    leaking: impl Iterator<Item = InstId>,
    primitive: SpeculationPrimitive,
) -> Vec<HauntedLeak> {
    leaking
        .map(|inst| HauntedLeak {
            function: fname.to_string(),
            inst,
            primitive,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, engine: HauntedEngine) -> HauntedModuleReport {
        let m = lcm_minic::compile(src).unwrap();
        analyze_module(&m, engine, HauntedConfig::default())
    }

    const SPECTRE_V1: &str = r#"
        int A[16]; int B[256]; int size_A; int tmp;
        void victim(int y) {
            if (y < size_A) {
                tmp &= B[A[y]];
            }
        }"#;

    #[test]
    fn finds_spectre_v1() {
        let r = run(SPECTRE_V1, HauntedEngine::Pht);
        assert!(r.total_leaks() >= 1);
        assert_eq!(
            r.functions[0].leaks[0].primitive,
            SpeculationPrimitive::ConditionalBranch
        );
    }

    #[test]
    fn finds_stl_bypass() {
        let src = r#"
            int pub_ary[256]; int sec[16]; int tmp;
            void case_1(int idx) {
                int ridx = idx & 15;
                sec[ridx] = 0;
                tmp &= pub_ary[sec[ridx]];
            }"#;
        let r = run(src, HauntedEngine::Stl);
        assert!(r.total_leaks() >= 1);
    }

    #[test]
    fn clean_function_reports_nothing() {
        let src = "int A[4]; int t; void f() { t = A[0]; }";
        assert_eq!(run(src, HauntedEngine::Pht).total_leaks(), 0);
        assert_eq!(run(src, HauntedEngine::Stl).total_leaks(), 0);
    }

    #[test]
    fn fence_suppresses_both_engines() {
        let pht_src = r#"
            int A[16]; int B[256]; int size_A; int tmp;
            void victim(int y) { if (y < size_A) { lfence(); tmp &= B[A[y]]; } }"#;
        assert_eq!(run(pht_src, HauntedEngine::Pht).total_leaks(), 0);
        // `register` keeps idx/ridx out of memory so the only bypass pair
        // is the sec store/load across the fence.
        let stl_src = r#"
            int pub_ary[256]; int sec[16]; int tmp;
            void case_1(register int idx) {
                register int ridx = idx & 15;
                sec[ridx] = 0;
                lfence();
                tmp &= pub_ary[sec[ridx]];
            }"#;
        assert_eq!(run(stl_src, HauntedEngine::Stl).total_leaks(), 0);
    }

    #[test]
    fn path_count_grows_exponentially() {
        // 4 sequential ifs: 16 paths — the baseline's scaling burden.
        let src = r#"
            int G;
            void f(int a, int b, int c, int d) {
                if (a) { G = 1; }
                if (b) { G = 2; }
                if (c) { G = 3; }
                if (d) { G = 4; }
            }"#;
        let m = lcm_minic::compile(src).unwrap();
        let r = analyze_function(&m, "f", HauntedEngine::Pht, HauntedConfig::default());
        assert_eq!(r.paths_explored, 16);
    }

    #[test]
    fn path_cap_marks_exhaustion() {
        let src = r#"
            int G;
            void f(int a, int b, int c) {
                if (a) { G = 1; }
                if (b) { G = 2; }
                if (c) { G = 3; }
            }"#;
        let m = lcm_minic::compile(src).unwrap();
        let r = analyze_function(
            &m,
            "f",
            HauntedEngine::Pht,
            HauntedConfig {
                max_paths: 4,
                ..HauntedConfig::default()
            },
        );
        assert!(r.exhausted);
        assert_eq!(r.paths_explored, 4);
    }

    #[test]
    fn no_taxonomy_in_output() {
        // Structural: HauntedLeak has no class field; this test documents
        // the qualitative limitation (§6: "BH does not distinguish...").
        let r = run(SPECTRE_V1, HauntedEngine::Pht);
        let l = &r.functions[0].leaks[0];
        let _: &HauntedLeak = l;
    }
}
