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
//! the product that makes `bh-stl` an order of magnitude slower than
//! `bh-pht` on the same inputs (Table 2).
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

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use lcm_aeg::addr::AddrOracle;
use lcm_aeg::taint::attacker_controlled;
use lcm_core::speculation::SpeculationPrimitive;
use lcm_ir::acfg::build_acfg;
use lcm_ir::{BlockId, Function, Inst, InstId, Module, Terminator};

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
    pub step_budget: u64,
    /// Worker threads: `0` uses all available cores, `1` is exact
    /// serial execution. [`analyze_module`] splits the pool two-level —
    /// across functions first, with left-over workers splitting each
    /// function's enumerated paths. Reports are identical at every
    /// value: per-path work is pure and results merge in path order,
    /// with the step budget applied path-granularly during the merge.
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
    /// Whether the path cap was hit (a "timeout").
    pub exhausted: bool,
    /// Serial runtime.
    pub runtime: Duration,
    /// Time enumerating architectural paths (the 2^branches walk).
    pub t_enumerate: Duration,
    /// Time in relational execution: transient forking (PHT) or bypass
    /// pair enumeration (STL) over every explored path.
    pub t_execute: Duration,
    /// Time confirming candidates as attacker-observable (taint walks /
    /// feeding-load checks), deduplicated across paths.
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
    // Split the worker pool between the two parallelism levels: fan out
    // across functions first, and hand the leftover factor to each
    // function's intra-function path splitting — so a module that is one
    // big function (the mee-cbc/donna shape) still uses every worker.
    let total = lcm_core::par::effective_jobs(config.jobs);
    let outer = total.min(names.len()).max(1);
    let inner_config = HauntedConfig {
        jobs: (total / outer).max(1),
        ..config
    };
    let results = lcm_core::par::map_indexed_catch(&names, outer, |_, name| {
        analyze_function(module, name, engine, inner_config)
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

fn degraded_report(name: &str, reason: String) -> HauntedReport {
    HauntedReport {
        name: name.to_string(),
        leaks: Vec::new(),
        paths_explored: 0,
        exhausted: false,
        runtime: Duration::ZERO,
        t_enumerate: Duration::ZERO,
        t_execute: Duration::ZERO,
        t_witness: Duration::ZERO,
        degraded: Some(reason),
    }
}

/// Runs the baseline over one function. A function that does not exist
/// (or has irreducible control flow) yields a degraded report, not a
/// panic.
///
/// The analysis runs in three timed phases:
///
/// 1. **path enumeration** — the 2^branches architectural walk, into a
///    flat arena (`PathSet`) instead of one `Vec` per path;
/// 2. **relational execution** — per-path transient forking (PHT) or
///    bypass-pair enumeration (STL), producing *candidate* instructions;
///    paths are independent, so with `jobs > 1` they are split across
///    the worker pool and merged in path order;
/// 3. **witness check** — candidates, deduplicated across all paths,
///    are confirmed with the (path-independent) taint walk or
///    feeding-load check, each computed once per distinct address.
///
/// The work budget is **path-granular**: it is checked before each path
/// and charged with the path's full cost after it, so per-path results
/// are pure functions of the path and the merged outcome is identical
/// for any job count.
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

    let mut paths = PathSet::new();
    let mut exhausted = false;
    {
        let _span = lcm_obs::span("bh_enumerate", "haunted");
        enumerate_paths(
            &acfg,
            acfg.entry(),
            &mut Vec::new(),
            &mut paths,
            config.max_paths,
            &mut exhausted,
        );
    }
    let t_enumerate = start.elapsed();

    let t1 = Instant::now();
    let mut budget: i64 = config.step_budget.max(1) as i64;
    let mut paths_explored = 0usize;
    let jobs = lcm_core::par::effective_jobs(config.jobs)
        .min(paths.len())
        .max(1);
    let mut pht_cands: HashSet<InstId> = HashSet::new();
    let mut stl_cands: HashSet<(InstId, InstId)> = HashSet::new();
    {
        let mut span = lcm_obs::span("bh_execute", "haunted");
        span.arg_u64("paths", paths.len() as u64);
        if jobs <= 1 {
            // Exact serial loop: shared scratch, early exit at the budget
            // cutoff without touching the remaining paths.
            let mut scratch = StlScratch::default();
            let mut pht_scratch = PhtScratch::default();
            let mut oracle = AddrOracle::new(&acfg);
            let mut out = Vec::new();
            for i in 0..paths.len() {
                if budget <= 0 {
                    exhausted = true; // the BH-style timeout: partial results
                    break;
                }
                out.clear();
                let cost = match engine {
                    HauntedEngine::Pht => {
                        pht_path_candidates(&acfg, paths.get(i), config, &mut pht_scratch, &mut out)
                    }
                    HauntedEngine::Stl => stl_path_candidates(
                        &acfg,
                        paths.get(i),
                        config,
                        &mut oracle,
                        &mut scratch,
                        &mut out,
                    ),
                };
                budget -= cost as i64;
                paths_explored += 1;
                merge_candidates(engine, &out, &mut pht_cands, &mut stl_cands);
            }
        } else {
            // Intra-function split: each worker owns one oracle/scratch
            // pair and drains path indices off the shared cursor; results
            // come back in path order, so the serial in-order merge below
            // reproduces the jobs = 1 candidate set and budget cutoff
            // exactly (computed-but-cut paths are discarded).
            let indices: Vec<usize> = (0..paths.len()).collect();
            work_units().add(indices.len() as u64);
            let per_path = lcm_core::par::map_indexed_with(
                &indices,
                jobs,
                || {
                    (
                        AddrOracle::new(&acfg),
                        StlScratch::default(),
                        PhtScratch::default(),
                    )
                },
                |(oracle, scratch, pht_scratch), _, &i| {
                    let mut out = Vec::new();
                    let cost = match engine {
                        HauntedEngine::Pht => {
                            pht_path_candidates(&acfg, paths.get(i), config, pht_scratch, &mut out)
                        }
                        HauntedEngine::Stl => stl_path_candidates(
                            &acfg,
                            paths.get(i),
                            config,
                            oracle,
                            scratch,
                            &mut out,
                        ),
                    };
                    (cost, out)
                },
            );
            for (cost, out) in &per_path {
                if budget <= 0 {
                    exhausted = true;
                    break;
                }
                budget -= *cost as i64;
                paths_explored += 1;
                merge_candidates(engine, out, &mut pht_cands, &mut stl_cands);
            }
        }
    }
    let t_execute = t1.elapsed();

    let t2 = Instant::now();
    let leaks = {
        let _span = lcm_obs::span("bh_witness", "haunted");
        match engine {
            HauntedEngine::Pht => pht_witness(&acfg, fname, &pht_cands),
            HauntedEngine::Stl => stl_witness(&acfg, fname, &stl_cands),
        }
    };
    let t_witness = t2.elapsed();

    HauntedReport {
        name: fname.to_string(),
        leaks,
        paths_explored,
        exhausted,
        runtime: start.elapsed(),
        t_enumerate,
        t_execute,
        t_witness,
        degraded: None,
    }
}

/// Enumerated paths in one flat arena: `blocks[starts[i]..starts[i+1]]`
/// is path `i`. Replaces the per-path `Vec<BlockId>` clones that
/// dominated enumeration-phase allocation.
#[derive(Debug)]
struct PathSet {
    starts: Vec<u32>,
    blocks: Vec<BlockId>,
}

impl PathSet {
    fn new() -> PathSet {
        PathSet {
            starts: vec![0],
            blocks: Vec::new(),
        }
    }

    fn push(&mut self, path: &[BlockId]) {
        self.blocks.extend_from_slice(path);
        self.starts.push(self.blocks.len() as u32);
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn get(&self, i: usize) -> &[BlockId] {
        &self.blocks[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// Enumerates architectural block paths through the (acyclic) A-CFG.
fn enumerate_paths(
    f: &Function,
    b: BlockId,
    cur: &mut Vec<BlockId>,
    out: &mut PathSet,
    cap: usize,
    exhausted: &mut bool,
) {
    if out.len() >= cap {
        *exhausted = true;
        return;
    }
    cur.push(b);
    match &f.blocks[b.0 as usize].term {
        Terminator::Ret(_) => out.push(cur),
        Terminator::Br(t) => enumerate_paths(f, *t, cur, out, cap, exhausted),
        Terminator::CondBr {
            then_bb, else_bb, ..
        } => {
            enumerate_paths(f, *then_bb, cur, out, cap, exhausted);
            enumerate_paths(f, *else_bb, cur, out, cap, exhausted);
        }
    }
    cur.pop();
}

/// A per-path candidate: an instruction that *may* leak, pending the
/// witness check. For PHT the transiently reached access; for STL the
/// `(bypassing load, later access)` pair.
#[derive(Debug, Clone, Copy)]
enum Candidate {
    Pht(InstId),
    Stl(InstId, InstId),
}

fn merge_candidates(
    engine: HauntedEngine,
    out: &[Candidate],
    pht: &mut HashSet<InstId>,
    stl: &mut HashSet<(InstId, InstId)>,
) {
    match engine {
        HauntedEngine::Pht => pht.extend(out.iter().map(|c| match c {
            Candidate::Pht(i) => *i,
            Candidate::Stl(..) => unreachable!("STL candidate from PHT path"),
        })),
        HauntedEngine::Stl => stl.extend(out.iter().map(|c| match c {
            Candidate::Stl(l, t) => (*l, *t),
            Candidate::Pht(_) => unreachable!("PHT candidate from STL path"),
        })),
    }
}

/// Reusable per-worker scratch for the PHT path walk: an epoch-stamped
/// seen-array so each distinct instruction is emitted as a candidate at
/// most once per path. The transient windows of neighbouring branch
/// sites overlap heavily, so without the dedup the hot loop pushes (and
/// the merge re-hashes) the same few hundred instructions millions of
/// times per exhausted function.
#[derive(Debug, Default)]
struct PhtScratch {
    epoch: u32,
    seen: Vec<u32>,
}

/// PHT relational execution over one path: at each conditional branch,
/// fork transient sub-paths down the other side and record every
/// transient memory access as a candidate (first visit only; the
/// candidate set is a set). Returns the path's work cost (instruction
/// visits). Pure in `(f, path, config)` — the taint check is deferred
/// to the witness phase.
fn pht_path_candidates(
    f: &Function,
    path: &[BlockId],
    config: HauntedConfig,
    scratch: &mut PhtScratch,
    out: &mut Vec<Candidate>,
) -> u64 {
    scratch.seen.resize(f.insts.len(), 0);
    scratch.epoch = scratch.epoch.wrapping_add(1);
    if scratch.epoch == 0 {
        // Wrapped: stale stamps could collide with the new epoch.
        scratch.seen.fill(0);
        scratch.epoch = 1;
    }
    let epoch = scratch.epoch;
    let mut cost = 0u64;
    for (i, &b) in path.iter().enumerate() {
        let Terminator::CondBr {
            then_bb, else_bb, ..
        } = &f.blocks[b.0 as usize].term
        else {
            continue;
        };
        let arch_next = path.get(i + 1).copied();
        let wrong = if arch_next == Some(*then_bb) {
            *else_bb
        } else {
            *then_bb
        };
        // Explore every transient sub-path from the wrong successor.
        let mut stack: Vec<(BlockId, usize)> = vec![(wrong, 0)];
        let mut fork_guard = 0usize;
        while let Some((blk, depth)) = stack.pop() {
            fork_guard += 1;
            if fork_guard > 4096 {
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
                        let s = &mut scratch.seen[iid.0 as usize];
                        if *s != epoch {
                            *s = epoch;
                            out.push(Candidate::Pht(iid));
                        }
                    }
                    Inst::Havoc { .. } => {
                        d += 1;
                    }
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

/// Reusable per-worker scratch for the STL path walk: the path's memory
/// instructions and a fence prefix-count alongside (so "is there a
/// fence between positions i and j" is two array reads, not a scan).
#[derive(Debug, Default)]
struct StlScratch {
    insts: Vec<InstId>,
    fences: Vec<u32>,
}

impl StlScratch {
    fn fill(&mut self, f: &Function, path: &[BlockId]) {
        self.insts.clear();
        self.fences.clear();
        self.fences.push(0);
        let mut fences = 0u32;
        for &b in path {
            for &i in &f.blocks[b.0 as usize].insts {
                if matches!(
                    f.inst(i),
                    Inst::Load { .. } | Inst::Store { .. } | Inst::Havoc { .. } | Inst::Fence
                ) {
                    if matches!(f.inst(i), Inst::Fence) {
                        fences += 1;
                    }
                    self.insts.push(i);
                    self.fences.push(fences);
                }
            }
        }
    }
}

/// STL relational execution over one path: each load may bypass each
/// older aliasing store within the store-queue window; record the
/// `(load, later access)` pairs the stale value could reach. Returns
/// the path's work cost. The feeding-load confirmation is deferred to
/// the witness phase, where each distinct pair is checked once.
fn stl_path_candidates(
    f: &Function,
    path: &[BlockId],
    config: HauntedConfig,
    oracle: &mut AddrOracle<'_>,
    scratch: &mut StlScratch,
    out: &mut Vec<Candidate>,
) -> u64 {
    scratch.fill(f, path);
    let insts = &scratch.insts;
    let fences = &scratch.fences;
    let mut cost = 0u64;
    for (li, &l) in insts.iter().enumerate() {
        cost += 1;
        let Inst::Load { addr: laddr, .. } = f.inst(l) else {
            continue;
        };
        let la = oracle.addr(*laddr);
        // Enumerate older stores within the LSQ window (the per-path
        // product that dominates bh-stl's runtime).
        let mut bypassed = false;
        for si in li.saturating_sub(config.lsq)..li {
            cost += 1;
            let Inst::Store { addr: saddr, .. } = f.inst(insts[si]) else {
                continue;
            };
            let sa = oracle.addr(*saddr);
            if lcm_aeg::addr::alias(la, sa) == lcm_aeg::addr::AliasResult::No {
                continue;
            }
            // Fence between store and load on this path kills the bypass.
            if fences[li] > fences[si] {
                continue;
            }
            // Charge the stale-value scan per bypassing store, as the
            // serial checker always did, but emit each (load, target)
            // pair once — the candidate set is store-independent.
            cost += insts.len().saturating_sub(li + 1) as u64;
            if !bypassed {
                bypassed = true;
                for &t in &insts[li + 1..] {
                    if matches!(f.inst(t), Inst::Load { .. } | Inst::Store { .. }) {
                        out.push(Candidate::Stl(l, t));
                    }
                }
            }
        }
    }
    cost
}

/// PHT witness check: a candidate leaks iff its address is attacker
/// controlled — a pure function of the address value, computed once per
/// distinct address across every path's candidates.
fn pht_witness(f: &Function, fname: &str, cands: &HashSet<InstId>) -> Vec<HauntedLeak> {
    let mut taint: HashMap<u32, bool> = HashMap::new();
    let mut leaking: Vec<InstId> = Vec::new();
    for &iid in cands {
        let addr = match f.inst(iid) {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => *addr,
            _ => continue,
        };
        let tainted = *taint
            .entry(addr.0)
            .or_insert_with(|| attacker_controlled(f, addr));
        if tainted {
            leaking.push(iid);
        }
    }
    finish_leaks(fname, leaking, SpeculationPrimitive::ConditionalBranch)
}

/// STL witness check: a `(load, target)` candidate leaks at the target
/// iff the load's stale value feeds the target's address — the
/// feeding-load set is computed once per distinct address.
fn stl_witness(f: &Function, fname: &str, cands: &HashSet<(InstId, InstId)>) -> Vec<HauntedLeak> {
    let mut feeds: HashMap<u32, Vec<(InstId, bool)>> = HashMap::new();
    let mut leaking: Vec<InstId> = Vec::new();
    for &(l, t) in cands {
        let taddr = match f.inst(t) {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } => *addr,
            _ => continue,
        };
        let hit = feeds
            .entry(taddr.0)
            .or_insert_with(|| lcm_aeg::addr::feeding_loads(f, taddr))
            .iter()
            .any(|&(ld, _)| ld == l);
        if hit {
            leaking.push(t);
        }
    }
    finish_leaks(fname, leaking, SpeculationPrimitive::StoreForwarding)
}

/// Sorted, deduplicated leak list; the function name is allocated once
/// per confirmed leak instead of once per raw candidate.
fn finish_leaks(
    fname: &str,
    mut leaking: Vec<InstId>,
    primitive: SpeculationPrimitive,
) -> Vec<HauntedLeak> {
    leaking.sort_unstable();
    leaking.dedup();
    leaking
        .into_iter()
        .map(|inst| HauntedLeak {
            function: fname.to_string(),
            inst,
            primitive,
        })
        .collect()
}

fn work_units() -> &'static lcm_obs::metrics::Counter {
    static C: std::sync::OnceLock<lcm_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        lcm_obs::metrics::global().counter(
            lcm_obs::metrics::names::WORK_UNITS,
            "Intra-function work units scheduled on the parallel pool",
        )
    })
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
