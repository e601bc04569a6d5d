//! The leakage detection engines (§5.3).
//!
//! Functions are independent analysis units (each gets its own S-AEG
//! and feasibility checker), and the function is the only unit of
//! parallel work: [`Detector::analyze_module`] fans functions out over
//! [`DetectorConfig::jobs`] [`lcm_core::par`] worker threads, and each
//! function's engine runs on the one thread that claimed it. Results
//! come back in module order, so reports and counters are byte-identical
//! to a serial run at every job count.
//!
//! The engines share one candidate loop, parameterised by
//! [`EngineKind`], over a sequence of work units ((branch, direction)
//! pairs for PHT, loads for STL/PSF). Each unit starts and ends with an
//! empty assumption stack, and the engines drive the function's
//! [`Feasibility`] checker through that stack (`mark`/`push_*`/
//! `truncate`) instead of cloning request vectors per candidate chain.
//! Every stack holds required blocks plus at most one branch decision,
//! which block reachability decides exactly.

use std::sync::Arc;
use std::time::Instant;

use lcm_aeg::addr::{alias, AliasResult};
use lcm_aeg::deps::{ctrl_edges, generalized_addr, Gaddr};
use lcm_aeg::taint::attacker_controlled;
use lcm_aeg::{BranchInfo, EventId, EventKind, FeasStats, Feasibility, Saeg};
use lcm_core::fault::{site, FaultPlan};
use lcm_core::govern::{AnalysisError, Budgets, ResourceGovernor};
use lcm_core::speculation::{SpeculationConfig, SpeculationPrimitive};
use lcm_core::taxonomy::TransmitterClass;
use lcm_ir::{BlockId, Inst, Module};
use lcm_relalg::Relation;

use crate::report::{
    CacheStatus, Finding, FunctionReport, FunctionStatus, ModuleReport, PhaseTimings,
};

/// Which speculation primitive an engine considers (§5.3): Clou-pht and
/// Clou-stl "differ only with regard to the speculation primitives they
/// consider".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Control-flow speculation: Spectre v1 / v1.1.
    Pht,
    /// Store-to-load forwarding: Spectre v4.
    Stl,
    /// **Extension** (beyond Clou's two engines): predictive store
    /// forwarding / alias prediction — a load may forward from an older
    /// store to a *mismatching* address (Spectre-PSF, §3.3 / Fig. 4b).
    Psf,
}

impl EngineKind {
    /// Stable lower-case name (`pht` / `stl` / `psf`) shared by the
    /// wire protocol, trace span args, and metric names.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Pht => "pht",
            EngineKind::Stl => "stl",
            EngineKind::Psf => "psf",
        }
    }
}

/// Folds one function's [`lcm_aeg::FeasStats`] into the process-wide
/// metrics registry — the cumulative view the daemon's `metrics`
/// request and the bench summary expose. One batch of counter adds per
/// analyzed function, nothing on the query hot path.
fn absorb_feas_stats(st: &lcm_aeg::FeasStats) {
    use lcm_obs::metrics::{global, names, Counter};
    use std::sync::OnceLock;
    static HANDLES: OnceLock<[Counter; 2]> = OnceLock::new();
    let [avoided, prefilter] = HANDLES.get_or_init(|| {
        let g = global();
        [
            g.counter(
                names::SAT_QUERIES_AVOIDED,
                "Feasibility queries answered from block reachability",
            ),
            g.counter(
                names::SAT_PREFILTER_HITS,
                "Engine-level candidate checks skipped by hoisted pre-screens",
            ),
        ]
    });
    avoided.add(st.queries_avoided);
    prefilter.add(st.prefilter_hits);
}

/// Lazily memoized per-event steerability (the §5.3 taint filter):
/// [`access_steerable`] is a pure operand-graph walk per access event,
/// but the classify helpers ask it once per feasible chain — hundreds of
/// times per event on branch-dense functions. One byte per event:
/// 0 unknown, 1 not steerable, 2 steerable.
struct SteerCache(Vec<u8>);

impl SteerCache {
    fn new(events: usize) -> SteerCache {
        SteerCache(vec![0; events])
    }

    fn steerable(&mut self, saeg: &Saeg, access: EventId) -> bool {
        match self.0[access.0] {
            0 => {
                let v = access_steerable(saeg, access);
                self.0[access.0] = 1 + u8::from(v);
                v
            }
            v => v == 2,
        }
    }
}

/// Taint filter (§5.3): can the attacker steer the access's address
/// toward arbitrary memory? Pure in `(saeg, access)` — memoized per
/// function by [`SteerCache`].
fn access_steerable(saeg: &Saeg, access: EventId) -> bool {
    let e = &saeg.events[access.0];
    match saeg.acfg.inst(e.inst) {
        Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
            attacker_controlled(&saeg.acfg, *addr)
        }
        Inst::Havoc { .. } => true,
        _ => false,
    }
}

/// Detector configuration (Fig. 6's "configuration parameters").
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// ROB / LSQ / speculation-depth capacities. Paper default: 250/50.
    pub spec: SpeculationConfig,
    /// Sliding-window size `W_size` (§6.2.1): chain members must lie
    /// within this many instructions of the transmitter.
    pub window: usize,
    /// Report only this transmitter class (the paper runs Clou once per
    /// class of interest); `None` reports every class.
    pub target_class: Option<TransmitterClass>,
    /// PHT benign-leak filter: the first `addr` dependency of a universal
    /// pattern must be `addr_gep` (§5.3). Never applied to STL.
    pub gep_filter: bool,
    /// §6.2.1: ignore universal patterns whose access instruction is
    /// non-transient when searching UDTs/UCTs — classify them as DTs/CTs.
    pub universal_needs_transient_access: bool,
    /// **Extension** (§7: "adding support for secrecy labels to Clou can
    /// help filter benign DTs/CTs"): keep only findings whose access may
    /// read memory marked secret (globals named `sec*` / `*secret*` /
    /// `*key*` in mini-C, or any unresolvable pointer).
    pub secret_filter: bool,
    /// **Extension** (the "new attack variant" of §6.1 / speculative
    /// interference): also report transient instructions that warm a cache
    /// line for a same-address committed load (an rf-NI violation whose
    /// receiver is architectural).
    pub detect_interference: bool,
    /// Functions analyzed at once: `0` uses all available cores, `1` is
    /// exact serial execution. Each function's engine runs on one
    /// thread, so a module with fewer functions than `jobs` leaves the
    /// spare workers idle. Findings and counters are identical at every
    /// value.
    pub jobs: usize,
    /// Per-function resource budgets (wall-clock deadline, S-AEG size).
    /// The default is unlimited; a function exceeding a budget is
    /// reported `Degraded` instead of blocking the module (Clou's §6
    /// per-function-timeout discipline).
    pub budgets: Budgets,
    /// Armed fault-injection sites (tests only). Merged with the
    /// `LCM_FAULT` environment variable at analysis time.
    pub faults: FaultPlan,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            spec: SpeculationConfig::default(),
            window: 250,
            target_class: None,
            gep_filter: true,
            universal_needs_transient_access: true,
            secret_filter: false,
            detect_interference: false,
            jobs: 0,
            budgets: Budgets::default(),
            faults: FaultPlan::default(),
        }
    }
}

/// Predecessor lists of the dependency relations, hoisted out of the
/// engines' nested loops: [`Relation::predecessors`] is an O(n) column
/// scan, far too slow to re-run once per (transmitter, access) pair.
/// Iteration order matches `predecessors` exactly (ascending).
struct DepPreds {
    /// `gaddr.plain` predecessors per event.
    gaddr: Vec<Vec<EventId>>,
    /// `gaddr.gep` predecessors per event.
    gep: Vec<Vec<EventId>>,
    /// `ctrl` predecessors per event.
    ctrl: Vec<Vec<EventId>>,
}

impl DepPreds {
    fn build(n: usize, gaddr: &Gaddr, ctrl: &Relation) -> DepPreds {
        let lists = |r: &Relation| -> Vec<Vec<EventId>> {
            let t = r.transpose();
            (0..n)
                .map(|e| t.successors(e).map(EventId).collect())
                .collect()
        };
        DepPreds {
            gaddr: lists(&gaddr.plain),
            gep: lists(&gaddr.gep),
            ctrl: lists(ctrl),
        }
    }
}

/// The Clou-style detector: builds S-AEGs and runs a leakage detection
/// engine over each public function.
#[derive(Debug, Clone, Default)]
pub struct Detector {
    config: DetectorConfig,
}

impl Detector {
    /// A detector with the given configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Detector { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Analyzes every public function of the module with one engine,
    /// fanning functions out over [`DetectorConfig::jobs`] worker
    /// threads, one thread per function. Reports come back in module
    /// order regardless of the thread count.
    ///
    /// The report is *partial on failure*: a function that exceeds a
    /// [`DetectorConfig::budgets`] limit, fails A-CFG construction, or
    /// panics its worker comes back `Degraded` with a typed
    /// [`AnalysisError`]; the other functions are unaffected.
    pub fn analyze_module(&self, module: &Module, engine: EngineKind) -> ModuleReport {
        let names: Vec<&str> = module.public_functions().map(|f| f.name.as_str()).collect();
        let faults = self.config.faults.merged_with_env();
        let results = lcm_core::par::map_indexed_catch(&names, self.config.jobs, |i, name| {
            self.analyze_function_governed(module, name, engine, i, &faults)
        });
        let functions = results
            .into_iter()
            .zip(&names)
            .map(|(res, name)| match res {
                Ok(report) => report,
                Err(message) => FunctionReport::degraded(
                    name.to_string(),
                    AnalysisError::WorkerPanic { message },
                ),
            })
            .collect();
        ModuleReport { functions }
    }

    /// Analyzes a single function on the calling thread (`jobs` is not
    /// read). A missing function, irreducible control flow, an exceeded
    /// budget, or an armed fault site yields a `Degraded` report rather
    /// than a panic.
    pub fn analyze_function(
        &self,
        module: &Module,
        fname: &str,
        engine: EngineKind,
    ) -> FunctionReport {
        let index = module
            .public_functions()
            .position(|f| f.name == fname)
            .unwrap_or(0);
        let faults = self.config.faults.merged_with_env();
        self.analyze_function_governed(module, fname, engine, index, &faults)
    }

    /// The governed per-function pipeline. `index` is the function's
    /// position in module order (keys the fault plan); panics from the
    /// `worker_panic` site (or real bugs) are caught by
    /// [`Self::analyze_module`]'s `catch_unwind` fan-out.
    fn analyze_function_governed(
        &self,
        module: &Module,
        fname: &str,
        engine: EngineKind,
        index: usize,
        faults: &FaultPlan,
    ) -> FunctionReport {
        let start = Instant::now();
        let gov = Arc::new(ResourceGovernor::new(
            self.config.budgets.clone(),
            faults,
            index,
        ));
        if gov.fault_fires(site::WORKER_PANIC) {
            panic!("injected fault: worker_panic in function {index} (`{fname}`)");
        }
        let degraded = |err: AnalysisError, start: Instant| {
            let mut r = FunctionReport::degraded(fname.to_string(), err);
            r.runtime = start.elapsed();
            r
        };
        if !gov.poll_now() {
            return degraded(gov.tripped().expect("governor tripped"), start);
        }
        let t0 = Instant::now();
        let mut sp = lcm_obs::span("acfg_build", "detect");
        sp.arg_str("fn", fname);
        let acfg = if gov.fault_fires(site::MALFORMED_IR) {
            Err(AnalysisError::MalformedIr {
                message: format!("injected fault: malformed_ir in `{fname}`"),
            })
        } else {
            lcm_ir::acfg::build_acfg(module, fname).map_err(|e| AnalysisError::MalformedIr {
                message: e.to_string(),
            })
        };
        drop(sp);
        let acfg = match acfg {
            Ok(a) => a,
            Err(e) => return degraded(e, start),
        };
        let acfg_build = t0.elapsed();
        let t1 = Instant::now();
        let mut sp = lcm_obs::span("saeg_build", "detect");
        sp.arg_str("fn", fname);
        let saeg = Saeg::from_acfg(fname, acfg, self.config.spec);
        sp.arg_u64("events", saeg.events.len() as u64);
        drop(sp);
        let saeg_build = t1.elapsed();
        let mut report = if !gov.check_saeg(saeg.events.len(), saeg.edge_count()) || !gov.poll_now()
        {
            degraded(gov.tripped().expect("governor tripped"), start)
        } else {
            self.analyze_saeg_report_governed(module, &saeg, engine, Some(&gov))
        };
        report.saeg_size = saeg.events.len();
        report.timings.acfg_build = acfg_build;
        report.timings.saeg_build = saeg_build;
        report.runtime = start.elapsed();
        report
    }

    /// Runs one engine over an already-built S-AEG, producing a full
    /// report (filters, severity ordering, phase timings) — this lets
    /// callers that need several engines over the same function build
    /// the S-AEG once. `timings.acfg_build`/`saeg_build` are zero here;
    /// [`Self::analyze_function`] fills them in. Ungoverned: budgets and
    /// fault sites are not applied (see [`Self::analyze_saeg_report_at`]).
    pub fn analyze_saeg_report(
        &self,
        module: &Module,
        saeg: &Saeg,
        engine: EngineKind,
    ) -> FunctionReport {
        self.analyze_saeg_report_governed(module, saeg, engine, None)
    }

    /// Like [`Self::analyze_saeg_report`], but governed by
    /// [`DetectorConfig::budgets`] and the fault plan, with the function
    /// at `index` in module order. Used by callers that build S-AEGs
    /// themselves (the fig8 bench) but still want graceful degradation.
    pub fn analyze_saeg_report_at(
        &self,
        module: &Module,
        saeg: &Saeg,
        engine: EngineKind,
        index: usize,
    ) -> FunctionReport {
        let faults = self.config.faults.merged_with_env();
        let gov = Arc::new(ResourceGovernor::new(
            self.config.budgets.clone(),
            &faults,
            index,
        ));
        if !gov.check_saeg(saeg.events.len(), saeg.edge_count()) || !gov.poll_now() {
            let mut r = FunctionReport::degraded(
                saeg.fname.clone(),
                gov.tripped().expect("governor tripped"),
            );
            r.saeg_size = saeg.events.len();
            return r;
        }
        self.analyze_saeg_report_governed(module, saeg, engine, Some(&gov))
    }

    fn analyze_saeg_report_governed(
        &self,
        module: &Module,
        saeg: &Saeg,
        engine: EngineKind,
        gov: Option<&Arc<ResourceGovernor>>,
    ) -> FunctionReport {
        let start = Instant::now();
        let (mut findings, timings) = self.analyze_saeg_timed(saeg, engine, gov);
        if self.config.secret_filter {
            findings.retain(|f| secret_relevant(module, saeg, f));
        }
        findings.sort_by_key(|f| std::cmp::Reverse(f.class.severity_rank()));
        // Findings gathered before a trip are kept: a degraded report is
        // a lower bound, not garbage.
        let status = match gov.and_then(|g| g.tripped()) {
            Some(err) => FunctionStatus::Degraded(err),
            None => FunctionStatus::Completed,
        };
        FunctionReport {
            name: saeg.fname.clone(),
            transmitters: findings,
            saeg_size: saeg.events.len(),
            runtime: start.elapsed(),
            timings,
            status,
            cache: CacheStatus::Bypass,
        }
    }

    /// Runs one engine over an already-built S-AEG.
    pub fn analyze_saeg(&self, saeg: &Saeg, engine: EngineKind) -> Vec<Finding> {
        self.analyze_saeg_timed(saeg, engine, None).0
    }

    /// Engine run with the encode/classify breakdown attached.
    fn analyze_saeg_timed(
        &self,
        saeg: &Saeg,
        engine: EngineKind,
        gov: Option<&Arc<ResourceGovernor>>,
    ) -> (Vec<Finding>, PhaseTimings) {
        let t0 = Instant::now();
        let mut sp = lcm_obs::span("engine_run", "detect");
        sp.arg_str("fn", &saeg.fname);
        sp.arg_str("engine", engine.label());
        let mut feas = Feasibility::new(saeg);
        if let Some(g) = gov {
            feas.attach_governor(Arc::clone(g));
        }
        let run = EngineRun::new(&self.config, saeg, engine);
        let (mut raw, st) = run.run_units(&mut feas);
        // Deduplicate by (transmitter, class, primitive); keep first.
        let mut seen = std::collections::HashSet::new();
        raw.retain(|f| seen.insert(f.key()));
        if let Some(c) = self.config.target_class {
            raw.retain(|f| f.class == c);
        }
        sp.arg_u64("queries_avoided", st.queries_avoided);
        sp.arg_u64("findings", raw.len() as u64);
        drop(sp);
        absorb_feas_stats(&st);
        let total = t0.elapsed();
        let timings = PhaseTimings {
            encode: st.encode,
            classify: total.saturating_sub(st.encode),
            queries_avoided: st.queries_avoided,
            prefilter_hits: st.prefilter_hits,
            ..PhaseTimings::default()
        };
        (raw, timings)
    }
}

/// One engine run over one function. All three engines share this
/// candidate loop: a sequence of work units — (branch, misprediction
/// direction) pairs for PHT, loads for STL/PSF — run in order by
/// [`Self::run_units`]. The checks, the classification and the finding
/// builder are common to all of them.
struct EngineRun<'a> {
    config: &'a DetectorConfig,
    saeg: &'a Saeg,
    kind: EngineKind,
    /// The speculation primitive every finding of this run names.
    primitive: SpeculationPrimitive,
    gaddr: Gaddr,
    ctrl: Relation,
    preds: DepPreds,
    loads: Vec<EventId>,
    stores: Vec<EventId>,
}

/// What a work unit's findings stem from.
#[derive(Clone, Copy)]
enum Origin {
    /// A mispredicted conditional branch (PHT).
    Branch(BlockId),
    /// A store forwarded into a load (STL/PSF).
    Store(EventId),
}

/// Scratch reused across work units: the PHT window bitset (cleared
/// again when a unit ends), the steerability memo, and the findings so
/// far.
struct Scratch {
    in_win: Vec<bool>,
    steer: SteerCache,
    out: Vec<Finding>,
}

impl Scratch {
    fn new(events: usize) -> Scratch {
        Scratch {
            in_win: vec![false; events],
            steer: SteerCache::new(events),
            out: Vec::new(),
        }
    }
}

impl<'a> EngineRun<'a> {
    fn new(config: &'a DetectorConfig, saeg: &'a Saeg, kind: EngineKind) -> Self {
        let gaddr = generalized_addr(saeg);
        let ctrl = ctrl_edges(saeg);
        EngineRun {
            config,
            saeg,
            kind,
            primitive: match kind {
                EngineKind::Pht => SpeculationPrimitive::ConditionalBranch,
                EngineKind::Stl => SpeculationPrimitive::StoreForwarding,
                EngineKind::Psf => SpeculationPrimitive::AliasPrediction,
            },
            preds: DepPreds::build(saeg.events.len(), &gaddr, &ctrl),
            gaddr,
            ctrl,
            loads: saeg.loads().map(|e| e.id).collect(),
            stores: saeg.stores().map(|e| e.id).collect(),
        }
    }

    /// Runs every work unit in order on `feas` and returns the findings
    /// with the run's feasibility stats. The governor is polled before
    /// each PHT branch (both directions) and before each load.
    fn run_units(&self, feas: &mut Feasibility) -> (Vec<Finding>, FeasStats) {
        let mut sc = Scratch::new(self.saeg.events.len());
        match self.kind {
            EngineKind::Pht => {
                for br in &self.saeg.branches {
                    if !feas.governor_ok() {
                        break;
                    }
                    self.pht_unit(feas, &mut sc, br, true);
                    self.pht_unit(feas, &mut sc, br, false);
                }
            }
            EngineKind::Stl | EngineKind::Psf => {
                for &l in &self.loads {
                    if !feas.governor_ok() {
                        break;
                    }
                    self.forward_unit(feas, &mut sc, l);
                }
            }
        }
        (sc.out, feas.stats())
    }

    fn within_window(&self, a: EventId, t: EventId) -> bool {
        let (pa, pt) = (self.saeg.events[a.0].pos, self.saeg.events[t.0].pos);
        pt >= pa && pt - pa <= self.config.window
    }

    /// One candidate check: requires the blocks to execute and asks
    /// whether the stack is still feasible. `unchanged` says the pushes
    /// add nothing the verified stack did not already require, so the
    /// answer is the previous one — true — without a query. Returns the
    /// mark to truncate back to, or `None` (stack restored) when the
    /// candidate is infeasible.
    fn check(&self, feas: &mut Feasibility, blocks: &[BlockId], unchanged: bool) -> Option<usize> {
        let m = feas.mark();
        debug_assert!(
            !unchanged || blocks.iter().all(|&b| feas.requires(b)),
            "an unchanged push must repeat a block already on the stack"
        );
        for &b in blocks {
            feas.push_block(b);
        }
        if unchanged {
            feas.note_prefilter_hit();
            return Some(m);
        }
        if feas.check_stack() {
            Some(m)
        } else {
            feas.truncate(m);
            None
        }
    }

    /// PHT unit: the attacker poisons the predictor so `br` mispredicts
    /// (§3.3), and every event in the speculative window may execute
    /// transiently.
    fn pht_unit(
        &self,
        feas: &mut Feasibility,
        sc: &mut Scratch,
        br: &BranchInfo,
        mispredict_then: bool,
    ) {
        // Architectural direction is the opposite of the mispredicted
        // fetch direction.
        let base = feas.mark();
        feas.push_block(br.block);
        feas.push_decision(br.block, !mispredict_then);
        if !feas.check_stack() {
            feas.truncate(base);
            return;
        }
        let window = self.saeg.spec_window(br, mispredict_then);
        for &e in &window {
            sc.in_win[e.0] = true;
        }
        for &t in &window {
            if !feas.governor_ok() {
                break;
            }
            if self.saeg.events[t.0].kind == EventKind::Fence {
                continue;
            }
            self.pht_chains(feas, sc, br.block, t, TransmitterClass::Data);
            // Extension: speculative-interference DT (§6.1's "new
            // attack variant").
            if self.config.detect_interference {
                self.interference(feas, sc, br.block, t);
            }
            self.pht_chains(feas, sc, br.block, t, TransmitterClass::Control);
        }
        for &e in &window {
            sc.in_win[e.0] = false;
        }
        feas.truncate(base);
    }

    /// The PHT chains `access -dep-> t` into transmitter `t` along one
    /// dependency: `addr` for `Data` chains, `ctrl` for `Control` ones.
    /// Each feasible chain goes to [`Self::classify`].
    fn pht_chains(
        &self,
        feas: &mut Feasibility,
        sc: &mut Scratch,
        branch: BlockId,
        t: EventId,
        chain: TransmitterClass,
    ) {
        let data = chain == TransmitterClass::Data;
        let accesses = if data {
            &self.preds.gaddr[t.0]
        } else {
            &self.preds.ctrl[t.0]
        };
        for &access in accesses {
            if access == t || !self.within_window(access, t) {
                continue;
            }
            let transient = sc.in_win[access.0];
            if data && !transient && !self.saeg.precedes(access, t) {
                continue;
            }
            // A transient access adds nothing to the stack: the answer
            // is the base query's, already true.
            let block = self.saeg.events[access.0].block;
            let blocks: &[BlockId] = if transient { &[] } else { &[block] };
            let Some(m) = self.check(feas, blocks, transient) else {
                continue;
            };
            self.classify(feas, sc, branch, t, access, chain);
            feas.truncate(m);
        }
    }

    /// Emits the finding for a PHT chain of kind `chain` (`Data` or
    /// `Control`) and, if an index steers the access, its universal
    /// upgrade. The chain's feasibility requirements are the current
    /// assumption stack.
    fn classify(
        &self,
        feas: &Feasibility,
        sc: &mut Scratch,
        branch: BlockId,
        t: EventId,
        access: EventId,
        chain: TransmitterClass,
    ) {
        let o = Origin::Branch(branch);
        let access_transient = sc.in_win[access.0];
        sc.out.push(Finding {
            access_transient,
            ..self.finding(feas, o, t, chain, access, None)
        });
        // Universal upgrade: an index steers the access.
        let index_rel = if self.config.gep_filter {
            &self.preds.gep
        } else {
            &self.preds.gaddr
        };
        let steerable = sc.steer.steerable(self.saeg, access);
        if steerable && (!self.config.universal_needs_transient_access || access_transient) {
            let universal = if chain == TransmitterClass::Data {
                TransmitterClass::UniversalData
            } else {
                TransmitterClass::UniversalControl
            };
            for &index in &index_rel[access.0] {
                if index == access || !self.within_window(index, t) {
                    continue;
                }
                sc.out.push(Finding {
                    access_transient,
                    ..self.finding(feas, o, t, universal, access, Some(index))
                });
            }
        }
    }

    /// Extension: findings where a transient event `t` fills the cache
    /// line of a committed same-address load `e` (whose architectural
    /// `rf` partner is not `t` — an rf-NI violation with an architectural
    /// receiver). Emitted as DTs when `t`'s address carries data.
    /// Assumes the PHT base requirements (branch + architectural
    /// direction) are already on `feas`'s assumption stack.
    fn interference(&self, feas: &mut Feasibility, sc: &mut Scratch, branch: BlockId, t: EventId) {
        let Some(t_addr) = self.saeg.events[t.0].addr else {
            return;
        };
        let o = Origin::Branch(branch);
        for e in self.saeg.loads() {
            if e.id == t {
                continue;
            }
            let Some(e_addr) = e.addr else { continue };
            if alias(t_addr, e_addr) == AliasResult::No {
                continue;
            }
            let Some(m) = self.check(feas, &[e.block], e.block == branch) else {
                continue;
            };
            for &access in &self.preds.gaddr[t.0] {
                if access == t {
                    continue;
                }
                sc.out.push(Finding {
                    interference: true,
                    ..self.finding(feas, o, t, TransmitterClass::Data, access, None)
                });
            }
            feas.truncate(m);
        }
    }

    /// Store-forwarding unit for load `l`: an older in-LSQ store `s`
    /// forwards into `l`. STL (Spectre v4, §3.3) bypasses the first older
    /// store whose address may alias `l`'s and has not resolved, so `l`
    /// reads stale data. PSF (extension, Fig. 4b) mispredicts an alias
    /// and forwards from every older store the alias oracle proves
    /// *distinct* — exactly the pairs STL excludes.
    fn forward_unit(&self, feas: &mut Feasibility, sc: &mut Scratch, l: EventId) {
        let psf = self.kind == EngineKind::Psf;
        let le = &self.saeg.events[l.0];
        for &s in &self.stores {
            if s == l || !self.saeg.precedes(s, l) {
                continue;
            }
            let se = &self.saeg.events[s.0];
            if le.pos - se.pos > self.config.spec.lsq_size {
                continue;
            }
            let a = match (se.addr, le.addr) {
                (Some(x), Some(y)) => alias(x, y),
                _ => AliasResult::May, // havoc side
            };
            if (a == AliasResult::No) != psf || self.saeg.always_fenced_between(s, l) {
                continue;
            }
            self.forward(feas, sc, s, l);
            if !psf {
                break;
            }
        }
    }

    /// The chains a forward from `s` into `l` feeds. `l`'s value — stale
    /// (STL) or the mismatching store's data (PSF) — is a transient read
    /// (squashed on re-execution) that flows into transmitters.
    fn forward(&self, feas: &mut Feasibility, sc: &mut Scratch, s: EventId, l: EventId) {
        let saeg = self.saeg;
        let (s_blk, l_blk) = (saeg.events[s.0].block, saeg.events[l.0].block);
        let Some(base) = self.check(feas, &[s_blk, l_blk], false) else {
            return;
        };
        let o = Origin::Store(s);
        let stl = self.kind == EngineKind::Stl;
        for t in self.gaddr.plain.successors(l.0).map(EventId) {
            if t == l || !self.within_window(l, t) || !saeg.precedes(l, t) {
                continue;
            }
            // A block already on the verified stack adds nothing.
            let t_blk = saeg.events[t.0].block;
            let Some(m) = self.check(feas, &[t_blk], t_blk == s_blk || t_blk == l_blk) else {
                continue;
            };
            // DT: t leaks l's value directly.
            sc.out
                .push(self.finding(feas, o, t, TransmitterClass::Data, l, None));
            // UDT: t is an access whose address carries l's value; its
            // value steers a further transmitter.
            for t2 in self.gaddr.plain.successors(t.0).map(EventId) {
                if t2 == t || !self.within_window(t, t2) || !saeg.precedes(t, t2) {
                    continue;
                }
                let b = saeg.events[t2.0].block;
                let Some(m2) = self.check(feas, &[b], b == s_blk || b == l_blk || b == t_blk)
                else {
                    continue;
                };
                let class = TransmitterClass::UniversalData;
                sc.out.push(self.finding(feas, o, t2, class, t, Some(l)));
                feas.truncate(m2);
            }
            // UCT (STL): t's value steers a branch shadowing a
            // transmitter.
            if stl {
                for t2 in self.ctrl.successors(t.0).map(EventId) {
                    if t2 == t || !self.within_window(t, t2) {
                        continue;
                    }
                    let b = saeg.events[t2.0].block;
                    let Some(m2) = self.check(feas, &[b], b == s_blk || b == l_blk || b == t_blk)
                    else {
                        continue;
                    };
                    let class = TransmitterClass::UniversalControl;
                    sc.out.push(Finding {
                        transient_transmitter: false,
                        ..self.finding(feas, o, t2, class, t, Some(l))
                    });
                    feas.truncate(m2);
                }
            }
            feas.truncate(m);
        }
        // CT (STL): l's value feeds a branch condition whose shadow
        // contains a transmitter.
        if stl {
            for t in self.ctrl.successors(l.0).map(EventId) {
                if t == l || !self.within_window(l, t) {
                    continue;
                }
                let t_blk = saeg.events[t.0].block;
                let Some(m) = self.check(feas, &[t_blk], t_blk == s_blk || t_blk == l_blk) else {
                    continue;
                };
                sc.out.push(Finding {
                    transient_transmitter: false,
                    ..self.finding(feas, o, t, TransmitterClass::Control, l, None)
                });
                feas.truncate(m);
            }
        }
        feas.truncate(base);
    }

    /// Builds one finding with a transient transmitter and a transient
    /// access (callers override the exceptions); the witness seed is
    /// read off the current assumption stack. The full
    /// path is materialized lazily by [`Finding::witness_path`] when a
    /// witness is rendered.
    fn finding(
        &self,
        feas: &Feasibility,
        o: Origin,
        t: EventId,
        class: TransmitterClass,
        access: EventId,
        index: Option<EventId>,
    ) -> Finding {
        let (branch, bypassed_store) = match o {
            Origin::Branch(b) => (Some(b), None),
            Origin::Store(s) => (None, Some(s)),
        };
        let seed = feas.stack_seed();
        Finding {
            function: self.saeg.fname.clone(),
            transmitter: t,
            transmitter_inst: self.saeg.events[t.0].inst,
            class,
            transient_transmitter: true,
            access: Some(access),
            access_transient: true,
            index,
            primitive: self.primitive,
            branch,
            bypassed_store,
            interference: false,
            witness_blocks: seed.blocks,
            witness_dir: seed.branch_dir,
        }
    }
}

/// Whether a finding's access may read secret-marked memory (extension:
/// the secrecy-label filter of §7). `Unknown` regions (unresolvable
/// pointers) are conservatively secret-reaching.
pub fn secret_relevant(module: &Module, saeg: &Saeg, f: &Finding) -> bool {
    use lcm_aeg::addr::Region;
    let probe = f.access.unwrap_or(f.transmitter);
    match saeg.events[probe.0].addr.map(|a| a.region) {
        Some(Region::Global(g)) => module.globals.get(g as usize).is_some_and(|gl| gl.secret),
        Some(Region::Alloca(_)) => false,
        Some(Region::Unknown) | None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pht(src: &str) -> ModuleReport {
        let m = lcm_minic::compile(src).unwrap();
        Detector::new(DetectorConfig::default()).analyze_module(&m, EngineKind::Pht)
    }

    fn stl(src: &str) -> ModuleReport {
        let m = lcm_minic::compile(src).unwrap();
        Detector::new(DetectorConfig::default()).analyze_module(&m, EngineKind::Stl)
    }

    const SPECTRE_V1: &str = r#"
        int A[16]; int B[256]; int size_A; int tmp;
        void victim(int y) {
            if (y < size_A) {
                tmp &= B[A[y]];
            }
        }"#;

    #[test]
    fn spectre_v1_found_by_pht() {
        let r = pht(SPECTRE_V1);
        assert!(r.count(TransmitterClass::UniversalData) >= 1, "UDT found");
        assert!(r.count(TransmitterClass::Data) >= 1, "DTs found");
        assert!(r.count(TransmitterClass::Control) >= 1, "CTs found");
        let udt = r
            .findings()
            .find(|f| f.class == TransmitterClass::UniversalData)
            .unwrap();
        assert!(udt.transient_transmitter);
        assert!(udt.access_transient, "v1's access is transient");
        assert_eq!(udt.primitive, SpeculationPrimitive::ConditionalBranch);
        assert!(udt.branch.is_some());
        assert!(!udt.witness_blocks.is_empty());
        // Lazy witness: the path materializes from the seed on demand.
        let m = lcm_minic::compile(SPECTRE_V1).unwrap();
        let saeg = Saeg::build(&m, "victim", SpeculationConfig::default()).unwrap();
        let path = udt.witness_path(&saeg);
        assert!(path.contains(&lcm_ir::BlockId(0)));
        assert!(path.contains(&udt.branch.unwrap()));
    }

    #[test]
    fn spectre_v1_variant_access_committed() {
        // Fig. 3: x = A[y] before the bounds check; access commits, so the
        // universal pattern is downgraded to DT under the §6.2.1
        // restriction (still detected as UDT with the restriction off).
        let src = r#"
            int A[16]; int B[256]; int size_A; int tmp;
            void victim(int y) {
                int x = A[y];
                if (y < size_A) {
                    tmp &= B[x];
                }
            }"#;
        let restricted = pht(src);
        assert!(restricted.count(TransmitterClass::Data) >= 1);
        let m = lcm_minic::compile(src).unwrap();
        let relaxed = Detector::new(DetectorConfig {
            universal_needs_transient_access: false,
            ..DetectorConfig::default()
        })
        .analyze_module(&m, EngineKind::Pht);
        assert!(relaxed.count(TransmitterClass::UniversalData) >= 1);
        let udt = relaxed
            .findings()
            .find(|f| f.class == TransmitterClass::UniversalData)
            .unwrap();
        assert!(!udt.access_transient, "Fig. 3's access commits");
    }

    #[test]
    fn safe_function_is_clean() {
        let r = pht("int A[16]; int t; void safe(int y) { t = A[0] + A[1]; }");
        assert!(r.is_clean());
        let r = stl("int A[16]; int t; void safe(int y) { t = A[0] + A[1]; }");
        assert!(r.is_clean());
    }

    #[test]
    fn fenced_spectre_v1_is_clean() {
        let src = r#"
            int A[16]; int B[256]; int size_A; int tmp;
            void victim(int y) {
                if (y < size_A) {
                    lfence();
                    tmp &= B[A[y]];
                }
            }"#;
        let r = pht(src);
        assert_eq!(r.count(TransmitterClass::UniversalData), 0);
        assert_eq!(r.count(TransmitterClass::Data), 0);
    }

    #[test]
    fn spectre_v4_found_by_stl_not_pht() {
        // STL01-style: the spilled parameter's reload can bypass its spill
        // store... make it explicit with an idx stored then reloaded.
        let src = r#"
            int A[16]; int B[256]; int pub_ary[256]; int sec[16]; int tmp;
            void case_1(int idx) {
                int ridx = idx & 15;
                sec[ridx] = 0;
                tmp &= pub_ary[sec[ridx]];
            }"#;
        let r = stl(src);
        assert!(
            r.count(TransmitterClass::Data) + r.count(TransmitterClass::UniversalData) >= 1,
            "STL leak found: {:?}",
            r.findings().collect::<Vec<_>>()
        );
        let f = r.findings().next().unwrap();
        assert_eq!(f.primitive, SpeculationPrimitive::StoreForwarding);
        assert!(f.bypassed_store.is_some());
    }

    #[test]
    fn target_class_filters_results() {
        let m = lcm_minic::compile(SPECTRE_V1).unwrap();
        let only_udt = Detector::new(DetectorConfig {
            target_class: Some(TransmitterClass::UniversalData),
            ..DetectorConfig::default()
        })
        .analyze_module(&m, EngineKind::Pht);
        assert!(only_udt
            .findings()
            .all(|f| f.class == TransmitterClass::UniversalData));
        assert!(only_udt.count(TransmitterClass::UniversalData) >= 1);
    }

    #[test]
    fn shallow_speculation_depth_misses_deep_transmitters() {
        let m = lcm_minic::compile(SPECTRE_V1).unwrap();
        let shallow = Detector::new(DetectorConfig {
            spec: SpeculationConfig::default().with_depth(1),
            ..DetectorConfig::default()
        })
        .analyze_module(&m, EngineKind::Pht);
        let deep = Detector::new(DetectorConfig::default()).analyze_module(&m, EngineKind::Pht);
        assert!(
            shallow.count(TransmitterClass::UniversalData)
                <= deep.count(TransmitterClass::UniversalData)
        );
    }

    #[test]
    fn both_branch_directions_considered() {
        // The leak sits on the else-side: misprediction toward else.
        let src = r#"
            int A[16]; int B[256]; int size_A; int tmp;
            void victim(int y) {
                if (y >= size_A) { tmp = 0; } else { tmp &= B[A[y]]; }
            }"#;
        let r = pht(src);
        assert!(r.count(TransmitterClass::UniversalData) >= 1);
    }

    #[test]
    fn runtime_and_size_recorded() {
        let r = pht(SPECTRE_V1);
        let f = &r.functions[0];
        assert!(f.saeg_size > 0);
    }

    /// A PSF-only gadget (Fig. 4b shape): the store and the leaking load
    /// provably never alias, so ordinary STL cannot forward — only alias
    /// prediction can.
    const PSF_GADGET: &str = r#"
        int C[2]; int A[4096]; int B[4096]; int tmp;
        void psf_victim(register int y) {
            C[0] = 64;
            tmp &= B[A[C[1] * y]];
        }"#;

    #[test]
    fn psf_engine_finds_alias_prediction_leak() {
        let m = lcm_minic::compile(PSF_GADGET).unwrap();
        let det = Detector::new(DetectorConfig::default());
        let stl = det.analyze_module(&m, EngineKind::Stl);
        let psf = det.analyze_module(&m, EngineKind::Psf);
        assert!(
            stl.is_clean(),
            "constant indices never alias: STL stays clean, got {:?}",
            stl.findings().collect::<Vec<_>>()
        );
        assert!(!psf.is_clean(), "PSF forwards across mismatching addresses");
        let f = psf.findings().next().unwrap();
        assert_eq!(f.primitive, SpeculationPrimitive::AliasPrediction);
        assert!(f.bypassed_store.is_some());
        assert!(
            psf.count(TransmitterClass::UniversalData) >= 1,
            "the C[1]-load steers A, which steers B: a UDT"
        );
    }

    #[test]
    fn psf_engine_respects_fences() {
        let fenced = r#"
            int C[2]; int A[4096]; int B[4096]; int tmp;
            void psf_victim(register int y) {
                C[0] = 64;
                lfence();
                tmp &= B[A[C[1] * y]];
            }"#;
        let m = lcm_minic::compile(fenced).unwrap();
        let det = Detector::new(DetectorConfig::default());
        assert!(det.analyze_module(&m, EngineKind::Psf).is_clean());
    }

    #[test]
    fn secret_filter_keeps_secret_touching_chains_only() {
        // Two gadgets: one reads a secret-marked array, one a public one.
        let src = r#"
            int sec_table[16]; int pub_table[16]; int B[4096];
            int size; int tmp;
            void secret_victim(int x) {
                if (x < size)
                    tmp &= B[sec_table[x] * 512];
            }
            void public_victim(int x) {
                if (x < size)
                    tmp &= B[pub_table[x] * 512];
            }"#;
        let m = lcm_minic::compile(src).unwrap();
        let filtered = Detector::new(DetectorConfig {
            secret_filter: true,
            ..DetectorConfig::default()
        })
        .analyze_module(&m, EngineKind::Pht);
        let sec = filtered
            .functions
            .iter()
            .find(|f| f.name == "secret_victim")
            .unwrap();
        let pb = filtered
            .functions
            .iter()
            .find(|f| f.name == "public_victim")
            .unwrap();
        assert!(
            sec.transmitters
                .iter()
                .any(|f| f.class == TransmitterClass::UniversalData),
            "secret-reading UDT survives the filter"
        );
        assert!(
            pb.transmitters
                .iter()
                .filter(|f| f.class == TransmitterClass::UniversalData)
                .all(|f| {
                    // Any surviving UDT must not have a resolved public
                    // access region.
                    f.access.is_none()
                }),
            "public-only UDT chains are filtered: {:?}",
            pb.transmitters
        );
        // The unfiltered run flags both.
        let unfiltered =
            Detector::new(DetectorConfig::default()).analyze_module(&m, EngineKind::Pht);
        let pb_all = unfiltered
            .functions
            .iter()
            .find(|f| f.name == "public_victim")
            .unwrap();
        assert!(pb_all
            .transmitters
            .iter()
            .any(|f| f.class == TransmitterClass::UniversalData));
    }

    /// §6.2.1's completeness guarantee: "As long as addr dependencies span
    /// less than W_size instructions, Clou is only at risk of
    /// mis-classifying some universal transmitters as vanilla DTs/CTs; it
    /// will not miss them entirely."
    #[test]
    fn small_window_downgrades_but_does_not_lose_transmitters() {
        // Pad the index → access distance with filler accesses so the
        // universal chain spans more than the shrunken window.
        let src = r#"
            int A[16]; int B[4096]; int F[64]; int size; int tmp;
            void victim(int y) {
                if (y < size) {
                    int x = A[y];
                    tmp ^= F[0]; tmp ^= F[1]; tmp ^= F[2]; tmp ^= F[3];
                    tmp ^= F[4]; tmp ^= F[5]; tmp ^= F[6]; tmp ^= F[7];
                    tmp &= B[x * 512];
                }
            }"#;
        let m = lcm_minic::compile(src).unwrap();
        let full = Detector::new(DetectorConfig::default()).analyze_module(&m, EngineKind::Pht);
        assert!(full.count(TransmitterClass::UniversalData) >= 1);
        let shrunk = Detector::new(DetectorConfig {
            window: 6,
            ..DetectorConfig::default()
        })
        .analyze_module(&m, EngineKind::Pht);
        assert_eq!(
            shrunk.count(TransmitterClass::UniversalData),
            0,
            "chain no longer fits the window"
        );
        assert!(
            shrunk.count(TransmitterClass::Data) >= 1,
            "…but the transmitter is still reported, as a DT (§6.2.1)"
        );
    }

    #[test]
    fn interference_variant_detected_when_enabled() {
        // The transient A-load warms the line that the committed
        // join-block load of A[0] then reads: the "new DT variant".
        let src = r#"
            int A[4096]; int idx_tbl[16]; int size; int tmp;
            void victim(int x) {
                if (x < size) {
                    tmp &= A[idx_tbl[x] * 16];
                }
                tmp &= A[0];
            }"#;
        let m = lcm_minic::compile(src).unwrap();
        let with = Detector::new(DetectorConfig {
            detect_interference: true,
            ..DetectorConfig::default()
        })
        .analyze_module(&m, EngineKind::Pht);
        assert!(with.findings().any(|f| f.interference));
        let without = Detector::new(DetectorConfig::default()).analyze_module(&m, EngineKind::Pht);
        assert!(without.findings().all(|f| !f.interference));
    }
}
