//! Detection results.

use std::time::Duration;

use lcm_aeg::{EventId, Saeg};
use lcm_core::govern::AnalysisError;
use lcm_core::speculation::SpeculationPrimitive;
use lcm_core::taxonomy::TransmitterClass;
use lcm_ir::{BlockId, InstId};

/// One detected transmitter instance (a witness of leakage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Function the leak lives in.
    pub function: String,
    /// The transmitting event.
    pub transmitter: EventId,
    /// IR instruction of the transmitter.
    pub transmitter_inst: InstId,
    /// Taxonomy class (Table 1).
    pub class: TransmitterClass,
    /// Whether the transmitter executes transiently in the witness.
    pub transient_transmitter: bool,
    /// The access instruction (DT/CT/UDT/UCT).
    pub access: Option<EventId>,
    /// Whether the access executes transiently (restricts leakage scope
    /// when false, §6.1).
    pub access_transient: bool,
    /// The index instruction (UDT/UCT).
    pub index: Option<EventId>,
    /// The speculation primitive exploited.
    pub primitive: SpeculationPrimitive,
    /// PHT: the mispredicted branch's block.
    pub branch: Option<BlockId>,
    /// STL: the bypassed store.
    pub bypassed_store: Option<EventId>,
    /// Extension: `true` for speculative-interference findings, where the
    /// receiver is a *committed* load whose line the transient transmitter
    /// warmed (§6.1's "new attack variant").
    pub interference: bool,
    /// Witness seed: blocks the witnessing architectural path must
    /// execute, in chain order. The full path is expanded on demand by
    /// [`Finding::witness_path`], so findings stay compact even at the
    /// 150k-findings scale of the synthetic-library rows.
    pub witness_blocks: Vec<BlockId>,
    /// Witness seed: the constrained branch and its architectural
    /// direction (`true` = then-target), if the primitive is a branch.
    pub witness_dir: Option<(BlockId, bool)>,
}

impl Finding {
    /// Materializes the witnessing architectural path (executed blocks,
    /// entry to return) from the stored seed.
    pub fn witness_path(&self, saeg: &Saeg) -> Vec<BlockId> {
        saeg.arch_witness_path(&self.witness_blocks, self.witness_dir)
    }

    /// Deduplication key: one finding per distinct chain
    /// (transmitter, class, primitive, access, index, interference).
    #[allow(clippy::type_complexity)]
    pub fn key(
        &self,
    ) -> (
        u32,
        TransmitterClass,
        SpeculationPrimitive,
        Option<EventId>,
        Option<EventId>,
        bool,
    ) {
        (
            self.transmitter_inst.0,
            self.class,
            self.primitive,
            self.access,
            self.index,
            self.interference,
        )
    }
}

/// Where one function's analysis time went (the profile future perf
/// work aims at).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// A-CFG construction (IR → acyclic CFG).
    pub acfg_build: Duration,
    /// S-AEG construction over the A-CFG, including the
    /// block-reachability closure that decides path feasibility (the
    /// paper encodes Fig. 7's edge formulas for its solver instead).
    pub saeg_build: Duration,
    /// The engine run: dependency relations, chain enumeration,
    /// feasibility checks and classification.
    pub classify: Duration,
    /// Baseline-tool (haunted re-execution checker) time *not*
    /// attributed to one of the two `bh_*` sub-phases below: A-CFG
    /// construction, report assembly. The full baseline cost of a bench
    /// row is `baseline + bh_execute + bh_witness`.
    pub baseline: Duration,
    /// Baseline sub-phase: relational execution — the walk over
    /// architectural paths with its transient forks or bypass scans.
    pub bh_execute: Duration,
    /// Baseline sub-phase: witness checking — confirming the PHT
    /// candidates with the taint walk (STL confirms during the walk).
    pub bh_witness: Duration,
    /// Time spent in the incremental result cache: fingerprinting,
    /// lookup, and (on a miss) record insertion. On a warm run this is
    /// the *only* per-function phase with time in it — without this
    /// bucket a warm breakdown would not sum to wall clock.
    pub cache: Duration,
    /// Wall-clock remainder not attributed to any tracked phase
    /// (module compilation, corpus generation, aggregation). Set by
    /// [`PhaseTimings::fill_other`] so the breakdown sums to wall clock.
    pub other: Duration,
    /// Feasibility questions answered from block reachability.
    pub queries_avoided: u64,
    /// Engine-level candidate checks skipped by hoisted pre-screens.
    pub prefilter_hits: u64,
    /// Functions whose entire engine run was short-circuited by a
    /// content-addressed cache hit (the strongest form of avoidance:
    /// zero queries, zero closure builds, zero graph builds).
    pub cache_hits: u64,
}

impl PhaseTimings {
    /// Accumulates another function's breakdown into this one.
    pub fn merge(&mut self, other: &PhaseTimings) {
        self.acfg_build += other.acfg_build;
        self.saeg_build += other.saeg_build;
        self.classify += other.classify;
        self.baseline += other.baseline;
        self.bh_execute += other.bh_execute;
        self.bh_witness += other.bh_witness;
        self.cache += other.cache;
        self.other += other.other;
        self.queries_avoided += other.queries_avoided;
        self.prefilter_hits += other.prefilter_hits;
        self.cache_hits += other.cache_hits;
    }

    /// Sum of every tracked phase.
    pub fn tracked(&self) -> Duration {
        self.acfg_build
            + self.saeg_build
            + self.classify
            + self.baseline
            + self.bh_execute
            + self.bh_witness
            + self.cache
    }

    /// Sets `other` to whatever part of `wall` the tracked phases do not
    /// account for, so the rendered breakdown sums to wall clock.
    pub fn fill_other(&mut self, wall: Duration) {
        self.other = wall.saturating_sub(self.tracked());
    }

    /// One-line human-readable breakdown for the bench binaries.
    pub fn render(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "acfg {:.1}ms | saeg {:.1}ms | classify {:.1}ms | baseline {:.1}ms (exec {:.1}ms, witness {:.1}ms) | cache {:.1}ms | other {:.1}ms | {} avoided, {} prefilter hits, {} cache hits",
            ms(self.acfg_build),
            ms(self.saeg_build),
            ms(self.classify),
            ms(self.baseline),
            ms(self.bh_execute),
            ms(self.bh_witness),
            ms(self.cache),
            ms(self.other),
            self.queries_avoided,
            self.prefilter_hits,
            self.cache_hits,
        )
    }
}

/// Whether a function's analysis ran to completion.
///
/// `Degraded` findings are *partial*: whatever the engines established
/// before the governor tripped (or the worker panicked) is kept, but
/// absence of a finding proves nothing. Completed functions are
/// byte-identical to an ungoverned run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FunctionStatus {
    /// Analysis ran to completion; findings are exhaustive.
    #[default]
    Completed,
    /// Analysis was cut short; findings are a lower bound.
    Degraded(AnalysisError),
}

impl FunctionStatus {
    /// `true` when analysis ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, FunctionStatus::Completed)
    }

    /// The degradation error, if any.
    pub fn error(&self) -> Option<&AnalysisError> {
        match self {
            FunctionStatus::Completed => None,
            FunctionStatus::Degraded(e) => Some(e),
        }
    }
}

/// How the incremental result cache participated in producing a
/// [`FunctionReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheStatus {
    /// The report came straight from the content-addressed store; no
    /// engine ran.
    Hit,
    /// The store was consulted, missed, and the fresh result was
    /// inserted for next time.
    Miss,
    /// The cache was not in play: no store configured, or the result
    /// was not cacheable (degraded analyses are never stored).
    #[default]
    Bypass,
}

impl CacheStatus {
    /// Lower-case wire/JSON label.
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// Per-function analysis result.
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Findings, most severe first.
    pub transmitters: Vec<Finding>,
    /// S-AEG node count (Fig. 8's size axis).
    pub saeg_size: usize,
    /// Serial analysis runtime.
    pub runtime: Duration,
    /// Phase breakdown of `runtime`.
    pub timings: PhaseTimings,
    /// Completed, or degraded with the reason analysis was cut short.
    pub status: FunctionStatus,
    /// Whether this report was served from, stored into, or produced
    /// without the incremental cache.
    pub cache: CacheStatus,
}

impl FunctionReport {
    /// An empty report for a function whose analysis was cut short
    /// before producing anything.
    pub fn degraded(name: String, error: AnalysisError) -> FunctionReport {
        FunctionReport {
            name,
            transmitters: Vec::new(),
            saeg_size: 0,
            runtime: Duration::ZERO,
            timings: PhaseTimings::default(),
            status: FunctionStatus::Degraded(error),
            cache: CacheStatus::Bypass,
        }
    }

    /// Count of findings at exactly the given class.
    pub fn count(&self, class: TransmitterClass) -> usize {
        self.transmitters
            .iter()
            .filter(|f| f.class == class)
            .count()
    }

    /// `true` if no leakage was found.
    pub fn is_clean(&self) -> bool {
        self.transmitters.is_empty()
    }
}

/// Whole-module analysis result.
#[derive(Debug, Clone, Default)]
pub struct ModuleReport {
    /// Per-function reports, in module order.
    pub functions: Vec<FunctionReport>,
}

impl ModuleReport {
    /// Total findings of a class across functions.
    pub fn count(&self, class: TransmitterClass) -> usize {
        self.functions.iter().map(|f| f.count(class)).sum()
    }

    /// Total serial runtime.
    pub fn total_runtime(&self) -> Duration {
        self.functions.iter().map(|f| f.runtime).sum()
    }

    /// Module-wide phase breakdown (sum over functions).
    pub fn timings(&self) -> PhaseTimings {
        let mut t = PhaseTimings::default();
        for f in &self.functions {
            t.merge(&f.timings);
        }
        t
    }

    /// All findings flattened.
    pub fn findings(&self) -> impl Iterator<Item = &Finding> {
        self.functions.iter().flat_map(|f| f.transmitters.iter())
    }

    /// `true` if no function leaks.
    pub fn is_clean(&self) -> bool {
        self.functions.iter().all(FunctionReport::is_clean)
    }

    /// The functions whose analysis was cut short.
    pub fn degraded(&self) -> impl Iterator<Item = &FunctionReport> {
        self.functions.iter().filter(|f| !f.status.is_completed())
    }

    /// How many functions were degraded.
    pub fn degraded_count(&self) -> usize {
        self.degraded().count()
    }

    /// `true` when every function ran to completion (findings are
    /// exhaustive module-wide).
    pub fn all_completed(&self) -> bool {
        self.functions.iter().all(|f| f.status.is_completed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(class: TransmitterClass) -> Finding {
        Finding {
            function: "f".into(),
            transmitter: EventId(0),
            transmitter_inst: InstId(0),
            class,
            transient_transmitter: true,
            access: None,
            access_transient: false,
            index: None,
            primitive: SpeculationPrimitive::ConditionalBranch,
            branch: None,
            bypassed_store: None,
            interference: false,
            witness_blocks: vec![],
            witness_dir: None,
        }
    }

    #[test]
    fn counting_by_class() {
        let r = FunctionReport {
            name: "f".into(),
            transmitters: vec![
                dummy(TransmitterClass::Data),
                dummy(TransmitterClass::Data),
                dummy(TransmitterClass::UniversalData),
            ],
            saeg_size: 3,
            runtime: Duration::ZERO,
            timings: PhaseTimings::default(),
            status: FunctionStatus::Completed,
            cache: CacheStatus::Bypass,
        };
        assert_eq!(r.count(TransmitterClass::Data), 2);
        assert_eq!(r.count(TransmitterClass::UniversalData), 1);
        assert!(!r.is_clean());
        let m = ModuleReport { functions: vec![r] };
        assert_eq!(m.count(TransmitterClass::Data), 2);
        assert!(!m.is_clean());
        assert!(m.all_completed());
        assert_eq!(m.degraded_count(), 0);
    }

    #[test]
    fn degraded_reports_are_tracked() {
        let ok = FunctionReport {
            name: "good".into(),
            transmitters: vec![],
            saeg_size: 1,
            runtime: Duration::ZERO,
            timings: PhaseTimings::default(),
            status: FunctionStatus::Completed,
            cache: CacheStatus::Bypass,
        };
        let bad = FunctionReport::degraded("bad".into(), AnalysisError::SolverAbort);
        assert!(bad.status.error().is_some());
        let m = ModuleReport {
            functions: vec![ok, bad],
        };
        assert!(!m.all_completed());
        assert_eq!(m.degraded_count(), 1);
        assert_eq!(m.degraded().next().unwrap().name, "bad");
    }

    /// Builds a `PhaseTimings` whose every field is a distinct non-zero
    /// value derived from `seed`, via exhaustive struct-literal syntax:
    /// adding a field to the struct breaks this function's compile, so
    /// `merge`/`fill_other` can't silently miss it.
    fn distinct(seed: u64) -> PhaseTimings {
        let d = |i: u64| Duration::from_millis(seed * 100 + i);
        PhaseTimings {
            acfg_build: d(1),
            saeg_build: d(2),
            classify: d(5),
            baseline: d(6),
            bh_execute: d(15),
            bh_witness: d(16),
            cache: d(7),
            other: d(8),
            queries_avoided: seed * 100 + 11,
            prefilter_hits: seed * 100 + 12,
            cache_hits: seed * 100 + 13,
        }
    }

    #[test]
    fn merge_accumulates_every_field() {
        let mut acc = distinct(1);
        acc.merge(&distinct(2));
        // Destructure WITHOUT `..`: a new field must be added here (and,
        // by the same token, to `merge` itself) or this fails to build.
        let PhaseTimings {
            acfg_build,
            saeg_build,
            classify,
            baseline,
            bh_execute,
            bh_witness,
            cache,
            other,
            queries_avoided,
            prefilter_hits,
            cache_hits,
        } = acc;
        let ms = |x: u64| Duration::from_millis(x);
        assert_eq!(acfg_build, ms(101 + 201));
        assert_eq!(saeg_build, ms(102 + 202));
        assert_eq!(classify, ms(105 + 205));
        assert_eq!(baseline, ms(106 + 206));
        assert_eq!(bh_execute, ms(115 + 215));
        assert_eq!(bh_witness, ms(116 + 216));
        assert_eq!(cache, ms(107 + 207));
        assert_eq!(other, ms(108 + 208));
        assert_eq!(queries_avoided, 111 + 211);
        assert_eq!(prefilter_hits, 112 + 212);
        assert_eq!(cache_hits, 113 + 213);
    }

    #[test]
    fn fill_other_covers_every_duration_phase() {
        let mut t = distinct(1);
        t.other = Duration::ZERO;
        // tracked() must include every Duration field except `other`.
        let tracked = Duration::from_millis(101 + 102 + 105 + 106 + 115 + 116 + 107);
        assert_eq!(t.tracked(), tracked);
        let wall = tracked + Duration::from_millis(42);
        t.fill_other(wall);
        assert_eq!(t.other, Duration::from_millis(42));
        // A wall clock shorter than the tracked sum (timer skew across
        // threads) saturates to zero instead of panicking.
        t.fill_other(tracked - Duration::from_millis(1));
        assert_eq!(t.other, Duration::ZERO);
        // And merge + fill_other round-trip: after filling, tracked +
        // other == wall exactly.
        t.fill_other(wall);
        assert_eq!(t.tracked() + t.other, wall);
    }
}
