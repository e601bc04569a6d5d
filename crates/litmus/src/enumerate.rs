//! Bounded exhaustive enumeration of candidate executions (the Alloy-style
//! analysis behind subrosa, §3.4).

use lcm_core::cat::CatModel;
use lcm_core::exec::{Execution, ExecutionBuilder};
use lcm_core::EventId;

/// A rebuild callback: recreates a template execution with the given
/// explicit `rfx` and `cox` edges applied.
pub type Rebuild<'a> = &'a dyn Fn(&[(EventId, EventId)], &[(EventId, EventId)]) -> Execution;

/// An abstract litmus operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read of a named location.
    R(String),
    /// Write to a named location.
    W(String),
    /// Fence.
    F,
}

impl Op {
    /// A read of `loc`.
    pub fn r(loc: &str) -> Op {
        Op::R(loc.to_string())
    }

    /// A write to `loc`.
    pub fn w(loc: &str) -> Op {
        Op::W(loc.to_string())
    }
}

/// A litmus program: one op list per thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Litmus {
    /// Threads.
    pub threads: Vec<Vec<Op>>,
}

impl Litmus {
    /// A new litmus program.
    pub fn new(threads: Vec<Vec<Op>>) -> Self {
        Litmus { threads }
    }

    /// Parses a compact litmus notation: threads separated by `||`, ops by
    /// `;`. Each op is `W <loc>`, `R <loc>`, or `F` (fence). Whitespace is
    /// free.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcm_litmus::enumerate::Litmus;
    /// let sb = Litmus::parse("W x; R y || W y; R x").unwrap();
    /// assert_eq!(sb.threads.len(), 2);
    /// assert_eq!(sb.len(), 4);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed op.
    pub fn parse(src: &str) -> Result<Litmus, String> {
        let mut threads = Vec::new();
        for (ti, tsrc) in src.split("||").enumerate() {
            let mut ops = Vec::new();
            for op_src in tsrc.split(';') {
                let toks: Vec<&str> = op_src.split_whitespace().collect();
                match toks.as_slice() {
                    [] => continue,
                    ["W", loc] => ops.push(Op::w(loc)),
                    ["R", loc] => ops.push(Op::r(loc)),
                    ["F"] => ops.push(Op::F),
                    other => {
                        return Err(format!(
                            "thread {ti}: cannot parse op `{}`",
                            other.join(" ")
                        ))
                    }
                }
            }
            if !ops.is_empty() {
                threads.push(ops);
            }
        }
        Ok(Litmus { threads })
    }

    /// Total number of operations.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// `true` if there are no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn build_with(&self, rf_choice: &[Option<usize>], co_orders: &[Vec<usize>]) -> Execution {
        // rf_choice[i]: for read #i, the index of the write op (global op
        // numbering) it reads from, or None for ⊤. co_orders: per
        // location (sorted by name), a total order of write op indices.
        let mut b = ExecutionBuilder::new();
        let mut op_events: Vec<EventId> = Vec::new();
        let mut reads: Vec<usize> = Vec::new();
        let mut writes: Vec<usize> = Vec::new();
        let mut op_idx = 0;
        for (tid, t) in self.threads.iter().enumerate() {
            b.on_thread(tid);
            let mut prev: Option<EventId> = None;
            for op in t {
                let e = match op {
                    Op::R(l) => {
                        reads.push(op_idx);
                        b.read(l)
                    }
                    Op::W(l) => {
                        writes.push(op_idx);
                        b.write(l)
                    }
                    Op::F => b.fence(),
                };
                if let Some(p) = prev {
                    b.po(p, e);
                }
                prev = Some(e);
                op_events.push(e);
                op_idx += 1;
            }
        }
        for (ri, &rop) in reads.iter().enumerate() {
            if let Some(wop) = rf_choice[ri] {
                b.rf(op_events[wop], op_events[rop]);
            }
        }
        for order in co_orders {
            for w in order.windows(2) {
                b.co(op_events[w[0]], op_events[w[1]]);
            }
        }
        b.build()
    }

    /// The per-dimension choice space behind candidate enumeration: one
    /// dimension per read (`rf` source: ⊤ or a same-location write) and
    /// one per location (a total `co` order of its writes).
    fn choice_space(&self) -> ChoiceSpace {
        let mut flat: Vec<&Op> = Vec::new();
        for t in &self.threads {
            flat.extend(t.iter());
        }
        let read_ops: Vec<usize> = flat
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Op::R(_)))
            .map(|(i, _)| i)
            .collect();
        let mut locs: Vec<String> = flat
            .iter()
            .filter_map(|o| match o {
                Op::R(l) | Op::W(l) => Some(l.clone()),
                Op::F => None,
            })
            .collect();
        locs.sort_unstable();
        locs.dedup();
        let writes_to = |l: &str| -> Vec<usize> {
            flat.iter()
                .enumerate()
                .filter(|(_, o)| matches!(o, Op::W(m) if m == l))
                .map(|(i, _)| i)
                .collect()
        };
        let rf = read_ops
            .iter()
            .map(|&r| {
                let loc = match flat[r] {
                    Op::R(l) => l.as_str(),
                    _ => unreachable!(),
                };
                let mut c: Vec<Option<usize>> = vec![None];
                c.extend(writes_to(loc).into_iter().map(Some));
                c
            })
            .collect();
        let co = locs.iter().map(|l| permutations(&writes_to(l))).collect();
        let mut read_ord = vec![usize::MAX; flat.len()];
        for (ord, &op) in read_ops.iter().enumerate() {
            read_ord[op] = ord;
        }
        ChoiceSpace {
            rf,
            co,
            locs,
            read_ord,
        }
    }

    /// The program's automorphism group: pairs of a location renaming and
    /// a thread renaming that map the program to itself. Capped — if the
    /// naive `threads! × locs!` search space exceeds [`SYMMETRY_CAP`],
    /// only the identity is returned (no reduction, still exact).
    fn automorphisms(&self, space: &ChoiceSpace) -> Vec<Automorphism> {
        let nthreads = self.threads.len();
        let nlocs = space.locs.len();
        let cost = factorial(nthreads).saturating_mul(factorial(nlocs));
        let nops = self.len();
        let identity = Automorphism {
            opmap: (0..nops).collect(),
            locmap: (0..nlocs).collect(),
        };
        if cost > SYMMETRY_CAP {
            return vec![identity];
        }
        // Global op index of (thread, position).
        let mut offsets = Vec::with_capacity(nthreads);
        let mut acc = 0usize;
        for t in &self.threads {
            offsets.push(acc);
            acc += t.len();
        }
        let loc_index = |l: &str| space.locs.iter().position(|m| m == l).unwrap();
        let thread_perms = permutations(&(0..nthreads).collect::<Vec<_>>());
        let loc_perms = permutations(&(0..nlocs).collect::<Vec<_>>());
        let mut out = Vec::new();
        for sigma in &thread_perms {
            if self
                .threads
                .iter()
                .enumerate()
                .any(|(t, ops)| ops.len() != self.threads[sigma[t]].len())
            {
                continue;
            }
            'pi: for pi in &loc_perms {
                for (t, ops) in self.threads.iter().enumerate() {
                    for (p, op) in ops.iter().enumerate() {
                        let image = &self.threads[sigma[t]][p];
                        let matches = match (op, image) {
                            (Op::F, Op::F) => true,
                            (Op::R(l), Op::R(m)) | (Op::W(l), Op::W(m)) => {
                                space.locs[pi[loc_index(l)]] == *m
                            }
                            _ => false,
                        };
                        if !matches {
                            continue 'pi;
                        }
                    }
                }
                let mut opmap = vec![0usize; nops];
                for (t, ops) in self.threads.iter().enumerate() {
                    for p in 0..ops.len() {
                        opmap[offsets[t] + p] = offsets[sigma[t]] + p;
                    }
                }
                out.push(Automorphism {
                    opmap,
                    locmap: pi.clone(),
                });
            }
        }
        if out.is_empty() {
            out.push(identity);
        }
        out
    }

    /// Streams every structurally well-formed candidate execution to the
    /// visitor **without materializing the choice space** (the seed
    /// implementation built the full cartesian product of rf choices ×
    /// co orders up front, which is what capped tractable program size).
    /// Returns `false` from the visitor to stop early.
    pub fn for_each_candidate(&self, mut visit: impl FnMut(&Execution) -> bool) -> EnumStats {
        let space = self.choice_space();
        let total = space.total();
        self.stream_range(&space, 0, total, None, &mut |x, _| visit(x))
    }

    /// Enumerates every structurally well-formed candidate execution:
    /// all `rf` choices × all per-location `co` total orders.
    ///
    /// Materializes the full set — prefer [`Litmus::for_each_candidate`]
    /// or the counting APIs for anything beyond toy sizes.
    pub fn candidate_executions(&self) -> Vec<Execution> {
        let mut out = Vec::new();
        self.for_each_candidate(|x| {
            out.push(x.clone());
            true
        });
        out
    }

    /// Streaming count of well-formed candidate executions.
    pub fn count_candidates(&self) -> u64 {
        self.for_each_candidate(|_| true).visited
    }

    /// The size of the candidate space (`rf` choices × `co` orders),
    /// computed arithmetically — no enumeration. `u128` because large
    /// programs overflow `u64`.
    pub fn candidate_count(&self) -> u128 {
        self.choice_space().total()
    }

    /// Streaming count of model-consistent executions.
    pub fn count_consistent(&self, model: &CatModel) -> u64 {
        let mut n = 0;
        self.for_each_candidate(|x| {
            if model.check(x).is_ok() {
                n += 1;
            }
            true
        });
        n
    }

    /// Parallel streaming count of model-consistent executions: the flat
    /// choice space is split into `jobs` contiguous ranges fanned over
    /// [`lcm_core::par::map_indexed`]; each worker decodes its range
    /// independently (mixed-radix), so the count is identical at every
    /// job count.
    pub fn count_consistent_par(&self, model: &CatModel, jobs: usize) -> u64 {
        let space = self.choice_space();
        let total = space.total();
        let jobs = lcm_core::par::effective_jobs(jobs).max(1) as u128;
        let chunks: Vec<(u128, u128)> = (0..jobs)
            .map(|j| (total * j / jobs, total * (j + 1) / jobs))
            .filter(|(a, b)| a < b)
            .collect();
        lcm_core::par::map_indexed(&chunks, chunks.len(), |_, &(start, end)| {
            let mut n = 0u64;
            self.stream_range(&space, start, end, None, &mut |x, _| {
                if model.check(x).is_ok() {
                    n += 1;
                }
                true
            });
            n
        })
        .into_iter()
        .sum()
    }

    /// Symmetry-reduced count of model-consistent executions: only
    /// canonical choice vectors (lexicographically least under the
    /// program's location/thread-renaming group) are built and checked;
    /// each contributes its orbit size. `total` equals the exhaustive
    /// [`Litmus::count_consistent`] — consistency predicates are
    /// invariant under renaming — while only `canonical` executions were
    /// actually built.
    pub fn count_consistent_symmetric(&self, model: &CatModel) -> SymmetricCount {
        let space = self.choice_space();
        let auts = self.automorphisms(&space);
        let total = space.total();
        let mut out = SymmetricCount::default();
        let stats = self.stream_range(&space, 0, total, Some(&auts), &mut |x, orbit| {
            if model.check(x).is_ok() {
                out.canonical += 1;
                out.total += orbit;
            }
            true
        });
        out.pruned = stats.pruned;
        out
    }

    /// Decodes and visits the choice vectors in `[start, end)` (mixed-
    /// radix over the space's dimension sizes, co dimensions fastest).
    /// With `symmetry`, non-canonical vectors are skipped (counted in
    /// `pruned`) and the visitor receives each canonical vector's orbit
    /// size; otherwise every well-formed execution is visited with
    /// orbit size 1.
    fn stream_range(
        &self,
        space: &ChoiceSpace,
        start: u128,
        end: u128,
        symmetry: Option<&[Automorphism]>,
        visit: &mut dyn FnMut(&Execution, u64) -> bool,
    ) -> EnumStats {
        let mut stats = EnumStats::default();
        if start >= end {
            return stats;
        }
        let sizes = space.sizes();
        let mut idx = space.decode(start, &sizes);
        let nreads = space.rf.len();
        let mut rf: Vec<Option<usize>> = Vec::with_capacity(nreads);
        let mut co: Vec<Vec<usize>> = Vec::with_capacity(space.co.len());
        let mut cursor = start;
        while cursor < end {
            rf.clear();
            co.clear();
            for (r, &i) in idx.iter().take(nreads).enumerate() {
                rf.push(space.rf[r][i]);
            }
            for (l, &i) in idx.iter().skip(nreads).enumerate() {
                co.push(space.co[l][i].clone());
            }
            let orbit = match symmetry {
                None => 1,
                Some(auts) => match space.orbit_of_canonical(auts, &rf, &co) {
                    Some(orbit) => orbit,
                    None => {
                        stats.pruned += 1;
                        cursor += 1;
                        if !space.advance(&mut idx, &sizes) {
                            break;
                        }
                        continue;
                    }
                },
            };
            let x = self.build_with(&rf, &co);
            stats.built += 1;
            if x.well_formed().is_ok() {
                stats.visited += 1;
                if !visit(&x, orbit) {
                    break;
                }
            }
            cursor += 1;
            if !space.advance(&mut idx, &sizes) {
                break;
            }
        }
        enum_executions_counter().add(stats.built);
        if stats.pruned > 0 {
            enum_pruned_counter().add(stats.pruned);
        }
        stats
    }

    /// The candidate executions consistent with a memory model: the
    /// program's **architectural semantics** (§2.2).
    pub fn consistent_executions(&self, model: &CatModel) -> Vec<Execution> {
        let mut out = Vec::new();
        self.for_each_candidate(|x| {
            if model.check(x).is_ok() {
                out.push(x.clone());
            }
            true
        });
        out
    }
}

/// Search cap for [`Litmus::automorphisms`]: above this many `(σ, π)`
/// pairs the group search is skipped and enumeration runs unreduced.
const SYMMETRY_CAP: u64 = 40_320; // 8!

fn factorial(n: usize) -> u64 {
    (1..=n as u64).product::<u64>().max(1)
}

/// Streaming enumeration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Choice vectors decoded and built into executions.
    pub built: u64,
    /// Executions that passed well-formedness and reached the visitor.
    pub visited: u64,
    /// Choice vectors skipped as non-canonical under symmetry.
    pub pruned: u64,
}

/// Result of a symmetry-reduced consistent-execution count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymmetricCount {
    /// Canonical (actually built and checked) consistent executions.
    pub canonical: u64,
    /// Exhaustive-equivalent total: Σ orbit sizes over canonical reps.
    pub total: u64,
    /// Choice vectors skipped without building an execution.
    pub pruned: u64,
}

/// One program automorphism: a thread renaming composed with a location
/// renaming, realized as a permutation of global op indices plus the
/// induced permutation of sorted-location indices.
#[derive(Debug, Clone)]
struct Automorphism {
    opmap: Vec<usize>,
    locmap: Vec<usize>,
}

/// The enumeration choice space (see [`Litmus::choice_space`]).
struct ChoiceSpace {
    /// Per read (in global op order): candidate rf sources.
    rf: Vec<Vec<Option<usize>>>,
    /// Per sorted location: candidate co orders (write op indices).
    co: Vec<Vec<Vec<usize>>>,
    /// Sorted location names.
    locs: Vec<String>,
    /// Global op index → read ordinal (`usize::MAX` for non-reads).
    read_ord: Vec<usize>,
}

impl ChoiceSpace {
    fn sizes(&self) -> Vec<usize> {
        self.rf
            .iter()
            .map(Vec::len)
            .chain(self.co.iter().map(Vec::len))
            .collect()
    }

    /// Total number of choice vectors (may exceed `u64` for large
    /// programs, hence `u128`).
    fn total(&self) -> u128 {
        self.sizes().iter().map(|&s| s as u128).product()
    }

    /// Mixed-radix decode of a flat index (last dimension fastest).
    fn decode(&self, mut flat: u128, sizes: &[usize]) -> Vec<usize> {
        let mut idx = vec![0usize; sizes.len()];
        for (i, &s) in sizes.iter().enumerate().rev() {
            idx[i] = (flat % s as u128) as usize;
            flat /= s as u128;
        }
        idx
    }

    /// Odometer increment; `false` on wrap-around (space exhausted).
    fn advance(&self, idx: &mut [usize], sizes: &[usize]) -> bool {
        for i in (0..idx.len()).rev() {
            idx[i] += 1;
            if idx[i] < sizes[i] {
                return true;
            }
            idx[i] = 0;
        }
        false
    }

    /// `Some(orbit size)` if the choice vector is the lexicographic
    /// minimum of its orbit under the automorphism group, else `None`.
    fn orbit_of_canonical(
        &self,
        auts: &[Automorphism],
        rf: &[Option<usize>],
        co: &[Vec<usize>],
    ) -> Option<u64> {
        let mut stabilizer = 0u64;
        let mut rf2: Vec<Option<usize>> = vec![None; rf.len()];
        let mut co2: Vec<Vec<usize>> = vec![Vec::new(); co.len()];
        for aut in auts {
            // rf: read at op i maps to the read at opmap[i]; its source
            // write maps through opmap as well.
            for (r, choice) in rf.iter().enumerate() {
                let op = self
                    .read_ord
                    .iter()
                    .position(|&ord| ord == r)
                    .expect("read ordinal");
                let r2 = self.read_ord[aut.opmap[op]];
                rf2[r2] = choice.map(|w| aut.opmap[w]);
            }
            for (l, order) in co.iter().enumerate() {
                co2[aut.locmap[l]] = order.iter().map(|&w| aut.opmap[w]).collect();
            }
            match (rf2.as_slice(), co2.as_slice()).cmp(&(rf, co)) {
                std::cmp::Ordering::Less => return None,
                std::cmp::Ordering::Equal => stabilizer += 1,
                std::cmp::Ordering::Greater => {}
            }
        }
        Some(auts.len() as u64 / stabilizer.max(1))
    }
}

fn enum_executions_counter() -> &'static lcm_obs::metrics::Counter {
    static C: std::sync::OnceLock<lcm_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        lcm_obs::metrics::global().counter(
            lcm_obs::metrics::names::ENUM_EXECUTIONS,
            "Candidate executions built by the litmus enumerator",
        )
    })
}

fn enum_pruned_counter() -> &'static lcm_obs::metrics::Counter {
    static C: std::sync::OnceLock<lcm_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        lcm_obs::metrics::global().counter(
            lcm_obs::metrics::names::ENUM_SYMMETRY_PRUNED,
            "Choice vectors skipped as non-canonical under program symmetry",
        )
    })
}

/// Enumerates every microarchitectural witness of a fixed architectural
/// execution template: all `rfx` source choices for xstate readers × all
/// per-xstate `cox` orders, rebuilt via `rebuild` (which must recreate the
/// same events and architectural witness, then apply the given
/// `rfx`/`cox` edges).
///
/// Returns only witnesses that are strictly well-formed and satisfy the
/// confidentiality predicate.
pub fn microarch_witnesses(
    template: &Execution,
    confidentiality: &CatModel,
    rebuild: Rebuild<'_>,
) -> Vec<Execution> {
    // Per xstate element: writers and readers.
    use std::collections::BTreeMap;
    let mut writers: BTreeMap<u32, Vec<EventId>> = BTreeMap::new();
    let mut readers: Vec<(EventId, u32)> = Vec::new();
    for e in template.events() {
        if let Some(xs) = e.xstate() {
            if e.writes_xstate() {
                writers.entry(xs.0).or_default().push(e.id());
            }
            if e.reads_xstate() && e.kind() != lcm_core::EventKind::Init {
                readers.push((e.id(), xs.0));
            }
        }
    }
    // rfx candidates per reader.
    let rfx_cands: Vec<Vec<EventId>> = readers
        .iter()
        .map(|&(r, xs)| {
            writers
                .get(&xs)
                .map(|ws| ws.iter().copied().filter(|&w| w != r).collect())
                .unwrap_or_default()
        })
        .collect();
    // cox orders per xstate: permutations of non-init writers (init first
    // implicitly via builder completion).
    let cox_groups: Vec<Vec<EventId>> = writers
        .values()
        .map(|ws| {
            ws.iter()
                .copied()
                .filter(|&w| template.event(w).kind() != lcm_core::EventKind::Init)
                .collect::<Vec<_>>()
        })
        .collect();
    let cox_orders: Vec<Vec<Vec<EventId>>> =
        cox_groups.iter().map(|ws| permutations_e(ws)).collect();

    let mut out = Vec::new();
    for rfx in product_e(&rfx_cands) {
        for cox in product_vec(&cox_orders) {
            let rfx_edges: Vec<(EventId, EventId)> = readers
                .iter()
                .zip(&rfx)
                .map(|(&(r, _), &w)| (w, r))
                .collect();
            let mut cox_edges = Vec::new();
            for order in &cox {
                for w in order.windows(2) {
                    cox_edges.push((w[0], w[1]));
                }
            }
            let x = rebuild(&rfx_edges, &cox_edges);
            if x.well_formed_strict().is_ok() && confidentiality.check(&x).is_ok() {
                out.push(x);
            }
        }
    }
    out
}

/// The result of comparing two confidentiality predicates over the same
/// witness space (extension — §3.4's planned use of subrosa: "comparing
/// LCMs across microarchitectures").
#[derive(Debug, Clone, Default)]
pub struct ModelComparison {
    /// Witnesses only the first model permits.
    pub only_first: usize,
    /// Witnesses only the second model permits.
    pub only_second: usize,
    /// Witnesses both permit.
    pub both: usize,
    /// Witnesses both permit that additionally violate non-interference
    /// under the first-only set (leakage unique to the first hardware).
    pub leaky_only_first: usize,
    /// Leakage unique to the second hardware.
    pub leaky_only_second: usize,
}

impl ModelComparison {
    /// `true` if the first model permits strictly more behaviour.
    pub fn first_is_weaker(&self) -> bool {
        self.only_first > 0 && self.only_second == 0
    }
}

/// Compares two confidentiality models over every structurally well-formed
/// microarchitectural witness of a template execution: which witnesses
/// (and which *leaky* witnesses) each hardware model admits.
pub fn compare_models(
    template: &Execution,
    first: &CatModel,
    second: &CatModel,
    rebuild: Rebuild<'_>,
) -> ModelComparison {
    // Enumerate under a permit-all model, then classify.
    let permit_all = CatModel::parse("permit-all", "empty(0)").expect("permit-all parses");
    let mut out = ModelComparison::default();
    for x in microarch_witnesses(template, &permit_all, rebuild) {
        let a = first.check(&x).is_ok();
        let b = second.check(&x).is_ok();
        let leaky = !lcm_core::noninterference::interference_free(&x);
        match (a, b) {
            (true, true) => out.both += 1,
            (true, false) => {
                out.only_first += 1;
                if leaky {
                    out.leaky_only_first += 1;
                }
            }
            (false, true) => {
                out.only_second += 1;
                if leaky {
                    out.leaky_only_second += 1;
                }
            }
            (false, false) => {}
        }
    }
    out
}

fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

fn permutations_e(items: &[EventId]) -> Vec<Vec<EventId>> {
    let raw: Vec<usize> = items.iter().map(|e| e.0).collect();
    permutations(&raw)
        .into_iter()
        .map(|p| p.into_iter().map(EventId).collect())
        .collect()
}

fn product<T: Clone>(cands: &[Vec<T>]) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = vec![vec![]];
    for c in cands {
        let mut next = Vec::new();
        for partial in &out {
            for item in c {
                let mut p = partial.clone();
                p.push(item.clone());
                next.push(p);
            }
        }
        out = next;
    }
    out
}

fn product_e(cands: &[Vec<EventId>]) -> Vec<Vec<EventId>> {
    product(cands)
}

fn product_vec(cands: &[Vec<Vec<EventId>>]) -> Vec<Vec<Vec<EventId>>> {
    product(cands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_core::cat::presets::{sc, silent_store_lcm, tso, x86_lcm};
    use lcm_core::noninterference;

    /// Store buffering: Wx; Ry || Wy; Rx.
    fn sb() -> Litmus {
        Litmus::new(vec![
            vec![Op::w("x"), Op::r("y")],
            vec![Op::w("y"), Op::r("x")],
        ])
    }

    #[test]
    fn sb_has_four_candidates_tso_allows_all_sc_three() {
        let l = sb();
        let all = l.candidate_executions();
        assert_eq!(all.len(), 4, "2 rf choices per read");
        let tso = l.consistent_executions(tso());
        let sc = l.consistent_executions(sc());
        assert_eq!(tso.len(), 4, "TSO allows the relaxed outcome");
        assert_eq!(sc.len(), 3, "SC forbids both-reads-stale");
        // TSO is weaker: every SC execution is TSO-consistent.
        assert!(sc.len() <= tso.len());
    }

    #[test]
    fn sb_with_fences_restores_sc() {
        let l = Litmus::new(vec![
            vec![Op::w("x"), Op::F, Op::r("y")],
            vec![Op::w("y"), Op::F, Op::r("x")],
        ]);
        let tso = l.consistent_executions(tso());
        let sc = l.consistent_executions(sc());
        assert_eq!(tso.len(), sc.len(), "fences eliminate the TSO-only outcome");
        assert_eq!(tso.len(), 3);
    }

    /// Message passing: Wx; Wy || Ry; Rx.
    #[test]
    fn mp_stale_flag_read_forbidden_by_tso() {
        let l = Litmus::new(vec![
            vec![Op::w("x"), Op::w("y")],
            vec![Op::r("y"), Op::r("x")],
        ]);
        let all = l.candidate_executions();
        assert_eq!(all.len(), 4);
        let tso = l.consistent_executions(tso());
        // The outcome Ry=new ∧ Rx=stale is forbidden: 3 remain.
        assert_eq!(tso.len(), 3);
    }

    #[test]
    fn coherence_two_writes_one_reader() {
        // W x; W x || R x: co has 2 orders, read has 3 sources = 6
        // structurally, coherence (sc_per_loc) prunes.
        let l = Litmus::new(vec![vec![Op::w("x"), Op::w("x")], vec![Op::r("x")]]);
        let all = l.candidate_executions();
        assert_eq!(all.len(), 6);
        let tso = l.consistent_executions(tso());
        // po(w1,w2) forces co(w1,w2): the co order w2->w1 violates
        // sc_per_loc regardless of rf: 3 remain.
        assert_eq!(tso.len(), 3);
    }

    #[test]
    fn microarch_enumeration_finds_implied_and_deviant_witnesses() {
        // Single thread: R x; W x. Microarchitecturally the write's line
        // read may hit the read's fill (implied) or go to ⊤ (deviant).
        let make = |rfx: &[(EventId, EventId)], cox: &[(EventId, EventId)]| {
            let mut b = ExecutionBuilder::new();
            let r = b.read("x");
            let w = b.write("x");
            b.po(r, w);
            for &(a, c) in rfx {
                b.rfx(a, c);
            }
            for &(a, c) in cox {
                b.cox(a, c);
            }
            b.build()
        };
        let template = make(&[], &[]);
        let witnesses = microarch_witnesses(&template, x86_lcm(), &make);
        assert!(!witnesses.is_empty());
        let clean: Vec<_> = witnesses
            .iter()
            .filter(|x| noninterference::interference_free(x))
            .collect();
        let leaky: Vec<_> = witnesses
            .iter()
            .filter(|x| !noninterference::interference_free(x))
            .collect();
        assert!(!clean.is_empty(), "the implied witness is enumerated");
        assert!(
            !leaky.is_empty(),
            "deviating witnesses exist and are detected"
        );
    }

    #[test]
    fn empty_program() {
        let l = Litmus::new(vec![]);
        assert!(l.is_empty());
        assert_eq!(l.candidate_executions().len(), 1, "the empty execution");
    }

    /// IRIW: two writers, two readers observing in opposite orders. TSO is
    /// multi-copy atomic, so the paradoxical outcome is forbidden — the
    /// consistent sets of SC and TSO coincide on this shape.
    #[test]
    fn iriw_has_no_tso_only_outcomes() {
        let l = Litmus::new(vec![
            vec![Op::w("x")],
            vec![Op::w("y")],
            vec![Op::r("x"), Op::r("y")],
            vec![Op::r("y"), Op::r("x")],
        ]);
        let sc = l.consistent_executions(sc());
        let tso = l.consistent_executions(tso());
        assert_eq!(sc.len(), tso.len(), "TSO adds nothing on IRIW");
        // The paradoxical outcome (t2 sees x-new,y-old; t3 sees y-new,
        // x-old) is not among them.
        for x in &tso {
            let val = |ridx: usize| -> bool {
                // read event ids: reads are events in thread order; check
                // rf source kind (Init = old).
                let read = x
                    .events()
                    .iter()
                    .filter(|e| e.kind() == lcm_core::EventKind::Read)
                    .nth(ridx)
                    .unwrap();
                let src = x.rf().predecessors(read.id().0).next().unwrap();
                x.event(lcm_core::EventId(src)).kind() != lcm_core::EventKind::Init
            };
            let paradox = val(0) && !val(1) && val(2) && !val(3);
            assert!(!paradox, "IRIW paradox permitted");
        }
    }

    /// CoRR: two reads of the same location must not observe writes in
    /// opposite orders (read-read coherence), enforced by sc_per_loc.
    #[test]
    fn corr_coherence_enforced() {
        let l = Litmus::new(vec![vec![Op::w("x")], vec![Op::r("x"), Op::r("x")]]);
        for x in l.consistent_executions(tso()) {
            // If the first read sees the new value, the second must too.
            let reads: Vec<_> = x
                .events()
                .iter()
                .filter(|e| e.kind() == lcm_core::EventKind::Read)
                .collect();
            let sees_new = |r: &lcm_core::Event| {
                let src = x.rf().predecessors(r.id().0).next().unwrap();
                x.event(lcm_core::EventId(src)).kind() != lcm_core::EventKind::Init
            };
            if sees_new(reads[0]) {
                assert!(
                    sees_new(reads[1]),
                    "new-then-old read order violates coherence"
                );
            }
        }
    }

    #[test]
    fn fence_only_threads_are_harmless() {
        let l = Litmus::new(vec![vec![Op::F, Op::F]]);
        assert_eq!(l.consistent_executions(tso()).len(), 1);
    }

    #[test]
    fn parse_agrees_with_programmatic_construction() {
        let parsed = Litmus::parse("W x; R y || W y; R x").unwrap();
        assert_eq!(parsed, sb());
        let fenced = Litmus::parse("W x; F; R y || W y; F; R x").unwrap();
        assert_eq!(fenced.len(), 6);
        assert_eq!(
            parsed.consistent_executions(tso()).len(),
            sb().consistent_executions(tso()).len()
        );
    }

    #[test]
    fn parse_rejects_malformed_ops() {
        assert!(Litmus::parse("W x; BLORP y").unwrap_err().contains("BLORP"));
        assert!(Litmus::parse("W").is_err());
        // Empty threads / trailing separators are tolerated.
        let l = Litmus::parse("W x; ; R x ||").unwrap();
        assert_eq!(l.threads.len(), 1);
        assert_eq!(l.len(), 2);
    }

    /// The parameterizable-model path (§5.2's future work): user-supplied
    /// cat specifications drive the enumerator. SC and TSO restated in
    /// other words agree with the presets.
    #[test]
    fn cat_models_agree_with_builtins_on_classic_litmus() {
        let user_sc = CatModel::parse("SC", "acyclic(rf | co | fr | po)").unwrap();
        let user_tso = CatModel::parse(
            "TSO",
            "let m = [R] | [W] && let ppo = m;po;m \\ [W];po;[R] && \
             acyclic(rf | co | fr | po_loc) && acyclic(rfe | co | fr | ppo | po;[F];po)",
        )
        .unwrap();
        for l in [
            Litmus::new(vec![
                vec![Op::w("x"), Op::r("y")],
                vec![Op::w("y"), Op::r("x")],
            ]),
            Litmus::new(vec![
                vec![Op::w("x"), Op::F, Op::r("y")],
                vec![Op::w("y"), Op::F, Op::r("x")],
            ]),
            Litmus::new(vec![
                vec![Op::w("x"), Op::w("y")],
                vec![Op::r("y"), Op::r("x")],
            ]),
            Litmus::new(vec![vec![Op::w("x"), Op::w("x")], vec![Op::r("x")]]),
        ] {
            assert_eq!(
                l.consistent_executions(&user_tso).len(),
                l.consistent_executions(tso()).len()
            );
            assert_eq!(
                l.consistent_executions(&user_sc).len(),
                l.consistent_executions(sc()).len()
            );
        }
    }

    #[test]
    fn silent_store_hardware_is_weaker_than_x86() {
        // Template: two same-location stores; a silent-store machine may
        // execute the second as a read.
        let make = |rfx: &[(EventId, EventId)], cox: &[(EventId, EventId)]| {
            let mut b = ExecutionBuilder::new();
            let w1 = b.write("x");
            // Model the silent option: the second store's mode decides
            // which machine can produce the witness. Use a silent write so
            // the x86 predicate rejects every witness and the comparison
            // attributes all of them to the silent-store machine.
            let w2 = b.silent_write("x");
            b.po(w1, w2);
            b.co(w1, w2);
            for &(a, c) in rfx {
                b.rfx(a, c);
            }
            for &(a, c) in cox {
                b.cox(a, c);
            }
            b.build()
        };
        let template = make(&[], &[]);
        let cmp = compare_models(&template, silent_store_lcm(), x86_lcm(), &make);
        assert!(cmp.first_is_weaker(), "{cmp:?}");
        assert!(
            cmp.leaky_only_first > 0,
            "silent stores add leaky behaviour: {cmp:?}"
        );
        assert_eq!(cmp.both, 0, "x86 permits no silent-store witness");
    }

    #[test]
    fn model_compared_with_itself_has_no_exclusive_behaviour() {
        let make = |rfx: &[(EventId, EventId)], cox: &[(EventId, EventId)]| {
            let mut b = ExecutionBuilder::new();
            let r = b.read("x");
            let w = b.write("x");
            b.po(r, w);
            for &(a, c) in rfx {
                b.rfx(a, c);
            }
            for &(a, c) in cox {
                b.cox(a, c);
            }
            b.build()
        };
        let template = make(&[], &[]);
        let cmp = compare_models(&template, x86_lcm(), x86_lcm(), &make);
        assert_eq!(cmp.only_first, 0);
        assert_eq!(cmp.only_second, 0);
        assert!(cmp.both > 0);
    }

    #[test]
    fn streaming_count_matches_materialized() {
        for l in [
            sb(),
            Litmus::new(vec![vec![Op::w("x"), Op::w("x")], vec![Op::r("x")]]),
            Litmus::new(vec![
                vec![Op::w("x"), Op::F, Op::r("y")],
                vec![Op::w("y"), Op::F, Op::r("x")],
            ]),
            Litmus::new(vec![]),
        ] {
            assert_eq!(
                l.count_candidates() as usize,
                l.candidate_executions().len()
            );
            assert_eq!(
                l.count_consistent(tso()) as usize,
                l.consistent_executions(tso()).len()
            );
        }
    }

    #[test]
    fn streaming_early_exit_stops() {
        let l = sb();
        let mut seen = 0;
        l.for_each_candidate(|_| {
            seen += 1;
            seen < 2
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn parallel_count_is_job_invariant() {
        let l = Litmus::new(vec![
            vec![Op::w("x"), Op::r("y"), Op::w("y")],
            vec![Op::w("y"), Op::r("x"), Op::w("x")],
        ]);
        let serial = l.count_consistent(tso());
        for jobs in [1, 2, 4, 8] {
            assert_eq!(l.count_consistent_par(tso(), jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn sb_symmetry_group_halves_the_work() {
        // SB is invariant under swapping the threads together with x↔y:
        // |G| = 2, so roughly half the choice vectors are non-canonical.
        let l = sb();
        let sym = l.count_consistent_symmetric(tso());
        assert_eq!(
            sym.total,
            l.count_consistent(tso()),
            "orbit totals are exact"
        );
        assert!(sym.pruned > 0, "the swap automorphism prunes: {sym:?}");
        assert!(sym.canonical < sym.total);
    }

    #[test]
    fn symmetric_count_exact_on_asymmetric_program() {
        // No non-trivial automorphism: different ops per thread.
        let l = Litmus::new(vec![vec![Op::w("x"), Op::w("x")], vec![Op::r("x")]]);
        let sym = l.count_consistent_symmetric(tso());
        assert_eq!(sym.total, l.count_consistent(tso()));
        assert_eq!(sym.pruned, 0, "identity-only group prunes nothing");
        assert_eq!(sym.canonical, sym.total);
    }

    #[test]
    fn symmetric_count_exact_under_sc_with_fences() {
        let l = Litmus::new(vec![
            vec![Op::w("x"), Op::F, Op::r("y")],
            vec![Op::w("y"), Op::F, Op::r("x")],
        ]);
        let sym = l.count_consistent_symmetric(sc());
        assert_eq!(sym.total, l.count_consistent(sc()));
        assert!(sym.pruned > 0);
    }
}
