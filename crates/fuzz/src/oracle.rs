//! Ground-truth oracle: a bounded-exhaustive speculative reference
//! interpreter (DESIGN.md §6i).
//!
//! The oracle decides leakage the way the paper defines it — as a
//! *hyperproperty* over executions — rather than the way the engines
//! compute it. For a small lattice of attacker inputs it runs the program
//! concretely twice per input, with two different secret assignments, and
//! compares **observation traces** (load/store addresses and branch
//! directions — the microarchitecturally visible events; loaded *values*
//! are never observable):
//!
//! * differing architectural traces ⇒ an architectural leak (outside the
//!   engines' threat model — they only reason about transient leakage);
//! * for each speculation **choice point** on the (equal) architectural
//!   path, differing *transient* traces ⇒ a speculative leak attributed
//!   to that choice's primitive.
//!
//! Choice points are explored one at a time: a mispredicted branch, a
//! store-bypassing load (reads the stale pre-store value), or a
//! mis-forwarded load (receives a different-address store's value). This
//! single-divergence model is sound for the differential harness's
//! purpose: transient executions roll back completely, so each choice is
//! independent, and under-exploring nested mispredictions can only make
//! the oracle *miss* leaks, never invent one — mismatches are only
//! declared in the oracle-leaks-but-engine-is-clean direction.
//!
//! Fences carry their architectural meaning: a fence squashes an open
//! transient window, and a load never bypasses or forwards from a store
//! older than the last executed fence.

use std::collections::{BTreeSet, HashMap};

use lcm_ir::{Function, Inst, InstId, Module, Terminator};

/// The speculation primitive a choice point (and hence a leak) belongs
/// to; aligned with the three engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeakKind {
    /// Conditional-branch misprediction (Spectre v1).
    Pht,
    /// Store-to-load bypass: the load reads the stale value (Spectre v4).
    Stl,
    /// Predictive store forwarding from a mismatched address.
    Psf,
}

/// Oracle tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Total interpreter step budget per run.
    pub fuel: u64,
    /// Transient window: scheduled instructions executed past a
    /// divergence before the squash.
    pub window: usize,
    /// Store-queue depth: how far back a load may bypass or forward.
    pub lsq: usize,
    /// Mismatched-address stores considered per load for PSF forwarding.
    pub max_forward: usize,
    /// Cap on attacker input vectors per program.
    pub max_inputs: usize,
    /// Cap on choice points explored per input.
    pub max_choices: usize,
    /// The two secret assignments compared by the hyperproperty.
    pub secret_pair: (i64, i64),
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            fuel: 4096,
            window: 64,
            lsq: 16,
            max_forward: 4,
            max_inputs: 36,
            max_choices: 128,
            secret_pair: (3, 5),
        }
    }
}

impl OracleConfig {
    /// A cheaper profile for CI sweeps: smaller input lattice and choice
    /// budget, same semantics.
    pub fn quick() -> Self {
        OracleConfig {
            max_inputs: 12,
            max_choices: 64,
            ..OracleConfig::default()
        }
    }
}

/// The oracle's verdict for one program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Secret-dependent *architectural* traces were seen (non-transient
    /// leak; outside the engines' scope).
    pub arch_leak: bool,
    /// Primitives with a witnessed transient leak.
    pub leaks: BTreeSet<LeakKind>,
    /// Attacker input vectors exercised.
    pub inputs: usize,
    /// Transient choice points explored (over all inputs).
    pub choices: usize,
    /// Runs abandoned (fuel exhaustion or unsupported instructions).
    pub skipped: usize,
}

impl OracleReport {
    /// `true` if the primitive leaks under the oracle.
    pub fn leaks(&self, kind: LeakKind) -> bool {
        self.leaks.contains(&kind)
    }

    /// `true` if no leak of any sort was witnessed.
    pub fn secure(&self) -> bool {
        !self.arch_leak && self.leaks.is_empty()
    }
}

/// One microarchitecturally observable event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obs {
    Load(i64),
    Store(i64),
    Branch(bool),
}

/// A speculation choice point on the architectural path, identified by
/// execution ordinals so it names the same point in both secret runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Choice {
    kind: LeakKind,
    /// Ordinal of the branch (Pht) or load (Stl/Psf) on the arch path.
    site: usize,
    /// For Stl/Psf: index into the store log of the involved store.
    store: usize,
}

#[derive(Debug)]
enum RunError {
    OutOfFuel,
    Unsupported,
}

struct RunResult {
    /// Architectural observations (empty past the divergence point).
    obs: Vec<Obs>,
    /// Transient observations (divergent runs only).
    tobs: Vec<Obs>,
    /// Choice points discovered (scouting runs only).
    choices: Vec<Choice>,
}

struct Exec {
    mem: HashMap<i64, i64>,
    /// Transient stores land here; never committed.
    overlay: HashMap<i64, i64>,
    transient: bool,
    transient_left: usize,
    next_alloca: i64,
    fuel: u64,
    obs: Vec<Obs>,
    tobs: Vec<Obs>,
    choices: Vec<Choice>,
    branches_seen: usize,
    loads_seen: usize,
    /// `(addr, value_before, value_stored)` per architectural store.
    store_log: Vec<(i64, i64, i64)>,
    /// Stores before this log index are fenced off from bypassing.
    window_start: usize,
    divert: Option<Choice>,
    cfg: OracleConfig,
}

/// Signals that the run is over (transient squash or architectural ret).
struct Done;

impl Exec {
    fn new(module: &Module, secret_fill: i64, cfg: OracleConfig, divert: Option<Choice>) -> Self {
        let mut mem = HashMap::new();
        for (gi, g) in module.globals.iter().enumerate() {
            let base = (gi as i64 + 1) << 32;
            for &(idx, v) in &g.init {
                mem.insert(base + i64::from(idx), v);
            }
            if g.secret {
                for w in 0..g.size {
                    mem.insert(base + i64::from(w), secret_fill);
                }
            }
        }
        Exec {
            mem,
            overlay: HashMap::new(),
            transient: false,
            transient_left: 0,
            next_alloca: 1 << 48,
            fuel: cfg.fuel,
            obs: Vec::new(),
            tobs: Vec::new(),
            choices: Vec::new(),
            branches_seen: 0,
            loads_seen: 0,
            store_log: Vec::new(),
            window_start: 0,
            divert,
            cfg,
        }
    }

    fn burn(&mut self) -> Result<(), RunError> {
        if self.fuel == 0 {
            return Err(RunError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn read_mem(&self, a: i64) -> i64 {
        if self.transient {
            if let Some(&v) = self.overlay.get(&a) {
                return v;
            }
        }
        *self.mem.get(&a).unwrap_or(&0)
    }

    fn observe(&mut self, o: Obs) {
        if self.transient {
            self.tobs.push(o);
        } else {
            self.obs.push(o);
        }
    }

    /// Enters the transient window; returns [`Done`] via the caller when
    /// the window closes.
    fn diverge(&mut self) {
        self.transient = true;
        self.transient_left = self.cfg.window;
    }

    /// Ticks the transient budget. `Err(Done)` squashes.
    fn transient_tick(&mut self) -> Result<(), Done> {
        if self.transient {
            if self.transient_left == 0 {
                return Err(Done);
            }
            self.transient_left -= 1;
        }
        Ok(())
    }

    fn run(&mut self, f: &Function, args: &[i64]) -> Result<(), RunError> {
        let mut env: HashMap<u32, i64> = HashMap::new();
        let mut bb = f.entry();
        loop {
            let insts = f.blocks[bb.0 as usize].insts.clone();
            for iid in insts {
                self.burn()?;
                match self.step(f, iid, args, &mut env)? {
                    Ok(()) => {}
                    Err(Done) => return Ok(()),
                }
            }
            match f.blocks[bb.0 as usize].term.clone() {
                Terminator::Br(t) => bb = t,
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.eval(f, cond, args, &mut env)? != 0;
                    if self.transient {
                        if self.transient_tick().is_err() {
                            return Ok(());
                        }
                        self.observe(Obs::Branch(c));
                        bb = if c { then_bb } else { else_bb };
                    } else {
                        let site = self.branches_seen;
                        self.branches_seen += 1;
                        if self.divert.is_none() {
                            self.choices.push(Choice {
                                kind: LeakKind::Pht,
                                site,
                                store: 0,
                            });
                        }
                        let mispredict = matches!(
                            self.divert,
                            Some(Choice {
                                kind: LeakKind::Pht,
                                site: s,
                                ..
                            }) if s == site
                        );
                        if mispredict {
                            self.diverge();
                            self.observe(Obs::Branch(!c));
                            bb = if c { else_bb } else { then_bb };
                        } else {
                            self.observe(Obs::Branch(c));
                            bb = if c { then_bb } else { else_bb };
                        }
                    }
                }
                Terminator::Ret(_) => return Ok(()),
            }
        }
    }

    /// Executes one scheduled instruction. The outer `Result` is a hard
    /// interpreter error; the inner one signals end-of-run.
    #[allow(clippy::result_large_err)]
    fn step(
        &mut self,
        f: &Function,
        iid: InstId,
        args: &[i64],
        env: &mut HashMap<u32, i64>,
    ) -> Result<Result<(), Done>, RunError> {
        if self.transient_tick().is_err() {
            return Ok(Err(Done));
        }
        match f.inst(iid).clone() {
            Inst::Alloca { size, .. } => {
                let addr = self.next_alloca;
                self.next_alloca += i64::from(size.max(1));
                env.insert(iid.0, addr);
            }
            Inst::Load { addr, .. } => {
                let a = self.eval(f, addr, args, env)?;
                if self.transient {
                    self.observe(Obs::Load(a));
                    env.insert(iid.0, self.read_mem(a));
                    return Ok(Ok(()));
                }
                let site = self.loads_seen;
                self.loads_seen += 1;
                // Scout bypass/forward choices within the store window.
                let window = &self.store_log[self.window_start..];
                let base = self.window_start;
                if self.divert.is_none() {
                    let mut forwards = 0;
                    for (off, &(sa, _, _)) in window.iter().enumerate().rev().take(self.cfg.lsq) {
                        if sa == a {
                            self.choices.push(Choice {
                                kind: LeakKind::Stl,
                                site,
                                store: base + off,
                            });
                            break; // youngest matching store only
                        }
                    }
                    for (off, &(sa, _, _)) in window.iter().enumerate().rev().take(self.cfg.lsq) {
                        if sa != a && forwards < self.cfg.max_forward {
                            self.choices.push(Choice {
                                kind: LeakKind::Psf,
                                site,
                                store: base + off,
                            });
                            forwards += 1;
                        }
                    }
                }
                let diverted = match self.divert {
                    Some(
                        c @ Choice {
                            kind: LeakKind::Stl | LeakKind::Psf,
                            site: s,
                            ..
                        },
                    ) if s == site => Some(c),
                    _ => None,
                };
                if let Some(c) = diverted {
                    let (sa, before, stored) =
                        *self.store_log.get(c.store).ok_or(RunError::Unsupported)?;
                    let v = match c.kind {
                        // Bypass: the load beats the (same-address) store
                        // and reads the value memory held before it.
                        LeakKind::Stl if sa == a => before,
                        // Forwarding: the load is predicted to match the
                        // (different-address) store and takes its value.
                        LeakKind::Psf if sa != a => stored,
                        // The store relationship changed between the
                        // scouting run and this one — possible only if
                        // the runs already diverged architecturally.
                        _ => return Err(RunError::Unsupported),
                    };
                    self.diverge();
                    self.observe(Obs::Load(a));
                    env.insert(iid.0, v);
                    return Ok(Ok(()));
                }
                self.observe(Obs::Load(a));
                env.insert(iid.0, self.read_mem(a));
            }
            Inst::Store { addr, value } => {
                let a = self.eval(f, addr, args, env)?;
                let v = self.eval(f, value, args, env)?;
                self.observe(Obs::Store(a));
                if self.transient {
                    self.overlay.insert(a, v);
                } else {
                    self.store_log.push((a, *self.mem.get(&a).unwrap_or(&0), v));
                    self.mem.insert(a, v);
                }
            }
            Inst::Fence => {
                if self.transient {
                    return Ok(Err(Done)); // squash
                }
                self.window_start = self.store_log.len();
            }
            Inst::Call { .. } | Inst::Havoc { .. } => return Err(RunError::Unsupported),
            pure => {
                debug_assert!(!pure.is_scheduled());
                let v = self.eval(f, iid, args, env)?;
                env.insert(iid.0, v);
            }
        }
        Ok(Ok(()))
    }

    fn eval(
        &mut self,
        f: &Function,
        v: InstId,
        args: &[i64],
        env: &mut HashMap<u32, i64>,
    ) -> Result<i64, RunError> {
        if let Some(&x) = env.get(&v.0) {
            return Ok(x);
        }
        self.burn()?;
        let out = match f.inst(v).clone() {
            Inst::Const(c) => c,
            Inst::Param { index, .. } => *args.get(index).unwrap_or(&0),
            Inst::GlobalAddr(g) => (i64::from(g.0) + 1) << 32,
            Inst::Gep { base, index, scale } => {
                let b = self.eval(f, base, args, env)?;
                let i = self.eval(f, index, args, env)?;
                b + i * i64::from(scale.max(1))
            }
            Inst::Bin { op, lhs, rhs } => {
                let a = self.eval(f, lhs, args, env)?;
                let b = self.eval(f, rhs, args, env)?;
                op.eval(a, b)
            }
            _ => 0,
        };
        Ok(out)
    }
}

fn execute(
    module: &Module,
    fname: &str,
    args: &[i64],
    secret_fill: i64,
    cfg: OracleConfig,
    divert: Option<Choice>,
) -> Result<RunResult, RunError> {
    let f = module.function(fname).ok_or(RunError::Unsupported)?;
    let mut e = Exec::new(module, secret_fill, cfg, divert);
    e.run(f, args)?;
    Ok(RunResult {
        obs: e.obs,
        tobs: e.tobs,
        choices: e.choices,
    })
}

/// The attacker input lattice for a function: per integer parameter, a
/// few in-bounds values plus every public→secret inter-global delta, so
/// out-of-bounds indexing concretely reaches secret memory. The cross
/// product is capped at `cfg.max_inputs`.
fn input_vectors(module: &Module, f: &Function, cfg: OracleConfig) -> Vec<Vec<i64>> {
    let mut per_param: Vec<i64> = vec![0, 1, 7];
    for (si, s) in module.globals.iter().enumerate() {
        if !s.secret {
            continue;
        }
        let sbase = (si as i64 + 1) << 32;
        for (pi, p) in module.globals.iter().enumerate() {
            if p.secret {
                continue;
            }
            let pbase = (pi as i64 + 1) << 32;
            per_param.push(sbase - pbase);
        }
    }
    per_param.dedup();
    let nparams = f.params.len().min(3);
    let full = per_param
        .len()
        .checked_pow(nparams as u32)
        .unwrap_or(usize::MAX);
    if full <= cfg.max_inputs {
        // Full cross product.
        let mut out: Vec<Vec<i64>> = vec![vec![0; f.params.len()]];
        for p in 0..nparams {
            let mut next = Vec::new();
            for v in &out {
                for &c in &per_param {
                    let mut v2 = v.clone();
                    v2[p] = c;
                    next.push(v2);
                }
            }
            out = next;
        }
        return out;
    }
    // One-hot sweep: every candidate reaches every parameter position, so
    // truncation never starves a later parameter of the delta values.
    let mut out: Vec<Vec<i64>> = vec![vec![0; f.params.len()]];
    for p in 0..nparams {
        for &c in &per_param {
            if c == 0 {
                continue;
            }
            let mut v = vec![0; f.params.len()];
            v[p] = c;
            out.push(v);
        }
    }
    out.truncate(cfg.max_inputs);
    out
}

/// Runs the two-run non-interference check over the input lattice and
/// every single-divergence choice point.
pub fn analyze(module: &Module, fname: &str, cfg: OracleConfig) -> OracleReport {
    let mut report = OracleReport::default();
    let f = match module.function(fname) {
        Some(f) => f,
        None => return report,
    };
    let (sa, sb) = cfg.secret_pair;
    for args in input_vectors(module, f, cfg) {
        report.inputs += 1;
        let (ra, rb) = match (
            execute(module, fname, &args, sa, cfg, None),
            execute(module, fname, &args, sb, cfg, None),
        ) {
            (Ok(a), Ok(b)) => (a, b),
            _ => {
                report.skipped += 1;
                continue;
            }
        };
        if ra.obs != rb.obs || ra.choices != rb.choices {
            report.arch_leak = true;
            continue;
        }
        for &c in ra.choices.iter().take(cfg.max_choices) {
            report.choices += 1;
            let (ta, tb) = match (
                execute(module, fname, &args, sa, cfg, Some(c)),
                execute(module, fname, &args, sb, cfg, Some(c)),
            ) {
                (Ok(a), Ok(b)) => (a, b),
                _ => {
                    report.skipped += 1;
                    continue;
                }
            };
            if ta.tobs != tb.tobs {
                report.leaks.insert(c.kind);
            }
        }
        if report.arch_leak && report.leaks.len() == 3 {
            break;
        }
    }
    report
}

/// Convenience: analyzes the first public function.
pub fn analyze_first_public(module: &Module, cfg: OracleConfig) -> OracleReport {
    match module.public_functions().next() {
        Some(f) => {
            let name = f.name.clone();
            analyze(module, &name, cfg)
        }
        None => OracleReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(src: &str) -> OracleReport {
        let m = lcm_minic::compile(src).expect("compile");
        analyze_first_public(&m, OracleConfig::default())
    }

    const GLOBALS: &str =
        "int pub_a[16]; int pub_b[512]; int sec_key[8]; int scratch[8]; int guard; int temp;";

    #[test]
    fn spectre_v1_is_a_pht_leak() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ if (x < guard) {{ temp &= pub_b[(pub_a[x]) * 64]; }} }}"
        ));
        assert!(r.leaks(LeakKind::Pht), "{r:?}");
        assert!(!r.arch_leak, "guard is zero: the access is arch-dead");
    }

    #[test]
    fn fenced_spectre_v1_is_secure() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ if (x < guard) {{ lfence(); temp &= pub_b[(pub_a[x]) * 64]; }} }}"
        ));
        assert!(r.secure(), "{r:?}");
    }

    #[test]
    fn masked_spectre_v1_is_secure() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ if (x < guard) {{ temp &= pub_b[(pub_a[(x) & 15]) * 64]; }} }}"
        ));
        assert!(r.secure(), "{r:?}");
    }

    #[test]
    fn store_to_load_bypass_is_an_stl_leak() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ sec_key[(x) & 7] = 0; temp &= pub_b[(sec_key[(x) & 7]) * 64]; }}"
        ));
        assert!(r.leaks(LeakKind::Stl), "{r:?}");
        assert!(!r.arch_leak);
    }

    #[test]
    fn fenced_bypass_is_secure() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ sec_key[(x) & 7] = 0; lfence(); temp &= pub_b[(sec_key[(x) & 7]) * 64]; }}"
        ));
        assert!(!r.leaks(LeakKind::Stl), "{r:?}");
    }

    #[test]
    fn public_bypass_is_secure() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ scratch[(x) & 7] = y; temp &= pub_b[(scratch[(x) & 7]) * 64]; }}"
        ));
        assert!(r.secure(), "stale value is public: {r:?}");
    }

    #[test]
    fn cross_address_forwarding_is_a_psf_leak() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ scratch[0] = sec_key[(x) & 7]; scratch[1] = 0; temp &= pub_b[(scratch[1]) * 64]; }}"
        ));
        assert!(r.leaks(LeakKind::Psf), "{r:?}");
    }

    #[test]
    fn architectural_secret_read_is_an_arch_leak() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ temp &= pub_b[(sec_key[(x) & 7]) * 64]; }}"
        ));
        assert!(r.arch_leak, "{r:?}");
    }

    #[test]
    fn straightline_public_program_is_secure() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ scratch[(x) & 7] = y; temp &= pub_b[(pub_a[(y) & 15]) * 8]; }}"
        ));
        assert!(r.secure(), "{r:?}");
    }
}
