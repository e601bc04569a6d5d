//! Ground-truth oracle: bounded-exhaustive speculative execution
//! (DESIGN.md §6i).
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
//!
//! Every run executes on the one IR interpreter, [`lcm_ir::interp`]; the
//! speculative semantics is a [`Hook`] on it. Calls into defined
//! functions are therefore followed, and a transient window crosses
//! frames. A run that reaches an undefined external call, or runs out of
//! fuel, has no concrete result and is skipped.

use std::collections::BTreeSet;

use lcm_ir::interp::{Halt, Hook, Machine};
use lcm_ir::{Function, InstId, Module};

/// Total interpreter step budget per run.
const FUEL: u64 = 4096;
/// Transient window: scheduled instructions executed past a divergence
/// before the squash.
const WINDOW: usize = 64;
/// Store-queue depth: how far back a load may bypass or forward.
const LSQ: usize = 16;
/// Mismatched-address stores considered per load for PSF forwarding.
const MAX_FORWARD: usize = 4;
/// The two secret assignments compared by the hyperproperty.
const SECRET_PAIR: (i64, i64) = (3, 5);

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

/// How much of a program the oracle explores.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Cap on attacker input vectors per program.
    pub max_inputs: usize,
    /// Cap on choice points explored per input.
    pub max_choices: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            max_inputs: 36,
            max_choices: 128,
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
    /// Runs abandoned (fuel exhaustion or an undefined external call).
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

/// The speculative semantics of one run, as a hook on the IR
/// interpreter.
///
/// A run never returns to architectural execution after it diverges: it
/// ends at the squash. Transient stores can therefore go straight to the
/// machine's memory, which the run discards.
#[derive(Default)]
struct Spec {
    /// The choice point this run takes; `None` for a scouting run.
    divert: Option<Choice>,
    /// Instructions left in the transient window; `None` while
    /// architectural.
    transient: Option<usize>,
    /// Architectural observations (none past the divergence point).
    obs: Vec<Obs>,
    /// Transient observations (divergent runs only).
    tobs: Vec<Obs>,
    /// Choice points discovered (scouting runs only).
    choices: Vec<Choice>,
    branches_seen: usize,
    loads_seen: usize,
    /// `(addr, value_before, value_stored)` per architectural store.
    store_log: Vec<(i64, i64, i64)>,
    /// Stores before this log index are fenced off from bypassing.
    window_start: usize,
}

impl Spec {
    /// Ticks an open transient window; squashes once it is spent.
    fn tick(&mut self) -> Result<(), Halt> {
        match &mut self.transient {
            Some(0) => Err(Halt),
            Some(left) => {
                *left -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Records the choices of the architectural load `site` at `addr`
    /// over the youngest `LSQ` stores since the last fence: bypassing the
    /// youngest same-address store, and forwarding from each of up to
    /// `MAX_FORWARD` different-address stores.
    fn scout_load(&mut self, site: usize, addr: i64) {
        let base = self.window_start;
        let recent = self.store_log[base..].iter().enumerate().rev().take(LSQ);
        let bypass = recent.clone().find(|(_, s)| s.0 == addr);
        let forwards = recent.filter(|(_, s)| s.0 != addr).take(MAX_FORWARD);
        let found = (bypass.map(|s| (LeakKind::Stl, s)).into_iter())
            .chain(forwards.map(|s| (LeakKind::Psf, s)));
        self.choices.extend(found.map(|(kind, (off, _))| Choice {
            kind,
            site,
            store: base + off,
        }));
    }
}

impl Hook for Spec {
    fn step(&mut self) -> Result<(), Halt> {
        self.tick()
    }

    fn load(&mut self, _func: u32, _inst: InstId, addr: i64, value: i64) -> Result<i64, Halt> {
        if self.transient.is_some() {
            self.tobs.push(Obs::Load(addr));
            return Ok(value);
        }
        let site = self.loads_seen;
        self.loads_seen += 1;
        match self.divert {
            None => self.scout_load(site, addr),
            Some(c) if c.site == site && c.kind != LeakKind::Pht => {
                // A diverted run replays its scouting run up to here, so
                // the store relationship the choice was scouted on holds.
                let (sa, before, stored) = self.store_log[c.store];
                debug_assert_eq!(sa == addr, c.kind == LeakKind::Stl);
                self.transient = Some(WINDOW);
                self.tobs.push(Obs::Load(addr));
                // Bypass: the load beats the same-address store and reads
                // what memory held before it. Forwarding: the load is
                // predicted to match the different-address store and
                // takes its value.
                return Ok(if c.kind == LeakKind::Stl {
                    before
                } else {
                    stored
                });
            }
            Some(_) => {}
        }
        self.obs.push(Obs::Load(addr));
        Ok(value)
    }

    fn store(
        &mut self,
        _func: u32,
        _inst: InstId,
        addr: i64,
        value: i64,
        old: i64,
    ) -> Result<(), Halt> {
        if self.transient.is_some() {
            self.tobs.push(Obs::Store(addr));
        } else {
            self.obs.push(Obs::Store(addr));
            self.store_log.push((addr, old, value));
        }
        Ok(())
    }

    fn fence(&mut self) -> Result<(), Halt> {
        if self.transient.is_some() {
            return Err(Halt); // squash
        }
        self.window_start = self.store_log.len();
        Ok(())
    }

    fn branch(&mut self, _func: u32, _inst: InstId, cond: i64) -> Result<bool, Halt> {
        let taken = cond != 0;
        if self.transient.is_some() {
            self.tick()?;
            self.tobs.push(Obs::Branch(taken));
            return Ok(taken);
        }
        let site = self.branches_seen;
        self.branches_seen += 1;
        match self.divert {
            None => self.choices.push(Choice {
                kind: LeakKind::Pht,
                site,
                store: 0,
            }),
            Some(c) if c.kind == LeakKind::Pht && c.site == site => {
                self.transient = Some(WINDOW);
                self.tobs.push(Obs::Branch(!taken));
                return Ok(!taken);
            }
            Some(_) => {}
        }
        self.obs.push(Obs::Branch(taken));
        Ok(taken)
    }
}

/// Runs `fname(args)` with every secret word set to `secret`, taking the
/// choice `divert`. `None` when the run has no concrete result.
fn execute(
    module: &Module,
    fname: &str,
    args: &[i64],
    secret: i64,
    divert: Option<Choice>,
) -> Option<Spec> {
    let mut machine = Machine::new(module);
    for g in module.globals.iter().filter(|g| g.secret) {
        for w in 0..g.size {
            machine.set_global(&g.name, w, secret);
        }
    }
    let mut spec = Spec {
        divert,
        ..Spec::default()
    };
    machine.call_hooked(fname, args, FUEL, &mut spec).ok()?;
    Some(spec)
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
    let (sa, sb) = SECRET_PAIR;
    for args in input_vectors(module, f, cfg) {
        report.inputs += 1;
        let (ra, rb) = match (
            execute(module, fname, &args, sa, None),
            execute(module, fname, &args, sb, None),
        ) {
            (Some(a), Some(b)) => (a, b),
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
                execute(module, fname, &args, sa, Some(c)),
                execute(module, fname, &args, sb, Some(c)),
            ) {
                (Some(a), Some(b)) => (a, b),
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

    fn oracle_on_victim(src: &str) -> OracleReport {
        let m = lcm_minic::compile(&format!("{GLOBALS} {src}")).expect("compile");
        analyze(&m, "victim", OracleConfig::default())
    }

    #[test]
    fn spectre_v1_in_a_helper_is_a_pht_leak() {
        let r = oracle_on_victim(
            "void leak(int x) { if (x < guard) { temp &= pub_b[(pub_a[x]) * 64]; } } \
             void victim(int x, int y) { leak(x); }",
        );
        assert!(r.leaks(LeakKind::Pht), "{r:?}");
        assert_eq!(r.skipped, 0, "{r:?}");
    }

    #[test]
    fn fenced_spectre_v1_in_a_helper_is_secure() {
        let r = oracle_on_victim(
            "void leak(int x) { if (x < guard) { lfence(); temp &= pub_b[(pub_a[x]) * 64]; } } \
             void victim(int x, int y) { leak(x); }",
        );
        assert!(r.secure(), "{r:?}");
        assert_eq!(r.skipped, 0, "{r:?}");
    }

    #[test]
    fn bypass_through_a_returning_helper_is_an_stl_leak() {
        let r = oracle_on_victim(
            "int get(int i) { return sec_key[(i) & 7]; } \
             void victim(int x, int y) { sec_key[(x) & 7] = 0; temp &= pub_b[(get(x)) * 64]; }",
        );
        assert!(r.leaks(LeakKind::Stl), "{r:?}");
        assert_eq!(r.skipped, 0, "{r:?}");
    }

    #[test]
    fn undefined_external_call_is_skipped() {
        let r = oracle_on_victim("void victim(int x, int y) { ext(x); }");
        assert!(r.inputs > 0 && r.skipped == r.inputs, "{r:?}");
    }

    #[test]
    fn straightline_public_program_is_secure() {
        let r = oracle(&format!(
            "{GLOBALS} void victim(int x, int y) {{ scratch[(x) & 7] = y; temp &= pub_b[(pub_a[(y) & 15]) * 8]; }}"
        ));
        assert!(r.secure(), "{r:?}");
    }
}
