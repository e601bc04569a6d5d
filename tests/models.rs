//! Pins the verdicts of the six built-in models — SC, TSO and the four
//! confidentiality predicates (x86, the naive `sc_per_loc_x` lift, silent
//! stores, predictive store forwarding) — on litmus candidates,
//! microarchitectural witnesses, the paper's worked executions and a
//! seed-keyed sample of random executions.
//!
//! Each verdict is rendered as `ok` or `<axiom>:<witness ids>` and the
//! renderings are folded into FNV-1a digests, so any change to a model's
//! accepted set, axiom names or witnesses shows up here.

use lcm::core::cat::{presets, CatModel};
use lcm::core::exec::{Execution, ExecutionBuilder};
use lcm::core::EventId;
use lcm::litmus::enumerate::{microarch_witnesses, Litmus};
use lcm::litmus::programs;

type Edge = (EventId, EventId);

/// The six models in pin order: SC, TSO, x86, naive lift, silent-store,
/// PSF.
const MODELS: usize = 6;

fn model(model: usize) -> &'static CatModel {
    [
        presets::sc,
        presets::tso,
        presets::x86_lcm,
        presets::naive_tso_lift,
        presets::silent_store_lcm,
        presets::psf_lcm,
    ][model]()
}

fn model_name(model: usize) -> &'static str {
    self::model(model).name()
}

/// `ok`, or the violated axiom and its witness ids.
fn verdict(model: usize, x: &Execution) -> String {
    match self::model(model).check(x) {
        Ok(()) => "ok".to_string(),
        Err(v) => {
            let ids: Vec<String> = v.witness.iter().map(ToString::to_string).collect();
            format!("{}:{}", v.axiom, ids.join(","))
        }
    }
}

/// 64-bit FNV-1a over newline-terminated records.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, record: &str) {
        for b in record.bytes().chain([b'\n']) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn model_names_are_pinned() {
    let names: Vec<&str> = (0..MODELS).map(model_name).collect();
    assert_eq!(
        names,
        [
            "SC",
            "TSO",
            "x86-LCM",
            "naive-sc_per_loc_x",
            "silent-store-LCM",
            "psf-LCM"
        ]
    );
}

/// `(name, source, candidates, SC-consistent, TSO-consistent, digest of
/// every candidate's SC and TSO verdicts)`.
const LITMUS: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("sb", "W x; R y || W y; R x", 4, 3, 4, 0xc4aa1ed4443b8d60),
    (
        "sb+F",
        "W x; F; R y || W y; F; R x",
        4,
        3,
        3,
        0x88cccff9a3d53518,
    ),
    ("mp", "W x; W y || R y; R x", 4, 3, 3, 0x5d0c4d560fa5271c),
    (
        "mp+F",
        "W x; F; W y || R y; F; R x",
        4,
        3,
        3,
        0x621fd8220cb897d0,
    ),
    ("lb", "R x; W y || R y; W x", 4, 3, 3, 0x8f2f088a86e67ee0),
    (
        "iriw",
        "W x || W y || R x; R y || R y; R x",
        16,
        15,
        15,
        0xaab54e2ce3a2f9e8,
    ),
    ("2+2w", "W x; W y || W y; W x", 4, 3, 3, 0x5d0c4d560fa5271c),
    (
        "wrc",
        "W x || R x; W y || R y; R x",
        8,
        7,
        7,
        0x5e8b6e342c0aa83c,
    ),
    ("r", "W x; W y || W y; R x", 4, 3, 4, 0xc4aa1ed4443b8d60),
    ("s", "W x; W y || R y; W x", 4, 3, 3, 0x8908650b1f620db8),
    ("corr", "W x || R x; R x", 4, 3, 3, 0xb1e7e963f02acfb0),
    ("cowr", "W x; R x || W x", 6, 3, 3, 0x822176d4cf906a50),
    ("coww", "W x; W x || R x; R x", 18, 6, 6, 0x2e0a10aab36489b3),
    (
        "clique-3",
        "W x; W y; R y || W x; W y; R y || W x; W y; R y",
        2304,
        216,
        216,
        0xaeede3f9839fa966,
    ),
    (
        "chain-3",
        "W x0; W x1; R x2 || W x1; W x2; R x0 || W x2; W x0; R x1",
        216,
        64,
        189,
        0x33f912e1f46b0e2e,
    ),
];

#[test]
fn litmus_candidate_verdicts_are_pinned() {
    let mut got = Vec::new();
    for &(name, src, ..) in LITMUS {
        let l = Litmus::parse(src).unwrap();
        let (mut sc, mut tso) = (0, 0);
        let mut digest = Fnv::new();
        let candidates = l
            .for_each_candidate(|x| {
                let (v_sc, v_tso) = (verdict(0, x), verdict(1, x));
                sc += u64::from(v_sc == "ok");
                tso += u64::from(v_tso == "ok");
                digest.add(&v_sc);
                digest.add(&v_tso);
                true
            })
            .visited;
        assert_eq!(l.count_consistent(presets::sc()), sc, "{name}");
        assert_eq!(l.count_consistent(presets::tso()), tso, "{name}");
        got.push((name, src, candidates, sc, tso, digest.0));
    }
    assert_eq!(got, LITMUS);
}

fn with_edges(mut b: ExecutionBuilder, rfx: &[Edge], cox: &[Edge]) -> Execution {
    for &(w, r) in rfx {
        b.rfx(w, r);
    }
    for &(a, c) in cox {
        b.cox(a, c);
    }
    b.build()
}

/// `R x; W x; R_hit x`, the hit reading the write architecturally.
fn rwr(rfx: &[Edge], cox: &[Edge]) -> Execution {
    let mut b = ExecutionBuilder::new();
    let r1 = b.read("x");
    let w = b.write("x");
    let r2 = b.read_hit("x");
    b.po_chain(&[r1, w, r2]);
    b.rf(w, r2);
    with_edges(b, rfx, cox)
}

/// `W x; SW x` in coherence order.
fn silent(rfx: &[Edge], cox: &[Edge]) -> Execution {
    let mut b = ExecutionBuilder::new();
    let w1 = b.write("x");
    let w2 = b.silent_write("x");
    b.po(w1, w2);
    b.co(w1, w2);
    with_edges(b, rfx, cox)
}

/// `R x; W x`.
fn rw(rfx: &[Edge], cox: &[Edge]) -> Execution {
    let mut b = ExecutionBuilder::new();
    let r = b.read("x");
    let w = b.write("x");
    b.po(r, w);
    with_edges(b, rfx, cox)
}

/// `W C0`, a transient `R Cy` sharing the store's xstate, then a probe of
/// `C0`'s line.
fn psf(rfx: &[Edge], cox: &[Edge]) -> Execution {
    let mut b = ExecutionBuilder::new();
    let w = b.write("C0");
    let r = b.transient_read("Cy");
    let xs = b.xstate_of(w).unwrap();
    b.set_xstate(r, xs);
    let o = b.observe("C0");
    b.tfo_chain(&[w, r, o]);
    with_edges(b, rfx, cox)
}

/// `R y; W y; R_hit y` with the hit transient, on a tfo chain.
fn v4(rfx: &[Edge], cox: &[Edge]) -> Execution {
    let mut b = ExecutionBuilder::new();
    let r = b.read("y");
    let w = b.write("y");
    let rs = b.transient_read_hit("y");
    b.po(r, w);
    b.tfo_chain(&[r, w, rs]);
    with_edges(b, rfx, cox)
}

/// `W x`, a silent store to `y` sharing the store's xstate, then `R x`.
fn ssw(rfx: &[Edge], cox: &[Edge]) -> Execution {
    let mut b = ExecutionBuilder::new();
    let w = b.write("x");
    let sw = b.silent_write("y");
    let xs = b.xstate_of(w).unwrap();
    b.set_xstate(sw, xs);
    let r = b.read("x");
    b.po_chain(&[w, sw, r]);
    with_edges(b, rfx, cox)
}

type Template = fn(&[Edge], &[Edge]) -> Execution;

/// `(template, permit-all witnesses, witnesses each LCM permits (x86,
/// naive, silent, psf), digest of every witness's four LCM verdicts)`.
const WITNESSES: &[(&str, usize, [usize; 4], u64)] = &[
    ("rwr", 24, [12, 1, 12, 12], 0xcd148f331238287a),
    ("silent", 2, [0, 0, 2, 0], 0x77320559aad52837),
    ("rw", 8, [4, 1, 4, 4], 0xfe623bf47d7d4c8e),
    ("psf", 24, [6, 0, 6, 12], 0xa62c031ed5577011),
    ("v4", 24, [12, 1, 12, 12], 0xcd148f331238287a),
    ("ssw", 24, [0, 0, 4, 0], 0x39461e4de90f1615),
];

#[test]
fn microarchitectural_witness_verdicts_are_pinned() {
    let templates: [(&str, Template); 6] = [
        ("rwr", rwr),
        ("silent", silent),
        ("rw", rw),
        ("psf", psf),
        ("v4", v4),
        ("ssw", ssw),
    ];
    let permit_all = CatModel::parse("permit-all", "empty(0)").unwrap();
    let mut got = Vec::new();
    for (name, make) in templates {
        let witnesses = microarch_witnesses(&make(&[], &[]), &permit_all, &make);
        let mut permitted = [0; 4];
        let mut digest = Fnv::new();
        for x in &witnesses {
            for (i, model) in (2..MODELS).enumerate() {
                let v = verdict(model, x);
                permitted[i] += usize::from(v == "ok");
                digest.add(&v);
            }
        }
        got.push((name, witnesses.len(), permitted, digest.0));
    }
    assert_eq!(got, WITNESSES);
}

/// Each worked execution of `lcm_litmus::programs` under the six models.
const PROGRAMS: &[(&str, [&str; MODELS])] = &[
    ("spectre_v1", ["ok", "ok", "ok", "ok", "ok", "ok"]),
    ("spectre_v1_var", ["ok", "ok", "ok", "ok", "ok", "ok"]),
    (
        "spectre_v4",
        ["ok", "ok", "ok", "sc_per_loc_x:e2,e3", "ok", "ok"],
    ),
    (
        "spectre_psf",
        [
            "ok",
            "ok",
            "no_alias_prediction:e3,e5",
            "no_alias_prediction:e3,e5",
            "no_alias_prediction:e3,e5",
            "ok",
        ],
    ),
    (
        "silent_stores",
        [
            "ok",
            "ok",
            "no_silent_stores:e2",
            "no_silent_stores:e2",
            "ok",
            "no_silent_stores:e2",
        ],
    ),
    ("imp_prefetch", ["ok", "ok", "ok", "ok", "ok", "ok"]),
];

#[test]
fn paper_program_verdicts_are_pinned() {
    let executions = [
        ("spectre_v1", programs::spectre_v1().0),
        ("spectre_v1_var", programs::spectre_v1_var().0),
        ("spectre_v4", programs::spectre_v4().0),
        ("spectre_psf", programs::spectre_psf().0),
        ("silent_stores", programs::silent_stores().0),
        ("imp_prefetch", programs::imp_prefetch().0),
    ];
    let got: Vec<(&str, Vec<String>)> = executions
        .iter()
        .map(|(name, x)| (*name, (0..MODELS).map(|m| verdict(m, x)).collect()))
        .collect();
    let want: Vec<(&str, Vec<String>)> = PROGRAMS
        .iter()
        .map(|(name, vs)| (*name, vs.iter().map(ToString::to_string).collect()))
        .collect();
    assert_eq!(got, want);
}

/// SplitMix64, one stream per execution seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A random execution over every event kind: loads, hits, stores, silent
/// stores, transient events, observers, prefetches, fences and branches,
/// with random `po`/`tfo`, shared xstate and `rf`/`co`/`rfx`/`cox` edges.
/// Most come out well-formed because edges are drawn between events of
/// the same location or xstate; the rest exercise the rejections.
fn random_execution(seed: u64) -> Execution {
    const LOCS: [&str; 3] = ["x", "y", "z"];
    let mut g = SplitMix64(seed);
    let mut b = ExecutionBuilder::new();
    // Per event: id, location index (memory events), architectural write.
    let mut events: Vec<(EventId, Option<usize>, bool)> = Vec::new();
    for _ in 0..2 + g.below(6) {
        b.on_thread(g.below(2));
        let l = g.below(LOCS.len());
        let loc = LOCS[l];
        let (e, at, write) = match g.below(12) {
            0 => (b.read(loc), Some(l), false),
            1 => (b.read_hit(loc), Some(l), false),
            2 => (b.write(loc), Some(l), true),
            3 => (b.silent_write(loc), Some(l), true),
            4 => (b.transient_read(loc), Some(l), false),
            5 => (b.transient_read_hit(loc), Some(l), false),
            6 => (b.transient_write(loc), Some(l), true),
            7 => (b.observe(loc), None, false),
            8 => (b.prefetch(loc), None, false),
            9 => (b.fence(), None, false),
            10 => (b.branch(), None, false),
            _ => (b.write(loc), Some(l), true),
        };
        events.push((e, at, write));
    }
    let n = events.len();
    for i in 0..n {
        for j in i + 1..n {
            match g.below(4) {
                0 => {
                    b.po(events[i].0, events[j].0);
                }
                1 => {
                    b.tfo(events[i].0, events[j].0);
                }
                _ => {}
            }
        }
    }
    // Shared xstate: an event takes another memory event's line.
    for _ in 0..g.below(2) {
        let (a, c) = (events[g.below(n)].0, events[g.below(n)].0);
        if let Some(xs) = b.xstate_of(c) {
            if b.xstate_of(a).is_some() {
                b.set_xstate(a, xs);
            }
        }
    }
    // rf: a read takes a same-location write (or, rarely, anything).
    for &(r, at, write) in &events {
        if at.is_some() && !write && g.chance(50) {
            let same: Vec<EventId> = events
                .iter()
                .filter(|&&(_, l, w)| w && (l == at || g.chance(10)))
                .map(|&(e, ..)| e)
                .collect();
            if !same.is_empty() {
                b.rf(same[g.below(same.len())], r);
            }
        }
    }
    // co: a random total order per location, occasionally left partial.
    for l in 0..LOCS.len() {
        let mut ws: Vec<EventId> = events
            .iter()
            .filter(|&&(_, at, w)| w && at == Some(l))
            .map(|&(e, ..)| e)
            .collect();
        for i in (1..ws.len()).rev() {
            ws.swap(i, g.below(i + 1));
        }
        for w in ws.windows(2) {
            if g.chance(95) {
                b.co(w[0], w[1]);
            }
        }
    }
    // rfx and cox: mostly between events on one line.
    let xs: Vec<_> = events.iter().map(|&(e, ..)| b.xstate_of(e)).collect();
    for i in 0..n {
        for j in 0..n {
            if i == j || (xs[i] != xs[j] && !g.chance(3)) {
                continue;
            }
            match g.below(6) {
                0 => {
                    b.rfx(events[i].0, events[j].0);
                }
                1 if i < j => {
                    b.cox(events[i].0, events[j].0);
                }
                _ => {}
            }
        }
    }
    b.build()
}

/// Every `rfx` edge runs from an xstate writer to an xstate reader and
/// every `cox` edge joins two xstate writers.
fn xstate_edges_are_sound(x: &Execution) -> bool {
    let (reads, writes) = (
        |e: usize| x.event(EventId(e)).reads_xstate(),
        |e: usize| x.event(EventId(e)).writes_xstate(),
    );
    x.rfx().pairs().all(|(w, r)| writes(w) && reads(r))
        && x.cox().pairs().all(|(a, c)| writes(a) && writes(c))
}

/// `(rejected executions, per model: (permitted, digest of verdicts))`.
const RANDOM: (usize, [(usize, u64); MODELS]) = (
    12321,
    [
        (7141, 0x464027b2639aa423),
        (7143, 0x9dd851d0b6417e89),
        (5489, 0x1570f5a3aa4675c6),
        (3732, 0x4b17167e36978cd0),
        (7241, 0x3a35ece26411704f),
        (5656, 0x867650648ffbfc44),
    ],
);

#[test]
fn random_execution_verdicts_are_pinned() {
    let mut rejected = 0;
    let mut per_model = [(0, Fnv::new()); MODELS];
    let mut axioms = std::collections::BTreeSet::new();
    for seed in 0..20_000 {
        let x = random_execution(seed);
        if x.well_formed().is_err() || !xstate_edges_are_sound(&x) {
            rejected += 1;
            continue;
        }
        for (model, (permitted, digest)) in per_model.iter_mut().enumerate() {
            let v = verdict(model, &x);
            *permitted += usize::from(v == "ok");
            digest.add(&v);
            axioms.insert(v.split(':').next().unwrap().to_string());
        }
    }
    let got = (rejected, per_model.map(|(n, d)| (n, d.0)));
    assert_eq!(got, RANDOM);
    // The sample reaches every clause of every model.
    let axioms: Vec<&str> = axioms.iter().map(String::as_str).collect();
    assert_eq!(
        axioms,
        [
            "acyclic_rfx_cox",
            "causality",
            "no_alias_prediction",
            "no_silent_stores",
            "ok",
            "sc",
            "sc_per_loc",
            "sc_per_loc_x"
        ]
    );
}
