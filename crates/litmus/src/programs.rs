//! The paper's worked attacks as complete candidate executions (§4.2).
//!
//! Each constructor returns an [`Execution`] whose microarchitectural
//! witness matches the paper's figure, together with the named events a
//! test needs to assert on.

use lcm_core::exec::{Execution, ExecutionBuilder};
use lcm_core::EventId;

/// Named events of the Spectre v1 execution (Fig. 2b).
#[derive(Debug, Clone, Copy)]
pub struct SpectreV1 {
    /// `2: R y` — the index read.
    pub e2: EventId,
    /// `5: R A+r2` — the committed access.
    pub e5: EventId,
    /// `6: R B+r4` — the committed (candidate universal) transmitter.
    pub e6: EventId,
    /// `5ₛ` — the transient access.
    pub e5s: EventId,
    /// `6ₛ` — the transient true-universal transmitter.
    pub e6s: EventId,
    /// Observers of s0, s1, s2 (committed fork) and s2 (transient fork).
    pub obs: [EventId; 4],
}

/// Builds the Fig. 2b candidate execution of vanilla Spectre v1: the
/// committed taken path `2 → 5 → 6` plus a transient not-taken fork
/// `5ₛ → 6ₛ` (speculation depth 2), with observers probing each touched
/// line.
pub fn spectre_v1() -> (Execution, SpectreV1) {
    let mut b = ExecutionBuilder::new();
    let e2 = b.read("y");
    b.set_label(e2, "2: R y (RW s0)");
    // Transient fork (branch mispredicted not-taken... the other fork).
    let e5s = b.transient_read("A+r2");
    b.set_label(e5s, "5s: Rs A+r2 (RW s1)");
    let e6s = b.transient_read("B+r4");
    b.set_label(e6s, "6s: Rs B+r4 (RW s2)");
    // Committed path (re-executed after the squash; the line reads hit
    // the transient fills, themselves a com/comx deviation).
    let e5 = b.read("A+r2");
    b.set_label(e5, "5: R A+r2 (RW s1)");
    let e6 = b.read("B+r4");
    b.set_label(e6, "6: R B+r4 (RW s2)");
    b.po_chain(&[e2, e5, e6]);
    b.tfo_chain(&[e2, e5s, e6s]);
    b.tfo(e6s, e5); // rollback: committed path fetched after squash
    b.addr_gep(e2, e5).addr_gep(e5, e6);
    b.addr_gep(e2, e5s).addr_gep(e5s, e6s);
    b.rfx(e5s, e5);
    b.cox(e5s, e5);
    b.rfx(e6s, e6);
    b.cox(e6s, e6);
    // Observers probe the final cache state.
    let o0 = b.observe("y");
    let o1 = b.observe("A+r2");
    let o2 = b.observe("B+r4");
    let o3 = b.observe("B+r4");
    b.po_chain(&[e6, o0, o1, o2]);
    b.tfo(e6s, o3);
    b.rfx(e2, o0);
    b.rfx(e5, o1);
    b.rfx(e6, o2);
    // o3 shares B+r4's xstate; its line was touched by 6s then 6 — only
    // one observer probe per xstate element is meaningful; give o3 the
    // transient fill to witness the transient transmitter.
    let xs = b.xstate_of(e6s).unwrap();
    b.set_xstate(o3, xs);
    b.rfx(e6s, o3);
    (
        b.build(),
        SpectreV1 {
            e2,
            e5,
            e6,
            e5s,
            e6s,
            obs: [o0, o1, o2, o3],
        },
    )
}

/// Named events of the Fig. 3 variant.
#[derive(Debug, Clone, Copy)]
pub struct SpectreV1Var {
    /// `5: R A+r1` — the **committed** access (`x = A[y]` before the
    /// bounds check).
    pub e5: EventId,
    /// `6ₛ` — transient transmitter with committed access.
    pub e6s: EventId,
    /// Observer of the transmitter's line.
    pub obs: EventId,
}

/// Builds the Fig. 3 variant of Spectre v1: `x = A[y]; if (y < size)
/// temp &= B[x];` — the access instruction commits, only the transmitter
/// is transient, so the leakage scope is restricted (§4.2, the STT
/// discussion).
pub fn spectre_v1_var() -> (Execution, SpectreV1Var) {
    let mut b = ExecutionBuilder::new();
    let e2 = b.read("y");
    b.set_label(e2, "2: R y (RW s0)");
    let e5 = b.read("A+r1");
    b.set_label(e5, "5: R A+r1 (RW s1)");
    b.po_chain(&[e2, e5]);
    b.addr_gep(e2, e5);
    // Bounds check mispredicts; the body executes transiently.
    let e6s = b.transient_read("B+r1");
    b.set_label(e6s, "6s: Rs B+r1 (RW s2)");
    b.tfo(e5, e6s);
    b.addr_gep(e5, e6s);
    let obs = b.observe("B+r1");
    b.tfo(e6s, obs);
    b.rfx(e6s, obs);
    (b.build(), SpectreV1Var { e5, e6s, obs })
}

/// Named events of the Spectre v4 execution (Fig. 4a).
#[derive(Debug, Clone, Copy)]
pub struct SpectreV4 {
    /// `2: R y` — the first read, whose fill the stale read hits.
    pub e2: EventId,
    /// `3: W y` — the store the transient read bypasses.
    pub e3: EventId,
    /// `4ₛ: Rₛ y` — the stale (bypassing) read.
    pub e4s: EventId,
    /// `5ₛ` — transient access.
    pub e5s: EventId,
    /// `6ₛ` — transient universal transmitter.
    pub e6s: EventId,
    /// Observer of the transmitter's line.
    pub obs: EventId,
}

/// Builds the Fig. 4a Spectre v4 execution: store forwarding lets `4ₛ`
/// read `y` *before* `3` overwrites it (`frx(4ₛ, 3)` with
/// `tfo_loc(3, 4ₛ)` — the cycle an x86 LCM must permit, §4.2).
pub fn spectre_v4() -> (Execution, SpectreV4) {
    let mut b = ExecutionBuilder::new();
    let e2 = b.read("y");
    b.set_label(e2, "2: R y (RW s1)");
    let e3 = b.write("y");
    b.set_label(e3, "3: W y (RW s1)");
    b.po(e2, e3);
    b.rfx(e2, e3); // 3's line read hits 2's fill
    b.cox(e2, e3);
    let e4s = b.transient_read_hit("y");
    b.set_label(e4s, "4s: Rs y (R s1)");
    b.tfo(e3, e4s);
    b.rfx(e2, e4s); // stale: bypasses 3
    let e5s = b.transient_read("A+r3");
    b.set_label(e5s, "5s: Rs A+r3 (RW s2)");
    let e6s = b.transient_read("B+r4");
    b.set_label(e6s, "6s: Rs B+r4 (RW s3)");
    b.tfo_chain(&[e4s, e5s, e6s]);
    b.addr_gep(e4s, e5s).addr_gep(e5s, e6s);
    let obs_a = b.observe("A+r3");
    let obs = b.observe("B+r4");
    b.tfo_chain(&[e6s, obs_a, obs]);
    b.rfx(e5s, obs_a);
    b.rfx(e6s, obs);
    (
        b.build(),
        SpectreV4 {
            e2,
            e3,
            e4s,
            e5s,
            e6s,
            obs,
        },
    )
}

/// Named events of the Spectre-PSF execution (Fig. 4b).
#[derive(Debug, Clone, Copy)]
pub struct SpectrePsf {
    /// `2: W C+0` — the store the predictor wrongly forwards from.
    pub e2: EventId,
    /// `3ₛ: Rₛ C+r1` — the alias-mispredicted load (different address!).
    pub e3s: EventId,
    /// `4ₛ` — transient access.
    pub e4s: EventId,
    /// `5ₛ` — transient universal transmitter.
    pub e5s: EventId,
    /// Observer.
    pub obs: EventId,
}

/// Builds the Fig. 4b Spectre-PSF execution: alias prediction forwards
/// `2: W C+0`'s data to a load of a *mismatching* address `C+r1` —
/// modelled by the load sharing `2`'s xstate element.
pub fn spectre_psf() -> (Execution, SpectrePsf) {
    let mut b = ExecutionBuilder::new();
    let e1 = b.read("y");
    b.set_label(e1, "1: R y (RW s0)");
    let e2 = b.write("C+0");
    b.set_label(e2, "2: W C+0 (RW s1)");
    b.po(e1, e2);
    let e3s = b.transient_read_hit("C+r1");
    b.set_label(e3s, "3s: Rs C+r1 (R s1)");
    let xs = b.xstate_of(e2).unwrap();
    b.set_xstate(e3s, xs);
    b.tfo(e2, e3s);
    b.rfx(e2, e3s); // forwarded across addresses
    let e4s = b.transient_read("A+r1*r2");
    b.set_label(e4s, "4s: Rs A (RW s2)");
    let e5s = b.transient_read("B+r4");
    b.set_label(e5s, "5s: Rs B (RW s3)");
    b.tfo_chain(&[e3s, e4s, e5s]);
    b.addr_gep(e3s, e4s).addr_gep(e4s, e5s);
    let obs = b.observe("B+r4");
    b.tfo(e5s, obs);
    b.rfx(e5s, obs);
    (
        b.build(),
        SpectrePsf {
            e2,
            e3s,
            e4s,
            e5s,
            obs,
        },
    )
}

/// Named events of the silent-store execution (Fig. 5a).
#[derive(Debug, Clone, Copy)]
pub struct SilentStores {
    /// `1: W x ← 1` — performs normally.
    pub w1: EventId,
    /// `2: W x ← 1` — silent: microarchitecturally only reads.
    pub w2: EventId,
    /// Observer of x's line.
    pub obs: EventId,
}

/// Builds the Fig. 5a silent-store execution: two same-data stores; the
/// second is silent, so `co(1, 2)` lacks `cox(1, 2)` — a co/cox
/// inconsistency whose transmitter conveys the **data** field (§4.2).
pub fn silent_stores() -> (Execution, SilentStores) {
    let mut b = ExecutionBuilder::new();
    let w1 = b.write("x");
    b.set_label(w1, "1: W x (RW s1) <- 1");
    let w2 = b.silent_write("x");
    b.set_label(w2, "2: W x (R s1) <- 1");
    b.po(w1, w2);
    b.co(w1, w2);
    b.rfx(w1, w2); // the silent store's comparison read
    let obs = b.observe("x");
    b.po(w2, obs);
    b.rfx(w1, obs); // probe hits 1's fill: 2 never wrote
    (b.build(), SilentStores { w1, w2, obs })
}

/// Named events of the indirect-memory-prefetcher execution (Fig. 5b).
#[derive(Debug, Clone, Copy)]
pub struct ImpPrefetch {
    /// `1ₚ: Rₚ Z` — prefetch of the index table.
    pub p1: EventId,
    /// `2ₚ: Rₚ Y` — dependent prefetch.
    pub p2: EventId,
    /// `3ₚ: Rₚ X` — the universal-data-transmitting prefetch.
    pub p3: EventId,
    /// Observer of X's line.
    pub obs: EventId,
}

/// Builds the Fig. 5b IMP execution: hardware prefetches
/// `X[Y[Z[i+Δ]]]`-style chains with no architectural events at all —
/// prefetches participate only in `comx` and dependency relations, yet
/// construct a universal data transmitter (the "universal read gadget").
pub fn imp_prefetch() -> (Execution, ImpPrefetch) {
    let mut b = ExecutionBuilder::new();
    let p1 = b.prefetch("Z");
    b.set_label(p1, "1p: Rp Z (RW s1)");
    let p2 = b.prefetch("Y");
    b.set_label(p2, "2p: Rp Y (RW s2)");
    let p3 = b.prefetch("X");
    b.set_label(p3, "3p: Rp X (RW s3)");
    b.tfo_chain(&[p1, p2, p3]);
    b.addr_gep(p1, p2).addr_gep(p2, p3);
    let obs = b.observe("X");
    b.tfo(p3, obs);
    b.rfx(p3, obs);
    (b.build(), ImpPrefetch { p1, p2, p3, obs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_core::cat::presets::{naive_tso_lift, psf_lcm, silent_store_lcm, tso, x86_lcm};
    use lcm_core::taxonomy::{TransmittedField, TransmitterClass};
    use lcm_core::{detect_leakage, Transmitter};

    fn classes_of(ts: &[Transmitter], e: EventId) -> Vec<TransmitterClass> {
        let mut v: Vec<_> = ts
            .iter()
            .filter(|t| t.event == e)
            .map(|t| t.class)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn spectre_v1_matches_paper_classification() {
        let (x, ids) = spectre_v1();
        assert!(x.well_formed().is_ok(), "{:?}", x.well_formed());
        assert!(tso().check(&x).is_ok(), "consistent under TSO");
        let report = detect_leakage(&x);
        assert!(!report.is_clean());
        // §4.2: 2 is an AT; 5/5s are DTs with access 2; 6/6s are candidate
        // UDTs with accesses 5/5s. 6s is the *true* universal transmitter.
        assert!(classes_of(&report.transmitters, ids.e2).contains(&TransmitterClass::Address));
        assert!(classes_of(&report.transmitters, ids.e5).contains(&TransmitterClass::Data));
        assert!(classes_of(&report.transmitters, ids.e6).contains(&TransmitterClass::UniversalData));
        assert!(
            classes_of(&report.transmitters, ids.e6s).contains(&TransmitterClass::UniversalData)
        );
        let t6s = report
            .transmitters
            .iter()
            .find(|t| t.event == ids.e6s && t.class == TransmitterClass::UniversalData)
            .unwrap();
        assert!(t6s.transient, "6s is a transient transmitter");
        assert_eq!(t6s.access, Some(ids.e5s));
        assert!(t6s.access_transient);
    }

    #[test]
    fn spectre_v1_var_has_committed_access() {
        let (x, ids) = spectre_v1_var();
        assert!(x.well_formed().is_ok());
        let report = detect_leakage(&x);
        let udt = report
            .transmitters
            .iter()
            .find(|t| t.event == ids.e6s && t.class == TransmitterClass::UniversalData)
            .expect("6s classified UDT");
        assert!(udt.transient);
        assert_eq!(udt.access, Some(ids.e5));
        assert!(
            !udt.access_transient,
            "Fig. 3: the access instruction commits"
        );
    }

    #[test]
    fn spectre_v4_needs_relaxed_confidentiality() {
        let (x, ids) = spectre_v4();
        assert!(x.well_formed().is_ok());
        assert!(tso().check(&x).is_ok());
        // The frx ∪ tfo_loc cycle: naive lift forbids, x86 LCM permits.
        assert!(x86_lcm().check(&x).is_ok(), "x86 permits Spectre v4");
        assert_eq!(
            naive_tso_lift().check(&x).unwrap_err().axiom,
            "sc_per_loc_x",
            "naive sc_per_loc_x would rule the execution out"
        );
        // frx(4s, 3) present: 4s reads s1 before 3 overwrites it.
        assert!(x.frx().contains(ids.e4s.0, ids.e3.0));
        let report = detect_leakage(&x);
        let udt = report
            .transmitters
            .iter()
            .find(|t| t.event == ids.e6s && t.class == TransmitterClass::UniversalData)
            .expect("6s is a true UDT");
        assert_eq!(udt.access, Some(ids.e5s));
        assert!(udt.access_transient, "v4's access is transient");
        // 5s is also a data transmitter with transient access 4s.
        let t5 = report
            .transmitters
            .iter()
            .find(|t| t.event == ids.e5s && t.class == TransmitterClass::Data)
            .unwrap();
        assert_eq!(t5.access, Some(ids.e4s));
    }

    #[test]
    fn spectre_psf_requires_alias_prediction() {
        let (x, ids) = spectre_psf();
        assert!(x.well_formed().is_ok());
        assert_eq!(
            x86_lcm().check(&x).unwrap_err().axiom,
            "no_alias_prediction",
            "cross-address rfx is impossible without alias prediction"
        );
        assert!(psf_lcm().check(&x).is_ok());
        let report = detect_leakage(&x);
        assert!(
            classes_of(&report.transmitters, ids.e5s).contains(&TransmitterClass::UniversalData)
        );
    }

    #[test]
    fn silent_stores_leak_data_field() {
        let (x, ids) = silent_stores();
        assert!(x.well_formed().is_ok());
        assert!(tso().check(&x).is_ok());
        assert!(silent_store_lcm().check(&x).is_ok());
        assert!(x86_lcm().check(&x).is_err(), "x86 has no silent stores");
        let report = detect_leakage(&x);
        let t = report
            .transmitters
            .iter()
            .find(|t| t.event == ids.w2)
            .expect("silent store is the transmitter");
        assert_eq!(
            t.field,
            TransmittedField::Data,
            "it transmits the data field"
        );
    }

    #[test]
    fn imp_prefetch_builds_universal_read_gadget() {
        let (x, ids) = imp_prefetch();
        assert!(x.well_formed().is_ok());
        let report = detect_leakage(&x);
        let classes = classes_of(&report.transmitters, ids.p3);
        assert!(
            classes.contains(&TransmitterClass::UniversalData),
            "{classes:?}"
        );
        // Prefetches never participate architecturally.
        assert!(x.rf().predecessors(ids.p3.0).next().is_none());
        assert!(x.po().successors(ids.p1.0).next().is_none());
    }
}
