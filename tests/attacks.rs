//! Integration: the paper's worked attacks (§4.2) end-to-end through the
//! facade — each figure's execution is consistent where the paper says,
//! ruled out by the confidentiality predicates the paper says, and
//! classified per Table 1.

use lcm::core::cat::presets::{naive_tso_lift, psf_lcm, sc, silent_store_lcm, tso, x86_lcm};
use lcm::core::taxonomy::TransmittedField;
use lcm::core::{detect_leakage, TransmitterClass};
use lcm::litmus::programs;

#[test]
fn fig2b_spectre_v1_true_universal_transmitter_is_transient() {
    let (x, ids) = programs::spectre_v1();
    assert!(x.well_formed().is_ok());
    assert!(tso().check(&x).is_ok());
    assert!(sc().check(&x).is_ok(), "single-threaded: SC-consistent too");
    let r = detect_leakage(&x);
    // The bounds check restricts 6; 6s is the *true* UDT (§3.2.4).
    let udts: Vec<_> = r
        .transmitters
        .iter()
        .filter(|t| t.class == TransmitterClass::UniversalData)
        .collect();
    assert!(udts.iter().any(|t| t.event == ids.e6 && !t.transient));
    assert!(udts.iter().any(|t| t.event == ids.e6s && t.transient));
}

#[test]
fn fig3_variant_access_commits_limiting_scope() {
    let (x, ids) = programs::spectre_v1_var();
    let r = detect_leakage(&x);
    let udt = r
        .transmitters
        .iter()
        .find(|t| t.event == ids.e6s && t.class == TransmitterClass::UniversalData)
        .expect("UDT present");
    assert!(udt.transient, "the transmitter is transient");
    assert!(
        !udt.access_transient,
        "but the access commits (STT's blind spot)"
    );
}

#[test]
fn fig4a_spectre_v4_confidentiality_predicate_design() {
    let (x, ids) = programs::spectre_v4();
    // The heart of §4.2's Spectre v4 discussion: the execution exhibits an
    // frx ∪ tfo_loc cycle.
    let cycle_rel = x.frx().union(&x.tfo_loc());
    assert!(lcm::relalg::acyclic(&x.frx()), "frx alone is acyclic");
    assert!(
        !lcm::relalg::acyclic(&cycle_rel),
        "frx ∪ tfo_loc has the v4 cycle"
    );
    // x86 permits it; the naive lift of sc_per_loc does not.
    assert!(x86_lcm().check(&x).is_ok());
    assert!(naive_tso_lift().check(&x).is_err());
    // Leakage involves a transient transmitter AND transient access.
    let r = detect_leakage(&x);
    let udt = r
        .transmitters
        .iter()
        .find(|t| t.event == ids.e6s && t.class == TransmitterClass::UniversalData)
        .unwrap();
    assert!(udt.transient && udt.access_transient);
}

#[test]
fn fig4b_psf_needs_alias_prediction() {
    let (x, ids) = programs::spectre_psf();
    assert!(
        x86_lcm().check(&x).is_err(),
        "no alias prediction on vanilla x86 model"
    );
    assert!(psf_lcm().check(&x).is_ok(), "PSF hardware permits it");
    let r = detect_leakage(&x);
    assert!(r
        .transmitters
        .iter()
        .any(|t| t.event == ids.e5s && t.class == TransmitterClass::UniversalData));
}

#[test]
fn fig5a_silent_store_transmits_data_field() {
    let (x, ids) = programs::silent_stores();
    assert!(silent_store_lcm().check(&x).is_ok());
    assert!(x86_lcm().check(&x).is_err());
    let r = detect_leakage(&x);
    let t = r.transmitters.iter().find(|t| t.event == ids.w2).unwrap();
    assert_eq!(t.field, TransmittedField::Data);
    // Every other transmitter in this paper conveys the address field.
    let (x2, _) = programs::spectre_v1();
    assert!(detect_leakage(&x2)
        .transmitters
        .iter()
        .all(|t| t.field == TransmittedField::Address));
}

#[test]
fn fig5b_imp_universal_read_gadget_without_architectural_events() {
    let (x, ids) = programs::imp_prefetch();
    let r = detect_leakage(&x);
    let t = r
        .transmitters
        .iter()
        .find(|t| t.event == ids.p3 && t.class == TransmitterClass::UniversalData)
        .expect("prefetch UDT");
    assert_eq!(t.access, Some(ids.p2));
    assert_eq!(t.index, Some(ids.p1));
    // Prefetches participate in no architectural relation (§4.2).
    assert!(x.po().successors(ids.p1.0).next().is_none());
    assert!(x.rf().predecessors(ids.p2.0).next().is_none());
    assert!(x.com().predecessors(ids.p3.0).next().is_none());
}

#[test]
fn receivers_are_targets_of_culprit_edges() {
    for (name, x) in [
        ("v1", programs::spectre_v1().0),
        ("v4", programs::spectre_v4().0),
        ("psf", programs::spectre_psf().0),
        ("silent", programs::silent_stores().0),
        ("imp", programs::imp_prefetch().0),
    ] {
        let r = detect_leakage(&x);
        assert!(!r.is_clean(), "{name} leaks");
        for v in &r.violations {
            assert_eq!(
                v.receiver, v.culprit.1,
                "{name}: receiver is the culprit target"
            );
            assert!(r.receivers.contains(&v.receiver));
        }
        for t in &r.transmitters {
            assert!(
                x.rfx().contains(t.event.0, t.receiver.0) || t.event == t.receiver,
                "{name}: transmitter sources rfx into its receiver"
            );
        }
    }
}
