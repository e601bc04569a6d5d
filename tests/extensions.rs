//! Integration: the extensions beyond the paper's tool, exercised through
//! the facade (each is marked "extension" in the rustdoc; see DESIGN.md
//! §4b).

use lcm::core::cat::{presets, CatModel};
use lcm::core::exec::ExecutionBuilder;
use lcm::core::speculation::SpeculationPrimitive;
use lcm::core::{EventId, TransmitterClass};
use lcm::detect::{describe, repair, witness_dot, Detector, DetectorConfig, EngineKind};
use lcm::litmus::enumerate::{compare_models, Litmus};

#[test]
fn psf_engine_and_repair_roundtrip() {
    let src = r#"
        int C[2]; int A[4096]; int B[4096]; int tmp;
        void psf_victim(register int y) {
            C[0] = 64;
            tmp &= B[A[C[1] * y]];
        }"#;
    let m = lcm::minic::compile(src).unwrap();
    let det = Detector::new(DetectorConfig::default());
    let report = det.analyze_module(&m, EngineKind::Psf);
    assert!(!report.is_clean());
    assert!(report
        .findings()
        .all(|f| f.primitive == SpeculationPrimitive::AliasPrediction));
    // Repair converges for the PSF engine too.
    let (fixed, fences) = repair(&m, &det, EngineKind::Psf);
    assert!(fences >= 1);
    assert!(det.analyze_module(&fixed, EngineKind::Psf).is_clean());
}

#[test]
fn witness_rendering_through_facade() {
    let src = r#"
        int A[16]; int B[4096]; int size; int tmp;
        void victim(int y) { if (y < size) tmp &= B[A[y] * 512]; }"#;
    let m = lcm::minic::compile(src).unwrap();
    let det = Detector::new(DetectorConfig::default());
    let report = det.analyze_module(&m, EngineKind::Pht);
    let f = report
        .findings()
        .find(|f| f.class == TransmitterClass::UniversalData)
        .unwrap();
    let saeg = lcm::aeg::Saeg::build(&m, "victim", det.config().spec).unwrap();
    let dot = witness_dot(&saeg, f);
    assert!(dot.contains("UDT") && dot.contains("mispredicted"));
    let text = describe(&saeg, f);
    assert!(text.contains("UDT") && text.contains("index"));
}

#[test]
fn cat_language_expresses_the_paper_presets() {
    for (name, spec) in [
        ("sc_per_loc", presets::SC_PER_LOC),
        ("tso", presets::TSO),
        ("sc", presets::SC),
        ("naive-x", presets::SC_PER_LOC_X),
    ] {
        assert!(CatModel::parse(name, spec).is_ok(), "{name} parses");
    }
    // And the naive lift disagrees with the x86 confidentiality predicate
    // on the Spectre v4 witness, as §4.2 demands.
    let (x, _) = lcm::litmus::programs::spectre_v4();
    let naive = CatModel::parse("naive", presets::SC_PER_LOC_X).unwrap();
    assert!(naive.check(&x).is_err());
    assert!(presets::x86_lcm().check(&x).is_ok());
}

#[test]
fn model_comparison_orders_hardware_by_leakiness() {
    let make = |rfx: &[(EventId, EventId)], cox: &[(EventId, EventId)]| {
        let mut b = ExecutionBuilder::new();
        let w1 = b.write("x");
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
    let cmp = compare_models(
        &template,
        presets::silent_store_lcm(),
        presets::x86_lcm(),
        &make,
    );
    assert!(cmp.first_is_weaker());
    assert!(cmp.leaky_only_first > 0);
}

#[test]
fn secret_filter_composes_with_engines() {
    let src = r#"
        int sec_tab[16]; int pub_tab[16]; int B[4096]; int size; int tmp;
        void mixed(int x) {
            if (x < size) {
                tmp &= B[sec_tab[x] * 16];
                tmp &= B[pub_tab[x] * 16];
            }
        }"#;
    let m = lcm::minic::compile(src).unwrap();
    let all = Detector::new(DetectorConfig::default()).analyze_module(&m, EngineKind::Pht);
    let filtered = Detector::new(DetectorConfig {
        secret_filter: true,
        ..DetectorConfig::default()
    })
    .analyze_module(&m, EngineKind::Pht);
    let count = |r: &lcm::detect::ModuleReport| {
        r.findings()
            .filter(|f| f.class == TransmitterClass::UniversalData)
            .count()
    };
    assert!(count(&filtered) >= 1, "secret chain survives");
    assert!(count(&filtered) < count(&all), "public chain filtered out");
}

#[test]
fn litmus_text_format_drives_cat_models() {
    let sb = Litmus::parse("W x; R y || W y; R x").unwrap();
    let tso = CatModel::parse("TSO", presets::TSO).unwrap();
    let sc = CatModel::parse("SC", presets::SC).unwrap();
    assert_eq!(sb.consistent_executions(&tso).len(), 4);
    assert_eq!(sb.consistent_executions(&sc).len(), 3);
}

#[test]
fn interference_findings_are_marked_and_self_describing() {
    let src = r#"
        int A[4096]; int idx_tbl[16]; int size; int tmp;
        void victim(int x) {
            if (x < size) { tmp &= A[idx_tbl[x] * 16]; }
            tmp &= A[0];
        }"#;
    let m = lcm::minic::compile(src).unwrap();
    let det = Detector::new(DetectorConfig {
        detect_interference: true,
        ..DetectorConfig::default()
    });
    let report = det.analyze_module(&m, EngineKind::Pht);
    let f = report
        .findings()
        .find(|f| f.interference)
        .expect("interference finding");
    let saeg = lcm::aeg::Saeg::build(&m, "victim", det.config().spec).unwrap();
    assert!(describe(&saeg, f).contains("speculative interference"));
}
