//! Regenerates the Fig. 1 / Fig. 2 artifacts: the Spectre v1 event
//! structures and the speculative-semantics candidate execution with its
//! dashed (leaking) `rf` edges, as Graphviz DOT.
//!
//! Run with: `cargo run --example spectre_v1_graphs`
//! Pipe any of the DOT blocks into `dot -Tpdf` to render.

use lcm::core::cat::presets;
use lcm::core::detect_leakage;
use lcm::core::exec::ExecutionBuilder;
use lcm::litmus::programs;

fn main() {
    // --- Fig. 1c: the not-taken event structure / candidate execution ---
    let mut b = ExecutionBuilder::new();
    let r1 = b.read("size");
    b.set_label(r1, "1: R size -> r1");
    let r2 = b.read("y");
    b.set_label(r2, "2: R y -> r2");
    b.po(r1, r2);
    let not_taken = b.build();
    assert!(presets::tso().check(&not_taken).is_ok());
    println!("// Fig. 1c — not-taken candidate execution");
    println!("{}", not_taken.to_dot("fig1c_not_taken", &[]));

    // --- Fig. 1d: the taken event structure / candidate execution ---
    let mut b = ExecutionBuilder::new();
    let r1 = b.read("size");
    b.set_label(r1, "1: R size -> r1");
    let r2 = b.read("y");
    b.set_label(r2, "2: R y -> r2");
    let r5 = b.read("A+r2");
    b.set_label(r5, "5: R A+r2 -> r4");
    let r6 = b.read("B+r4");
    b.set_label(r6, "6: R B+r4 -> r5");
    let w7 = b.write("tmp");
    b.set_label(w7, "7: W tmp <- tmp & r5");
    b.po_chain(&[r1, r2, r5, r6, w7]);
    b.ctrl(r1, r5).ctrl(r1, r6).ctrl(r1, w7);
    b.ctrl(r2, r5).ctrl(r2, r6).ctrl(r2, w7);
    b.addr_gep(r2, r5).addr_gep(r5, r6);
    b.data(r6, w7);
    let taken = b.build();
    assert!(presets::tso().check(&taken).is_ok());
    println!("// Fig. 1d — taken candidate execution (dep edges shown)");
    println!("{}", taken.to_dot("fig1d_taken", &[]));

    // --- Fig. 2b: speculative semantics with leakage ---
    let (exec, ids) = programs::spectre_v1();
    let report = detect_leakage(&exec);
    println!("// Fig. 2b — speculative semantics; dashed edges = leakage");
    println!(
        "{}",
        exec.to_dot("fig2b_spectre_v1", &report.culprit_edges())
    );

    println!("// Transmitters (most severe per event):");
    for t in report.summary() {
        println!(
            "//   {} [{}] transient={} access={:?} index={:?}",
            exec.event(t.event),
            t.class,
            t.transient,
            t.access.map(|a| exec.event(a).to_string()),
            t.index.map(|i| exec.event(i).to_string()),
        );
    }
    assert!(report
        .summary()
        .iter()
        .any(|t| t.event == ids.e6s && t.class == lcm::core::TransmitterClass::UniversalData));
}
