//! The subrosa scenario (§3.4): exhaustively enumerate candidate
//! executions of classic litmus tests under SC and TSO, then enumerate
//! microarchitectural witnesses under a confidentiality predicate and
//! count the leaky ones.
//!
//! Run with: `cargo run --example litmus_models`

use lcm::core::cat::presets;
use lcm::core::exec::ExecutionBuilder;
use lcm::core::{noninterference, EventId};
use lcm::litmus::enumerate::{microarch_witnesses, Litmus, Op};

fn main() {
    println!("== Architectural semantics: consistent candidate executions ==\n");
    let tests: Vec<(&str, Litmus)> = vec![
        (
            "SB  (Wx;Ry || Wy;Rx)",
            Litmus::new(vec![
                vec![Op::w("x"), Op::r("y")],
                vec![Op::w("y"), Op::r("x")],
            ]),
        ),
        (
            "SB+fences",
            Litmus::new(vec![
                vec![Op::w("x"), Op::F, Op::r("y")],
                vec![Op::w("y"), Op::F, Op::r("x")],
            ]),
        ),
        (
            "MP  (Wx;Wy || Ry;Rx)",
            Litmus::new(vec![
                vec![Op::w("x"), Op::w("y")],
                vec![Op::r("y"), Op::r("x")],
            ]),
        ),
        (
            "CoRW (Wx;Wx || Rx)",
            Litmus::new(vec![vec![Op::w("x"), Op::w("x")], vec![Op::r("x")]]),
        ),
    ];
    println!(
        "{:<22} {:>10} {:>6} {:>6}",
        "litmus", "candidates", "SC", "TSO"
    );
    println!("{}", "-".repeat(48));
    for (name, l) in &tests {
        let all = l.candidate_executions().len();
        let sc = l.consistent_executions(presets::sc()).len();
        let tso = l.consistent_executions(presets::tso()).len();
        println!("{name:<22} {all:>10} {sc:>6} {tso:>6}");
        assert!(sc <= tso, "TSO is weaker than SC");
    }

    println!("\n== Microarchitectural semantics: witnesses of R x; W x ==\n");
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
    let witnesses = microarch_witnesses(&template, presets::x86_lcm(), &make);
    let clean = witnesses
        .iter()
        .filter(|x| noninterference::interference_free(x))
        .count();
    println!(
        "witnesses permitted by the x86 LCM: {} ({} interference-free, {} leaking)",
        witnesses.len(),
        clean,
        witnesses.len() - clean
    );
    for x in witnesses.iter().take(4) {
        let vs = noninterference::violations(x);
        println!(
            "  rfx={:?} violations={}",
            x.rfx().pairs().collect::<Vec<_>>(),
            vs.len()
        );
    }
}
