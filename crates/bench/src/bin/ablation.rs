//! Ablation study over the detector's design choices (DESIGN.md §5):
//! the `addr_gep` benign-leak filter (§5.2), the transient-access
//! restriction (§6.2.1), the sliding window `W_size`, and speculation
//! depth. Reports UDT/DT counts and runtime per configuration over the
//! litmus suites.
//!
//! Usage: `cargo run --release -p lcm-bench --bin ablation --
//! [--jobs N] [--trace-out PATH]`

use std::time::Instant;

use lcm_bench::{cli, json};
use lcm_core::speculation::SpeculationConfig;
use lcm_core::taxonomy::TransmitterClass;
use lcm_corpus::all_litmus;
use lcm_detect::{Detector, DetectorConfig, EngineKind};

fn run(cfg: DetectorConfig, engine: EngineKind) -> (usize, usize, usize, u128) {
    let det = Detector::new(cfg);
    let t0 = Instant::now();
    let (mut dt, mut ct, mut udt) = (0, 0, 0);
    for (_, benches) in all_litmus() {
        for b in benches {
            let m = b.module();
            let r = det.analyze_module(&m, engine);
            dt += r.count(TransmitterClass::Data);
            ct += r.count(TransmitterClass::Control);
            udt += r.count(TransmitterClass::UniversalData)
                + r.count(TransmitterClass::UniversalControl);
        }
    }
    (dt, ct, udt, t0.elapsed().as_micros())
}

fn main() {
    let args = cli::parse(std::env::args().skip(1));
    args.reject_unknown(&[]);
    let jobs = args.jobs;
    args.start_tracing();
    let t0 = Instant::now();
    println!("Ablation study over the 36 litmus programs (both engines)\n");
    println!(
        "{:<44} {:<6} {:>6} {:>6} {:>10} {:>10}",
        "configuration", "engine", "DT", "CT", "UDT+UCT", "time(us)"
    );
    println!("{}", "-".repeat(88));

    let base = || DetectorConfig {
        jobs,
        ..DetectorConfig::default()
    };
    let configs: Vec<(&str, DetectorConfig)> = vec![
        ("default (gep filter, transient-access rule)", base()),
        (
            "no addr_gep filter (more univ. candidates)",
            DetectorConfig {
                gep_filter: false,
                ..base()
            },
        ),
        (
            "universal w/ committed access allowed",
            DetectorConfig {
                universal_needs_transient_access: false,
                ..base()
            },
        ),
        (
            "window W=8 (may misclassify univ., §6.2.1)",
            DetectorConfig {
                window: 8,
                ..base()
            },
        ),
        (
            "speculation depth 2 (Fig. 2b's setting)",
            DetectorConfig {
                spec: SpeculationConfig::default().with_depth(2),
                ..base()
            },
        ),
        (
            "interference variant on (§6.1 extension)",
            DetectorConfig {
                detect_interference: true,
                ..base()
            },
        ),
    ];

    for (name, cfg) in configs {
        for engine in [EngineKind::Pht, EngineKind::Stl] {
            let (dt, ct, udt, us) = run(cfg.clone(), engine);
            println!(
                "{:<44} {:<6} {:>6} {:>6} {:>10} {:>10}",
                name,
                if engine == EngineKind::Pht {
                    "pht"
                } else {
                    "stl"
                },
                dt,
                ct,
                udt,
                us
            );
        }
    }

    println!(
        "\nReading guide: on the litmus suites, dropping the addr_gep filter\n\
         and allowing committed accesses change nothing — every intended\n\
         chain is gep-shaped with a transient access, i.e. the filters'\n\
         precision costs no true positives here (their effect shows on\n\
         pointer-heavy code such as the sigalgs gadget). Shrinking the\n\
         window or the speculation depth loses transmitters whose chains\n\
         span more instructions (depth 2 wipes out every PHT universal);\n\
         the interference variant adds the §6.1 'new DT' findings."
    );

    let summary = json::RunSummary {
        wall: t0.elapsed(),
        ..json::RunSummary::default()
    };
    println!("\n{}", summary.render());
    args.finish_tracing();
}
