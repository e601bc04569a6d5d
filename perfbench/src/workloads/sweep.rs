//! `fuzz_sweep`: the differential fuzz sweep, one seeded batch per
//! operation.
//!
//! Each batch generates programs, runs the speculative oracle and all
//! three engines on each, re-verifies the repair of every flagged
//! program and certifies one repair minimal with the SAT solver. The
//! batches cycle through a seeded pool; a repeated batch must report
//! exactly what it reported the first time.

use lcm_fuzz::{FuzzConfig, SweepReport};

use super::{repeated_setup, run_batch, OpResult, Outcome, Repeats, RunConfig};
use crate::stats::Digest;
use crate::JOBS;

/// Batch seeds in the pool.
const BATCHES: usize = 64;

fn batch(seed: u64, count: usize) -> FuzzConfig {
    FuzzConfig {
        seed,
        count,
        jobs: JOBS,
        quick: false,
        minimality_sample: 1,
    }
}

/// Programs per batch: small enough for many batches per run.
const PROGRAMS: usize = 32;

/// Batch seed of the warm-up sweep.
const WARM_UP_SEED: u64 = 0;

/// Everything a sweep reports except timing.
fn summary(r: &SweepReport) -> String {
    let mismatches: Vec<String> = r
        .mismatches
        .iter()
        .map(|m| format!("{}:{}", m.index, m.engine.label()))
        .collect();
    format!(
        "programs={} compile_failures={} arch={} spec={} secure={} flagged={:?} overapprox={} \
         mismatches={mismatches:?} repairs={}/{}/{} repair_failures={:?} minimality={}/{}",
        r.programs,
        r.compile_failures,
        r.arch_leaky,
        r.spec_leaky,
        r.secure,
        r.engine_flagged,
        r.overapprox,
        r.repairs_checked,
        r.repairs_clean,
        r.repairs_oracle_clean,
        r.repair_failures,
        r.minimality_checked,
        r.minimality_certified,
    )
}

pub fn run(cfg: &RunConfig) -> Outcome {
    // Set-up is a small warm-up sweep, so the timed batches find the
    // process's lazily built state in place. Its seed is fixed: the
    // warm-up is not an input, and its cost should not vary by seed.
    let (seeds, setup_s) = repeated_setup(cfg, |_| {
        lcm_fuzz::run_sweep(&batch(WARM_UP_SEED, 8));
        (0..BATCHES as u64)
            .map(|b| cfg.stream_seed(b))
            .collect::<Vec<_>>()
    });
    let mut repeats = Repeats::new(BATCHES);
    let mut out = run_batch(cfg, |i, _| {
        let slot = i % BATCHES;
        let report = {
            let _span = lcm_obs::span("bench.run_sweep", "bench");
            lcm_fuzz::run_sweep(&batch(seeds[slot], PROGRAMS))
        };
        let output = summary(&report);
        let error = if report.ok() {
            repeats.check(slot, Digest::of(output.as_bytes()))
        } else {
            Some(format!(
                "sweep of seed {:#x} is not clean: {output}",
                seeds[slot]
            ))
        };
        OpResult {
            output: output.into_bytes(),
            error,
        }
    });
    out.setup_s = setup_s;
    out
}
