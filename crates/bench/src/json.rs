//! Hand-rolled JSON for the `BENCH_*.json` trajectory files (no serde,
//! per the DESIGN.md §6 dependency policy). String escaping is the
//! workspace-wide [`lcm_core::jsonw::esc`] — one implementation shared
//! with the store metadata and the serve wire protocol.
//!
//! The schema is deliberately flat: a top-level object with run
//! metadata (`bench`, `jobs`, `wall_clock_secs`), the row/point arrays,
//! and the module-wide phase breakdown, so successive PRs can diff
//! runtimes without a JSON library on either side.

use std::time::Duration;

use lcm_core::jsonw::esc;
use lcm_detect::PhaseTimings;
use lcm_store::CacheCounts;

use crate::{Fig8Point, Table2Row};

fn secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// The human-readable summary block every bench binary prints after its
/// table: wall clock, phase breakdown, cache traffic, the process
/// metrics registry as one JSON line, and the degraded list. One
/// renderer (backed by `lcm-obs`) instead of a hand-rolled block per
/// binary, so the lines grep the same everywhere.
#[derive(Debug, Default)]
pub struct RunSummary {
    /// End-to-end wall clock of the run.
    pub wall: Duration,
    /// Module-wide phase breakdown (table2); `None` skips the line.
    pub phases: Option<PhaseTimings>,
    /// Cache traffic; `None` (no store) skips the line.
    pub cache: Option<CacheCounts>,
    /// Store detail for the cache line: `(entries, loaded, recovered_drop)`.
    pub store: Option<(usize, u64, u64)>,
    /// Degraded analyses as `(label, reason)`; empty prints nothing.
    pub degraded: Vec<(String, String)>,
    /// What a degraded entry bounds (e.g. `"findings"`, `"points"`).
    pub degraded_noun: &'static str,
}

impl RunSummary {
    /// Renders the block (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = format!("wall clock: {:.3?}", self.wall);
        if let Some(p) = &self.phases {
            out.push_str(&format!("\nphase breakdown: {}", p.render()));
        }
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "\ncache: hits={} misses={} bypassed={}",
                c.hits, c.misses, c.bypassed
            ));
            if let Some((entries, loaded, recovered)) = self.store {
                out.push_str(&format!(
                    " (store: {entries} entries, {loaded} loaded, {recovered} dropped by recovery)"
                ));
            }
        }
        out.push_str(&format!(
            "\nmetrics: {}",
            lcm_obs::metrics::global().render_json()
        ));
        if !self.degraded.is_empty() {
            let noun = if self.degraded_noun.is_empty() {
                "findings"
            } else {
                self.degraded_noun
            };
            out.push_str(&format!(
                "\n\nDEGRADED analyses ({noun} are a lower bound):"
            ));
            for (label, reason) in &self.degraded {
                out.push_str(&format!("\n  {label}: {reason}"));
            }
        }
        out
    }
}

fn timings_obj(t: &PhaseTimings) -> String {
    format!(
        "{{\"acfg_build_secs\": {}, \"saeg_build_secs\": {}, \"classify_secs\": {}, \"baseline_secs\": {}, \"bh_execute_secs\": {}, \"bh_witness_secs\": {}, \"cache_secs\": {}, \"other_secs\": {}, \"queries_avoided\": {}, \"prefilter_hits\": {}, \"cache_hits\": {}}}",
        secs(t.acfg_build),
        secs(t.saeg_build),
        secs(t.classify),
        secs(t.baseline),
        secs(t.bh_execute),
        secs(t.bh_witness),
        secs(t.cache),
        secs(t.other),
        t.queries_avoided,
        t.prefilter_hits,
        t.cache_hits,
    )
}

/// The per-row / top-level cache-traffic object.
fn cache_obj(c: &CacheCounts) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"bypassed\": {}}}",
        c.hits, c.misses, c.bypassed
    )
}

/// The per-row `degraded` array: `{"function", "reason"}` objects.
fn degraded_list(entries: &[(String, String)]) -> String {
    entries
        .iter()
        .map(|(f, r)| {
            format!(
                "{{\"function\": \"{}\", \"reason\": \"{}\"}}",
                esc(f),
                esc(r)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Serializes a `table2` run. `wall_clock` is the end-to-end time of
/// computing the rows (the parallel-speedup measure; the per-row `time`
/// fields sum *per-function* runtimes and so stay roughly constant
/// across `jobs` settings).
pub fn table2_json(rows: &[Table2Row], jobs: usize, wall_clock: Duration) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"table2\",\n");
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"wall_clock_secs\": {},\n", secs(wall_clock)));
    let mut total = PhaseTimings::default();
    for r in rows {
        total.merge(&r.timings);
    }
    // The breakdown sums to wall clock: whatever the phase clocks did
    // not attribute lands in `other_secs`.
    total.fill_other(wall_clock);
    s.push_str(&format!("  \"phase_timings\": {},\n", timings_obj(&total)));
    let mut cache = CacheCounts::default();
    for r in rows {
        cache.merge(r.cache);
    }
    s.push_str(&format!("  \"cache\": {},\n", cache_obj(&cache)));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"tool\": \"{}\", \"pfun\": {}, \"loc\": {}, \"time_secs\": {}, \"dt\": {}, \"ct\": {}, \"udt\": {}, \"uct\": {}, \"status\": \"{}\", \"cache\": {}, \"degraded\": [{}]}}{}\n",
            esc(&r.workload),
            esc(r.tool.name()),
            r.pfun,
            r.loc,
            secs(r.time),
            r.counts.0,
            r.counts.1,
            r.counts.2,
            r.counts.3,
            if r.degraded.is_empty() {
                "completed"
            } else {
                "degraded"
            },
            cache_obj(&r.cache),
            degraded_list(&r.degraded),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Serializes a `fig8` run.
pub fn fig8_json(points: &[Fig8Point], jobs: usize, wall_clock: Duration) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fig8\",\n");
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"wall_clock_secs\": {},\n", secs(wall_clock)));
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"function\": \"{}\", \"size\": {}, \"pht_secs\": {}, \"stl_secs\": {}, \"status\": \"{}\", \"cache\": \"{}\", \"degraded\": {}}}{}\n",
            esc(&p.function),
            p.size,
            secs(p.pht_time),
            secs(p.stl_time),
            if p.degraded.is_none() {
                "completed"
            } else {
                "degraded"
            },
            p.cache.label(),
            p.degraded
                .as_deref()
                .map_or_else(|| "null".to_string(), |d| format!("\"{}\"", esc(d))),
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tool;

    fn row(workload: &str) -> Table2Row {
        Table2Row {
            workload: workload.to_string(),
            pfun: 2,
            loc: 40,
            tool: Tool::ClouPht,
            time: Duration::from_millis(12),
            counts: (1, 2, 3, 4),
            timings: PhaseTimings::default(),
            degraded: Vec::new(),
            cache: CacheCounts::default(),
            findings: None,
        }
    }

    #[test]
    fn table2_json_is_well_formed() {
        let s = table2_json(
            &[row("litmus-pht"), row("cr\"ypto")],
            4,
            Duration::from_secs(1),
        );
        assert!(s.contains("\"bench\": \"table2\""));
        assert!(s.contains("\"jobs\": 4"));
        assert!(s.contains("\"wall_clock_secs\": 1.000000"));
        assert!(s.contains("cr\\\"ypto"), "quotes escaped: {s}");
        // Line-ending `},` occurrences: the phase_timings line, the
        // top-level cache line, and the comma between the two rows —
        // none after the last row.
        assert_eq!(s.matches("}},\n").count() + s.matches("},\n").count(), 3);
        assert!(balanced(&s), "balanced braces/brackets: {s}");
    }

    #[test]
    fn fig8_json_is_well_formed() {
        let p = Fig8Point {
            function: "synth_fn_000".into(),
            size: 7,
            pht_time: Duration::from_millis(3),
            stl_time: Duration::from_millis(5),
            degraded: None,
            cache: lcm_detect::CacheStatus::Bypass,
        };
        let s = fig8_json(&[p], 1, Duration::from_millis(8));
        assert!(s.contains("\"bench\": \"fig8\""));
        assert!(s.contains("\"size\": 7"));
        assert!(s.contains("\"pht_secs\": 0.003000"));
        assert!(s.contains("\"status\": \"completed\""));
        assert!(s.contains("\"degraded\": null"));
        assert!(balanced(&s));
    }

    #[test]
    fn degraded_entries_serialize() {
        let mut r = row("litmus-pht");
        r.degraded
            .push(("victim_1".to_string(), "timeout (budget 5 ms)".to_string()));
        let s = table2_json(&[r], 1, Duration::from_secs(1));
        assert!(s.contains("\"status\": \"degraded\""));
        assert!(s.contains("\"function\": \"victim_1\""));
        assert!(s.contains("\"reason\": \"timeout (budget 5 ms)\""));
        assert!(balanced(&s), "balanced: {s}");

        let p = Fig8Point {
            function: "f".into(),
            size: 0,
            pht_time: Duration::ZERO,
            stl_time: Duration::ZERO,
            degraded: Some("worker panic: boom".into()),
            cache: lcm_detect::CacheStatus::Bypass,
        };
        let s = fig8_json(&[p], 1, Duration::from_millis(1));
        assert!(s.contains("\"degraded\": \"worker panic: boom\""));
        assert!(balanced(&s), "balanced: {s}");
    }

    /// Brace/bracket balance outside string literals — a cheap
    /// well-formedness check with no JSON parser in the tree.
    fn balanced(s: &str) -> bool {
        let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0 && !in_str
    }
}
