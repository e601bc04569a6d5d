//! Per-layer self time from a Chrome `trace_event` document.
//!
//! Every `(pid, tid)` pair is one lane. Within a lane the `B`/`E`
//! events nest like a call stack, and a span's *self time* is its
//! duration minus the part of it that its child spans cover. Summing
//! self time per span name over all lanes gives the time each layer
//! kept a thread busy; a span that only waits for worker threads (a
//! wrapper around a parallel call) keeps that waiting as self time,
//! because the workers' spans sit on other lanes.
//!
//! [`Rollup::check`] verifies the invariant that makes the table
//! trustworthy: on every lane the self times add up to the lane's
//! covered wall time (the union of its top-level spans) within 1 %.

use std::collections::BTreeMap;

use lcm_core::jsonw::{self, Json};

/// One begin or end event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process lane.
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// Span name.
    pub name: String,
    /// `true` for `"B"`, `false` for `"E"`.
    pub begin: bool,
    /// Timestamp in microseconds.
    pub ts_us: f64,
}

/// Reads the begin/end events of a Chrome trace, in array order.
/// Metadata (`"M"`) records are skipped.
///
/// # Errors
///
/// A document that is not JSON, lacks `traceEvents`, or holds an event
/// without the fields a span needs.
pub fn parse_chrome(doc: &str) -> Result<Vec<Event>, String> {
    let v = jsonw::parse(doc.trim()).map_err(|e| format!("not JSON: {e}"))?;
    let raw = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut events = Vec::with_capacity(raw.len());
    for (i, e) in raw.iter().enumerate() {
        let num = |k: &str| {
            e.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("event {i}: missing numeric `{k}`"))
        };
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        let begin = match ph {
            "B" => true,
            "E" => false,
            "M" => continue,
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        };
        events.push(Event {
            pid: num("pid")? as u64,
            tid: num("tid")? as u64,
            name: e
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("event {i}: missing `name`"))?
                .to_string(),
            begin,
            ts_us: num("ts")?,
        });
    }
    Ok(events)
}

/// Self time of one lane.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lane {
    /// Union of the lane's top-level spans, in microseconds.
    pub covered_us: f64,
    /// Self time per span name, in microseconds.
    pub self_us: BTreeMap<String, f64>,
}

/// Self time per lane and per span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollup {
    /// Lanes keyed by `(pid, tid)`.
    pub lanes: BTreeMap<(u64, u64), Lane>,
}

impl Rollup {
    /// Builds the rollup.
    ///
    /// # Errors
    ///
    /// An end that does not match the innermost open span of its lane,
    /// a span that ends before it begins, or a span left open.
    pub fn of(events: &[Event]) -> Result<Rollup, String> {
        struct Open<'a> {
            name: &'a str,
            begin: f64,
            children_us: f64,
        }
        let mut stacks: BTreeMap<(u64, u64), Vec<Open>> = BTreeMap::new();
        let mut rollup = Rollup::default();
        for e in events {
            let key = (e.pid, e.tid);
            let stack = stacks.entry(key).or_default();
            if e.begin {
                stack.push(Open {
                    name: &e.name,
                    begin: e.ts_us,
                    children_us: 0.0,
                });
                continue;
            }
            let open = stack
                .pop()
                .ok_or_else(|| format!("lane {key:?}: end `{}` with no open span", e.name))?;
            if open.name != e.name {
                return Err(format!(
                    "lane {key:?}: end `{}` does not match open span `{}`",
                    e.name, open.name
                ));
            }
            let dur = e.ts_us - open.begin;
            if dur < 0.0 || open.children_us > dur {
                return Err(format!(
                    "lane {key:?}: span `{}` ends before its begin or its children",
                    e.name
                ));
            }
            let lane = rollup.lanes.entry(key).or_default();
            *lane.self_us.entry(e.name.clone()).or_default() += dur - open.children_us;
            match stack.last_mut() {
                Some(parent) => parent.children_us += dur,
                None => lane.covered_us += dur,
            }
        }
        if let Some((key, open)) = stacks.iter().find_map(|(k, s)| s.last().map(|o| (k, o))) {
            return Err(format!("lane {key:?}: span `{}` never ended", open.name));
        }
        Ok(rollup)
    }

    /// Checks that every lane's self times sum to its covered wall time
    /// within 1 %.
    ///
    /// # Errors
    ///
    /// The first lane that misses, with both sums.
    pub fn check(&self) -> Result<(), String> {
        for (key, lane) in &self.lanes {
            let sum: f64 = lane.self_us.values().sum();
            if (sum - lane.covered_us).abs() > 0.01 * lane.covered_us {
                return Err(format!(
                    "lane {key:?}: self times sum to {sum:.0} us, covered wall is {:.0} us",
                    lane.covered_us
                ));
            }
        }
        Ok(())
    }

    /// Self time of `name` summed over every lane, in microseconds.
    pub fn self_us(&self, name: &str) -> f64 {
        self.lanes
            .values()
            .filter_map(|l| l.self_us.get(name))
            .fold(0.0, |a, b| a + b)
    }

    /// The per-name table, summed over lanes: `(name, self us)` sorted
    /// by descending self time.
    pub fn by_name(&self) -> Vec<(String, f64)> {
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        for lane in self.lanes.values() {
            for (name, us) in &lane.self_us {
                *totals.entry(name).or_default() += us;
            }
        }
        let mut rows: Vec<(String, f64)> = totals
            .into_iter()
            .map(|(n, us)| (n.to_string(), us))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pid: u64, tid: u64, ph: &str, ts: u64, name: &str) -> String {
        format!(
            "{{\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\"cat\":\"t\"}}"
        )
    }

    fn rollup(events: &[String]) -> Rollup {
        let doc = format!("{{\"traceEvents\":[{}]}}", events.join(","));
        let r = Rollup::of(&parse_chrome(&doc).unwrap()).unwrap();
        r.check().unwrap();
        r
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        let r = rollup(&[
            ev(1, 1, "B", 0, "outer"),
            ev(1, 1, "B", 10, "mid"),
            ev(1, 1, "B", 20, "leaf"),
            ev(1, 1, "E", 50, "leaf"),
            ev(1, 1, "E", 60, "mid"),
            ev(1, 1, "B", 70, "leaf"),
            ev(1, 1, "E", 80, "leaf"),
            ev(1, 1, "E", 100, "outer"),
        ]);
        assert_eq!(r.self_us("outer"), 100.0 - 50.0 - 10.0);
        assert_eq!(r.self_us("mid"), 50.0 - 30.0);
        assert_eq!(r.self_us("leaf"), 40.0);
        assert_eq!(r.lanes[&(1, 1)].covered_us, 100.0);
        assert_eq!(r.by_name()[0], ("leaf".to_string(), 40.0));
    }

    #[test]
    fn parallel_lanes_are_rolled_up_separately() {
        // A wrapper on lane 1 waits while two workers run; the workers'
        // spans do not nest in it, so it keeps its whole duration.
        let r = rollup(&[
            ev(1, 1, "B", 0, "wrapper"),
            ev(1, 2, "B", 5, "engine"),
            ev(1, 3, "B", 6, "engine"),
            ev(1, 3, "B", 7, "solve"),
            ev(1, 2, "E", 40, "engine"),
            ev(1, 3, "E", 30, "solve"),
            ev(1, 3, "E", 45, "engine"),
            ev(1, 1, "E", 50, "wrapper"),
        ]);
        assert_eq!(r.lanes.len(), 3);
        assert_eq!(r.self_us("wrapper"), 50.0);
        assert_eq!(r.self_us("engine"), 35.0 + (39.0 - 23.0));
        assert_eq!(r.self_us("solve"), 23.0);
        assert_eq!(r.lanes[&(1, 3)].covered_us, 39.0);
    }

    #[test]
    fn merged_multi_process_trace_keeps_pids_apart() {
        // The same tid in two processes is two lanes, and the metadata
        // records a merged fleet trace carries are skipped.
        let meta = "{\"ph\":\"M\",\"ts\":0,\"pid\":7,\"tid\":0,\"name\":\"process_name\",\
                    \"cat\":\"__metadata\",\"args\":{\"name\":\"lcm-worker-7\"}}"
            .to_string();
        let r = rollup(&[
            ev(1, 1, "B", 0, "task"),
            meta,
            ev(7, 1, "B", 100, "task"),
            ev(1, 1, "E", 10, "task"),
            ev(7, 1, "B", 110, "inner"),
            ev(7, 1, "E", 115, "inner"),
            ev(7, 1, "E", 130, "task"),
        ]);
        assert_eq!(r.lanes.len(), 2);
        assert_eq!(r.lanes[&(7, 1)].self_us["task"], 25.0);
        assert_eq!(r.self_us("task"), 35.0);
    }

    #[test]
    fn malformed_nesting_is_rejected() {
        let parse = |events: &[String]| {
            let doc = format!("{{\"traceEvents\":[{}]}}", events.join(","));
            Rollup::of(&parse_chrome(&doc).unwrap())
        };
        assert!(parse(&[ev(1, 1, "B", 0, "a"), ev(1, 1, "E", 1, "b")])
            .unwrap_err()
            .contains("does not match"));
        assert!(parse(&[ev(1, 1, "B", 0, "a")])
            .unwrap_err()
            .contains("never ended"));
        assert!(parse(&[ev(1, 1, "B", 5, "a"), ev(1, 1, "E", 4, "a")])
            .unwrap_err()
            .contains("before its begin"));
        assert!(parse_chrome("{}").unwrap_err().contains("traceEvents"));
    }

    #[test]
    fn check_flags_a_lane_whose_self_times_miss_its_wall() {
        let mut r = Rollup::default();
        let lane = r.lanes.entry((1, 1)).or_default();
        lane.covered_us = 100.0;
        lane.self_us.insert("a".into(), 90.0);
        assert!(r.check().unwrap_err().contains("covered wall"));
    }

    #[test]
    fn rolls_up_a_real_lcm_obs_export() {
        lcm_obs::trace::enable();
        {
            let _outer = lcm_obs::span("outer", "test");
            let _inner = lcm_obs::span("inner", "test");
        }
        lcm_obs::trace::disable();
        let doc = lcm_obs::trace::export_chrome_trace();
        let r = Rollup::of(&parse_chrome(&doc).unwrap()).unwrap();
        r.check().unwrap();
        assert!(r.by_name().iter().any(|(n, _)| n == "inner"));
    }
}
