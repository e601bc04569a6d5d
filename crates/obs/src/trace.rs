//! Span tracing with Chrome `trace_event` export.
//!
//! # Model
//!
//! A [`Span`] brackets a region of one thread's execution. Creating a
//! span records a `"ph": "B"` (begin) event; dropping it records the
//! matching `"ph": "E"` (end). Events accumulate in per-thread buffers
//! (a `Mutex<Vec<_>>` owned by the recording thread — uncontended
//! except during export) and [`export_chrome_trace`] drains them all
//! into one `{"traceEvents": [...]}` document.
//!
//! # Invariants the export guarantees
//!
//! * **Balanced**: every `B` has a matching `E` on the same thread.
//!   Spans still open at export time get a synthesized `E` at the
//!   export timestamp; their guards notice (via an epoch counter) and
//!   skip the now-stale end on drop.
//! * **Per-thread monotone timestamps**: all timestamps come from one
//!   process-wide [`Instant`] base and each thread appends in order.
//! * **Properly nested**: guards are droppped in reverse creation
//!   order (Rust scoping), so `B`/`E` pairs nest like a call stack.
//!
//! # Cost when disabled
//!
//! [`span`] starts with a single relaxed atomic load and returns an
//! inert guard when no one has called [`enable`]. No allocation, no
//! clock read, no thread-local touch. Argument attachment
//! ([`Span::arg_str`] / [`Span::arg_u64`]) is likewise a no-op on an
//! inert guard — callers may compute cheap integers unconditionally
//! but should keep anything expensive behind [`is_enabled`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Soft cap on buffered events per thread (~tens of MB worst case).
/// When a thread's buffer is full new spans stop recording their begin
/// event; ends of already-recorded begins are always appended so the
/// stream stays balanced.
const MAX_EVENTS_PER_THREAD: usize = 1 << 18;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Bumped by every export; guards created before the bump skip their
/// end event (the export already synthesized it).
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// One value a span argument can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument (function name, engine, cache disposition…).
    Str(String),
    /// An integer argument (query counts, sizes…).
    U64(u64),
}

#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    cat: &'static str,
    begin: bool,
    ts_us: u64,
    args: Vec<(&'static str, ArgValue)>,
}

struct ThreadBuf {
    tid: u64,
    events: Mutex<Vec<Event>>,
}

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    base().elapsed().as_micros() as u64
}

/// Current timestamp on this process's trace clock, in microseconds.
///
/// Trace timestamps are offsets from a per-process [`Instant`] base, so
/// two processes' spans cannot be compared raw. A coordinator that
/// merges foreign spans reads both clocks at handshake time (the
/// worker ships `clock_us()` in its hello frame), computes
/// `offset = coordinator_now − worker_now`, and adds the offset to
/// every foreign timestamp before [`add_foreign_events`].
pub fn clock_us() -> u64 {
    now_us()
}

fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static R: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        buffers().lock().unwrap().push(Arc::clone(&buf));
        buf
    };
}

/// Turns recording on. Idempotent. Also pins the timestamp base so the
/// first span does not pay for clock initialization.
pub fn enable() {
    base();
    ENABLED.store(true, Ordering::Release);
}

/// Turns recording off. Spans already open still record their end
/// event (streams stay balanced); new spans become inert.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans are currently being recorded. Use to gate argument
/// computation that is too expensive for the hot path.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An RAII guard for one traced region. Create with [`span`]; the end
/// event is recorded on drop.
pub struct Span {
    recorded: bool,
    epoch: u64,
    name: &'static str,
    cat: &'static str,
    args: Vec<(&'static str, ArgValue)>,
}

/// Opens a span named `name` in category `cat` on the current thread.
///
/// `cat` groups spans for trace-viewer filtering; this workspace uses
/// the stage names `detect`, `haunted`, `store`, `fleet`, and `serve`
/// (see DESIGN.md §6e for the taxonomy). When tracing is disabled this
/// is one relaxed atomic load.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span {
            recorded: false,
            epoch: 0,
            name,
            cat,
            args: Vec::new(),
        };
    }
    Span::begin(name, cat)
}

impl Span {
    #[cold]
    fn begin(name: &'static str, cat: &'static str) -> Span {
        let epoch = EPOCH.load(Ordering::Acquire);
        let ts_us = now_us();
        let recorded = LOCAL.with(|buf| {
            let mut events = buf.events.lock().unwrap();
            if events.len() >= MAX_EVENTS_PER_THREAD {
                return false;
            }
            events.push(Event {
                name,
                cat,
                begin: true,
                ts_us,
                args: Vec::new(),
            });
            true
        });
        Span {
            recorded,
            epoch,
            name,
            cat,
            args: Vec::new(),
        }
    }

    /// Attaches a string argument, shown in the trace viewer on the
    /// span. No-op (and no allocation) on an inert guard.
    #[inline]
    pub fn arg_str(&mut self, key: &'static str, value: &str) {
        if self.recorded {
            self.args.push((key, ArgValue::Str(value.to_string())));
        }
    }

    /// Attaches an integer argument. No-op on an inert guard.
    #[inline]
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        if self.recorded {
            self.args.push((key, ArgValue::U64(value)));
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if !self.recorded {
            return;
        }
        // An export ran while this span was open: it synthesized our
        // end event already, so recording another would unbalance the
        // *next* export.
        if EPOCH.load(Ordering::Acquire) != self.epoch {
            return;
        }
        let ts_us = now_us();
        let args = std::mem::take(&mut self.args);
        let (name, cat) = (self.name, self.cat);
        LOCAL.with(|buf| {
            // Deliberately past the soft cap: a recorded begin must get
            // its end.
            buf.events.lock().unwrap().push(Event {
                name,
                cat,
                begin: false,
                ts_us,
                args,
            });
        });
    }
}

/// One span event in process-independent form: owned strings, ready to
/// cross a process boundary. A worker drains its thread buffers into
/// these ([`drain_local_events`]); the coordinator re-bases the
/// timestamps onto its own clock (see [`clock_us`]) and hands them to
/// [`add_foreign_events`] for the next export.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignEvent {
    /// Thread lane within the originating process.
    pub tid: u64,
    /// Span name.
    pub name: String,
    /// Span category.
    pub cat: String,
    /// `true` for a `"B"` event, `false` for the matching `"E"`.
    pub begin: bool,
    /// Microseconds on the originating process's trace clock (until
    /// re-based by the coordinator).
    pub ts_us: u64,
    /// Span arguments.
    pub args: Vec<(String, ArgValue)>,
}

/// Soft cap on buffered foreign events across all processes; whole
/// batches past the cap are dropped (a partial batch would unbalance
/// some thread's B/E stream).
const MAX_FOREIGN_EVENTS: usize = 1 << 20;

/// Foreign batches awaiting export, in arrival order. Kept per-batch
/// (not flattened) so each batch's internal balance survives the cap.
fn foreign() -> &'static Mutex<Vec<(u32, Vec<ForeignEvent>)>> {
    static R: OnceLock<Mutex<Vec<(u32, Vec<ForeignEvent>)>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drains this process's thread buffers into a balanced, owned event
/// vector — the worker half of cross-process trace shipping.
///
/// Exactly like [`export_chrome_trace`], spans still open get a
/// synthesized end at the drain timestamp and their guards skip the
/// now-stale end on drop, so every drained batch is balanced per
/// thread and successive batches from one thread stay monotone.
pub fn drain_local_events() -> Vec<ForeignEvent> {
    let mut out = Vec::new();
    drain(|tid, e| {
        out.push(ForeignEvent {
            tid,
            name: e.name.to_string(),
            cat: e.cat.to_string(),
            begin: e.begin,
            ts_us: e.ts_us,
            args: e
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    });
    out
}

/// Takes every thread's buffered events and hands them to `sink` with
/// the thread's lane id, in recording order, followed by a synthesized
/// end at the drain timestamp for each span still open (innermost
/// first). Bumps the epoch first, so the guards of those spans skip
/// their stale end on drop. Afterwards the registry forgets the empty
/// buffers of exited threads: a buffer only the registry still holds
/// can never record again.
fn drain(mut sink: impl FnMut(u64, &Event)) {
    EPOCH.fetch_add(1, Ordering::AcqRel);
    let bufs: Vec<Arc<ThreadBuf>> = buffers().lock().expect("trace registry poisoned").clone();
    for buf in &bufs {
        let events: Vec<Event> =
            std::mem::take(&mut *buf.events.lock().expect("trace buffer poisoned"));
        // Indices of begins not yet matched by an end, innermost last.
        let mut open: Vec<usize> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            if e.begin {
                open.push(i);
            } else {
                open.pop();
            }
            sink(buf.tid, e);
        }
        let close_ts = now_us().max(events.last().map_or(0, |e| e.ts_us));
        for &i in open.iter().rev() {
            let end = Event {
                name: events[i].name,
                cat: events[i].cat,
                begin: false,
                ts_us: close_ts,
                args: Vec::new(),
            };
            sink(buf.tid, &end);
        }
    }
    drop(bufs);
    // A buffer only the registry holds belongs to an exited thread.
    let mut registry = buffers().lock().expect("trace registry poisoned");
    registry.retain(|b| {
        Arc::strong_count(b) > 1 || !b.events.lock().expect("trace buffer poisoned").is_empty()
    });
}

/// Queues a batch of re-based events from process `pid` for the next
/// [`export_chrome_trace`], which renders them under their own `pid`
/// lane with a `process_name` metadata record. Batches should already
/// be balanced per thread ([`drain_local_events`] guarantees this) and
/// re-based onto this process's clock. Batches past a soft global cap
/// are dropped whole.
pub fn add_foreign_events(pid: u32, events: Vec<ForeignEvent>) {
    if events.is_empty() {
        return;
    }
    let mut store = foreign().lock().unwrap();
    let held: usize = store.iter().map(|(_, b)| b.len()).sum();
    if held + events.len() > MAX_FOREIGN_EVENTS {
        return;
    }
    store.push((pid, events));
}

/// Minimal JSON string escaper (the crate takes no dependency on
/// `lcm-core`). Non-ASCII passes through raw — UTF-8 is valid JSON.
pub(crate) fn esc_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn event_into(out: &mut String, pid: u32, tid: u64, e: &Event) {
    out.push_str("{\"ph\":\"");
    out.push(if e.begin { 'B' } else { 'E' });
    out.push_str("\",\"ts\":");
    out.push_str(&e.ts_us.to_string());
    out.push_str(",\"pid\":");
    out.push_str(&pid.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&tid.to_string());
    out.push_str(",\"name\":");
    esc_into(out, e.name);
    out.push_str(",\"cat\":");
    esc_into(out, e.cat);
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc_into(out, k);
            out.push(':');
            match v {
                ArgValue::Str(s) => esc_into(out, s),
                ArgValue::U64(n) => out.push_str(&n.to_string()),
            }
        }
        out.push('}');
    }
    out.push('}');
}

fn foreign_event_into(out: &mut String, pid: u32, e: &ForeignEvent) {
    out.push_str("{\"ph\":\"");
    out.push(if e.begin { 'B' } else { 'E' });
    out.push_str("\",\"ts\":");
    out.push_str(&e.ts_us.to_string());
    out.push_str(",\"pid\":");
    out.push_str(&pid.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&e.tid.to_string());
    out.push_str(",\"name\":");
    esc_into(out, &e.name);
    out.push_str(",\"cat\":");
    esc_into(out, &e.cat);
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            esc_into(out, k);
            out.push(':');
            match v {
                ArgValue::Str(s) => esc_into(out, s),
                ArgValue::U64(n) => out.push_str(&n.to_string()),
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// A Chrome `"M"` (metadata) record naming a process lane.
fn process_name_into(out: &mut String, pid: u32, name: &str) {
    out.push_str("{\"ph\":\"M\",\"ts\":0,\"pid\":");
    out.push_str(&pid.to_string());
    out.push_str(",\"tid\":0,\"name\":\"process_name\",\"cat\":\"__metadata\",\"args\":{\"name\":");
    esc_into(out, name);
    out.push_str("}}");
}

/// Drains every thread's buffer into one Chrome `trace_event` JSON
/// document (`{"traceEvents": [...]}`), loadable by `chrome://tracing`
/// and Perfetto.
///
/// Spans still open get a synthesized end event at the export
/// timestamp, so the document is always balanced; their guards skip
/// the stale end when they eventually drop. Live threads' buffers are
/// left empty but registered — recording continues afterwards if still
/// enabled — and exited threads' buffers are dropped.
///
/// Queued foreign batches ([`add_foreign_events`]) are drained too:
/// they render under their originating `pid` with `process_name`
/// metadata records distinguishing the lanes, producing one merged
/// multi-process timeline.
pub fn export_chrome_trace() -> String {
    let pid = std::process::id();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    drain(|tid, e| {
        if !first {
            out.push(',');
        }
        first = false;
        event_into(&mut out, pid, tid, e);
    });
    // Foreign batches render under their own pid lane. Process-name
    // metadata records appear only for multi-process traces, so a
    // single-process export is byte-for-byte what it always was.
    let batches: Vec<(u32, Vec<ForeignEvent>)> = std::mem::take(&mut *foreign().lock().unwrap());
    if !batches.is_empty() {
        let mut named: Vec<u32> = vec![pid];
        if !first {
            out.push(',');
        }
        first = false;
        process_name_into(&mut out, pid, "lcm-supervisor");
        for (fpid, _) in &batches {
            if !named.contains(fpid) {
                named.push(*fpid);
                out.push(',');
                process_name_into(&mut out, *fpid, &format!("lcm-worker-{fpid}"));
            }
        }
        for (fpid, events) in &batches {
            for e in events {
                out.push(',');
                foreign_event_into(&mut out, *fpid, e);
            }
        }
    }
    let _ = first;
    out.push_str("]}");
    out
}

/// [`export_chrome_trace`] straight to a file.
///
/// # Errors
///
/// Propagates the underlying write failure.
pub fn export_to_file(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, export_chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global, so everything lives in one test
    // (the default harness runs tests concurrently).
    #[test]
    fn spans_record_balanced_nested_monotone_events() {
        // Disabled: inert guards, nothing buffered, args free.
        assert!(!is_enabled());
        {
            let mut s = span("idle", "test");
            s.arg_str("k", "v");
            s.arg_u64("n", 1);
        }
        enable();
        {
            let mut outer = span("outer", "test");
            outer.arg_str("fn", "victim \"quoted\"");
            {
                let mut inner = span("inner", "test");
                inner.arg_u64("queries", 7);
            }
        }
        let t = std::thread::spawn(|| {
            let _s = span("worker", "test");
        });
        t.join().unwrap();
        // An open span at export time gets a synthesized end…
        let dangling = span("dangling", "test");
        let doc = export_chrome_trace();
        disable();
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.ends_with("]}"));
        let begins = doc.matches("\"ph\":\"B\"").count();
        let ends = doc.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends, "balanced: {doc}");
        assert_eq!(doc.matches("\"name\":\"dangling\"").count(), 2);
        assert!(doc.contains("\"queries\":7"));
        assert!(doc.contains("victim \\\"quoted\\\""));
        assert!(doc.contains("\"name\":\"worker\""));
        // …and its guard skips the stale end: the next export holds
        // nothing from it.
        drop(dangling);
        let empty = export_chrome_trace();
        assert!(!empty.contains("dangling"), "stale end leaked: {empty}");
        // The disabled span never recorded.
        assert!(!doc.contains("idle"));
        // A single-process export carries no metadata records.
        assert!(!doc.contains("\"ph\":\"M\""));

        // Cross-process half: drain this process's spans as if we were
        // a worker, then feed them back as a foreign batch.
        enable();
        {
            {
                let mut s = span("task", "fleet");
                s.arg_str("fn", "victim_a");
            }
            let _open = span("half-done", "fleet");
            let drained = drain_local_events();
            // Balanced: the open span got a synthesized end.
            assert_eq!(drained.len(), 4, "{drained:?}");
            assert_eq!(drained.iter().filter(|e| e.begin).count(), 2);
            assert_eq!(drained[0].name, "task");
            // Args ride the end event (attached at drop time).
            assert!(!drained[1].begin);
            assert_eq!(
                drained[1].args,
                vec![("fn".to_string(), ArgValue::Str("victim_a".to_string()))]
            );
            // Simulate the coordinator re-basing onto its clock.
            let offset = 1_000_000u64;
            let rebased: Vec<ForeignEvent> = drained
                .into_iter()
                .map(|mut e| {
                    e.ts_us += offset;
                    e
                })
                .collect();
            add_foreign_events(4242, rebased);
        }
        let mut local = span("merge", "fleet");
        local.arg_u64("workers", 1);
        drop(local);
        let merged = export_chrome_trace();
        disable();
        assert!(merged.contains("\"pid\":4242"));
        assert!(merged.contains("\"name\":\"process_name\""));
        assert!(merged.contains("\"name\":\"lcm-worker-4242\""));
        assert!(merged.contains("\"name\":\"lcm-supervisor\""));
        assert!(merged.contains("\"name\":\"task\""));
        assert!(merged.contains("\"name\":\"merge\""));
        let begins = merged.matches("\"ph\":\"B\"").count();
        let ends = merged.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends, "merged trace balanced: {merged}");
        // The guard of the drained-open span skips its stale end, and
        // the foreign queue is empty again after export.
        let after = export_chrome_trace();
        assert!(!after.contains("half-done"), "{after}");
        assert!(!after.contains("4242"), "{after}");
        // An empty foreign batch is a no-op.
        add_foreign_events(7, Vec::new());
        assert!(!export_chrome_trace().contains("\"ph\":\"M\""));

        // Bounded buffers: short-lived threads register a buffer each,
        // and draining forgets those of threads that have exited.
        let registered = || buffers().lock().unwrap().len();
        let before = registered();
        enable();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = span("short-lived", "test");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(registered(), before + 8);
        let lived = export_chrome_trace();
        disable();
        assert_eq!(lived.matches("\"name\":\"short-lived\"").count(), 16);
        assert_eq!(
            lived.matches("\"ph\":\"B\"").count(),
            lived.matches("\"ph\":\"E\"").count(),
            "balanced: {lived}"
        );
        assert_eq!(registered(), before, "exited threads' buffers dropped");
        let drained = drain_local_events();
        assert_eq!(
            drained.iter().filter(|e| e.begin).count(),
            drained.iter().filter(|e| !e.begin).count()
        );
        assert!(drained.iter().all(|e| e.name != "short-lived"));
        assert_eq!(registered(), before);
    }
}
