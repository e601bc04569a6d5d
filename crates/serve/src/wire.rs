//! The line-delimited JSON wire protocol: v1 one-shot and v2
//! multiplexed frames.
//!
//! **v1 (one request per connection)** — the original protocol, kept
//! byte-identical: the client writes a single JSON object terminated by
//! `\n`, the server writes a single JSON object terminated by `\n` and
//! closes. Requests:
//!
//! ```text
//! {"cmd": "analyze", "source": "<mini-C>", "engine": "pht"}
//! {"cmd": "analyze", "file": "/path/to/prog.c", "engine": "stl"}   (Unix socket only)
//! {"cmd": "status"}
//! {"cmd": "stats"}
//! {"cmd": "metrics"}
//! {"cmd": "shutdown"}
//! ```
//!
//! **v2 (multiplexed)** — any frame carrying a client-chosen `id`
//! (string or number) switches the connection into multiplexed mode:
//! the connection stays open, the client may pipeline further frames
//! without waiting for replies, and every reply names the `id` of the
//! frame it answers — replies may arrive **out of order** and are
//! matched by `id`, never by position. A batched analyze submits many
//! programs in one frame and gets one aggregated reply:
//!
//! ```text
//! {"cmd": "analyze", "id": 7, "source": "…", "engine": "pht"}
//! {"cmd": "analyze_batch", "id": "b1", "batch": [{"source": "…"},
//!                                               {"source": "…", "engine": "stl"}]}
//! ```
//!
//! v2 replies are the v1 reply object with `"id"` prepended; a batch
//! reply carries `"results"`, an array whose elements render exactly as
//! the corresponding v1 analyze replies would (the byte-equality pin
//! holds per batch element). Malformed frames on a v2 connection get a
//! *per-frame* error reply (naming the `id` when one was parseable) —
//! they never terminate the connection or the server.
//!
//! `engine` defaults to `pht`. Responses always carry `"ok": true|false`;
//! failures add `"error"`. Analyze responses embed the full per-function
//! report (findings, status, cache labels) in the same shape the bench
//! JSON uses, so the round-trip test can compare the daemon's answer
//! against an in-process run field by field.
//!
//! `metrics` on a v1 connection is the one exception to the JSON-reply
//! rule: it answers with raw Prometheus text exposition (multi-line,
//! `# HELP`/`# TYPE` preambles) so a scraper can hit the daemon without
//! a translation shim. On a v2 connection a multi-line reply would
//! break framing, so the same text is delivered inside a JSON frame:
//! `{"id": …, "ok": true, "prometheus": "<text>"}`.

use lcm_core::jsonw::{self, Json};
use lcm_detect::{EngineKind, Finding, FunctionReport, ModuleReport};

/// Hard per-frame size cap: a frame (request line) longer than this is
/// answered with a per-frame error (v2) or closes the connection (v1,
/// where there is nothing left to salvage).
pub const MAX_FRAME: usize = 64 << 20;

/// One program to analyze (the element type of a batched analyze; a v1
/// `analyze` is one of these plus transport).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeItem {
    /// Inline source text, if given.
    pub source: Option<String>,
    /// Server-side path to read instead, if given. Accepted on the Unix
    /// socket only, and read up to the frame cap.
    pub file: Option<String>,
    /// Engine to run.
    pub engine: EngineKind,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Analyze mini-C source (inline or from a file the *server* reads).
    Analyze {
        /// Inline source text, if given.
        source: Option<String>,
        /// Server-side path to read instead, if given.
        file: Option<String>,
        /// Engine to run.
        engine: EngineKind,
    },
    /// Analyze many programs in one frame; the reply aggregates one
    /// result object per item, in item order.
    AnalyzeBatch(Vec<AnalyzeItem>),
    /// Liveness probe: uptime and queue occupancy.
    Status,
    /// Counter snapshot (requests, cache traffic, degradations).
    Stats,
    /// Prometheus text exposition of the process metrics registry.
    Metrics,
    /// Graceful shutdown after in-flight requests drain.
    Shutdown,
}

impl Request {
    /// Whether the request names a file for the server to read.
    pub fn reads_file(&self) -> bool {
        match self {
            Request::Analyze { file, .. } => file.is_some(),
            Request::AnalyzeBatch(items) => items.iter().any(|i| i.file.is_some()),
            _ => false,
        }
    }
}

/// A decoded frame: the request plus the client-chosen `id`, if any.
/// `id: None` is a v1 one-shot line; `id: Some(_)` is a v2 frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The client-chosen request id (string or number), echoed on the
    /// reply. Replies are matched by this, never by arrival order.
    pub id: Option<Json>,
    /// The request the frame carries.
    pub req: Request,
}

/// A frame that failed to decode. The `id` is populated whenever the
/// line parsed far enough to yield a valid one, so the per-frame error
/// reply can name the request it rejects.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// The frame's id, when one was recoverable.
    pub id: Option<Json>,
    /// What was wrong, destined for the reply's `"error"` field.
    pub message: String,
}

impl FrameError {
    fn new(id: Option<Json>, message: impl Into<String>) -> FrameError {
        FrameError {
            id,
            message: message.into(),
        }
    }
}

/// The wire name of an engine.
pub fn engine_name(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Pht => "pht",
        EngineKind::Stl => "stl",
        EngineKind::Psf => "psf",
    }
}

/// Parses a wire engine name.
pub fn engine_of_name(name: &str) -> Option<EngineKind> {
    match name {
        "pht" => Some(EngineKind::Pht),
        "stl" => Some(EngineKind::Stl),
        "psf" => Some(EngineKind::Psf),
        _ => None,
    }
}

/// Decodes one analyze item (the fields shared by a v1 `analyze` line
/// and each element of a v2 `batch` array).
fn parse_item(v: &Json) -> Result<AnalyzeItem, String> {
    let source = v.get("source").and_then(Json::as_str).map(String::from);
    let file = v.get("file").and_then(Json::as_str).map(String::from);
    if source.is_none() && file.is_none() {
        return Err("analyze needs `source` or `file`".into());
    }
    if source.is_some() && file.is_some() {
        return Err("analyze takes `source` or `file`, not both".into());
    }
    let engine = match v.get("engine") {
        None => EngineKind::Pht,
        Some(e) => {
            let name = e.as_str().ok_or("`engine` must be a string")?;
            engine_of_name(name).ok_or_else(|| format!("unknown engine `{name}` (pht|stl|psf)"))?
        }
    };
    Ok(AnalyzeItem {
        source,
        file,
        engine,
    })
}

/// Decodes one frame (request line). The returned [`FrameError`]
/// carries the frame's `id` whenever one was recoverable, so the reply
/// can name the request it rejects.
pub fn parse_frame(line: &str) -> Result<Frame, FrameError> {
    let v = jsonw::parse(line.trim())
        .map_err(|e| FrameError::new(None, format!("bad request JSON: {e}")))?;
    let id = match v.get("id") {
        None => None,
        Some(id @ (Json::Str(_) | Json::Num(_))) => Some(id.clone()),
        Some(_) => {
            return Err(FrameError::new(None, "`id` must be a string or number"));
        }
    };
    let cmd = match v.get("cmd").and_then(Json::as_str) {
        Some(c) => c,
        None => return Err(FrameError::new(id, "missing `cmd`")),
    };
    let req = match cmd {
        "status" => Request::Status,
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        "analyze" => {
            let item = parse_item(&v).map_err(|e| FrameError::new(id.clone(), e))?;
            Request::Analyze {
                source: item.source,
                file: item.file,
                engine: item.engine,
            }
        }
        "analyze_batch" => {
            let items = match v.get("batch").and_then(Json::as_arr) {
                Some(arr) if !arr.is_empty() => arr,
                Some(_) => {
                    return Err(FrameError::new(id, "`batch` must be a non-empty array"));
                }
                None => {
                    return Err(FrameError::new(id, "analyze_batch needs a `batch` array"));
                }
            };
            let mut parsed = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let item = parse_item(item)
                    .map_err(|e| FrameError::new(id.clone(), format!("batch[{i}]: {e}")))?;
                parsed.push(item);
            }
            Request::AnalyzeBatch(parsed)
        }
        other => {
            return Err(FrameError::new(id, format!("unknown cmd `{other}`")));
        }
    };
    Ok(Frame { id, req })
}

/// Decodes one request line, ignoring any `id` (v1 view; kept for the
/// one-shot path and existing callers).
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_frame(line).map(|f| f.req).map_err(|e| e.message)
}

/// A v1 failure reply (no `id`).
pub fn error_reply(message: &str) -> String {
    let mut line = Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(message.into())),
    ])
    .render();
    line.push('\n');
    line
}

/// A failure reply naming the rejected frame's `id` when one is known;
/// falls back to the v1 shape (byte-identical) when there is none.
pub fn error_reply_id(id: Option<&Json>, message: &str) -> String {
    match id {
        None => error_reply(message),
        Some(id) => {
            let mut line = Json::Obj(vec![
                ("id".into(), id.clone()),
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::Str(message.into())),
            ])
            .render();
            line.push('\n');
            line
        }
    }
}

fn finding_json(f: &Finding) -> Json {
    let opt = |v: Option<u64>| match v {
        None => Json::Null,
        Some(v) => Json::Num(v as f64),
    };
    Json::Obj(vec![
        ("function".into(), Json::Str(f.function.clone())),
        ("transmitter".into(), Json::Num(f.transmitter.0 as f64)),
        (
            "transmitter_inst".into(),
            Json::Num(f.transmitter_inst.0 as f64),
        ),
        ("class".into(), Json::Str(f.class.to_string())),
        (
            "transient_transmitter".into(),
            Json::Bool(f.transient_transmitter),
        ),
        ("access".into(), opt(f.access.map(|e| e.0 as u64))),
        ("access_transient".into(), Json::Bool(f.access_transient)),
        ("index".into(), opt(f.index.map(|e| e.0 as u64))),
        ("primitive".into(), Json::Str(f.primitive.to_string())),
        ("branch".into(), opt(f.branch.map(|b| b.0 as u64))),
        (
            "bypassed_store".into(),
            opt(f.bypassed_store.map(|e| e.0 as u64)),
        ),
        ("interference".into(), Json::Bool(f.interference)),
    ])
}

fn function_report_json(f: &FunctionReport) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(f.name.clone())),
        ("saeg_size".into(), Json::Num(f.saeg_size as f64)),
        (
            "status".into(),
            match f.status.error() {
                None => Json::Str("completed".into()),
                Some(e) => Json::Str(format!("degraded: {e}")),
            },
        ),
        ("cache".into(), Json::Str(f.cache.label().into())),
        (
            "findings".into(),
            Json::Arr(f.transmitters.iter().map(finding_json).collect()),
        ),
    ])
}

/// The `functions` array of an analyze reply: everything about the
/// result except timing (which can never match across processes).
pub fn module_report_json(report: &ModuleReport) -> Json {
    Json::Arr(report.functions.iter().map(function_report_json).collect())
}

/// The members of a successful analyze reply object (shared by the v1
/// reply, the v2 reply, and each element of a batch reply, so all
/// three render a result identically).
fn analyze_members(report: &ModuleReport, engine: EngineKind) -> Vec<(String, Json)> {
    let timings = report.timings();
    vec![
        ("ok".into(), Json::Bool(true)),
        ("engine".into(), Json::Str(engine_name(engine).into())),
        ("functions".into(), module_report_json(report)),
        ("cache_hits".into(), Json::Num(timings.cache_hits as f64)),
        (
            "queries_avoided".into(),
            Json::Num(timings.queries_avoided as f64),
        ),
        (
            "prefilter_hits".into(),
            Json::Num(timings.prefilter_hits as f64),
        ),
        ("degraded".into(), Json::Num(report.degraded_count() as f64)),
    ]
}

/// A successful v1 analyze reply.
pub fn analyze_reply(report: &ModuleReport, engine: EngineKind) -> String {
    let mut line = Json::Obj(analyze_members(report, engine)).render();
    line.push('\n');
    line
}

/// A successful analyze reply naming its frame's `id` (v2); without an
/// id this is exactly the v1 reply.
pub fn analyze_reply_id(id: Option<&Json>, report: &ModuleReport, engine: EngineKind) -> String {
    match id {
        None => analyze_reply(report, engine),
        Some(id) => {
            let mut members = analyze_members(report, engine);
            members.insert(0, ("id".into(), id.clone()));
            let mut line = Json::Obj(members).render();
            line.push('\n');
            line
        }
    }
}

/// Prepends a frame `id` to an already-rendered v1 reply line,
/// producing exactly the bytes [`analyze_reply_id`] renders for the
/// same report (pinned by `id_replies_prepend_the_id_and_change_nothing_else`).
/// The server's hot-reply memo uses this to replay a cached v1 line
/// under any frame's `id` without re-rendering the report.
pub fn prepend_id(id: Option<&Json>, v1_line: &str) -> String {
    match id {
        None => v1_line.to_string(),
        Some(id) => format!("{{\"id\":{},{}", id.render(), &v1_line[1..]),
    }
}

/// One element of a batch reply: the analyzed report, a pre-rendered
/// reply line, or the error that stopped that item.
pub enum BatchOutcome {
    /// The item analyzed; same payload as a v1 analyze reply.
    Done(ModuleReport, EngineKind),
    /// An already-rendered v1 analyze reply line (the server's
    /// hot-reply memo); spliced into `results` verbatim, so the
    /// per-element byte-equality pin holds by construction.
    Rendered(std::sync::Arc<str>),
    /// The item failed (bad file, compile error); the reply element is
    /// the v1 error object.
    Failed(String),
}

/// An aggregated batch reply: `ok` is true when every element
/// succeeded, `results` carries one object per item in item order, and
/// each element renders exactly as the matching one-shot reply would —
/// the reply is assembled from the element strings directly, so a
/// [`BatchOutcome::Rendered`] element is the one-shot bytes verbatim.
pub fn batch_reply(id: Option<&Json>, outcomes: &[BatchOutcome]) -> String {
    let failed = outcomes
        .iter()
        .filter(|o| matches!(o, BatchOutcome::Failed(_)))
        .count();
    let mut line = String::with_capacity(64 + outcomes.len() * 64);
    line.push('{');
    if let Some(id) = id {
        line.push_str("\"id\":");
        line.push_str(&id.render());
        line.push(',');
    }
    line.push_str("\"ok\":");
    line.push_str(if failed == 0 { "true" } else { "false" });
    line.push_str(",\"results\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        match o {
            BatchOutcome::Done(report, engine) => {
                line.push_str(&Json::Obj(analyze_members(report, *engine)).render());
            }
            BatchOutcome::Rendered(reply) => line.push_str(reply.trim_end()),
            BatchOutcome::Failed(e) => {
                line.push_str(
                    &Json::Obj(vec![
                        ("ok".into(), Json::Bool(false)),
                        ("error".into(), Json::Str(e.clone())),
                    ])
                    .render(),
                );
            }
        }
    }
    line.push_str("],\"failed\":");
    line.push_str(&Json::Num(failed as f64).render());
    line.push('}');
    line.push('\n');
    line
}

/// A v2 metrics reply: the Prometheus text exposition inside a JSON
/// frame (a raw multi-line reply would break v2 framing).
pub fn metrics_reply_id(id: &Json, prometheus: &str) -> String {
    let mut line = Json::Obj(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Json::Bool(true)),
        ("prometheus".into(), Json::Str(prometheus.into())),
    ])
    .render();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(parse_request(r#"{"cmd":"status"}"#), Ok(Request::Status));
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse_request(r#"{"cmd":"metrics"}"#), Ok(Request::Metrics));
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
        let r = parse_request(r#"{"cmd":"analyze","source":"int x;","engine":"stl"}"#).unwrap();
        assert_eq!(
            r,
            Request::Analyze {
                source: Some("int x;".into()),
                file: None,
                engine: EngineKind::Stl,
            }
        );
        let r = parse_request(r#"{"cmd":"analyze","file":"/tmp/a.c"}"#).unwrap();
        assert!(matches!(
            r,
            Request::Analyze {
                engine: EngineKind::Pht,
                ..
            }
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"analyze"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"analyze","source":"a","file":"b"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"analyze","source":"a","engine":"quantum"}"#).is_err());
        assert!(parse_request(r#"{"source":"a"}"#).is_err());
    }

    #[test]
    fn v2_frames_carry_ids_and_batches() {
        let f = parse_frame(r#"{"cmd":"status","id":7}"#).unwrap();
        assert_eq!(f.id, Some(Json::Num(7.0)));
        assert_eq!(f.req, Request::Status);

        let f = parse_frame(r#"{"cmd":"analyze","id":"a-1","source":"int x;"}"#).unwrap();
        assert_eq!(f.id, Some(Json::Str("a-1".into())));

        let f = parse_frame(
            r#"{"cmd":"analyze_batch","id":3,"batch":[{"source":"int x;"},{"source":"int y;","engine":"stl"}]}"#,
        )
        .unwrap();
        match f.req {
            Request::AnalyzeBatch(items) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].engine, EngineKind::Pht);
                assert_eq!(items[1].engine, EngineKind::Stl);
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn frame_errors_recover_the_id_when_parseable() {
        // A bad cmd with a good id: the error names the id.
        let e = parse_frame(r#"{"cmd":"frobnicate","id":9}"#).unwrap_err();
        assert_eq!(e.id, Some(Json::Num(9.0)));
        // A bad batch element: the error names the id and the index.
        let e = parse_frame(r#"{"cmd":"analyze_batch","id":9,"batch":[{}]}"#).unwrap_err();
        assert_eq!(e.id, Some(Json::Num(9.0)));
        assert!(e.message.contains("batch[0]"), "{}", e.message);
        // Unparseable JSON: no id to recover.
        let e = parse_frame("not json").unwrap_err();
        assert_eq!(e.id, None);
        // A structured (non-scalar) id is itself an error.
        let e = parse_frame(r#"{"cmd":"status","id":[1]}"#).unwrap_err();
        assert!(e.message.contains("string or number"), "{}", e.message);
    }

    #[test]
    fn replies_are_single_parseable_lines() {
        let e = error_reply("no \"such\" engine");
        assert!(e.ends_with('\n'));
        let v = jsonw::parse(e.trim()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("no \"such\" engine"));

        let report = ModuleReport::default();
        let a = analyze_reply(&report, EngineKind::Psf);
        let v = jsonw::parse(a.trim()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("engine").unwrap().as_str(), Some("psf"));
        assert_eq!(v.get("functions").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn id_replies_prepend_the_id_and_change_nothing_else() {
        let report = ModuleReport::default();
        let id = Json::Num(42.0);
        let v1 = analyze_reply(&report, EngineKind::Pht);
        let v2 = analyze_reply_id(Some(&id), &report, EngineKind::Pht);
        assert_eq!(v2, format!("{{\"id\":42,{}", &v1[1..]));
        // Absent id: byte-identical to v1.
        assert_eq!(analyze_reply_id(None, &report, EngineKind::Pht), v1);
        assert_eq!(error_reply_id(None, "x"), error_reply("x"));

        let b = batch_reply(
            Some(&id),
            &[
                BatchOutcome::Done(ModuleReport::default(), EngineKind::Stl),
                BatchOutcome::Failed("compile error: nope".into()),
            ],
        );
        let v = jsonw::parse(b.trim()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(1));
        let results = v.get("results").unwrap().as_arr().unwrap();
        // Each batch element renders exactly as its one-shot reply.
        assert_eq!(
            format!("{}\n", results[0].render()),
            analyze_reply(&ModuleReport::default(), EngineKind::Stl)
        );
        assert_eq!(
            format!("{}\n", results[1].render()),
            error_reply("compile error: nope")
        );

        // A pre-rendered element (hot-reply memo) produces the
        // identical batch reply bytes.
        let rendered: std::sync::Arc<str> =
            analyze_reply(&ModuleReport::default(), EngineKind::Stl).into();
        let b2 = batch_reply(
            Some(&id),
            &[
                BatchOutcome::Rendered(rendered),
                BatchOutcome::Failed("compile error: nope".into()),
            ],
        );
        assert_eq!(b2, b);

        // prepend_id matches analyze_reply_id byte for byte.
        assert_eq!(prepend_id(Some(&id), &v1), v2);
        assert_eq!(prepend_id(None, &v1), v1);
    }
}
