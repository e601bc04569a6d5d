//! The daemon's connectors: the v1 one-shot [`Client`] and the v2
//! multiplexed [`Connection`].
//!
//! The v1 protocol is deliberately stateless — a client connects,
//! writes one JSON line, reads one JSON line, and the server closes.
//! That makes connection loss trivially safe to retry: a request that
//! never produced a complete reply cannot have half-happened (analysis
//! is pure; at worst the server did work whose result the cache now
//! holds). The client therefore retries a dropped connection a bounded
//! number of times — spaced by the deterministic, jitter-free
//! exponential [`backoff_delay`] schedule — before surfacing
//! [`ClientError::Dropped`]. A reply without its terminating newline is
//! treated exactly like a drop: that is what a torn frame (the
//! `serve.partial_write` fault) looks like from this side.
//!
//! [`Connection`] is the v2 connector: one persistent connection,
//! every frame carries a client-chosen numeric `id`, frames may be
//! pipelined without waiting for replies, and replies are matched by
//! `id` (they may arrive out of order). [`Connection::send_batch`]
//! packs many programs into one frame with one aggregated reply.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

use lcm_core::jsonw::{self, Json};
use lcm_detect::EngineKind;

use crate::conn::Stream;
use crate::wire;

// The deterministic, jitter-free retry schedule lives in `lcm-core` so
// the worker-fleet supervisor (which `lcm-serve` depends on) shares the
// identical timings; re-exported here because this is where callers
// historically found it.
pub use lcm_core::backoff::backoff_delay;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum ServerAddr {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP address (`host:port`).
    Tcp(String),
}

impl ServerAddr {
    fn connect(&self) -> std::io::Result<Stream> {
        match self {
            ServerAddr::Unix(path) => Stream::connect_unix(path),
            ServerAddr::Tcp(addr) => Stream::connect_tcp(addr),
        }
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect / write / read (after retries, where retryable).
    Io(std::io::Error),
    /// The server accepted the connection but closed it without a
    /// complete reply (no bytes, or a torn frame) on every attempt.
    Dropped {
        /// Connections attempted before giving up.
        attempts: usize,
    },
    /// The reply was not a parseable JSON line.
    BadReply(String),
    /// The server answered `"ok": false`; the payload is its `error`.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Dropped { attempts } => {
                write!(
                    f,
                    "connection dropped without a reply ({attempts} attempts)"
                )
            }
            ClientError::BadReply(e) => write!(f, "unparseable reply: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connector to one daemon. Cheap to construct; holds no connection
/// between v1 requests. [`Client::connect`] opens a persistent v2
/// [`Connection`].
#[derive(Debug, Clone)]
pub struct Client {
    addr: ServerAddr,
    retries: usize,
    timeout: Duration,
    retry_busy: usize,
}

impl Client {
    /// A client for the daemon at `socket`, retrying a dropped
    /// connection once and waiting up to 60 s for a reply.
    pub fn new(socket: impl Into<PathBuf>) -> Client {
        Client {
            addr: ServerAddr::Unix(socket.into()),
            retries: 1,
            timeout: Duration::from_secs(60),
            retry_busy: 0,
        }
    }

    /// A client for the daemon's TCP listener at `addr` (`host:port`).
    pub fn tcp(addr: impl Into<String>) -> Client {
        Client {
            addr: ServerAddr::Tcp(addr.into()),
            retries: 1,
            timeout: Duration::from_secs(60),
            retry_busy: 0,
        }
    }

    /// Overrides how many *extra* attempts a dropped connection gets
    /// (`0` = fail on the first drop). Retry `n` waits
    /// [`backoff_delay`]`(n)` first.
    #[must_use]
    pub fn retries(mut self, retries: usize) -> Client {
        self.retries = retries;
        self
    }

    /// Treats the daemon's shed-load `busy` reply as retryable: up to
    /// `retries` *extra* attempts, each preceded by the same
    /// deterministic [`backoff_delay`] schedule the drop path uses. Off
    /// by default (`0`): a `busy` surfaces as [`ClientError::Server`] on
    /// first contact, because silently waiting out an overloaded daemon
    /// is a policy the caller must opt into.
    #[must_use]
    pub fn retry_busy(mut self, retries: usize) -> Client {
        self.retry_busy = retries;
        self
    }

    /// Overrides the per-request reply timeout.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// One connect → write → read-to-EOF exchange.
    fn round_trip_once(&self, line: &str) -> std::io::Result<String> {
        let mut conn = self.addr.connect()?;
        conn.set_read_timeout(Some(self.timeout))?;
        conn.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            conn.write_all(b"\n")?;
        }
        conn.flush()?;
        let mut reply = String::new();
        conn.read_to_string(&mut reply)?;
        Ok(reply)
    }

    /// Sends one raw request line and returns the raw reply, retrying
    /// (up to the configured count, spaced by [`backoff_delay`]) when
    /// the server closes the connection without a complete reply.
    pub fn request_line(&self, line: &str) -> Result<String, ClientError> {
        // A drop shows up as clean EOF *or* as a reset/broken-pipe,
        // depending on whether the peer had unread data when it closed.
        // Both are the same logical condition.
        let is_drop = |e: &std::io::Error| {
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::UnexpectedEof
            )
        };
        let mut attempts = 0;
        loop {
            attempts += 1;
            match self.round_trip_once(line) {
                // A complete reply always ends in a newline; a
                // non-empty reply without one is a torn frame (the
                // `serve.partial_write` fault) — retryable like a drop.
                Ok(reply) if reply.ends_with('\n') => return Ok(reply),
                Ok(_) => {
                    if attempts > self.retries {
                        return Err(ClientError::Dropped { attempts });
                    }
                }
                Err(e) if is_drop(&e) => {
                    if attempts > self.retries {
                        return Err(ClientError::Dropped { attempts });
                    }
                }
                // Anything else (socket missing, refused, timeout) is a
                // real failure; bounded retries still apply.
                Err(e) => {
                    if attempts > self.retries {
                        return Err(ClientError::Io(e));
                    }
                }
            }
            std::thread::sleep(backoff_delay(attempts));
        }
    }

    /// Sends one request and decodes the reply, mapping `"ok": false`
    /// to [`ClientError::Server`]. With [`Client::retry_busy`] armed, a
    /// `busy` shed-load reply is retried (bounded, backoff-spaced)
    /// before surfacing — the daemon sheds deterministically, so a
    /// short wait is usually enough for the queue to drain.
    pub fn request(&self, line: &str) -> Result<Json, ClientError> {
        let mut busy_attempts = 0;
        loop {
            let reply = self.request_line(line)?;
            let v = jsonw::parse(reply.trim()).map_err(|e| ClientError::BadReply(e.to_string()))?;
            if v.get("ok").and_then(Json::as_bool) == Some(false) {
                let message = v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string();
                if message.starts_with("busy") && busy_attempts < self.retry_busy {
                    busy_attempts += 1;
                    std::thread::sleep(backoff_delay(busy_attempts));
                    continue;
                }
                return Err(ClientError::Server(message));
            }
            return Ok(v);
        }
    }

    /// `{"cmd": "status"}` — liveness, uptime, queue occupancy.
    pub fn status(&self) -> Result<Json, ClientError> {
        self.request(r#"{"cmd":"status"}"#)
    }

    /// `{"cmd": "stats"}` — the daemon's monotonic counters.
    pub fn stats(&self) -> Result<Json, ClientError> {
        self.request(r#"{"cmd":"stats"}"#)
    }

    /// `{"cmd": "metrics"}` — the daemon's metrics registry as raw
    /// Prometheus text exposition (the reply is *not* JSON).
    pub fn metrics(&self) -> Result<String, ClientError> {
        self.request_line(r#"{"cmd":"metrics"}"#)
    }

    /// `{"cmd": "shutdown"}` — graceful stop; returns the ack.
    pub fn shutdown(&self) -> Result<Json, ClientError> {
        self.request(r#"{"cmd":"shutdown"}"#)
    }

    /// Analyzes inline mini-C source with the given engine.
    pub fn analyze_source(&self, source: &str, engine: EngineKind) -> Result<Json, ClientError> {
        self.request(&analyze_request(Some(source), None, engine))
    }

    /// Analyzes a file the *server* reads (the path must be visible to
    /// the daemon's filesystem, not the client's).
    pub fn analyze_file(&self, path: &str, engine: EngineKind) -> Result<Json, ClientError> {
        self.request(&analyze_request(None, Some(path), engine))
    }

    /// Opens a persistent v2 multiplexed connection. Ids are numeric
    /// and chosen by the connection; pipeline as deep as you like and
    /// match replies by the returned ids.
    pub fn connect(&self) -> Result<Connection, ClientError> {
        let writer = self.addr.connect().map_err(ClientError::Io)?;
        let reader = writer.try_clone().map_err(ClientError::Io)?;
        reader
            .set_read_timeout(Some(self.timeout))
            .map_err(ClientError::Io)?;
        Ok(Connection {
            writer,
            reader,
            buf: Vec::with_capacity(4096),
            scanned: 0,
            next_id: 0,
        })
    }
}

/// A persistent v2 connection: pipelined sends, id-matched receives.
///
/// `send_*` methods write one frame and return its `id` without
/// waiting; [`Connection::recv`] blocks for the *next* reply on the
/// wire, whichever request it answers. A typical pipelined loop keeps
/// `depth` requests in flight:
///
/// ```text
/// for _ in 0..depth { conn.send_analyze(src, engine)?; }
/// loop {
///     let (id, reply) = conn.recv()?;
///     conn.send_analyze(next_src, engine)?;
/// }
/// ```
#[derive(Debug)]
pub struct Connection {
    writer: Stream,
    reader: Stream,
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline, so a reply
    /// spanning many reads (a large batch reply) is scanned once
    /// overall, not re-scanned from the start after every read.
    scanned: usize,
    next_id: u64,
}

impl Connection {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Writes one raw frame carrying `id` (appends the newline).
    pub fn send_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| {
                if line.ends_with('\n') {
                    Ok(())
                } else {
                    self.writer.write_all(b"\n")
                }
            })
            .and_then(|()| self.writer.flush())
            .map_err(ClientError::Io)
    }

    /// Writes one frame under a fresh id; returns the id.
    fn send_frame(&mut self, cmd: &str, members: Vec<(String, Json)>) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.send_line(&frame(cmd, Some(id), members))?;
        Ok(id)
    }

    /// Pipelines one analyze frame; returns its id immediately.
    pub fn send_analyze(&mut self, source: &str, engine: EngineKind) -> Result<u64, ClientError> {
        self.send_frame("analyze", item_members(Some(source), None, engine))
    }

    /// Pipelines one batched analyze frame (`sources` all analyzed with
    /// their own engine, one aggregated reply); returns its id.
    pub fn send_batch(&mut self, items: &[(&str, EngineKind)]) -> Result<u64, ClientError> {
        let batch = items
            .iter()
            .map(|&(source, engine)| Json::Obj(item_members(Some(source), None, engine)))
            .collect();
        self.send_frame("analyze_batch", vec![("batch".into(), Json::Arr(batch))])
    }

    /// Pipelines one control frame (`status` / `stats` / `shutdown` /
    /// `metrics`); returns its id.
    pub fn send_cmd(&mut self, cmd: &str) -> Result<u64, ClientError> {
        self.send_frame(cmd, Vec::new())
    }

    /// Blocks for the next reply frame on the wire (replies may arrive
    /// in any order) and returns `(id, reply)`. The reply is returned
    /// even when `"ok": false` — per-request failures (`busy`, compile
    /// errors) are data to a pipelining caller, not connection faults.
    pub fn recv(&mut self) -> Result<(u64, Json), ClientError> {
        let line = self.recv_raw_line()?;
        let v = jsonw::parse(line.trim()).map_err(|e| ClientError::BadReply(e.to_string()))?;
        let id = v
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::BadReply(format!("reply without numeric id: {line}")))?;
        Ok((id, v))
    }

    /// Reads one complete raw reply line, whether or not it carries an
    /// `id` (per-frame decode errors for unparseable frames do not).
    /// EOF mid-line (a torn frame — the `serve.partial_write` fault) or
    /// before any byte reports as [`ClientError::Dropped`]; the caller
    /// owns reconnection.
    pub fn recv_raw_line(&mut self) -> Result<String, ClientError> {
        let mut chunk = [0u8; 65536];
        loop {
            if let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(self.scanned + nl + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop();
                self.scanned = 0;
                return String::from_utf8(line)
                    .map_err(|_| ClientError::BadReply("reply not UTF-8".into()));
            }
            self.scanned = self.buf.len();
            match self.reader.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Dropped { attempts: 1 }),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::BrokenPipe
                            | std::io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    return Err(ClientError::Dropped { attempts: 1 })
                }
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }
}

/// Builds an analyze request line (exactly one of `source` / `file`).
pub fn analyze_request(source: Option<&str>, file: Option<&str>, engine: EngineKind) -> String {
    frame("analyze", None, item_members(source, file, engine))
}

/// Renders one request frame: `cmd`, then `id` when given, then the
/// command's own members.
fn frame(cmd: &str, id: Option<u64>, members: Vec<(String, Json)>) -> String {
    let mut all = vec![("cmd".to_string(), Json::Str(cmd.into()))];
    if let Some(id) = id {
        all.push(("id".into(), Json::Num(id as f64)));
    }
    all.extend(members);
    Json::Obj(all).render()
}

/// The members naming one program to analyze: its `source` or `file`,
/// then its `engine`.
fn item_members(
    source: Option<&str>,
    file: Option<&str>,
    engine: EngineKind,
) -> Vec<(String, Json)> {
    let mut members = Vec::with_capacity(2);
    if let Some(s) = source {
        members.push(("source".into(), Json::Str(s.into())));
    }
    if let Some(f) = file {
        members.push(("file".into(), Json::Str(f.into())));
    }
    members.push(("engine".into(), Json::Str(wire::engine_name(engine).into())));
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{AnalyzeItem, Request};

    #[test]
    fn analyze_request_round_trips_through_the_parser() {
        let line = analyze_request(Some("int x; void f() { x = 1; }"), None, EngineKind::Stl);
        let parsed = crate::wire::parse_frame(&line).map(|f| f.req).unwrap();
        assert_eq!(
            parsed,
            Request::Analyze(AnalyzeItem {
                source: Some("int x; void f() { x = 1; }".into()),
                file: None,
                engine: EngineKind::Stl,
            })
        );
        let line = analyze_request(None, Some("/tmp/prog.c"), EngineKind::Pht);
        assert!(matches!(
            crate::wire::parse_frame(&line).map(|f| f.req).unwrap(),
            Request::Analyze(AnalyzeItem {
                source: None,
                engine: EngineKind::Pht,
                ..
            })
        ));
    }

    #[test]
    fn request_frames_are_pinned_byte_for_byte() {
        assert_eq!(
            analyze_request(Some("int x;\n"), None, EngineKind::Stl),
            r#"{"cmd":"analyze","source":"int x;\n","engine":"stl"}"#
        );
        assert_eq!(
            analyze_request(None, Some("/tmp/p.c"), EngineKind::Pht),
            r#"{"cmd":"analyze","file":"/tmp/p.c","engine":"pht"}"#
        );
        // A socket pair stands in for the daemon; its far end reads back
        // every byte the connection sends.
        let (near, far) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut conn = Connection {
            writer: Stream::Unix(near.try_clone().unwrap()),
            reader: Stream::Unix(near),
            buf: Vec::new(),
            scanned: 0,
            next_id: 0,
        };
        assert_eq!(conn.send_analyze("int x;", EngineKind::Psf).unwrap(), 1);
        let items = [("int x;", EngineKind::Pht), ("int \"y\";", EngineKind::Stl)];
        assert_eq!(conn.send_batch(&items).unwrap(), 2);
        assert_eq!(conn.send_cmd("shutdown").unwrap(), 3);
        drop(conn);
        let mut sent = String::new();
        (&far).read_to_string(&mut sent).unwrap();
        assert_eq!(
            sent,
            concat!(
                r#"{"cmd":"analyze","id":1,"source":"int x;","engine":"psf"}"#,
                "\n",
                r#"{"cmd":"analyze_batch","id":2,"batch":[{"source":"int x;","engine":"pht"},{"source":"int \"y\";","engine":"stl"}]}"#,
                "\n",
                r#"{"cmd":"shutdown","id":3}"#,
                "\n",
            )
        );
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let ms = |n| backoff_delay(n).as_millis();
        assert_eq!(ms(1), 5);
        assert_eq!(ms(2), 10);
        assert_eq!(ms(3), 20);
        assert_eq!(ms(4), 40);
        assert_eq!(ms(5), 80);
        assert_eq!(ms(8), 500, "capped");
        assert_eq!(ms(100), 500, "stays capped, no overflow");
        // Jitter-free: the same attempt always gets the same delay.
        assert_eq!(backoff_delay(3), backoff_delay(3));
    }
}
