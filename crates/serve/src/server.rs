//! The analysis daemon.
//!
//! A [`Server`] binds a Unix domain socket (and, opted in, a TCP
//! address — same protocol code, see [`crate::conn`]) and serves the
//! wire protocol with a fixed pool of worker threads behind a *bounded*
//! in-flight request queue — a burst beyond the bound is answered with
//! a `busy` error naming the rejected frame's `id` immediately rather
//! than queued without limit (the same "degrade, don't fall over"
//! discipline as the resource governor).
//!
//! Connections are **persistent and multiplexed** (protocol v2): a
//! per-connection reader thread decodes frames and feeds the shared
//! worker pool; workers write each reply through the connection's
//! serialized writer half as soon as it is ready, so replies can
//! overtake each other and are matched by `id`. A per-connection
//! fairness cap bounds how many frames one connection may have in
//! flight — past it the reader simply stops reading (backpressure in
//! the socket buffer), so one pipelining client cannot starve others
//! out of the global queue. A first frame without an `id` is a v1
//! one-shot connection and is served byte-identically to the original
//! protocol: one reply, then close.
//!
//! Worker isolation reuses the PR 1–3 machinery wholesale: each analyze
//! request runs under the configured [`DetectorConfig`] budgets, worker
//! panics degrade the one function, and a configured cache directory
//! routes every request through `lcm-store` so repeat submissions
//! short-circuit the engines entirely. On top of the store, a
//! hot-reply memo replays the rendered reply bytes of fully cache-hit
//! programs, so a warm repeat costs a hash lookup instead of a
//! compile + store probe + render.

use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lcm_core::fault::{site, FaultPlan};
use lcm_core::jsonw::Json;
use lcm_detect::{Detector, DetectorConfig, EngineKind, ModuleReport};
use lcm_store::Store;

use crate::conn::{Listener, Stream};
use crate::wire::{self, AnalyzeItem, BatchOutcome, Request};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path (a stale file at this path is replaced).
    pub socket: PathBuf,
    /// Optional TCP listen address (`host:port`; `host:0` picks a free
    /// port, see [`ServerHandle::tcp_addr`]). The TCP listener serves
    /// the identical protocol through the identical code path, except
    /// that it refuses `analyze {"file": …}`: a remote peer must not
    /// read the daemon's files.
    pub tcp: Option<String>,
    /// Worker threads serving requests. `0` means available cores.
    pub workers: usize,
    /// Requests queued beyond the in-flight workers before new frames
    /// are answered `busy` (naming the rejected `id` on v2).
    pub queue_cap: usize,
    /// Frames one connection may have in flight (queued + executing)
    /// before its reader stops reading further frames — backpressure
    /// that keeps one pipelining client from monopolizing the queue.
    pub fairness_cap: usize,
    /// Per-frame size cap; longer request lines are answered with a
    /// per-frame error (v2) or an error-then-close (v1). A file named by
    /// `analyze {"file": …}` is held to the same cap. Defaults to
    /// [`wire::MAX_FRAME`]; tests shrink it.
    pub max_frame: usize,
    /// Directory holding `results.lcmstore`; `None` disables the cache.
    pub cache_dir: Option<PathBuf>,
    /// Analysis configuration every request runs under.
    pub detector: DetectorConfig,
    /// Armed fault sites (tests). `LCM_FAULT` is merged in as well.
    pub faults: FaultPlan,
    /// Worker *processes* for crash-isolated analysis (`--fleet N`).
    /// `0` (the default) analyzes in-process; `N > 0` routes every
    /// analyze through an `lcm_fleet::Fleet` of `N` supervised
    /// children. Rendered replies are byte-identical either way.
    pub fleet: usize,
    /// Worker command line override for fleet mode. `None` uses the
    /// fleet default (re-execute the current binary). Tests must set
    /// this — their "current binary" is the test harness.
    pub fleet_cmd: Option<Vec<String>>,
    /// Append-only JSONL supervision event log for fleet mode
    /// (`--events-out`): kills, restarts, steals, redeliveries, and
    /// crash forensics records. `None` disables the log.
    pub events_out: Option<PathBuf>,
    /// Install SIGTERM/SIGINT handlers that trigger the same graceful
    /// drain as a `shutdown` request. Off by default (a library user's
    /// process-wide signal dispositions are not ours to change); the
    /// `lcm-cli serve` binary turns it on.
    pub handle_signals: bool,
}

impl ServeConfig {
    /// A default configuration on the given socket path.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            tcp: None,
            workers: 0,
            queue_cap: 32,
            fairness_cap: 16,
            max_frame: wire::MAX_FRAME,
            cache_dir: None,
            detector: DetectorConfig::default(),
            faults: FaultPlan::default(),
            fleet: 0,
            fleet_cmd: None,
            events_out: None,
            handle_signals: false,
        }
    }
}

/// Monotonic counters exposed by `stats` (and used by tests).
#[derive(Debug, Default)]
pub struct Counters {
    /// Connections accepted.
    pub requests: AtomicU64,
    /// Analyze requests that ran (hit or miss; batch items count one
    /// each).
    pub analyses: AtomicU64,
    /// Functions served from the cache.
    pub cache_hits: AtomicU64,
    /// Functions analyzed and stored.
    pub cache_misses: AtomicU64,
    /// Functions degraded across all requests.
    pub degraded: AtomicU64,
    /// Frames refused with `busy` (queue full).
    pub rejected: AtomicU64,
    /// Connections dropped by the `serve.drop_conn` fault.
    pub dropped: AtomicU64,
    /// Frames that failed to parse.
    pub parse_errors: AtomicU64,
    /// v2 frames received (any frame carrying an `id`).
    pub frames: AtomicU64,
    /// Batched analyze frames received.
    pub batches: AtomicU64,
    /// Programs submitted inside batch frames.
    pub batch_items: AtomicU64,
    /// Replies torn mid-write by the `serve.partial_write` fault.
    pub torn_writes: AtomicU64,
    /// Queued requests answered `shutting down` by the shutdown drain.
    pub drained: AtomicU64,
}

/// Registry-backed handles the daemon reports through; the same
/// numbers surface in `{"cmd":"metrics"}` (Prometheus) and the
/// enriched tail of `{"cmd":"stats"}`.
struct ServeMetrics {
    requests: lcm_obs::metrics::Counter,
    /// Analyze requests completed, indexed pht/stl/psf.
    analyses: [lcm_obs::metrics::Counter; 3],
    /// Cumulative cache traffic (shared with `lcm-store`'s counters),
    /// indexed hits/misses/bypassed.
    cache: [lcm_obs::metrics::Counter; 3],
    queue_wait: lcm_obs::metrics::Histogram,
    frames: lcm_obs::metrics::Counter,
    batch_items: lcm_obs::metrics::Counter,
    busy: lcm_obs::metrics::Counter,
    /// Enqueue → reply-written latency of analyze frames.
    request_latency: lcm_obs::metrics::Histogram,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        use lcm_obs::metrics::{global, latency_buckets, names};
        let g = global();
        ServeMetrics {
            requests: g.counter(names::SERVE_REQUESTS, "Daemon connections accepted"),
            analyses: [
                g.counter(
                    names::SERVE_ANALYSES_PHT,
                    "Analyze requests completed with the pht engine",
                ),
                g.counter(
                    names::SERVE_ANALYSES_STL,
                    "Analyze requests completed with the stl engine",
                ),
                g.counter(
                    names::SERVE_ANALYSES_PSF,
                    "Analyze requests completed with the psf engine",
                ),
            ],
            cache: [
                g.counter(names::CACHE_HITS, "Function results served from the store"),
                g.counter(
                    names::CACHE_MISSES,
                    "Function results analyzed and inserted into the store",
                ),
                g.counter(
                    names::CACHE_BYPASS,
                    "Function results that skipped the store (degraded/uncacheable)",
                ),
            ],
            queue_wait: g.histogram(
                names::SERVE_QUEUE_WAIT,
                "Time a queued daemon request waited for a worker",
                latency_buckets(),
            ),
            frames: g.counter(names::SERVE_FRAMES, "v2 protocol frames received"),
            batch_items: g.counter(
                names::SERVE_BATCH_ITEMS,
                "Programs submitted inside batched analyze frames",
            ),
            busy: g.counter(
                names::SERVE_BUSY,
                "Frames shed with a busy reply (queue full)",
            ),
            request_latency: g.histogram(
                names::SERVE_REQUEST_LATENCY,
                "Enqueue-to-reply latency of analyze frames",
                latency_buckets(),
            ),
        }
    }

    fn analyses_for(&self, engine: EngineKind) -> &lcm_obs::metrics::Counter {
        match engine {
            EngineKind::Pht => &self.analyses[0],
            EngineKind::Stl => &self.analyses[1],
            EngineKind::Psf => &self.analyses[2],
        }
    }
}

/// The per-connection state shared between its reader thread and the
/// workers answering its frames.
struct ConnShared {
    /// The writer half. One lock per reply serializes frames; replies
    /// from different workers interleave *between* lines, never inside
    /// one.
    writer: Mutex<Stream>,
    /// Rendered `id`s of this connection's queued/executing frames
    /// (duplicate detection + the fairness cap).
    inflight: Mutex<HashSet<String>>,
    /// Signalled when an in-flight frame completes (fairness-cap wait).
    space: Condvar,
}

impl ConnShared {
    /// Marks `id` no longer in flight and wakes the reader if it is
    /// blocked on the fairness cap.
    fn complete(&self, id: &str) {
        self.inflight.lock().unwrap().remove(id);
        self.space.notify_all();
    }
}

/// What a queued job runs.
enum JobKind {
    One(AnalyzeItem),
    Batch(Vec<AnalyzeItem>),
}

/// One queued request: a decoded analyze (or batch) frame bound to the
/// connection its reply must go to.
struct Job {
    id: Option<Json>,
    kind: JobKind,
    conn: Arc<ConnShared>,
    enqueued: Instant,
}

struct WorkState {
    queue: std::collections::VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    config: ServeConfig,
    detector: Detector,
    store: Option<Store>,
    /// The worker-process fleet (`--fleet N`); `None` analyzes
    /// in-process.
    fleet: Option<lcm_fleet::Fleet>,
    counters: Counters,
    metrics: ServeMetrics,
    work: Mutex<WorkState>,
    ready: Condvar,
    /// Signalled (with the `work` mutex) when the shutdown flag flips;
    /// separate from `ready` so an `enqueue` `notify_one` meant for a
    /// worker can never be consumed by the run loop's shutdown wait.
    stop: Condvar,
    started: Instant,
    faults: FaultPlan,
    /// Global reply ordinal, the index `serve.partial_write` fires on.
    replies: AtomicU64,
    /// Hot-reply memo: rendered v1 reply lines of *fully cache-hit*
    /// runs, keyed by engine and source text. Only a run where every
    /// function came back a store hit (no misses, bypasses, or
    /// degradations) is memoized — re-running such a request against
    /// the append-only store reproduces the identical bytes, so the
    /// replay is indistinguishable from a fresh run and the
    /// daemon-vs-in-process byte-equality pin holds. Bounded by
    /// [`MEMO_CAP`]; counters advance on replay exactly as a re-run
    /// would advance them. Keyed by source text, one slot per engine,
    /// so lookups borrow the incoming source instead of cloning it.
    memo: Mutex<std::collections::HashMap<String, [Option<MemoReply>; 3]>>,
}

/// A memoized hot reply: the rendered v1 line plus the counter deltas
/// replaying it must apply.
struct MemoReply {
    line: Arc<str>,
    /// Function-level cache hits the reply reports (the function
    /// count, since only fully-hit runs are memoized).
    hits: u64,
}

/// Hot-reply memo entries kept before new inserts are skipped (the
/// memo never evicts — eviction would make replay behavior depend on
/// traffic order).
const MEMO_CAP: usize = 1024;

/// The memo slot index of an engine (mirrors `ServeMetrics::analyses`).
fn engine_slot(engine: EngineKind) -> usize {
    match engine {
        EngineKind::Pht => 0,
        EngineKind::Stl => 1,
        EngineKind::Psf => 2,
    }
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.work.lock().unwrap().shutdown
    }

    /// Writes one reply line through the connection's writer half. The
    /// `serve.partial_write` fault tears the frame here: half the bytes
    /// go out, then the connection is shut down — the client sees a
    /// line with no terminating newline and must treat it as a drop.
    fn write_reply(&self, conn: &ConnShared, reply: &str) {
        let ordinal = self.replies.fetch_add(1, Ordering::Relaxed) as usize;
        let mut w = conn.writer.lock().unwrap();
        if self.faults.fires(site::SERVE_PARTIAL_WRITE, ordinal) {
            self.counters.torn_writes.fetch_add(1, Ordering::Relaxed);
            let torn = &reply.as_bytes()[..reply.len() / 2];
            let _ = w.write_all(torn);
            let _ = w.flush();
            w.shutdown();
            return;
        }
        let _ = w.write_all(reply.as_bytes());
        let _ = w.flush();
    }
}

/// A bound (not yet running) server.
pub struct Server {
    listeners: Vec<Listener>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the socket (and the TCP address, when configured) and
    /// opens the cache. An unopenable cache *disables* caching (with a
    /// line on stderr) instead of failing the server: a broken disk
    /// must not take analysis down.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        // Replace a stale socket file from a previous run.
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        let mut listeners = vec![Listener::bind_unix(&config.socket)?];
        if let Some(addr) = &config.tcp {
            listeners.push(Listener::bind_tcp(addr)?);
        }
        let faults = config.faults.merged_with_env();
        let store = match &config.cache_dir {
            None => None,
            Some(dir) => {
                let open = std::fs::create_dir_all(dir).and_then(|()| {
                    Store::open_with_faults(&dir.join("results.lcmstore"), faults.clone())
                });
                match open {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!(
                            "lcm-serve: cache at {} unavailable ({e}); serving uncached",
                            dir.display()
                        );
                        None
                    }
                }
            }
        };
        let detector = Detector::new(config.detector.clone());
        let fleet = (config.fleet > 0).then(|| {
            let mut fc = lcm_fleet::FleetConfig::new(config.fleet);
            if let Some(cmd) = &config.fleet_cmd {
                fc.worker_cmd = cmd.clone();
            }
            fc.events_out = config.events_out.clone();
            lcm_fleet::Fleet::new(fc)
        });
        Ok(Server {
            shared: Arc::new(Shared {
                detector,
                store,
                fleet,
                counters: Counters::default(),
                metrics: ServeMetrics::new(),
                work: Mutex::new(WorkState {
                    queue: std::collections::VecDeque::new(),
                    shutdown: false,
                }),
                ready: Condvar::new(),
                stop: Condvar::new(),
                started: Instant::now(),
                faults,
                replies: AtomicU64::new(0),
                memo: Mutex::new(std::collections::HashMap::new()),
                config,
            }),
            listeners,
        })
    }

    /// The TCP address actually bound, if a `--tcp` listener exists.
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.listeners.iter().find_map(Listener::tcp_addr)
    }

    /// Runs until a `shutdown` request: one blocking accept thread per
    /// listener (no polling — a v1 connection must never pay an idle
    /// tick to be accepted), the worker pool behind the bounded queue.
    /// Shutdown drains queued requests with explicit `shutting down`
    /// replies, wakes the accept threads with a self-connection, joins
    /// everything, and removes the socket file. Per-connection reader
    /// threads exit on their next poll tick.
    pub fn run(self) -> std::io::Result<()> {
        if self.shared.config.handle_signals {
            install_shutdown_signals();
            // The handler only flips an AtomicBool (the one thing that
            // is async-signal-safe); this watcher does the real work,
            // reusing the exact drain + stop-condvar + self-connection
            // wake path a `shutdown` request takes.
            let shared = self.shared.clone();
            std::thread::spawn(move || loop {
                if shared.is_shutdown() {
                    return;
                }
                if SIGNAL_PENDING.swap(false, Ordering::SeqCst) {
                    drain_on_shutdown(&shared);
                    return;
                }
                std::thread::sleep(Duration::from_millis(100));
            });
        }
        let workers = match self.shared.config.workers {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
            n => n,
        };
        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = self.shared.clone();
            pool.push(std::thread::spawn(move || worker_loop(&shared)));
        }

        // The wake addresses, captured before the listeners move.
        let tcp_addr = self.tcp_addr();
        let accepted = Arc::new(AtomicU64::new(0));
        let mut acceptors = Vec::with_capacity(self.listeners.len());
        for listener in self.listeners {
            let shared = self.shared.clone();
            let accepted = accepted.clone();
            acceptors.push(std::thread::spawn(move || {
                accept_loop(&shared, &listener, &accepted)
            }));
        }

        // Sleep until the shutdown flag flips (`drain_on_shutdown`
        // notifies `stop` after setting it).
        {
            let mut work = self.shared.work.lock().unwrap();
            while !work.shutdown {
                work = self.shared.stop.wait(work).unwrap();
            }
        }
        // Unblock each accept thread with a throwaway connection; it
        // re-checks the flag before serving what it accepted.
        let _ = Stream::connect_unix(&self.shared.config.socket);
        if let Some(addr) = tcp_addr {
            let _ = Stream::connect_tcp(&addr.to_string());
        }
        let mut result = Ok(());
        for t in acceptors {
            match t.join() {
                Ok(Err(e)) if result.is_ok() => result = Err(e),
                Ok(_) => {}
                Err(_) if result.is_ok() => {
                    result = Err(std::io::Error::other("accept thread panicked"))
                }
                Err(_) => {}
            }
        }
        // Wake every worker so they observe the shutdown flag.
        self.shared.ready.notify_all();
        for t in pool {
            let _ = t.join();
        }
        // In-flight requests are done: reap the worker fleet.
        if let Some(fleet) = &self.shared.fleet {
            fleet.shutdown();
        }
        std::fs::remove_file(&self.shared.config.socket).ok();
        result
    }

    /// Binds and runs on a background thread (tests / embedding).
    /// Returns once the sockets are accepting.
    pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(config)?;
        let socket = server.shared.config.socket.clone();
        let tcp_addr = server.tcp_addr();
        let shared = server.shared.clone();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle {
            socket,
            tcp_addr,
            shared,
            thread,
        })
    }
}

/// Handle to a background server.
pub struct ServerHandle {
    socket: PathBuf,
    tcp_addr: Option<std::net::SocketAddr>,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The socket the server listens on.
    pub fn socket(&self) -> &PathBuf {
        &self.socket
    }

    /// The TCP address the server listens on, when configured.
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp_addr
    }

    /// Counter snapshot: `(requests, analyses, cache_hits, dropped)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        let c = &self.shared.counters;
        (
            c.requests.load(Ordering::Relaxed),
            c.analyses.load(Ordering::Relaxed),
            c.cache_hits.load(Ordering::Relaxed),
            c.dropped.load(Ordering::Relaxed),
        )
    }

    /// Counter snapshot of the v2 paths:
    /// `(frames, batches, rejected, torn_writes, drained)`.
    pub fn snapshot_v2(&self) -> (u64, u64, u64, u64, u64) {
        let c = &self.shared.counters;
        (
            c.frames.load(Ordering::Relaxed),
            c.batches.load(Ordering::Relaxed),
            c.rejected.load(Ordering::Relaxed),
            c.torn_writes.load(Ordering::Relaxed),
            c.drained.load(Ordering::Relaxed),
        )
    }

    /// Waits for the server to exit (after a `shutdown` request).
    pub fn join(self) -> std::io::Result<()> {
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

/// One listener's blocking accept loop. Exits when the shutdown flag is
/// up (the run loop sends a throwaway wake connection to get a blocked
/// accept past `accept()`). `accepted` is the global connection
/// ordinal, the index `serve.drop_conn` fires on.
fn accept_loop(
    shared: &Arc<Shared>,
    listener: &Listener,
    accepted: &AtomicU64,
) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok(conn) => {
                if shared.is_shutdown() {
                    // The wake connection (or a client racing the
                    // shutdown): close it unserved.
                    drop(conn);
                    return Ok(());
                }
                let ordinal = accepted.fetch_add(1, Ordering::Relaxed) as usize;
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                shared.metrics.requests.inc();
                if shared.faults.fires(site::SERVE_DROP_CONN, ordinal) {
                    // Injected connection loss: close without a byte of
                    // reply. Clients retry with backoff.
                    shared.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    drop(conn);
                    continue;
                }
                let shared = shared.clone();
                // Reader threads are detached: they exit on EOF or on
                // their next shutdown-poll tick, and hold only Arcs.
                std::thread::spawn(move || conn_loop(&shared, conn));
            }
            Err(_) if shared.is_shutdown() => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// How often blocked reads / fairness waits re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(200);

/// What the frame reader produced.
enum FrameRead {
    /// One complete line (without the newline).
    Line(String),
    /// Clean end of stream (or an unrecoverable read error).
    Eof,
    /// A frame exceeded the configured `max_frame`; its bytes were discarded
    /// up to the next newline and the connection is still usable.
    Oversized,
    /// The server is shutting down.
    Shutdown,
}

/// Buffered line reader over the connection's read half with the
/// per-frame size cap and shutdown polling folded in.
struct FrameReader {
    stream: Stream,
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for a newline, so a frame
    /// spanning many reads (a large batch) is scanned once overall.
    scanned: usize,
}

impl FrameReader {
    fn new(stream: Stream) -> FrameReader {
        let _ = stream.set_read_timeout(Some(POLL));
        FrameReader {
            stream,
            buf: Vec::with_capacity(256),
            scanned: 0,
        }
    }

    fn next(&mut self, shared: &Shared) -> FrameRead {
        use std::io::Read;
        let mut oversized = false;
        let mut chunk = [0u8; 65536];
        loop {
            if let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(self.scanned + nl + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                self.scanned = 0;
                // A whole frame can arrive in one read, before the size
                // check below ever sees it.
                if oversized || line.len() > shared.config.max_frame {
                    return FrameRead::Oversized;
                }
                return FrameRead::Line(String::from_utf8_lossy(&line).into_owned());
            }
            self.scanned = self.buf.len();
            if self.buf.len() > shared.config.max_frame {
                // Discard until the newline arrives; the frame itself
                // is already lost, but the connection survives.
                oversized = true;
                self.buf.clear();
                self.scanned = 0;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Trailing bytes without a newline still form the
                    // final frame (lenient, like read-to-EOF v1).
                    if self.buf.is_empty() || oversized {
                        return if oversized {
                            FrameRead::Oversized
                        } else {
                            FrameRead::Eof
                        };
                    }
                    let line = std::mem::take(&mut self.buf);
                    self.scanned = 0;
                    return FrameRead::Line(String::from_utf8_lossy(&line).into_owned());
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shared.is_shutdown() {
                        return FrameRead::Shutdown;
                    }
                }
                Err(_) => return FrameRead::Eof,
            }
        }
    }
}

/// Per-connection reader: decodes frames and routes them. The first
/// frame fixes the protocol version — no `id` means v1 (one reply,
/// close), an `id` means v2 (persistent, multiplexed).
fn conn_loop(shared: &Arc<Shared>, stream: Stream) {
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(ConnShared {
        writer: Mutex::new(writer),
        inflight: Mutex::new(HashSet::new()),
        space: Condvar::new(),
    });
    let tcp = matches!(stream, Stream::Tcp(_));
    let mut reader = FrameReader::new(stream);
    let mut v2 = false;
    loop {
        let line = match reader.next(shared) {
            FrameRead::Line(l) => l,
            FrameRead::Eof => return,
            FrameRead::Shutdown => return,
            FrameRead::Oversized => {
                shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                shared.write_reply(
                    &conn,
                    &wire::error_reply(&format!(
                        "frame too large (max {} bytes)",
                        shared.config.max_frame
                    )),
                );
                if v2 {
                    continue;
                }
                return;
            }
        };
        let frame = match wire::parse_frame(&line) {
            Ok(f) => f,
            Err(e) => {
                shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                shared.write_reply(&conn, &wire::error_reply_id(e.id.as_ref(), &e.message));
                if v2 {
                    continue; // per-frame error; the connection survives
                }
                return; // v1: one reply, close
            }
        };
        if !v2 && frame.id.is_some() {
            v2 = true;
        }
        if v2 {
            shared.counters.frames.fetch_add(1, Ordering::Relaxed);
            shared.metrics.frames.inc();
            if frame.id.is_none() {
                // An interleaved v1 one-shot line on a v2 connection:
                // per-frame error, never a connection kill.
                shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                shared.write_reply(
                    &conn,
                    &wire::error_reply("v2 connection requires `id` on every frame"),
                );
                continue;
            }
        }
        if tcp && frame.req.reads_file() {
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            shared.write_reply(
                &conn,
                &wire::error_reply_id(
                    frame.id.as_ref(),
                    "`file` is only accepted on the Unix socket; send `source` over TCP",
                ),
            );
            if v2 {
                continue;
            }
            return;
        }
        let done = route_frame(shared, &conn, frame.id, frame.req, v2);
        if done || !v2 {
            return;
        }
    }
}

/// Handles one decoded frame: control requests inline, analyze work
/// through the bounded queue. Returns `true` when the connection is
/// finished (v1 one-shot served, or shutdown).
fn route_frame(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    id: Option<Json>,
    req: Request,
    v2: bool,
) -> bool {
    let mut span = lcm_obs::span("serve_request", "serve");
    span.arg_str(
        "cmd",
        match &req {
            Request::Status => "status",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
            Request::Analyze { .. } => "analyze",
            Request::AnalyzeBatch(_) => "analyze_batch",
        },
    );
    if let Request::Analyze { engine, .. } = &req {
        span.arg_str("engine", engine.label());
    }
    match req {
        Request::Status => {
            shared.write_reply(conn, &with_id(id.as_ref(), status_members(shared)));
            !v2
        }
        Request::Stats => {
            shared.write_reply(conn, &with_id(id.as_ref(), stats_members(shared)));
            !v2
        }
        Request::Metrics => {
            let text = lcm_obs::metrics::global().render_prometheus();
            match &id {
                // v1: raw multi-line Prometheus text (the documented
                // exception); v2: the same text inside a JSON frame so
                // multiplexed framing survives.
                None => shared.write_reply(conn, &text),
                Some(id) => shared.write_reply(conn, &wire::metrics_reply_id(id, &text)),
            }
            !v2
        }
        Request::Shutdown => {
            drain_on_shutdown(shared);
            let members = vec![
                ("ok".to_string(), Json::Bool(true)),
                ("shutting_down".to_string(), Json::Bool(true)),
            ];
            shared.write_reply(conn, &with_id(id.as_ref(), members));
            true
        }
        Request::Analyze {
            source,
            file,
            engine,
        } => {
            // Reader-thread fast path: a memoized hot reply is written
            // straight from the reader — no queue slot consumed, no
            // worker handoff. Skipped during shutdown so `enqueue`
            // still owns the `shutting down` reply.
            if let Some(src) = source.as_deref() {
                if !shared.is_shutdown() {
                    if let Some(line) = memo_replay(shared, engine, src) {
                        let t0 = Instant::now();
                        shared.write_reply(conn, &wire::prepend_id(id.as_ref(), &line));
                        shared.metrics.request_latency.observe(t0.elapsed());
                        return !v2;
                    }
                }
            }
            enqueue(
                shared,
                conn,
                id,
                JobKind::One(AnalyzeItem {
                    source,
                    file,
                    engine,
                }),
            )
        }
        Request::AnalyzeBatch(items) => {
            shared.counters.batches.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .batch_items
                .fetch_add(items.len() as u64, Ordering::Relaxed);
            shared.metrics.batch_items.add(items.len() as u64);
            // Same fast path for a fully-memoized batch: one lock
            // probe answers the whole frame from the reader.
            if !shared.is_shutdown() {
                if let Some(outcomes) = memo_replay_batch(shared, &items) {
                    let t0 = Instant::now();
                    shared.write_reply(conn, &wire::batch_reply(id.as_ref(), &outcomes));
                    shared.metrics.request_latency.observe(t0.elapsed());
                    return !v2;
                }
            }
            enqueue(shared, conn, id, JobKind::Batch(items))
        }
    }
}

/// Queues one analyze job, applying the per-connection fairness cap
/// (block the reader — backpressure) and the global queue bound (shed
/// with a `busy` reply naming the `id`). Returns `true` when the
/// connection is done (v1 one-shot: reply will close it).
fn enqueue(shared: &Arc<Shared>, conn: &Arc<ConnShared>, id: Option<Json>, kind: JobKind) -> bool {
    let v1 = id.is_none();
    let rendered = id.as_ref().map(Json::render);
    if let Some(key) = &rendered {
        // Fairness cap: wait (with shutdown polling) for this
        // connection's in-flight count to drop below the cap.
        let cap = shared.config.fairness_cap.max(1);
        let mut inflight = conn.inflight.lock().unwrap();
        while inflight.len() >= cap {
            if shared.is_shutdown() {
                drop(inflight);
                shared.write_reply(conn, &wire::error_reply_id(id.as_ref(), "shutting down"));
                return true;
            }
            let (guard, _) = conn.space.wait_timeout(inflight, POLL).unwrap();
            inflight = guard;
        }
        if !inflight.insert(key.clone()) {
            drop(inflight);
            shared.counters.parse_errors.fetch_add(1, Ordering::Relaxed);
            shared.write_reply(
                conn,
                &wire::error_reply_id(id.as_ref(), "duplicate in-flight `id`"),
            );
            return false;
        }
    }
    let job = Job {
        id,
        kind,
        conn: conn.clone(),
        enqueued: Instant::now(),
    };
    let mut work = shared.work.lock().unwrap();
    if work.shutdown {
        drop(work);
        if let Some(key) = &rendered {
            conn.complete(key);
        }
        shared.write_reply(
            conn,
            &wire::error_reply_id(job.id.as_ref(), "shutting down"),
        );
        return true;
    }
    if work.queue.len() >= shared.config.queue_cap.max(1) {
        drop(work);
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        shared.metrics.busy.inc();
        if let Some(key) = &rendered {
            conn.complete(key);
        }
        shared.write_reply(
            conn,
            &wire::error_reply_id(job.id.as_ref(), "busy: queue full"),
        );
        return v1;
    }
    work.queue.push_back(job);
    drop(work);
    shared.ready.notify_one();
    v1
}

/// Set by the SIGTERM/SIGINT handler, consumed by the watcher thread
/// [`Server::run`] spawns under [`ServeConfig::handle_signals`].
static SIGNAL_PENDING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The handler body: store one flag. Nothing else is async-signal-safe
/// (no locks, no allocation, no I/O).
extern "C" fn on_shutdown_signal(_sig: i32) {
    SIGNAL_PENDING.store(true, Ordering::SeqCst);
}

/// Registers `on_shutdown_signal` for SIGTERM and SIGINT through the
/// raw libc `signal` symbol (std links libc; the workspace carries no
/// libc crate).
fn install_shutdown_signals() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_shutdown_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Flips the shutdown flag and drains every queued job with an explicit
/// `shutting down` reply — queued clients get an answer, never a silent
/// close. Workers finish their executing job, then exit.
fn drain_on_shutdown(shared: &Shared) {
    let stolen: Vec<Job> = {
        let mut work = shared.work.lock().unwrap();
        work.shutdown = true;
        work.queue.drain(..).collect()
    };
    shared.ready.notify_all();
    shared.stop.notify_all();
    for job in stolen {
        shared.counters.drained.fetch_add(1, Ordering::Relaxed);
        shared.write_reply(
            &job.conn,
            &wire::error_reply_id(job.id.as_ref(), "shutting down"),
        );
        if let Some(id) = &job.id {
            job.conn.complete(&id.render());
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut work = shared.work.lock().unwrap();
            loop {
                if let Some(j) = work.queue.pop_front() {
                    break j;
                }
                if work.shutdown {
                    return;
                }
                work = shared.ready.wait(work).unwrap();
            }
        };
        shared.metrics.queue_wait.observe(job.enqueued.elapsed());
        let reply = match &job.kind {
            JobKind::One(item) => match analyze_rendered(shared, item) {
                Ok(line) => wire::prepend_id(job.id.as_ref(), &line),
                Err(e) => wire::error_reply_id(job.id.as_ref(), &e),
            },
            JobKind::Batch(items) => {
                let outcomes: Vec<BatchOutcome> = items
                    .iter()
                    .map(|item| match analyze_rendered(shared, item) {
                        Ok(line) => BatchOutcome::Rendered(line),
                        Err(e) => BatchOutcome::Failed(e),
                    })
                    .collect();
                wire::batch_reply(job.id.as_ref(), &outcomes)
            }
        };
        shared.write_reply(&job.conn, &reply);
        shared
            .metrics
            .request_latency
            .observe(job.enqueued.elapsed());
        if let Some(id) = &job.id {
            job.conn.complete(&id.render());
        }
    }
}

/// Reads the file an `analyze` request names, refusing one longer than
/// `max` bytes: a file source gets the frame cap an inline one has.
fn read_source(path: &str, max: usize) -> Result<String, String> {
    use std::io::Read;
    let mut source = String::new();
    let read =
        std::fs::File::open(path).and_then(|f| f.take(max as u64 + 1).read_to_string(&mut source));
    match read {
        Ok(n) if n > max => Err(format!("`{path}` is larger than {max} bytes")),
        Ok(_) => Ok(source),
        Err(e) => Err(format!("cannot read `{path}`: {e}")),
    }
}

/// Runs one analyze item (compile → cache-or-engines) and returns the
/// rendered v1 reply line, or the error string destined for the reply.
///
/// Repeat submissions of a fully cache-hit program short-circuit
/// through the hot-reply memo: the memoized bytes are exactly what a
/// re-run would render (every function hits the append-only store
/// again), so only the counters need to advance — compile, store
/// probing, and reply rendering all drop out of the warm path.
fn analyze_rendered(shared: &Shared, item: &AnalyzeItem) -> Result<Arc<str>, String> {
    let source = match (&item.source, &item.file) {
        (Some(s), _) => s.clone(),
        (None, Some(path)) => read_source(path, shared.config.max_frame)?,
        (None, None) => return Err("analyze needs `source` or `file`".into()),
    };
    if let Some(line) = memo_replay(shared, item.engine, &source) {
        return Ok(line);
    }
    let engine = item.engine;
    let module = lcm_minic::compile(&source).map_err(|e| format!("compile error: {e}"))?;
    shared.counters.analyses.fetch_add(1, Ordering::Relaxed);
    shared.metrics.analyses_for(engine).inc();
    let report: ModuleReport = match (&shared.fleet, &shared.store) {
        // Fleet mode: crash-isolated worker processes, same cache
        // discipline, byte-identical rendered reply.
        (Some(fleet), store) => fleet.analyze_module(
            &source,
            &module,
            engine,
            shared.detector.config(),
            store.as_ref(),
        ),
        (None, Some(store)) => {
            lcm_store::analyze_module_cached(&shared.detector, &module, engine, store)
        }
        (None, None) => shared.detector.analyze_module(&module, engine),
    };
    let counts = lcm_store::CacheCounts::of(&report);
    shared
        .counters
        .cache_hits
        .fetch_add(counts.hits, Ordering::Relaxed);
    shared
        .counters
        .cache_misses
        .fetch_add(counts.misses, Ordering::Relaxed);
    shared
        .counters
        .degraded
        .fetch_add(report.degraded_count() as u64, Ordering::Relaxed);
    let line: Arc<str> = wire::analyze_reply(&report, engine).into();
    let fully_hit = shared.store.is_some()
        && !report.functions.is_empty()
        && counts.hits == report.functions.len() as u64
        && counts.misses == 0
        && counts.bypassed == 0
        && report.degraded_count() == 0;
    if fully_hit {
        let mut memo = shared.memo.lock().unwrap();
        if memo.len() < MEMO_CAP {
            memo.entry(source).or_default()[engine_slot(engine)] = Some(MemoReply {
                line: line.clone(),
                hits: counts.hits,
            });
        }
    }
    Ok(line)
}

/// Consults the hot-reply memo for `source`, advancing the counters
/// exactly as the fresh all-hit run the replay stands in for would:
/// one analysis, every function a cache hit (both the daemon counter
/// and the store-shared traffic metric).
fn memo_replay(shared: &Shared, engine: EngineKind, source: &str) -> Option<Arc<str>> {
    let (line, hits) = {
        let memo = shared.memo.lock().unwrap();
        let hit = memo.get(source)?[engine_slot(engine)].as_ref()?;
        (hit.line.clone(), hit.hits)
    };
    shared.counters.analyses.fetch_add(1, Ordering::Relaxed);
    shared.metrics.analyses_for(engine).inc();
    shared
        .counters
        .cache_hits
        .fetch_add(hits, Ordering::Relaxed);
    shared.metrics.cache[0].add(hits);
    Some(line)
}

/// The batch fast path: every item answered from the memo in one
/// lock acquisition, or `None` (any miss falls back to the queue).
fn memo_replay_batch(shared: &Shared, items: &[AnalyzeItem]) -> Option<Vec<BatchOutcome>> {
    let mut outcomes = Vec::with_capacity(items.len());
    let mut hits_total = 0u64;
    {
        let memo = shared.memo.lock().unwrap();
        for item in items {
            let hit = memo.get(item.source.as_deref()?)?[engine_slot(item.engine)].as_ref()?;
            hits_total += hit.hits;
            outcomes.push(BatchOutcome::Rendered(hit.line.clone()));
        }
    }
    shared
        .counters
        .analyses
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    for item in items {
        shared.metrics.analyses_for(item.engine).inc();
    }
    shared
        .counters
        .cache_hits
        .fetch_add(hits_total, Ordering::Relaxed);
    shared.metrics.cache[0].add(hits_total);
    Some(outcomes)
}

/// Renders an object reply, prepending the frame's `id` when present
/// (absent: byte-identical to the v1 reply).
fn with_id(id: Option<&Json>, mut members: Vec<(String, Json)>) -> String {
    if let Some(id) = id {
        members.insert(0, ("id".to_string(), id.clone()));
    }
    let mut line = Json::Obj(members).render();
    line.push('\n');
    line
}

fn status_members(shared: &Shared) -> Vec<(String, Json)> {
    let queue_len = shared.work.lock().unwrap().queue.len();
    vec![
        ("ok".into(), Json::Bool(true)),
        (
            "uptime_secs".into(),
            Json::Num(shared.started.elapsed().as_secs_f64()),
        ),
        ("queue_len".into(), Json::Num(queue_len as f64)),
        (
            "cache".into(),
            Json::Str(if shared.store.is_some() {
                "enabled".into()
            } else {
                "disabled".into()
            }),
        ),
    ]
}

fn stats_members(shared: &Shared) -> Vec<(String, Json)> {
    let c = &shared.counters;
    let n = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
    let mut members = vec![
        ("ok".into(), Json::Bool(true)),
        ("requests".into(), n(&c.requests)),
        ("analyses".into(), n(&c.analyses)),
        ("cache_hits".into(), n(&c.cache_hits)),
        ("cache_misses".into(), n(&c.cache_misses)),
        ("degraded".into(), n(&c.degraded)),
        ("rejected".into(), n(&c.rejected)),
        ("dropped".into(), n(&c.dropped)),
        ("parse_errors".into(), n(&c.parse_errors)),
    ];
    if let Some(store) = &shared.store {
        let s = store.stats();
        members.push(("store_entries".into(), Json::Num(store.len() as f64)));
        members.push((
            "store_recovered_drop".into(),
            Json::Num(s.recovered_drop as f64),
        ));
    }
    // Enrichment (PR 5): appended after every pre-existing field so old
    // clients' replies stay byte-stable up to here.
    let m = &shared.metrics;
    members.push((
        "uptime_secs".into(),
        Json::Num(shared.started.elapsed().as_secs_f64()),
    ));
    members.push(("analyses_pht".into(), Json::Num(m.analyses[0].get() as f64)));
    members.push(("analyses_stl".into(), Json::Num(m.analyses[1].get() as f64)));
    members.push(("analyses_psf".into(), Json::Num(m.analyses[2].get() as f64)));
    members.push((
        "cache_traffic_hits".into(),
        Json::Num(m.cache[0].get() as f64),
    ));
    members.push((
        "cache_traffic_misses".into(),
        Json::Num(m.cache[1].get() as f64),
    ));
    members.push((
        "cache_traffic_bypassed".into(),
        Json::Num(m.cache[2].get() as f64),
    ));
    // Enrichment (PR 7, protocol v2): same append-only discipline.
    members.push(("frames".into(), n(&c.frames)));
    members.push(("batches".into(), n(&c.batches)));
    members.push(("batch_items".into(), n(&c.batch_items)));
    members.push(("torn_writes".into(), n(&c.torn_writes)));
    members.push(("drained".into(), n(&c.drained)));
    // Enrichment (fleet observability): per-worker-slot health,
    // appended strictly after every pre-existing field — non-fleet
    // daemons' replies stay byte-stable up to `drained`.
    if let Some(fleet) = &shared.fleet {
        members.push(("fleet_workers".into(), Json::Num(fleet.workers() as f64)));
        let slots = fleet
            .health()
            .into_iter()
            .map(|h| {
                Json::Obj(vec![
                    ("slot".into(), Json::Num(h.slot as f64)),
                    ("pid".into(), Json::Num(f64::from(h.pid))),
                    ("incarnation".into(), Json::Num(h.incarnation as f64)),
                    ("restarts".into(), Json::Num(h.restarts as f64)),
                    ("steals".into(), Json::Num(h.steals as f64)),
                    ("kills".into(), Json::Num(h.kills as f64)),
                    ("redeliveries".into(), Json::Num(h.redeliveries as f64)),
                    ("tasks".into(), Json::Num(h.tasks as f64)),
                    ("queue_depth".into(), Json::Num(h.queue_depth as f64)),
                    ("retired".into(), Json::Bool(h.retired)),
                    ("busy".into(), Json::Bool(h.busy)),
                    (
                        "last_phase".into(),
                        h.last_phase.map_or(Json::Null, Json::Str),
                    ),
                ])
            })
            .collect();
        members.push(("fleet_slots".into(), Json::Arr(slots)));
    }
    members
}
