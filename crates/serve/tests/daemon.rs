//! End-to-end daemon tests: spawn a real server on a temp socket, talk
//! to it with the real client.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use lcm_core::fault::{site, FaultPlan};
use lcm_core::jsonw::Json;
use lcm_detect::EngineKind;
use lcm_serve::{Client, ClientError, ServeConfig, Server};

/// A fresh socket path under the system temp dir (Unix socket paths
/// have a ~100-byte limit, so keep it short).
fn temp_socket(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lcm-{}-{tag}-{n}.sock", std::process::id()))
}

const VICTIM: &str = r#"
    int A[16]; int B[4096]; int size; int tmp;
    void victim(int y) { if (y < size) tmp &= B[A[y] * 512]; }
"#;

#[test]
fn round_trip_status_analyze_stats_shutdown() {
    let socket = temp_socket("rt");
    let handle = Server::spawn(ServeConfig::new(&socket)).unwrap();
    let client = Client::new(&socket);

    let status = client.status().unwrap();
    assert_eq!(status.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(status.get("cache").unwrap().as_str(), Some("disabled"));

    let reply = client.analyze_source(VICTIM, EngineKind::Pht).unwrap();
    let functions = reply.get("functions").unwrap().as_arr().unwrap();
    assert_eq!(functions.len(), 1);
    assert_eq!(functions[0].get("name").unwrap().as_str(), Some("victim"));
    assert_eq!(
        functions[0].get("status").unwrap().as_str(),
        Some("completed")
    );
    // No cache configured: every function is a bypass.
    assert_eq!(functions[0].get("cache").unwrap().as_str(), Some("bypass"));
    assert!(!functions[0]
        .get("findings")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());

    let stats = client.stats().unwrap();
    assert_eq!(stats.get("analyses").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("cache_hits").unwrap().as_u64(), Some(0));

    client.shutdown().unwrap();
    handle.join().unwrap();
    assert!(!socket.exists(), "socket file removed on shutdown");
}

#[test]
fn cache_dir_short_circuits_repeat_submissions() {
    let socket = temp_socket("cache");
    let cache_dir = std::env::temp_dir().join(format!(
        "lcm-serve-cache-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut config = ServeConfig::new(&socket);
    config.cache_dir = Some(cache_dir.clone());
    let handle = Server::spawn(config).unwrap();
    let client = Client::new(&socket);

    let cold = client.analyze_source(VICTIM, EngineKind::Pht).unwrap();
    let warm = client.analyze_source(VICTIM, EngineKind::Pht).unwrap();
    assert_eq!(cold.get("cache_hits").unwrap().as_u64(), Some(0));
    assert_eq!(warm.get("cache_hits").unwrap().as_u64(), Some(1));
    let label = |r: &Json| {
        r.get("functions").unwrap().as_arr().unwrap()[0]
            .get("cache")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(label(&cold), "miss");
    assert_eq!(label(&warm), "hit");
    // Findings identical across the hit/miss boundary.
    assert_eq!(
        cold.get("functions").unwrap().as_arr().unwrap()[0].get("findings"),
        warm.get("functions").unwrap().as_arr().unwrap()[0].get("findings"),
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn dropped_connection_is_retried_once_and_succeeds() {
    let socket = temp_socket("drop");
    let mut config = ServeConfig::new(&socket);
    // Drop the first accepted connection without a reply byte.
    config.faults = FaultPlan::default().arm(site::SERVE_DROP_CONN, Some(0));
    let handle = Server::spawn(config).unwrap();

    let client = Client::new(&socket);
    let status = client.status().unwrap();
    assert_eq!(status.get("ok").unwrap().as_bool(), Some(true));
    let (requests, _, _, dropped) = handle.snapshot();
    assert_eq!(dropped, 1, "first connection was dropped by the fault");
    assert!(requests >= 2, "the retry produced a second connection");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn dropped_connection_without_retries_surfaces_as_error() {
    let socket = temp_socket("drop0");
    let mut config = ServeConfig::new(&socket);
    config.faults = FaultPlan::default().arm(site::SERVE_DROP_CONN, Some(0));
    let handle = Server::spawn(config).unwrap();

    let client = Client::new(&socket).retries(0);
    match client.status() {
        Err(ClientError::Dropped { attempts }) => assert_eq!(attempts, 1),
        other => panic!("expected Dropped, got {other:?}"),
    }
    // A fresh request (connection ordinal 1) is served normally.
    client.status().unwrap();

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn malformed_requests_get_error_replies_not_hangs() {
    let socket = temp_socket("bad");
    let handle = Server::spawn(ServeConfig::new(&socket)).unwrap();
    let client = Client::new(&socket);

    match client.request(r#"{"cmd":"frobnicate"}"#) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("unknown cmd"), "{msg}"),
        other => panic!("expected Server error, got {other:?}"),
    }
    match client.request(r#"{"cmd":"analyze","source":"int x = ;"}"#) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("compile error"), "{msg}"),
        other => panic!("expected compile error, got {other:?}"),
    }
    // The daemon survives garbage and still serves.
    client.status().unwrap();

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A program nested past the front end's depth cap gets an error reply
/// from a worker on the default 2 MiB stack, and the daemon keeps
/// serving.
#[test]
fn deeply_nested_source_is_an_error_reply() {
    let socket = temp_socket("deep");
    let handle = Server::spawn(ServeConfig::new(&socket)).unwrap();
    let client = Client::new(&socket);

    let deep = format!(
        "int t; void f(int y) {{ t = {}y{}; }}",
        "(".repeat(1000),
        ")".repeat(1000)
    );
    match client.analyze_source(&deep, EngineKind::Pht) {
        Err(ClientError::Server(msg)) => {
            assert!(
                msg.contains("compile error") && msg.contains("deeper than"),
                "{msg}"
            )
        }
        other => panic!("expected a compile error, got {other:?}"),
    }
    let reply = client.analyze_source(VICTIM, EngineKind::Pht).unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A file the daemon reads is held to the frame cap, as inline source
/// is: one byte over is refused before it reaches the compiler.
#[test]
fn file_sources_are_held_to_the_frame_cap() {
    let socket = temp_socket("fcap");
    let mut config = ServeConfig::new(&socket);
    config.max_frame = 1024;
    let handle = Server::spawn(config).unwrap();
    let client = Client::new(&socket);
    let path = std::env::temp_dir().join(format!("lcm-{}-fcap.c", std::process::id()));
    let file = path.display().to_string();

    // Exactly at the cap: a program padded with a comment.
    let at_cap = format!("{VICTIM}//{}", "x".repeat(1022 - VICTIM.len()));
    assert_eq!(at_cap.len(), 1024);
    std::fs::write(&path, &at_cap).unwrap();
    let reply = client.analyze_file(&file, EngineKind::Pht).unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

    std::fs::write(&path, "x".repeat(1025)).unwrap();
    match client.analyze_file(&file, EngineKind::Pht) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("larger than 1024 bytes"), "{msg}"),
        other => panic!("expected a size error, got {other:?}"),
    }

    std::fs::remove_file(&path).ok();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// Protocol v2: persistent multiplexed connections.
// ---------------------------------------------------------------------------

/// Two distinguishable programs (different function names) so replies
/// matched by id can also be checked by payload.
fn victim_source(i: usize) -> String {
    format!(
        "int A[16]; int B[4096]; int size; int tmp;
         void victim_{i}(int y) {{ if (y < size) tmp &= B[A[y] * 512]; }}"
    )
}

#[test]
fn v2_pipelined_replies_match_by_id_at_depth_8() {
    let socket = temp_socket("v2p");
    let handle = Server::spawn(ServeConfig::new(&socket)).unwrap();
    let client = Client::new(&socket);
    let mut conn = client.connect().unwrap();

    // Pipeline 8 analyze frames without reading a single reply.
    let sources: Vec<String> = (0..8).map(victim_source).collect();
    let mut expect = std::collections::HashMap::new();
    for src in &sources {
        let id = conn.send_analyze(src, EngineKind::Pht).unwrap();
        let name = src.split("void ").nth(1).unwrap();
        let name = name.split('(').next().unwrap().to_string();
        expect.insert(id, name);
    }
    // Drain all 8; ids decide which answer is which, not arrival order.
    for _ in 0..8 {
        let (id, reply) = conn.recv().unwrap();
        let name = expect.remove(&id).expect("unknown or duplicate reply id");
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        let functions = reply.get("functions").unwrap().as_arr().unwrap();
        assert_eq!(functions[0].get("name").unwrap().as_str(), Some(&*name));
    }
    assert!(expect.is_empty());
    let (frames, ..) = handle.snapshot_v2();
    assert_eq!(frames, 8);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn v2_batch_aggregates_one_reply_per_item_in_order() {
    let socket = temp_socket("v2b");
    let handle = Server::spawn(ServeConfig::new(&socket)).unwrap();
    let client = Client::new(&socket);
    let mut conn = client.connect().unwrap();

    let s0 = victim_source(0);
    let s1 = victim_source(1);
    let id = conn
        .send_batch(&[
            (&s0, EngineKind::Pht),
            (&s1, EngineKind::Stl),
            ("int x = ;", EngineKind::Pht), // compile error: per-item failure
        ])
        .unwrap();
    let (rid, reply) = conn.recv().unwrap();
    assert_eq!(rid, id);
    // One failed item: aggregated ok is false, the others still carry
    // their full results.
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(reply.get("failed").unwrap().as_u64(), Some(1));
    let results = reply.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(results[0].get("engine").unwrap().as_str(), Some("pht"));
    assert_eq!(results[1].get("engine").unwrap().as_str(), Some("stl"));
    assert_eq!(results[2].get("ok").unwrap().as_bool(), Some(false));
    assert!(results[2]
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("compile error"));
    // Batch elements render exactly as their one-shot replies: same
    // program, same engine, one connection each.
    let oneshot = client.analyze_source(&s0, EngineKind::Pht).unwrap();
    assert_eq!(
        results[0].get("functions").unwrap().render(),
        oneshot.get("functions").unwrap().render()
    );
    let (_, batches, ..) = handle.snapshot_v2();
    assert_eq!(batches, 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn v2_decoder_survives_malformed_frames() {
    let Some(fifo) = make_fifo("v2m") else {
        eprintln!("mkfifo unavailable; skipping");
        return;
    };
    let socket = temp_socket("v2m");
    let mut config = ServeConfig::new(&socket);
    config.max_frame = 1024; // so the oversized case is cheap to hit
    let handle = Server::spawn(config).unwrap();
    let client = Client::new(&socket);
    let mut conn = client.connect().unwrap();

    // Establish v2 with a good frame.
    let good = conn
        .send_analyze(&victim_source(0), EngineKind::Pht)
        .unwrap();
    let (id, reply) = conn.recv().unwrap();
    assert_eq!(id, good);
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

    // 1. Interleaved v1 one-shot line (no id) on a v2 connection.
    conn.send_line(r#"{"cmd":"status"}"#).unwrap();
    // 2. Duplicate in-flight id: park a first id-77 frame on the FIFO
    //    (the rendezvous guarantees it is still in flight), then send a
    //    second frame reusing its id.
    let mut fifo_w = Some(park_worker_on_fifo(&mut conn, &fifo, 77));
    conn.send_line(r#"{"cmd":"analyze","id":77,"source":"int x;"}"#)
        .unwrap();
    // 3. Unparseable JSON.
    conn.send_line("not json at all").unwrap();
    // 4. Unknown cmd with a recoverable id.
    conn.send_line(r#"{"cmd":"frobnicate","id":91}"#).unwrap();
    // 5. Oversized frame (beyond the shrunken max_frame).
    let huge = format!(
        r#"{{"cmd":"analyze","id":92,"source":"{}"}}"#,
        "x".repeat(4096)
    );
    conn.send_line(&huge).unwrap();

    // Collect the replies: the duplicate-id error, the missing-id
    // error, the parse error, the unknown-cmd error, the oversized
    // error, and — once the FIFO releases the parked worker — the one
    // real analysis for id 77. The connection and the server survive
    // all of it.
    let mut saw = std::collections::HashSet::new();
    for i in 0..6 {
        if i == 5 {
            // The five inline error replies are in; let the parked
            // id-77 analysis finish.
            use std::io::Write as _;
            let mut w = fifo_w.take().unwrap();
            w.write_all(victim_source(0).as_bytes()).unwrap();
        }
        let line = conn_recv_raw(&mut conn);
        let v = lcm_core::jsonw::parse(line.trim()).unwrap();
        let err = v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        match v.get("id") {
            None if err.contains("requires `id`") => saw.insert("missing_id"),
            None if err.contains("bad request JSON") => saw.insert("bad_json"),
            None if err.contains("frame too large") => saw.insert("oversized"),
            Some(id) if id.as_u64() == Some(77) && err.contains("duplicate") => {
                saw.insert("duplicate")
            }
            Some(id) if id.as_u64() == Some(77) => {
                assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
                saw.insert("real_analysis")
            }
            Some(id) if id.as_u64() == Some(91) => saw.insert("unknown_cmd"),
            other => panic!("unexpected reply {other:?} / {err}"),
        };
    }
    assert_eq!(saw.len(), 6, "every malformed frame got its own reply");

    // The connection still works after the abuse.
    let id = conn
        .send_analyze(&victim_source(1), EngineKind::Stl)
        .unwrap();
    let (rid, reply) = conn.recv().unwrap();
    assert_eq!(rid, id);
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_file(&fifo);
}

/// A frame over `max_frame` is rejected even when all of it arrives in
/// one read, and the v2 connection stays usable.
#[test]
fn oversized_frame_in_one_write_is_rejected() {
    let socket = temp_socket("v2o");
    let mut config = ServeConfig::new(&socket);
    config.max_frame = 1024;
    let handle = Server::spawn(config).unwrap();
    let client = Client::new(&socket);
    let mut conn = client.connect().unwrap();
    let good = conn
        .send_analyze(&victim_source(0), EngineKind::Pht)
        .unwrap();
    assert_eq!(conn.recv().unwrap().0, good);

    // A 2,000-byte frame, newline included, in a single write.
    let frame = format!(
        "{{\"cmd\":\"analyze\",\"id\":92,\"source\":\"{}\"}}\n",
        "x".repeat(1962)
    );
    assert_eq!(frame.len(), 2000);
    conn.send_line(&frame).unwrap();
    let v = lcm_core::jsonw::parse(conn_recv_raw(&mut conn).trim()).unwrap();
    let err = v.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(err.contains("frame too large"), "{v:?}");

    let id = conn
        .send_analyze(&victim_source(1), EngineKind::Pht)
        .unwrap();
    let (rid, reply) = conn.recv().unwrap();
    assert_eq!(rid, id);
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Reads one raw reply line from a v2 connection (test helper for
/// replies that may not carry an id).
fn conn_recv_raw(conn: &mut lcm_serve::Connection) -> String {
    conn.recv_raw_line().unwrap()
}

#[test]
fn v2_fairness_cap_backpressures_without_loss() {
    let socket = temp_socket("v2f");
    let mut config = ServeConfig::new(&socket);
    config.fairness_cap = 2;
    config.workers = 1;
    let handle = Server::spawn(config).unwrap();
    let client = Client::new(&socket);
    let mut conn = client.connect().unwrap();

    // Pipeline 6 frames: far beyond the cap of 2. The reader simply
    // stops pulling frames past the cap; nothing is lost or rejected.
    let mut pending = std::collections::HashSet::new();
    for i in 0..6 {
        let id = conn
            .send_analyze(&victim_source(i), EngineKind::Pht)
            .unwrap();
        pending.insert(id);
    }
    for _ in 0..6 {
        let (id, reply) = conn.recv().unwrap();
        assert!(pending.remove(&id));
        assert_eq!(
            reply.get("ok").unwrap().as_bool(),
            Some(true),
            "fairness backpressure must not shed: {}",
            reply.render()
        );
    }
    assert!(pending.is_empty());
    let (_, _, rejected, _, _) = handle.snapshot_v2();
    assert_eq!(rejected, 0, "backpressure, not busy replies");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn v2_busy_shed_names_the_rejected_id() {
    let socket = temp_socket("v2q");
    let mut config = ServeConfig::new(&socket);
    config.workers = 1;
    config.queue_cap = 1;
    config.fairness_cap = 64;
    let handle = Server::spawn(config).unwrap();
    let client = Client::new(&socket);
    let mut conn = client.connect().unwrap();

    // A fat batch occupies the single worker for a while…
    let batch: Vec<String> = (0..12).map(victim_source).collect();
    let batch_items: Vec<(&str, EngineKind)> = batch
        .iter()
        .map(|s| (s.as_str(), EngineKind::Pht))
        .collect();
    let batch_id = conn.send_batch(&batch_items).unwrap();
    // …then a burst of pipelined frames: one fits the queue (cap 1),
    // the rest must be shed with busy replies naming their ids.
    let mut ids = Vec::new();
    for i in 0..4 {
        ids.push(
            conn.send_analyze(&victim_source(i), EngineKind::Pht)
                .unwrap(),
        );
    }
    let mut busy = 0;
    let mut served = 0;
    for _ in 0..5 {
        let (id, reply) = conn.recv().unwrap();
        if reply.get("ok").unwrap().as_bool() == Some(true) {
            served += 1;
            continue;
        }
        let err = reply.get("error").unwrap().as_str().unwrap();
        assert_eq!(err, "busy: queue full");
        assert!(
            ids.contains(&id) && id != batch_id,
            "busy reply must name the rejected frame's id"
        );
        busy += 1;
    }
    assert!(busy >= 1, "queue_cap=1 under a 4-deep burst must shed");
    assert_eq!(busy + served, 5);
    let (_, _, rejected, _, _) = handle.snapshot_v2();
    assert_eq!(rejected, busy);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// Shutdown drain: queued requests get explicit replies, never silence.
// ---------------------------------------------------------------------------

/// Creates a FIFO under the temp dir (via `mkfifo`). Shutdown-drain
/// tests use it to park the single worker deterministically: `analyze
/// {"file": <fifo>}` blocks inside `read_to_string` until the test
/// opens the write end, and the *open* of the write end in turn blocks
/// until the worker has the read end open — a rendezvous proving the
/// worker is occupied, with no sleeps.
fn make_fifo(tag: &str) -> Option<PathBuf> {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("lcm-{}-{tag}-{n}.fifo", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let ok = std::process::Command::new("mkfifo")
        .arg(&path)
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    ok.then_some(path)
}

/// Sends `analyze {"file": <fifo>}` with a fixed id, then opens the
/// FIFO's write end — returning only once the worker is blocked inside
/// the job. The returned handle keeps the worker parked; write the
/// source and drop it to let the job finish.
fn park_worker_on_fifo(
    conn: &mut lcm_serve::Connection,
    fifo: &std::path::Path,
    id: u64,
) -> std::fs::File {
    let frame = Json::Obj(vec![
        ("cmd".to_string(), Json::Str("analyze".into())),
        ("id".to_string(), Json::Num(id as f64)),
        ("file".to_string(), Json::Str(fifo.display().to_string())),
    ])
    .render();
    conn.send_line(&frame).unwrap();
    std::fs::OpenOptions::new().write(true).open(fifo).unwrap()
}

#[test]
fn shutdown_drains_queued_v2_frames_with_explicit_replies() {
    let Some(fifo) = make_fifo("sdv2") else {
        eprintln!("mkfifo unavailable; skipping");
        return;
    };
    let socket = temp_socket("sdv2");
    let mut config = ServeConfig::new(&socket);
    config.workers = 1;
    let handle = Server::spawn(config).unwrap();
    let client = Client::new(&socket);
    let mut conn = client.connect().unwrap();

    // Park the single worker on the FIFO, queue one more frame, then
    // shut down. Frames on one connection are decoded in order, so the
    // analyze is in the queue before the shutdown is handled.
    let busy_id = 1000u64;
    let fifo_w = park_worker_on_fifo(&mut conn, &fifo, busy_id);
    let queued_id = conn
        .send_analyze(&victim_source(0), EngineKind::Pht)
        .unwrap();
    let shutdown_id = conn.send_cmd("shutdown").unwrap();

    // The drain reply and the shutdown ack arrive while the worker is
    // still parked; the parked job cannot reply before the FIFO opens.
    let mut got = std::collections::HashMap::new();
    for _ in 0..2 {
        let (id, reply) = conn.recv().unwrap();
        got.insert(id, reply);
    }
    // The queued frame was drained with an explicit reply…
    assert_eq!(
        got[&queued_id].get("error").unwrap().as_str(),
        Some("shutting down")
    );
    // …and the shutdown itself was acked.
    assert_eq!(
        got[&shutdown_id].get("shutting_down").unwrap().as_bool(),
        Some(true)
    );

    // Release the worker: in-flight work finishes normally before the
    // workers join, even though the drain already happened.
    use std::io::Write as _;
    let mut fifo_w = fifo_w;
    fifo_w.write_all(victim_source(0).as_bytes()).unwrap();
    drop(fifo_w);
    let (id, reply) = conn.recv().unwrap();
    assert_eq!(id, busy_id);
    assert_eq!(
        reply.get("ok").unwrap().as_bool(),
        Some(true),
        "in-flight work finishes before workers join"
    );

    let (_, _, _, _, drained) = handle.snapshot_v2();
    assert_eq!(drained, 1);
    handle.join().unwrap();
    let _ = std::fs::remove_file(&fifo);
}

#[test]
fn shutdown_drains_queued_v1_connections_with_explicit_replies() {
    let Some(fifo) = make_fifo("sdv1") else {
        eprintln!("mkfifo unavailable; skipping");
        return;
    };
    let socket = temp_socket("sdv1");
    let mut config = ServeConfig::new(&socket);
    config.workers = 1;
    let handle = Server::spawn(config).unwrap();
    let client = Client::new(&socket);

    // Park the single worker from a v2 connection…
    let mut conn = client.connect().unwrap();
    let busy_id = 1000u64;
    let fifo_w = park_worker_on_fifo(&mut conn, &fifo, busy_id);

    // …queue a v1 one-shot on a second thread…
    let v1_socket = socket.clone();
    let v1 = std::thread::spawn(move || {
        let client = Client::new(&v1_socket).retries(0);
        client.analyze_source(
            "int A[16]; int B[4096]; int size; int tmp;
             void queued(int y) { if (y < size) tmp &= B[A[y] * 512]; }",
            EngineKind::Pht,
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(50));

    // …and shut down while it waits. Whether the v1 frame was already
    // queued (drained) or still being decoded (refused at enqueue), the
    // client must receive the explicit shutting-down error, not a
    // silent close.
    let shutdown_id = conn.send_cmd("shutdown").unwrap();
    match v1.join().unwrap() {
        Err(ClientError::Server(msg)) => assert_eq!(msg, "shutting down"),
        other => panic!("queued v1 connection got {other:?}"),
    }

    // Release the worker and confirm its job still completed.
    use std::io::Write as _;
    let mut fifo_w = fifo_w;
    fifo_w.write_all(victim_source(0).as_bytes()).unwrap();
    drop(fifo_w);
    let mut got = std::collections::HashMap::new();
    for _ in 0..2 {
        let (id, reply) = conn.recv().unwrap();
        got.insert(id, reply);
    }
    assert_eq!(got[&busy_id].get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(
        got[&shutdown_id].get("shutting_down").unwrap().as_bool(),
        Some(true)
    );
    handle.join().unwrap();
    let _ = std::fs::remove_file(&fifo);
}

// ---------------------------------------------------------------------------
// Faults: torn replies and dropped connections, with backoff.
// ---------------------------------------------------------------------------

#[test]
fn torn_reply_is_retried_like_a_drop() {
    let socket = temp_socket("torn");
    let mut config = ServeConfig::new(&socket);
    // Tear the first reply the server ever writes mid-frame.
    config.faults = FaultPlan::default().arm(site::SERVE_PARTIAL_WRITE, Some(0));
    let handle = Server::spawn(config).unwrap();

    let client = Client::new(&socket);
    let status = client.status().unwrap();
    assert_eq!(status.get("ok").unwrap().as_bool(), Some(true));
    let (_, _, _, torn, _) = handle.snapshot_v2();
    assert_eq!(torn, 1, "first reply was torn by the fault");

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn consecutive_drops_are_retried_with_escalating_backoff() {
    let socket = temp_socket("bk");
    let mut config = ServeConfig::new(&socket);
    // Drop the first two accepted connections: success needs retry
    // depth > 1, i.e. the 5 ms + 10 ms backoff legs both run.
    config.faults = FaultPlan::default()
        .arm(site::SERVE_DROP_CONN, Some(0))
        .arm(site::SERVE_DROP_CONN, Some(1));
    let handle = Server::spawn(config).unwrap();

    let client = Client::new(&socket).retries(2);
    let start = std::time::Instant::now();
    let status = client.status().unwrap();
    let elapsed = start.elapsed();
    assert_eq!(status.get("ok").unwrap().as_bool(), Some(true));
    assert!(
        elapsed >= lcm_serve::backoff_delay(1) + lcm_serve::backoff_delay(2),
        "two retries must wait the deterministic schedule (got {elapsed:?})"
    );
    let (_, _, _, dropped) = handle.snapshot();
    assert_eq!(dropped, 2);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// TCP listener: same protocol, same bytes.
// ---------------------------------------------------------------------------

#[test]
fn tcp_listener_serves_identical_replies() {
    let socket = temp_socket("tcp");
    let mut config = ServeConfig::new(&socket);
    config.tcp = Some("127.0.0.1:0".into());
    let handle = Server::spawn(config).unwrap();
    let addr = handle.tcp_addr().expect("tcp listener bound").to_string();

    let unix = Client::new(&socket);
    let tcp = Client::tcp(&addr);
    let src = victim_source(3);

    // v1 over both transports: identical functions payload.
    let a = unix.analyze_source(&src, EngineKind::Pht).unwrap();
    let b = tcp.analyze_source(&src, EngineKind::Pht).unwrap();
    assert_eq!(
        a.get("functions").unwrap().render(),
        b.get("functions").unwrap().render()
    );

    // v2 pipelined over TCP.
    let mut conn = tcp.connect().unwrap();
    let id0 = conn
        .send_analyze(&victim_source(4), EngineKind::Stl)
        .unwrap();
    let id1 = conn
        .send_analyze(&victim_source(5), EngineKind::Pht)
        .unwrap();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..2 {
        let (id, reply) = conn.recv().unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        seen.insert(id);
    }
    assert!(seen.contains(&id0) && seen.contains(&id1));

    // Metrics over v2 arrive framed as JSON, not raw text.
    let mid = conn.send_cmd("metrics").unwrap();
    let (rid, reply) = conn.recv().unwrap();
    assert_eq!(rid, mid);
    assert!(reply
        .get("prometheus")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("# TYPE lcm_serve_requests_total counter"));

    unix.shutdown().unwrap();
    handle.join().unwrap();
}

/// A TCP peer may not make the daemon read its files: `file` is refused
/// on v1 and v2 frames (the v2 connection stays usable), while the Unix
/// socket still accepts it.
#[test]
fn tcp_listener_refuses_file_requests() {
    let socket = temp_socket("tcpf");
    let mut config = ServeConfig::new(&socket);
    config.tcp = Some("127.0.0.1:0".into());
    let handle = Server::spawn(config).unwrap();
    let addr = handle.tcp_addr().expect("tcp listener bound").to_string();
    let path = std::env::temp_dir().join(format!("lcm-{}-tcpf.c", std::process::id()));
    std::fs::write(&path, VICTIM).unwrap();
    let file = path.display().to_string();

    let unix = Client::new(&socket);
    let tcp = Client::tcp(&addr);
    match tcp.analyze_file(&file, EngineKind::Pht) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("Unix socket"), "{msg}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    let mut conn = tcp.connect().unwrap();
    let batch = Json::Obj(vec![
        ("cmd".to_string(), Json::Str("analyze_batch".into())),
        ("id".to_string(), Json::Num(7.0)),
        (
            "batch".to_string(),
            Json::Arr(vec![Json::Obj(vec![(
                "file".to_string(),
                Json::Str(file.clone()),
            )])]),
        ),
    ]);
    conn.send_line(&batch.render()).unwrap();
    let v = lcm_core::jsonw::parse(conn_recv_raw(&mut conn).trim()).unwrap();
    let err = v.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(err.contains("Unix socket"), "{v:?}");
    let id = conn.send_analyze(VICTIM, EngineKind::Pht).unwrap();
    let (rid, reply) = conn.recv().unwrap();
    assert_eq!(rid, id);
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

    let reply = unix.analyze_file(&file, EngineKind::Pht).unwrap();
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

    std::fs::remove_file(&path).ok();
    unix.shutdown().unwrap();
    handle.join().unwrap();
}
