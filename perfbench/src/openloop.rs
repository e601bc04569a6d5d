//! Open-loop load over one pipelined protocol-v2 connection.
//!
//! Requests are sent on a precomputed schedule whatever the daemon
//! does, the way independent users arrive. A sender thread writes each
//! frame at its due time and a receiver thread matches replies by `id`,
//! so a slow reply never delays the next send. Latency runs from the
//! *due* time, not the send time: when the sender falls behind (a full
//! socket buffer blocks its write), the wait counts against the
//! requests that suffered it, and the sender's lateness is reported on
//! its own so a stalled generator is never mistaken for a fast daemon.
//! Every sample is kept; percentiles are exact.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{self, Digest};

/// A reply not received this long after its due time has failed.
pub const TIMEOUT: Duration = Duration::from_secs(5);

/// How far past the end of its schedule the sender keeps catching up
/// before it gives up on the requests left.
const SEND_GRACE: Duration = Duration::from_millis(100);

/// What to verify about a reply beyond `"ok": true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Nothing more.
    None,
    /// The reply, minus its `id` member, has this [`Digest`].
    Digest(u64),
    /// Keep the reply for a check after the phase.
    Keep,
}

/// One scheduled analyze request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due time, from the start of the phase.
    pub due: Duration,
    /// The frame's members after `cmd` and `id`, closing brace and
    /// newline included (see [`frame_body`]). Requests for one program
    /// share it.
    pub body: Arc<str>,
    /// Verification of the reply.
    pub check: Check,
}

/// The members of an analyze frame that follow its `id`: the program and
/// the engine, rendered once per program.
pub fn frame_body(source: &str, engine: lcm_detect::EngineKind) -> Arc<str> {
    let members = lcm_core::jsonw::Json::Obj(vec![
        ("source".into(), lcm_core::jsonw::Json::Str(source.into())),
        (
            "engine".into(),
            lcm_core::jsonw::Json::Str(lcm_serve::wire::engine_name(engine).into()),
        ),
    ])
    .render();
    format!("{}\n", &members[1..]).into()
}

/// Deterministic arrival times and choices: SplitMix64.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        stats::mix(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Poisson arrival times at `rate` per second over `duration`.
    pub fn arrivals(&mut self, rate: f64, duration: Duration) -> Vec<Duration> {
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += -(1.0 - self.next_f64()).ln() / rate;
            if t >= duration.as_secs_f64() {
                return out;
            }
            out.push(Duration::from_secs_f64(t));
        }
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every planned request in milliseconds; a request that
    /// failed, timed out or was never sent counts as [`TIMEOUT`].
    pub latencies_ms: Vec<f64>,
    /// Replies received.
    pub replied: usize,
    /// Replies with `"ok": false`.
    pub errors: usize,
    /// Replies that failed their [`Check::Digest`].
    pub mismatches: usize,
    /// Sent requests without a reply within [`TIMEOUT`].
    pub timeouts: usize,
    /// Requests the sender could not send before the phase ended.
    pub unsent: usize,
    /// How late each send was against its due time, in milliseconds.
    pub late_ms: Vec<f64>,
    /// Mean requests in flight over the first and the second half of the
    /// sends, and the most seen.
    pub backlog: (f64, f64, usize),
    /// `(plan index, reply line)` of every [`Check::Keep`] request.
    pub kept: Vec<(usize, String)>,
    /// Length of the schedule, in seconds.
    pub seconds: f64,
}

impl Phase {
    /// Replies per second of schedule.
    pub fn throughput(&self) -> f64 {
        self.replied as f64 / self.seconds
    }

    /// Requests that did not succeed.
    pub fn failed(&self) -> usize {
        self.errors + self.mismatches + self.timeouts + self.unsent
    }

    /// The latency limit test: the `pct` percentile within `limit_ms`,
    /// no failed request, and no growth of the backlog from the first
    /// half of the phase to the second. A backlog that stays within twice
    /// its first-half mean plus a few dozen requests (well under a
    /// millisecond of arrivals at the rates measured) is jitter, not
    /// growth; an overloaded daemon fills the socket buffers, hundreds
    /// of requests.
    pub fn meets(&self, pct: f64, limit_ms: f64) -> bool {
        let (first, second, _) = self.backlog;
        self.failed() == 0
            && stats::percentile(&self.latencies_ms, pct) <= limit_ms
            && second <= 2.0 * first + 32.0
    }
}

/// The two halves of one connection.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    /// Connects to the daemon's socket.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn connect(socket: &std::path::Path) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        writer.set_write_timeout(Some(TIMEOUT))?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(Conn {
            writer,
            reader: BufReader::with_capacity(1 << 16, reader),
        })
    }

    /// Runs `plan`, request `i` with id `id_base + i`, and waits for
    /// every reply or its timeout. A sender still behind schedule
    /// [`SEND_GRACE`] after the `seconds` the schedule spans stops; what
    /// is left counts as unsent.
    pub fn run(&mut self, id_base: u64, plan: &[Planned], seconds: f64) -> Phase {
        let sent = AtomicUsize::new(0);
        let received = AtomicUsize::new(0);
        let sender_done = AtomicBool::new(false);
        // A little slack so both threads are running before the first
        // request is due.
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + Duration::from_secs_f64(seconds) + SEND_GRACE;
        let (writer, reader) = (&mut self.writer, &mut self.reader);

        let (send, recv) = std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let mut late = Vec::with_capacity(plan.len());
                let mut backlog = Vec::with_capacity(plan.len());
                let mut frame = String::new();
                for (i, p) in plan.iter().enumerate() {
                    let due = start + p.due;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    frame.clear();
                    let id = id_base + i as u64;
                    let _ = write!(frame, "{{\"cmd\":\"analyze\",\"id\":{id},{}", p.body);
                    if Instant::now() > end || writer.write_all(frame.as_bytes()).is_err() {
                        break;
                    }
                    late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                    sent.store(i + 1, Ordering::Release);
                    backlog.push((i + 1).saturating_sub(received.load(Ordering::Acquire)));
                }
                sender_done.store(true, Ordering::Release);
                (late, backlog)
            });
            let receiver = scope.spawn(|| {
                let mut latency = vec![None; plan.len()];
                let (mut errors, mut mismatches) = (0, 0);
                let mut kept = Vec::new();
                let mut line = Vec::new();
                let mut last_progress = Instant::now();
                loop {
                    let done = sender_done.load(Ordering::Acquire);
                    let target = sent.load(Ordering::Acquire);
                    if done && received.load(Ordering::Relaxed) >= target {
                        break;
                    }
                    if done && last_progress.elapsed() > TIMEOUT {
                        break;
                    }
                    match reader.read_until(b'\n', &mut line) {
                        Ok(0) => break,
                        Ok(_) if line.ends_with(b"\n") => {}
                        Ok(_) | Err(_) => continue,
                    }
                    let at = Instant::now();
                    last_progress = at;
                    let reply = std::str::from_utf8(&line[..line.len() - 1]).unwrap_or("");
                    if let Some((id, rest)) = split_id(reply) {
                        let idx = id.checked_sub(id_base).map(|i| i as usize);
                        if let Some(idx) = idx.filter(|&i| i < plan.len() && latency[i].is_none()) {
                            let due = start + plan[idx].due;
                            latency[idx] =
                                Some(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                            if !rest.starts_with("\"ok\":true") {
                                errors += 1;
                            }
                            match plan[idx].check {
                                Check::Digest(d) if Digest::of(rest.as_bytes()) != d => {
                                    mismatches += 1
                                }
                                Check::Keep => kept.push((idx, reply.to_string())),
                                _ => {}
                            }
                            received.fetch_add(1, Ordering::Release);
                        }
                    }
                    line.clear();
                }
                (latency, errors, mismatches, kept)
            });
            (
                sender.join().expect("sender thread"),
                receiver.join().expect("receiver thread"),
            )
        });

        let ((late_ms, backlog), (latency, errors, mismatches, kept)) = (send, recv);
        let sent = late_ms.len();
        let half = backlog.len() / 2;
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len().max(1) as f64;
        let timeout_ms = TIMEOUT.as_secs_f64() * 1e3;
        Phase {
            latencies_ms: latency.iter().map(|l| l.unwrap_or(timeout_ms)).collect(),
            replied: latency[..sent].iter().flatten().count(),
            errors,
            mismatches,
            timeouts: latency[..sent]
                .iter()
                .filter(|l| l.is_none_or(|ms| ms > timeout_ms))
                .count(),
            unsent: plan.len() - sent,
            late_ms,
            backlog: (
                mean(&backlog[..half]),
                mean(&backlog[half..]),
                backlog.iter().copied().max().unwrap_or(0),
            ),
            kept,
            seconds,
        }
    }
}

/// Splits a reply `{"id":N,REST` into `N` and `REST` (which then
/// starts at the `"ok"` member). The reply shape is pinned by the
/// daemon's wire-format tests; scanning it instead of parsing keeps the
/// client's cost per reply far below the daemon's.
pub fn split_id(reply: &str) -> Option<(u64, &str)> {
    let rest = reply.strip_prefix("{\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let id = rest[..digits].parse().ok()?;
    Some((id, rest[digits..].strip_prefix(',')?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_seeded_and_near_the_rate() {
        let a = SplitMix(7).arrivals(1000.0, Duration::from_secs(2));
        assert_eq!(a, SplitMix(7).arrivals(1000.0, Duration::from_secs(2)));
        assert_ne!(a, SplitMix(8).arrivals(1000.0, Duration::from_secs(2)));
        assert!((1850..2150).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn reply_ids_are_split_from_the_body() {
        assert_eq!(
            split_id("{\"id\":42,\"ok\":true}"),
            Some((42, "\"ok\":true}"))
        );
        assert_eq!(split_id("{\"ok\":false}"), None);
        assert_eq!(split_id("{\"id\":\"x\",\"ok\":true}"), None);
    }

    #[test]
    fn the_limit_test_counts_failures_and_backlog_growth() {
        let phase = |latencies_ms: Vec<f64>, backlog| Phase {
            latencies_ms,
            backlog,
            seconds: 1.0,
            ..Phase::default()
        };
        assert!(phase(vec![1.0; 100], (2.0, 2.5, 6)).meets(99.0, 5.0));
        assert!(phase(vec![1.0; 100], (10.0, 20.0, 40)).meets(99.0, 5.0));
        assert!(!phase(vec![9.0; 100], (2.0, 2.5, 6)).meets(99.0, 5.0));
        assert!(!phase(vec![1.0; 100], (20.0, 240.0, 280)).meets(99.0, 5.0));
        let mut failed = phase(vec![1.0; 100], (2.0, 2.0, 2));
        failed.unsent = 1;
        assert!(!failed.meets(99.0, 5.0));
    }
}
