//! Deterministic fan-out over `std::thread::scope` (no dependencies).
//!
//! Per-function leakage analysis is embarrassingly parallel — Clou's
//! evaluation (§6) exploits exactly this — but reports must stay
//! byte-identical to a serial run. [`map_indexed`] therefore hands out
//! work items through an atomic cursor (work stealing, so one slow
//! function does not idle the other workers) and reassembles results in
//! input order before returning.
//!
//! The function is the unit of work: the Clou engines and the haunted
//! baseline both run each function on one thread, so nothing here
//! splits a function or keeps per-worker state.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a `jobs` knob: `0` means "all available cores".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Maps `f` over `items` on up to `jobs` worker threads, returning the
/// results in input order.
///
/// `jobs == 0` uses all available cores; `jobs <= 1` (or a single item)
/// runs serially on the caller thread, byte-for-byte identical to a
/// plain loop. Workers claim items one at a time from a shared atomic
/// cursor, so uneven per-item cost balances automatically.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn map_indexed<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len()).max(1);
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut tagged: Vec<(usize, R)> = per_worker.drain(..).flatten().collect();
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Like [`map_indexed`], but each item's closure runs under
/// `catch_unwind`: a panic in `f` degrades *that item* to
/// `Err(message)` instead of tearing down the whole fan-out. The other
/// workers keep draining the cursor untouched.
///
/// The panic payload is rendered with [`panic_message`]; the default
/// panic hook still prints its usual report to stderr (suppress it in
/// tests with a custom hook if the noise matters).
pub fn map_indexed_catch<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_indexed(items, jobs, |i, x| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, x))).map_err(|p| {
            worker_panics().inc();
            panic_message(p.as_ref())
        })
    })
}

fn worker_panics() -> &'static lcm_obs::metrics::Counter {
    static C: std::sync::OnceLock<lcm_obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| {
        lcm_obs::metrics::global().counter(
            lcm_obs::metrics::names::WORKER_PANICS,
            "Worker panics caught and degraded to per-item errors by the parallel driver",
        )
    })
}

/// Best-effort rendering of a panic payload (the `&str`/`String` cases
/// cover `panic!` with a message, which is all our code produces).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_available_parallelism() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 4, 7] {
            let out = map_indexed(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_on_uneven_work() {
        let items: Vec<u64> = (0..40).map(|i| (i * 7919) % 1000).collect();
        let slow = |_: usize, &n: &u64| -> u64 {
            // Busy work proportional to the item, to skew worker loads.
            (0..n * 50).fold(n, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        };
        let serial = map_indexed(&items, 1, slow);
        let parallel = map_indexed(&items, 4, slow);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(map_indexed(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(map_indexed(&[9u32], 4, |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn jobs_capped_at_item_count() {
        let items = [1u8, 2];
        let out = map_indexed(&items, 64, |_, &x| x as u32);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn catch_isolates_a_panicking_item() {
        let items: Vec<u32> = (0..8).collect();
        // Quiet the default panic hook for the intentional panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = map_indexed_catch(&items, 4, |_, &x| {
            if x == 3 {
                panic!("boom at {x}");
            }
            x * 2
        });
        std::panic::set_hook(prev);
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                assert_eq!(*r, Err("boom at 3".to_string()));
            } else {
                assert_eq!(*r, Ok(i as u32 * 2));
            }
        }
    }
}
