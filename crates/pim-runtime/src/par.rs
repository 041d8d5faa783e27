//! Minimal fork-join parallelism for independent simulations.
//!
//! [`par_map`] fans a slice out over scoped OS threads, and runs a plain
//! serial map when only one worker is available (or `PIM_RUN_THREADS=1`
//! pins it there, or the caller is itself one worker of a full pool, see
//! [`as_pool_worker`]). Output order always matches input order, so parallel
//! sweeps stay deterministic.

std::thread_local! {
    /// Whether this thread is one worker of a pool already sized to the
    /// thread cap (see [`as_pool_worker`]).
    static POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` on this thread as one worker of a pool that already holds the
/// thread cap's worth of threads, such as the serve daemon's workers:
/// every [`par_map`] inside `f` runs serially. A nested fan-out there
/// would only put more runnable threads than cores on the machine, and
/// how long the extra threads wait for a core is up to the scheduler, so
/// the same work would take a different time on every run.
pub fn as_pool_worker<R>(f: impl FnOnce() -> R) -> R {
    let outer = POOL_WORKER.replace(true);
    let out = f();
    POOL_WORKER.set(outer);
    out
}

/// Worker-thread cap for one fan-out: the `PIM_RUN_THREADS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism. Pinning `PIM_RUN_THREADS=1` forces the serial
/// path — the thread-matrix CI stage uses this to check that results do
/// not depend on the worker count.
fn thread_limit() -> usize {
    std::env::var("PIM_RUN_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// Maps `f` over `items` across up to `PIM_RUN_THREADS` scoped workers
/// (default: the machine's available parallelism).
///
/// Results are returned in input order regardless of which thread finished
/// first.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_limit().min(items.len());
    if workers <= 1 || POOL_WORKER.get() {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (item_chunk, out_chunk) in items.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let f = &f;
            scope.spawn(move || {
                for (item, out) in item_chunk.iter().zip(out_chunk.iter_mut()) {
                    *out = Some(f(item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("scoped worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn pool_workers_map_serially_on_their_own_thread() {
        let items: Vec<usize> = (0..16).collect();
        let caller = std::thread::current().id();
        let (out, threads) = as_pool_worker(|| {
            let out = par_map(&items, |&x| (x * 3, std::thread::current().id()));
            // Nested use restores the outer marking on exit.
            as_pool_worker(|| ());
            let threads = par_map(&items, |_| std::thread::current().id());
            (out, threads)
        });
        assert_eq!(
            out.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            items.iter().map(|&x| x * 3).collect::<Vec<_>>()
        );
        assert!(out.iter().all(|&(_, t)| t == caller));
        assert!(threads.iter().all(|&t| t == caller));
        assert!(!POOL_WORKER.get());
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn propagates_results_per_item() {
        let items = ["a", "bb", "ccc"];
        let out: Vec<Result<usize, String>> = par_map(&items, |s| {
            if s.len() < 3 {
                Ok(s.len())
            } else {
                Err(s.to_string())
            }
        });
        assert_eq!(out, vec![Ok(1), Ok(2), Err("ccc".to_string())]);
    }
}
