//! Minimal fork-join parallelism for independent simulations.
//!
//! [`par_map`] fans a slice out over scoped OS threads, and runs a plain
//! serial map when only one worker is available (or `PIM_RUN_THREADS=1`
//! pins it there). Output order always matches input order, so parallel
//! sweeps stay deterministic.

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
    if workers <= 1 {
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
