//! The sweep's worker pool: an order-preserving parallel map over scoped
//! threads.
//!
//! The sweep's unit of work is one scenario — embarrassingly parallel, no
//! shared mutable state. Workers claim **one item at a time** from one
//! atomic counter, so however uneven the grid's costs are (an 8-shard rsm
//! scenario runs eight group loops), a worker's tail is at most one
//! scenario: the dynamic scheduling `rayon`'s `par_iter` provides,
//! implemented on `std::thread::scope` because the build environment
//! vendors no external crates. Every worker calls `init` once and threads
//! the resulting scratch through all of its calls — what lets the sweep
//! carry its round buffers from scenario to scenario instead of
//! re-allocating them per item.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on `threads` workers, preserving order. Every
/// worker calls `init` once and threads the resulting scratch through all
/// of its `f` calls; the assignment of items to workers is not
/// deterministic, so the scratch must not influence results.
///
/// `threads == 1` is a plain sequential map: no spawn, no atomic.
///
/// # Panics
///
/// Panics if `threads == 0`; propagates panics from `init` and `f` (a
/// panicking worker aborts the whole map, as a panicking `rayon` task
/// would).
pub(crate) fn par_map<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    if threads == 1 || items.len() <= 1 {
        let mut scratch = init();
        return items.iter().map(|item| f(&mut scratch, item)).collect();
    }

    // The counter only hands out indices (results travel back through
    // `join`), so `Relaxed` claims suffice.
    let next = AtomicUsize::new(0);
    // Each worker returns (index, result) pairs; sorting by index restores
    // grid order.
    let mut results: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break out;
                        };
                        out.push((i, f(&mut scratch, item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            results.extend(worker.join().expect("sweep worker panicked"));
        }
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(results.iter().enumerate().all(|(k, &(i, _))| k == i));
    results.into_iter().map(|(_, r)| r).collect()
}

/// The number of workers to use by default: all available cores.
#[must_use]
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, 8, || (), |(), &x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches() {
        let items: Vec<u64> = (0..64).collect();
        assert_eq!(
            par_map(&items, 1, || (), |(), &x| x + 1),
            par_map(&items, 4, || (), |(), &x| x + 1)
        );
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = Vec::new();
        assert!(par_map(&items, 4, || (), |(), &x| x).is_empty());
    }

    #[test]
    fn odd_sizes_cover_every_item() {
        // The index merge must not drop or duplicate any item, whatever
        // the grid length and worker count.
        for threads in [2, 3] {
            for len in [0usize, 1, 2, 3, 64, 65, 1000] {
                let items: Vec<usize> = (0..len).collect();
                let out = par_map(&items, threads, || (), |(), &x| x);
                assert_eq!(out, items, "len = {len}, threads = {threads}");
            }
        }
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // With one worker, the scratch value threads through every call.
        let items: Vec<u64> = (0..10).collect();
        let out = par_map(
            &items,
            1,
            || 0u64,
            |seen, &x| {
                *seen += 1;
                (*seen, x)
            },
        );
        let counts: Vec<u64> = out.iter().map(|(c, _)| *c).collect();
        assert_eq!(counts, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn per_worker_scratch_is_isolated() {
        // Every worker gets its own scratch: the number of `init` calls
        // equals the number of workers actually spawned, never more.
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..256).collect();
        let out = par_map(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |scratch, &x| {
                scratch.push(x);
                x
            },
        );
        assert_eq!(out, items);
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u64> = (0..256).collect();
        par_map(
            &items,
            4,
            || (),
            |(), _| {
                seen.lock().unwrap().insert(std::thread::current().id());
                // Give other workers a chance to pull from the queue.
                std::thread::yield_now();
            },
        );
        assert!(seen.lock().unwrap().len() > 1, "expected >1 worker thread");
    }
}
