//! Work-stealing parallel map over scoped threads.
//!
//! The sweep's unit of work is one scenario — embarrassingly parallel, no
//! shared mutable state. Workers claim *chunks* of indices from one atomic
//! counter, so long scenarios never leave a thread idle while short ones
//! pile up elsewhere (the same dynamic scheduling `rayon`'s `par_iter`
//! provides; implemented on `std::thread::scope` because the build
//! environment vendors no external crates). Chunked claiming amortises the
//! atomic traffic over `CHUNK_TARGET` claims per worker, and
//! [`par_map_with`] gives every worker a private, reusable scratch value —
//! what lets the sweep carry its round buffers from scenario to scenario
//! instead of re-allocating them per item.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How the work-stealing map slices the item grid into claims.
///
/// The defaults were chosen on a 1-core container and have never been
/// tuned against real contention (ROADMAP's multi-core re-measure); making
/// them configurable — builder-side and via environment — is what makes
/// that re-measure actionable: rerun the sweep with `HO_SWEEP_CHUNK_TARGET`
/// / `HO_SWEEP_CHUNK_MAX` overrides and diff the recorded throughput, no
/// rebuild needed. The chosen parameters are recorded in every
/// [`SweepReport`](crate::SweepReport), `SimReport` and `RsmReport`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Aim for this many chunk claims per worker: few enough that the
    /// atomic counter stays cold, many enough that an unlucky worker stuck
    /// with slow scenarios can shed the rest of the grid to its peers.
    pub target_claims: usize,
    /// Upper bound on a chunk, bounding the tail latency of the last
    /// chunks.
    pub max_chunk: usize,
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy {
            target_claims: 16,
            max_chunk: 64,
        }
    }
}

impl ChunkPolicy {
    /// The default policy with `HO_SWEEP_CHUNK_TARGET` / `HO_SWEEP_CHUNK_MAX`
    /// environment overrides applied (ignored unless they parse as positive
    /// integers).
    #[must_use]
    pub fn from_env() -> Self {
        fn positive(var: &str) -> Option<usize> {
            std::env::var(var)
                .ok()?
                .trim()
                .parse()
                .ok()
                .filter(|&v| v > 0)
        }
        let mut policy = ChunkPolicy::default();
        if let Some(target) = positive("HO_SWEEP_CHUNK_TARGET") {
            policy.target_claims = target;
        }
        if let Some(max) = positive("HO_SWEEP_CHUNK_MAX") {
            policy.max_chunk = max;
        }
        policy
    }

    /// The chunk size this policy yields for a grid of `items` over
    /// `workers` workers.
    #[must_use]
    pub fn chunk_size(&self, items: usize, workers: usize) -> usize {
        // Saturating: target_claims is env-supplied and may be huge.
        let claims = workers.saturating_mul(self.target_claims).max(1);
        (items / claims).clamp(1, self.max_chunk.max(1))
    }
}

/// Maps `f` over `items` on `threads` worker threads, preserving order.
///
/// `threads == 1` degenerates to a sequential map (no thread spawn), which
/// the sweep uses to measure single-core baselines.
///
/// # Panics
///
/// Propagates panics from `f` (a panicking worker aborts the whole map, as
/// a panicking `rayon` task would).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, threads, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker scratch: every worker calls `init` once and
/// threads the resulting state through all of its `f` calls. Order of the
/// results is preserved; the assignment of items to workers is not
/// deterministic (the scratch must not influence results).
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub fn par_map_with<T, R, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    par_map_with_policy(items, threads, ChunkPolicy::from_env(), init, f)
}

/// [`par_map_with`] under an explicit [`ChunkPolicy`] (the `Sweep` builder
/// threads its configured policy through here).
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub fn par_map_with_policy<T, R, S, I, F>(
    items: &[T],
    threads: usize,
    policy: ChunkPolicy,
    init: I,
    f: F,
) -> Vec<R>
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

    let workers = threads.min(items.len());
    let chunk = policy.chunk_size(items.len(), workers);
    let next = AtomicUsize::new(0);
    // Each worker returns (start_index, results) chunks; merging by start
    // index restores grid order.
    let mut chunks: Vec<(usize, Vec<R>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut scratch = init();
                let mut out: Vec<(usize, Vec<R>)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    let end = (start + chunk).min(items.len());
                    let mut results = Vec::with_capacity(end - start);
                    for item in &items[start..end] {
                        results.push(f(&mut scratch, item));
                    }
                    out.push((start, results));
                }
                out
            }));
        }
        for h in handles {
            chunks.extend(h.join().expect("sweep worker panicked"));
        }
    });
    chunks.sort_by_key(|(start, _)| *start);
    debug_assert_eq!(
        chunks.iter().map(|(_, r)| r.len()).sum::<usize>(),
        items.len()
    );
    chunks.into_iter().flat_map(|(_, r)| r).collect()
}

/// [`par_map_with_policy`] with **weighted** chunking: `weight(item)`
/// estimates an item's relative cost (in units of the cheapest item), and
/// chunk boundaries are laid so every chunk carries roughly equal total
/// weight instead of an equal item count. The rsm sweep uses this with
/// shard count as the weight — a 16-shard scenario runs 16 group loops, so
/// a count-based chunk holding a run of S=16 scenarios would be ~16× the
/// work of its S=1 neighbour and the grid tail would serialise behind one
/// worker.
///
/// Bounds are precomputed (deterministic for a given grid and policy);
/// workers claim chunk *indices* from the atomic counter. Result order is
/// preserved exactly as in the unweighted map.
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub fn par_map_weighted_with_policy<T, R, S, W, I, F>(
    items: &[T],
    threads: usize,
    policy: ChunkPolicy,
    weight: W,
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Fn(&T) -> usize,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    if threads == 1 || items.len() <= 1 {
        let mut scratch = init();
        return items.iter().map(|item| f(&mut scratch, item)).collect();
    }

    let workers = threads.min(items.len());
    // Lay chunk bounds so each chunk holds ~total/claims weight, capped at
    // max_chunk items (the same knobs as the unweighted path, applied to
    // weight instead of count).
    let total: usize = items.iter().map(|t| weight(t).max(1)).sum();
    let claims = workers.saturating_mul(policy.target_claims).max(1);
    let per_chunk = (total / claims).max(1);
    let max_items = policy.max_chunk.max(1);
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    let mut acc = 0;
    for (i, item) in items.iter().enumerate() {
        acc += weight(item).max(1);
        let len = i + 1 - start;
        if acc >= per_chunk || len >= max_items {
            bounds.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < items.len() {
        bounds.push((start, items.len()));
    }

    let next = AtomicUsize::new(0);
    let mut chunks: Vec<(usize, Vec<R>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut scratch = init();
                let mut out: Vec<(usize, Vec<R>)> = Vec::new();
                loop {
                    let claim = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(start, end)) = bounds.get(claim) else {
                        break;
                    };
                    let mut results = Vec::with_capacity(end - start);
                    for item in &items[start..end] {
                        results.push(f(&mut scratch, item));
                    }
                    out.push((start, results));
                }
                out
            }));
        }
        for h in handles {
            chunks.extend(h.join().expect("sweep worker panicked"));
        }
    });
    chunks.sort_by_key(|(start, _)| *start);
    debug_assert_eq!(
        chunks.iter().map(|(_, r)| r.len()).sum::<usize>(),
        items.len()
    );
    chunks.into_iter().flat_map(|(_, r)| r).collect()
}

/// The number of workers to use by default: all available cores.
#[must_use]
pub fn default_threads() -> usize {
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
        let doubled = par_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches() {
        let items: Vec<u64> = (0..64).collect();
        assert_eq!(
            par_map(&items, 1, |&x| x + 1),
            par_map(&items, 4, |&x| x + 1)
        );
    }

    #[test]
    fn empty_input() {
        let items: Vec<u64> = Vec::new();
        assert!(par_map(&items, 4, |&x| x).is_empty());
    }

    #[test]
    fn odd_sizes_cover_every_item() {
        // Chunked claiming must not drop or duplicate boundary items.
        for len in [1usize, 2, 63, 64, 65, 127, 1000] {
            let items: Vec<usize> = (0..len).collect();
            let out = par_map(&items, 3, |&x| x);
            assert_eq!(out, items, "len = {len}");
        }
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // With one worker, the scratch value threads through every call.
        let items: Vec<u64> = (0..10).collect();
        let out = par_map_with(
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
        use std::sync::atomic::AtomicUsize;
        // Every worker gets its own scratch: the number of `init` calls
        // equals the number of workers actually spawned, never more.
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..256).collect();
        let out = par_map_with(
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
        par_map(&items, 4, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Give other workers a chance to pull from the queue.
            std::thread::yield_now();
        });
        assert!(seen.lock().unwrap().len() > 1, "expected >1 worker thread");
    }

    #[test]
    fn chunk_sizes_are_sane() {
        let policy = ChunkPolicy::default();
        assert_eq!(policy.chunk_size(10, 16), 1);
        assert_eq!(policy.chunk_size(0, 4), 1);
        assert_eq!(policy.chunk_size(1 << 20, 2), policy.max_chunk);
        let mid = policy.chunk_size(1920, 4);
        assert!((1..=policy.max_chunk).contains(&mid));
    }

    #[test]
    fn weighted_map_preserves_order_and_coverage() {
        // Heavily skewed weights (1000, 1, 1, ...) and odd lengths: every
        // item appears exactly once, in order, and matches the unweighted
        // result.
        for len in [1usize, 2, 65, 257, 1000] {
            let items: Vec<usize> = (0..len).collect();
            let weighted = par_map_weighted_with_policy(
                &items,
                3,
                ChunkPolicy::default(),
                |&x| if x == 0 { 1000 } else { x % 16 },
                || (),
                |(), &x| x,
            );
            assert_eq!(weighted, items, "len = {len}");
        }
    }

    #[test]
    fn weighted_chunks_respect_the_item_cap() {
        // All-equal weights degrade gracefully: the max_chunk cap still
        // bounds chunk length (observable through per-worker scratch: one
        // scratch never sees a contiguous run longer than max_chunk unless
        // it claims multiple chunks, which coverage+order already allow).
        let policy = ChunkPolicy {
            target_claims: 1,
            max_chunk: 4,
        };
        let items: Vec<usize> = (0..100).collect();
        let out = par_map_weighted_with_policy(&items, 2, policy, |_| 1, || (), |(), &x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn custom_chunk_policy_is_respected_and_covers_all_items() {
        for policy in [
            ChunkPolicy {
                target_claims: 1,
                max_chunk: 4,
            },
            ChunkPolicy {
                target_claims: 128,
                max_chunk: 1,
            },
        ] {
            let items: Vec<usize> = (0..257).collect();
            let out = par_map_with_policy(&items, 3, policy, || (), |(), &x| x);
            assert_eq!(out, items, "{policy:?}");
        }
    }
}
