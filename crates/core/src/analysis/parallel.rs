//! Deterministic parallel maps: the ordered API over the persistent
//! work-stealing runtime in [`super::pool`].
//!
//! [`par_map`] maps a function over a slice on the process-wide worker
//! pool (per-worker deques, split-in-half stealing — see the [`pool`]
//! module docs) and returns the results **in item order** — so any
//! left-to-right merge over them produces exactly the sequential
//! result, regardless of worker count or steal pattern. Two callers
//! build on it:
//!
//! * The heavy analysis loops are folds over independent captures:
//!   the analysis engine's per-capture scan, URL probes, and row-chunk
//!   partials when it seals an epoch, and the naive oracle's per-pass
//!   scans. [`par_chunks`] splits a slice into fixed-length chunks and
//!   `par_map`s the per-chunk partial statistics, and
//!   [`par_chunks_auto`] picks the chunk length adaptively from the
//!   pool's recent queue-depth telemetry.
//! * The study harness fans the channel visits of one run out over the
//!   pool (`StudyHarness::run_parallel`); each item is one hermetic
//!   visit and the ordered results merge in canonical channel order.
//!   Because every call shares one pool, a worker idling at the tail of
//!   one run steals visits (and capture chunks) from the others.
//!
//! Calls nest without spawning: a `par_chunks` issued from inside a
//! pool worker queues its chunks on that worker's own deque and helps
//! drain them, so nested fan-outs use the same fixed set of threads
//! throughout.
//!
//! [`pool`]: super::pool

use super::pool;
pub use super::pool::{Runtime, WORKERS_ENV};
use hbbtv_obs::{Counter, Gauge, Histogram};

/// Maps `f` over `items` in `chunk_len`-sized chunks on the worker pool
/// and returns the per-chunk results in chunk order.
///
/// The final chunk may be shorter. With a single chunk, or with a
/// single-worker pool, `f` runs on the calling thread — the result is
/// identical either way, which is what makes the analyses over it
/// deterministic. Callers that only need *some* deterministic
/// chunking — every internal capture-scan does — should prefer
/// [`par_chunks_auto`], which sizes chunks to the pool instead of
/// hard-coding a length.
///
/// # Panics
///
/// Panics if `chunk_len` is zero, or rethrows the original payload if
/// `f` panics on a worker.
///
/// # Examples
///
/// ```
/// use hbbtv_study::analysis::par_chunks;
/// let items: Vec<u64> = (0..100).collect();
/// let partials = par_chunks(&items, 7, |chunk| chunk.iter().sum::<u64>());
/// assert_eq!(partials.len(), 100usize.div_ceil(7));
/// assert_eq!(partials.iter().sum::<u64>(), items.iter().sum::<u64>());
/// ```
pub fn par_chunks<T, R, F>(items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    par_map(&chunks, |_, chunk| f(chunk))
}

/// [`par_chunks`] with the chunk length chosen by the runtime:
/// proportional to the item count over the executor count times an
/// oversubscription factor the pool adapts from recent queue-depth
/// high-water marks, clamped to `64..=4096` (the old fixed length).
///
/// Only the *number* of chunks varies with the adaptation — the fold
/// result cannot, because every analysis built on chunk partials merges
/// them associatively over ordered disjoint segments (enforced by the
/// engine-parity suite and `matches_sequential_fold_for_many_chunk_sizes`).
pub fn par_chunks_auto<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    par_chunks(items, pool::adaptive_chunk_len(items.len()), f)
}

/// Maps `f` over `items` on the worker pool and returns the results
/// **in item order**. `f` receives `(index, &item)` so callers can
/// derive per-item state (seeds, clock offsets) from the canonical
/// position rather than from scheduling order.
///
/// Work splits in half lazily as idle workers steal, so executors can
/// finish in any order without perturbing the output. With one item,
/// or with a single-worker pool, the call degenerates to an in-order
/// loop — the result is identical either way, which is what makes
/// everything built on top of it deterministic.
///
/// # Panics
///
/// Rethrows the first worker panic with its **original payload** (via
/// [`std::panic::resume_unwind`]) after the remaining workers have
/// stopped claiming items.
///
/// # Examples
///
/// ```
/// use hbbtv_study::analysis::par_map;
/// let items = ["a", "bb", "ccc"];
/// let lens = par_map(&items, |i, s| (i, s.len()));
/// assert_eq!(lens, vec![(0, 1), (1, 2), (2, 3)]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_observed(items, None, f)
}

/// Scheduling-dependent worker-pool instrumentation for
/// [`par_map_observed`]. All four cells describe *how the pool ran*,
/// not what it computed — by the dual-clock rule they are only wired up
/// in profile mode, where byte-stability is already forfeit.
#[derive(Debug, Clone, Default)]
pub struct PoolObserver {
    /// Executors that processed at least one item of the batch (1 when
    /// the call collapses onto the calling thread).
    pub workers: Counter,
    /// Items each participating executor ended up processing.
    pub items_per_worker: Histogram,
    /// High-water mark of unclaimed items observed at claim time,
    /// **for the most recent call** — reset at the start of every
    /// observed call, so an observer shared across stages never reads a
    /// previous stage's high-water mark.
    pub queue_depth: Gauge,
    /// Tasks of this observer's batches taken from another worker's
    /// deque (0 when nothing needed rebalancing).
    pub steals: Counter,
}

/// [`par_map`] with optional worker-pool instrumentation. The observer
/// never influences scheduling or results — `par_map_observed(items,
/// None, f)` *is* `par_map`.
pub fn par_map_observed<T, R, F>(items: &[T], observer: Option<&PoolObserver>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    // Per-call scope: the gauge is a high-water mark *of one call*; an
    // observer reused across calls must not carry the previous call's
    // depth forward (it feeds the adaptive chunk sizing).
    if let Some(obs) = observer {
        obs.queue_depth.set(0);
    }
    let (out, stats) = pool::run_map(items, &f);
    if let Some(obs) = observer {
        for &count in &stats.per_executor_items {
            obs.workers.inc();
            obs.items_per_worker.record(count);
        }
        obs.queue_depth.raise_to(stats.depth_high_water);
        obs.steals.add(stats.steals);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_chunk_order() {
        let items: Vec<usize> = (0..1000).collect();
        let firsts = par_chunks(&items, 64, |chunk| chunk[0]);
        let expected: Vec<usize> = items.chunks(64).map(|c| c[0]).collect();
        assert_eq!(firsts, expected);
    }

    #[test]
    fn matches_sequential_fold_for_many_chunk_sizes() {
        let items: Vec<u64> = (0..437).map(|i| i * 31 % 97).collect();
        let sequential: u64 = items.iter().sum();
        for chunk_len in [1, 2, 3, 7, 64, 436, 437, 10_000] {
            let partials = par_chunks(&items, chunk_len, |c| c.iter().sum::<u64>());
            assert_eq!(
                partials.iter().sum::<u64>(),
                sequential,
                "chunk {chunk_len}"
            );
            assert_eq!(partials.len(), items.len().div_ceil(chunk_len));
        }
    }

    #[test]
    fn auto_chunking_matches_the_sequential_fold() {
        let items: Vec<u64> = (0..10_000).map(|i| i * 7 % 1009).collect();
        let partials = par_chunks_auto(&items, |c| c.iter().sum::<u64>());
        assert!(!partials.is_empty());
        assert_eq!(
            partials.iter().sum::<u64>(),
            items.iter().sum::<u64>(),
            "chunk boundaries never change an associative fold"
        );
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let partials = par_chunks(&[] as &[u8], 16, |c| c.len());
        assert!(partials.is_empty());
        assert!(par_chunks_auto(&[] as &[u8], |c| c.len()).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        par_chunks(&[1, 2, 3], 0, |c| c.len());
    }

    #[test]
    fn par_map_preserves_item_order_and_indices() {
        let items: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let mapped = par_map(&items, |i, &v| (i, v + 1));
        let expected: Vec<(usize, u64)> =
            items.iter().enumerate().map(|(i, &v)| (i, v + 1)).collect();
        assert_eq!(mapped, expected);
    }

    #[test]
    fn par_map_empty_and_single() {
        assert!(par_map(&[] as &[u8], |_, &b| b).is_empty());
        assert_eq!(par_map(&[9u8], |i, &b| (i, b)), vec![(0, 9)]);
    }

    #[test]
    fn observer_accounts_for_every_item_without_changing_results() {
        let items: Vec<u64> = (0..300).collect();
        let plain = par_map(&items, |i, &v| i as u64 + v);
        let observer = PoolObserver::default();
        let observed = par_map_observed(&items, Some(&observer), |i, &v| i as u64 + v);
        assert_eq!(plain, observed);
        assert!(observer.workers.get() >= 1);
        assert_eq!(
            observer.items_per_worker.summary().sum,
            items.len() as u64,
            "every item is claimed by exactly one worker"
        );
        assert!(observer.queue_depth.get() >= 0);
    }

    #[test]
    fn observer_on_the_single_item_fallback_counts_one_worker() {
        let observer = PoolObserver::default();
        let out = par_map_observed(&[5u8], Some(&observer), |_, &b| b * 2);
        assert_eq!(out, vec![10]);
        assert_eq!(observer.workers.get(), 1);
        assert_eq!(observer.items_per_worker.summary().sum, 1);
    }

    /// The satellite-3 bug: a shared observer's queue-depth gauge is a
    /// per-call scope, not a cross-call high-water mark. Before the
    /// fix, the second (tiny) call read the first call's depth.
    #[test]
    fn queue_depth_resets_between_calls_sharing_an_observer() {
        let observer = PoolObserver::default();
        let big: Vec<u64> = (0..4000).collect();
        par_map_observed(&big, Some(&observer), |_, &v| v);
        let after_big = observer.queue_depth.get();
        assert!(after_big >= 0);

        par_map_observed(&[1u64, 2], Some(&observer), |_, &v| v);
        let after_small = observer.queue_depth.get();
        assert!(
            after_small <= 2,
            "second call must report its own depth (≤ 2 unclaimed), \
             not the first call's high-water mark ({after_big}); got {after_small}"
        );
    }

    /// The satellite-2 bug: a worker panic must surface the *original*
    /// payload on the submitting thread, not a generic
    /// `expect("par_map worker panicked")`.
    #[test]
    fn worker_panic_rethrows_the_original_payload() {
        let items: Vec<u64> = (0..100).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, |i, &v| {
                if i == 37 {
                    panic!("boom-42 at item {v}");
                }
                v
            })
        }))
        .expect_err("the map must rethrow");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload is the original panic message");
        assert_eq!(msg, "boom-42 at item 37");
    }

    /// And its sibling half: once one item panics, the batch is
    /// poisoned — remaining items stop being claimed instead of running
    /// to completion behind a dead sibling. A zero-worker pool makes
    /// the schedule deterministic (every task runs in order on the
    /// submitting thread; leaf `0..1` executes first by the
    /// keep-the-lower-half split rule), so after the poison *nothing*
    /// may run. On a pool with workers the bound is inherently
    /// scheduling-dependent — a preempted submitter can let one worker
    /// drain the batch before the poisoning leaf runs — which is
    /// exactly why this pins the degenerate point instead.
    #[test]
    fn siblings_stop_claiming_after_a_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let executed = AtomicUsize::new(0);
        let items: Vec<u64> = (0..10_000).collect();
        let rt = Runtime::with_workers(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.install(|| {
                par_map(&items, |i, &v| {
                    if i == 0 {
                        panic!("die early");
                    }
                    executed.fetch_add(1, Ordering::Relaxed);
                    v
                })
            })
        }));
        assert!(result.is_err());
        let ran = executed.load(Ordering::Relaxed);
        assert_eq!(ran, 0, "the poisoned batch ran {ran} items after the panic");
    }
}
