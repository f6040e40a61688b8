//! Deterministic parallel maps over `std::thread::scope`.
//!
//! [`par_map`] maps a function over a slice and returns the results
//! **in item order** — so any left-to-right merge over them produces
//! exactly the sequential result, regardless of executor count or of
//! which executor ran which item. Two callers build on it:
//!
//! * The study harness fans every `(run, visit)` slot of a study out in
//!   one call (`StudyHarness::run_all`); each item is one hermetic
//!   visit, and the item that completes a run assembles it from the
//!   run's visits in canonical channel order.
//! * The heavy analysis loops are folds over independent captures:
//!   the analysis engine's per-capture scan, column fill, filter-list
//!   probes and row-chunk partials when it seals an epoch.
//!   [`par_chunks`] splits a slice into fixed-length chunks and
//!   `par_map`s the per-chunk partial statistics. (The naive oracle
//!   that checks the engine scans each run in one plain loop.)
//!
//! Each call runs on the calling thread plus `executors − 1` threads
//! spawned in one scope; every executor claims items one at a time from
//! a shared counter, so a slow item never strands the rest of the batch
//! behind it. A call made from inside an item runs inline on that
//! item's thread: nesting never multiplies threads.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable fixing the global executor count (read once,
/// at first use), the calling thread included: `HBBTV_POOL_WORKERS=1`
/// runs every call inline on its caller.
pub const WORKERS_ENV: &str = "HBBTV_POOL_WORKERS";

/// The chunk length of the engine's per-row work (capture scans, column
/// fills, memo-miss scans, row partials), whose items cost tens to
/// hundreds of nanoseconds, so a chunk costs 0.1–1 ms. A scoped helper
/// thread costs about 30 µs to spawn and join on an idle 2-vCPU box, and
/// milliseconds when the host holds back the other vCPU, so a batch goes
/// parallel only once it spans more than one chunk.
pub(crate) const CHUNK_LEN: usize = 4096;

/// The chunk length of the engine's filter-list probes: one new URL
/// (about 3.4 µs: seven list queries plus the leak needles) or one
/// class-memo miss (about 1.3 µs: five list queries). A chunk costs
/// 0.3–0.9 ms, the same grain as a [`CHUNK_LEN`] chunk of cheap items,
/// so a few hundred probes already split across executors.
pub(crate) const PROBE_CHUNK_LEN: usize = 256;

thread_local! {
    /// The executor count installed by [`Runtime::install`].
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread executes `par_map` items, so calls nested
    /// inside an item run inline.
    static IN_ITEM: Cell<bool> = const { Cell::new(false) };
}

/// The executor count of parallel calls: a plain number, the calling
/// thread included. [`Runtime::global`] is the process-wide default;
/// [`Runtime::with_workers`] + [`Runtime::install`] override it for one
/// closure (the scaling probe and the forced-count determinism tests).
/// A runtime owns no threads: each call spawns its own in a scope.
#[derive(Debug)]
pub struct Runtime {
    workers: usize,
}

impl Runtime {
    /// A runtime of `workers` executors, the calling thread included
    /// (clamped to at most 512). Zero and one both run every call
    /// inline, strictly in item order.
    pub fn with_workers(workers: usize) -> Runtime {
        Runtime {
            workers: workers.min(512),
        }
    }

    /// The process-wide runtime: `HBBTV_POOL_WORKERS` executors when
    /// set, else one per hardware thread.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| Runtime::with_workers(configured_workers()))
    }

    /// Number of executors, the calling thread included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// How many executors a parallel call from this thread gets now:
    /// one inside an item, else the installed or global count (at least
    /// one).
    pub fn current_workers() -> usize {
        if IN_ITEM.get() {
            return 1;
        }
        INSTALLED
            .get()
            .unwrap_or_else(|| Runtime::global().workers())
            .max(1)
    }

    /// Runs `f` with this runtime's executor count for every
    /// `par_map`/`par_chunks` the calling thread issues inside it.
    /// Installations nest; the previous count is restored on return or
    /// unwind.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.set(self.0);
            }
        }
        let _restore = Restore(INSTALLED.replace(Some(self.workers)));
        f()
    }
}

/// The global executor count (see [`WORKERS_ENV`]).
fn configured_workers() -> usize {
    if let Ok(v) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 512);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` in `chunk_len`-sized chunks and returns the
/// per-chunk results in chunk order.
///
/// The final chunk may be shorter. With a single chunk, or with one
/// executor, `f` runs on the calling thread — the result is identical
/// either way, which is what makes the analyses over it deterministic.
///
/// # Panics
///
/// Panics if `chunk_len` is zero, or rethrows the original payload if
/// `f` panics.
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

/// Maps `f` over `items` and returns the results **in item order**.
/// `f` receives `(index, &item)` so callers can derive per-item state
/// (seeds, clock offsets) from the canonical position rather than from
/// scheduling order.
///
/// The calling thread and `executors − 1` scoped threads claim items
/// one at a time and write each result to its item's slot. With one
/// item, one executor, or when called from inside another `par_map`
/// item, the call is an in-order loop on the calling thread — the
/// result is identical either way, which is what makes everything built
/// on top of it deterministic.
///
/// # Panics
///
/// Rethrows the first panic with its **original payload** (via
/// [`std::panic::resume_unwind`]) after the other executors have
/// stopped claiming items and joined.
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
    let executors = Runtime::current_workers().min(items.len());
    if executors <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // `next` and `poisoned` publish no data: results travel through the
    // joined threads' return values and the payload through its mutex.
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let payload = Mutex::new(None);
    let claim = || {
        let outer = IN_ITEM.replace(true);
        let mut done = Vec::new();
        while !poisoned.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(r) => done.push((i, r)),
                Err(p) => {
                    poisoned.store(true, Ordering::Relaxed);
                    payload
                        .lock()
                        .expect("nothing panics while holding the payload lock")
                        .get_or_insert(p);
                }
            }
        }
        IN_ITEM.set(outer);
        done
    };
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        // A helper the OS refuses (EAGAIN under a thread limit) is
        // skipped: the caller's own claim loop takes whatever the
        // helpers leave, so fewer executors change no result.
        let spawned: Vec<_> = (1..executors)
            .filter_map(|_| spawn_helper(s, claim))
            .collect();
        let mut parts = vec![claim()];
        parts.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
        );
        parts
    });
    if let Some(p) = payload
        .into_inner()
        .expect("nothing panics while holding the payload lock")
    {
        resume_unwind(p);
    }
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item produces a result"))
        .collect()
}

/// Starts one helper executor in scope `s`, or `None` if the OS cannot
/// create the thread.
fn spawn_helper<'scope, T: Send + 'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> Option<std::thread::ScopedJoinHandle<'scope, T>> {
    #[cfg(test)]
    if tests::REFUSE_SPAWNS.get() {
        return None;
    }
    std::thread::Builder::new().spawn_scoped(s, f).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Makes [`spawn_helper`] fail on this thread, as it does when
        /// the OS refuses a thread.
        pub(super) static REFUSE_SPAWNS: Cell<bool> = const { Cell::new(false) };
    }

    /// The forced executor counts: 0 and 1 run inline, 2 is the
    /// reference box, 8 oversubscribes it.
    const FORCED: [usize; 4] = [0, 1, 2, 8];

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

    /// At the engine's chunk length an input of 10,000 items splits
    /// into three chunks whose partials sum to the sequential fold.
    #[test]
    fn engine_chunk_length_matches_the_sequential_fold() {
        let items: Vec<u64> = (0..10_000).map(|i| i * 7 % 1009).collect();
        let partials = par_chunks(&items, CHUNK_LEN, |c| c.iter().sum::<u64>());
        assert_eq!(partials.len(), 3);
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
        assert!(par_chunks(&[] as &[u8], CHUNK_LEN, |c| c.len()).is_empty());
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
    fn global_pool_has_pinned_worker_count() {
        let rt = Runtime::global();
        assert!(rt.workers() >= 1);
        assert_eq!(rt.workers(), Runtime::global().workers());
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = Runtime::with_workers(1);
        let inner = Runtime::with_workers(2);
        outer.install(|| {
            assert_eq!(Runtime::current_workers(), 1);
            inner.install(|| assert_eq!(Runtime::current_workers(), 2));
            assert_eq!(Runtime::current_workers(), 1);
        });
    }

    /// Every index is claimed and executed exactly once, whatever the
    /// executor count.
    #[test]
    fn splitting_covers_every_index_exactly_once() {
        for workers in FORCED {
            let hits: Vec<AtomicUsize> = (0..2048).map(|_| AtomicUsize::new(0)).collect();
            let out = Runtime::with_workers(workers).install(|| {
                par_map(&hits, |i, cell: &AtomicUsize| {
                    cell.fetch_add(1, Ordering::Relaxed);
                    i
                })
            });
            assert_eq!(out, (0..2048).collect::<Vec<_>>(), "{workers} workers");
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}, {workers} workers");
            }
        }
    }

    /// When the OS refuses every helper thread, the caller claims the
    /// whole batch itself: results stay complete and in order, each
    /// item runs once, and all of it on the calling thread.
    #[test]
    fn refused_helper_threads_leave_the_batch_to_the_caller() {
        let caller = std::thread::current().id();
        let hits: Vec<AtomicUsize> = (0..512).map(|_| AtomicUsize::new(0)).collect();
        REFUSE_SPAWNS.set(true);
        let out = Runtime::with_workers(8).install(|| {
            par_map(&hits, |i, cell: &AtomicUsize| {
                cell.fetch_add(1, Ordering::Relaxed);
                (i, std::thread::current().id())
            })
        });
        REFUSE_SPAWNS.set(false);
        assert_eq!(out.len(), hits.len());
        for (i, (idx, thread)) in out.into_iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(thread, caller, "item {i} left the calling thread");
            assert_eq!(hits[i].load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    /// A panic must surface the *original* payload on the calling
    /// thread, not a generic join error, at every executor count.
    #[test]
    fn worker_panic_rethrows_the_original_payload() {
        let items: Vec<u64> = (0..100).collect();
        for workers in FORCED {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Runtime::with_workers(workers).install(|| {
                    par_map(&items, |i, &v| {
                        if i == 37 {
                            panic!("boom-42 at item {v}");
                        }
                        v
                    })
                })
            }))
            .expect_err("the map must rethrow");
            let msg = caught
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
                .expect("payload is the original panic message");
            assert_eq!(msg, "boom-42 at item 37", "{workers} workers");
        }
    }

    /// Once one item panics, the batch is poisoned — remaining items
    /// stop being claimed instead of running to completion behind a
    /// dead sibling. One executor makes the schedule deterministic
    /// (items run in order on the calling thread), so after the panic
    /// *nothing* may run. With more executors the bound is inherently
    /// scheduling-dependent — a preempted caller can let another
    /// executor drain the batch before the panicking item runs — which
    /// is exactly why this pins the degenerate point instead.
    #[test]
    fn siblings_stop_claiming_after_a_panic() {
        let executed = AtomicUsize::new(0);
        let items: Vec<u64> = (0..10_000).collect();
        let rt = Runtime::with_workers(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
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
