//! The persistent work-stealing runtime behind [`par_map`] and
//! [`par_chunks`].
//!
//! One process-wide pool of pinned-count workers ([`Runtime::global`],
//! sized by `HBBTV_POOL_WORKERS` or the machine's parallelism) executes
//! every data-parallel call in the crate. Each worker owns a deque;
//! a call submits one *root task* covering the whole item range, and
//! tasks split in half on their way down — a worker popping a range
//! larger than the batch grain pushes the upper half back onto its own
//! deque (where idle workers steal it, oldest-and-largest first) and
//! keeps descending into the lower half. Splitting is therefore lazy:
//! when nobody is idle, a worker ends up executing large contiguous
//! ranges with no further scheduling traffic, and when thieves are
//! around, ranges halve until every executor is busy. A global injector
//! queue receives work submitted from threads that are not pool workers.
//!
//! **Nested calls never spawn threads.** A `par_map` or `par_chunks`
//! issued from inside a pool worker pushes its root task onto the
//! *current worker's* deque — exposing the sub-batch for stealing — and
//! the worker then runs the help-loop: it executes tasks (its own
//! sub-batch's first, then anything stealable, including tasks of other
//! batches) until its sub-batch completes. The submitting thread of a
//! top-level call participates the same way, so a call with `k` pool
//! workers has at most `k + 1` executors, no matter how deeply calls
//! nest. This is what keeps nested fan-outs (the analysis engine's
//! segment refreshes, each folding row chunks) at a fixed thread count
//! instead of an outer × inner army of threads, and it is what lets an
//! idle worker steal the tail visits of a slow run
//! (`StudyHarness::run_all` fans runs and visits over the same pool, so
//! the `visit_wall_p99 ≈ 400× p50` channels no longer gate the whole
//! study).
//!
//! **Determinism is by construction, not by scheduling.** Results land
//! in per-item slots indexed by canonical position, and `f` receives the
//! canonical index, so outputs are byte-identical for any worker count,
//! steal pattern, or split order — the same argument the old pool made,
//! kept test-enforced by the determinism suite and the pool stress
//! suite's forced worker counts.
//!
//! **Panic discipline.** A panicking item poisons its batch: the first
//! payload is kept, sibling leaves stop claiming items at the next
//! claim, and once the batch drains the original payload is rethrown on
//! the submitting thread via [`std::panic::resume_unwind`]. Workers
//! survive (the pool is shared, process-wide state).
//!
//! **Adaptive chunk sizing.** The runtime keeps the queued-task
//! high-water mark of recent batches — the same signal the
//! `pool.analysis.queue_depth` telemetry reports — and adjusts a
//! process-wide oversubscription factor: deep queues mean splitting was
//! finer than the executor count could consume, so initial chunks grow;
//! starved queues shrink them. [`adaptive_chunk_len`] feeds that factor
//! to the capture-scan and epoch-sealing call sites.
//!
//! # The one `unsafe` in the workspace
//!
//! A persistent pool must hold task references that the type system
//! cannot tie to the submitting call's stack frame, so [`erase`]
//! transmutes the batch reference to `'static` — exactly the lifetime
//! erasure `std::thread::scope` performs internally. Soundness rests on
//! one invariant, enforced in [`run_map`]: the submitting thread does
//! not return (not even by unwinding — a process-abort guard covers the
//! window) until the batch's outstanding-task count reaches zero, and
//! every task increments that count before it is pushed and decrements
//! it only after its leaf finishes running. When the count is zero, no
//! queue and no executor holds a reference into the batch.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Environment variable forcing the global pool's worker count (read
/// once, at first use). `HBBTV_POOL_WORKERS=1` pins the pool to a
/// single worker; CI uses 1 vs 2 to prove report bytes are
/// scheduling-independent.
pub const WORKERS_ENV: &str = "HBBTV_POOL_WORKERS";

/// Upper clamp on [`adaptive_chunk_len`] — the old fixed chunk length,
/// now the coarsest the adaptation may go.
pub(crate) const MAX_CHUNK: usize = 4096;

/// Lower clamp on [`adaptive_chunk_len`]: below this, per-chunk
/// bookkeeping (one partial allocation per chunk) stops being noise.
pub(crate) const MIN_CHUNK: usize = 64;

/// Poison-tolerant lock: batch poisoning is handled explicitly, and no
/// queue invariant can be broken mid-lock (pushes and pops are single
/// `VecDeque` calls), so a poisoned mutex just means some unrelated
/// panic unwound through a lock scope.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What the pool needs to know about a batch, monomorphization-free.
/// The generic payload (items, closure, result slots) lives in
/// `Batch<'_, T, R, F>` behind the [`RangeJob`] vtable.
pub(crate) struct BatchCore {
    /// Total items in the batch.
    total: usize,
    /// Ranges at or below this length execute without further
    /// splitting.
    grain: usize,
    /// Live tasks referencing the batch (queued or executing), plus the
    /// root before submission. Zero means complete: no reference into
    /// the batch exists outside the submitting frame.
    outstanding: AtomicUsize,
    /// Items claimed by started leaves — drives the queue-depth
    /// observation at claim time, matching the old pool's gauge.
    claimed: AtomicUsize,
    /// Set by the first panicking leaf; later leaves stop claiming
    /// items at the next claim.
    poisoned: AtomicBool,
    /// High-water mark of unclaimed items observed at claim time.
    depth_hw: AtomicI64,
    /// High-water mark of queued tasks (pool-wide) while this batch
    /// pushed — the adaptation signal.
    queued_hw: AtomicUsize,
    /// Tasks of this batch taken from another worker's deque.
    steals: AtomicU64,
    /// Items executed per worker slot; the last slot is shared by all
    /// non-pool executors (submitting threads).
    worker_items: Vec<AtomicU64>,
}

impl BatchCore {
    fn new(total: usize, grain: usize, slots: usize) -> Self {
        BatchCore {
            total,
            grain: grain.max(1),
            outstanding: AtomicUsize::new(0),
            claimed: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            depth_hw: AtomicI64::new(0),
            queued_hw: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            worker_items: (0..slots).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// The monomorphization-free face of a batch: the pool splits ranges
/// and the batch executes leaves.
pub(crate) trait RangeJob: Sync {
    /// The batch's scheduling state.
    fn core(&self) -> &BatchCore;
    /// Runs `f` over `range`, writing result slots; catches panics into
    /// the batch. `slot` indexes [`BatchCore::worker_items`].
    fn execute(&self, range: Range<usize>, slot: usize);
}

/// A unit of schedulable work: a contiguous index range of one batch.
struct Task {
    job: &'static dyn RangeJob,
    range: Range<usize>,
}

/// State shared by a pool's workers and every submitting thread.
struct Shared {
    /// One deque per worker; owners push/pop at the back, thieves pop
    /// at the front (oldest task = largest range = steal-half).
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Work submitted from non-worker threads.
    injector: Mutex<VecDeque<Task>>,
    /// Tasks sitting in queues (not executing).
    queued: AtomicUsize,
    /// Executors blocked in [`idle_wait`].
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Initial-chunk oversubscription factor for
    /// [`adaptive_chunk_len`], adapted from batch queue depths.
    oversub: AtomicUsize,
}

thread_local! {
    /// Set on pool worker threads: their pool and worker index. Nested
    /// calls dispatch here first, so they run on the current worker.
    static WORKER: std::cell::RefCell<Option<(Arc<Shared>, usize)>> =
        const { std::cell::RefCell::new(None) };
    /// Pools installed by [`Runtime::install`], innermost last.
    static AMBIENT: std::cell::RefCell<Vec<Arc<Shared>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The pool this thread's parallel calls dispatch to, and this thread's
/// worker index when it *is* a pool worker.
fn current_pool() -> (Arc<Shared>, Option<usize>) {
    let worker = WORKER.with(|w| w.borrow().clone());
    if let Some((shared, id)) = worker {
        return (shared, Some(id));
    }
    if let Some(shared) = AMBIENT.with(|a| a.borrow().last().cloned()) {
        return (shared, None);
    }
    (Runtime::global().shared.clone(), None)
}

/// Pops the next task: own deque (back, for locality), then the
/// injector, then other workers' deques (front — the oldest and largest
/// range, which is the split-in-half steal). The flag reports a steal
/// from another worker's deque.
fn find_task(shared: &Shared, me: Option<usize>) -> Option<(Task, bool)> {
    if let Some(id) = me {
        if let Some(t) = lock(&shared.deques[id]).pop_back() {
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            return Some((t, false));
        }
    }
    if let Some(t) = lock(&shared.injector).pop_front() {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        return Some((t, false));
    }
    let n = shared.deques.len();
    let start = me.map_or(0, |id| id + 1);
    for off in 0..n {
        let victim = (start + off) % n;
        if Some(victim) == me {
            continue;
        }
        if let Some(t) = lock(&shared.deques[victim]).pop_front() {
            shared.queued.fetch_sub(1, Ordering::SeqCst);
            return Some((t, true));
        }
    }
    None
}

/// Queues a task (own deque for workers, injector otherwise) and wakes
/// a sleeper if any executor is parked.
fn push_task(shared: &Shared, me: Option<usize>, task: Task) {
    let core = task.job.core();
    // Count before publishing: a task can be popped (and `queued`
    // decremented) the instant it lands in a deque, so incrementing
    // afterwards could underflow the counter.
    let queued = shared.queued.fetch_add(1, Ordering::SeqCst) + 1;
    core.queued_hw.fetch_max(queued, Ordering::Relaxed);
    match me {
        Some(id) => lock(&shared.deques[id]).push_back(task),
        None => lock(&shared.injector).push_back(task),
    }
    if shared.sleepers.load(Ordering::SeqCst) > 0 {
        let _guard = lock(&shared.sleep);
        shared.wake.notify_all();
    }
}

/// Splits a task down to its batch's grain (pushing upper halves for
/// thieves), claims the remaining leaf, executes it, and retires it —
/// waking everyone when the batch completes.
fn run_task(shared: &Shared, me: Option<usize>, mut task: Task) {
    let job = task.job;
    let core = job.core();
    if !core.poisoned.load(Ordering::Relaxed) {
        while task.range.len() > core.grain {
            let mid = task.range.start + task.range.len() / 2;
            core.outstanding.fetch_add(1, Ordering::SeqCst);
            push_task(
                shared,
                me,
                Task {
                    job,
                    range: mid..task.range.end,
                },
            );
            task.range.end = mid;
        }
    }
    let len = task.range.len();
    let claimed = core.claimed.fetch_add(len, Ordering::Relaxed) + len;
    core.depth_hw
        .fetch_max(core.total.saturating_sub(claimed) as i64, Ordering::Relaxed);
    let slot = me.unwrap_or(core.worker_items.len() - 1);
    job.execute(task.range, slot);
    if core.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
        let _guard = lock(&shared.sleep);
        shared.wake.notify_all();
    }
}

/// Parks until new work is pushed, a batch completes, or `done` holds.
/// The short timeout is a liveness backstop: a lost wakeup costs a
/// millisecond, never a hang.
fn idle_wait(shared: &Shared, done: impl Fn() -> bool) {
    shared.sleepers.fetch_add(1, Ordering::SeqCst);
    let guard = lock(&shared.sleep);
    if shared.queued.load(Ordering::SeqCst) == 0
        && !done()
        && !shared.shutdown.load(Ordering::SeqCst)
    {
        let _ = shared.wake.wait_timeout(guard, Duration::from_millis(1));
    }
    shared.sleepers.fetch_sub(1, Ordering::SeqCst);
}

/// The help-loop: executes tasks — the waited-on batch's first, by deque
/// discipline, but also anything stealable from other batches — until
/// `core`'s batch completes. This is how the submitting thread
/// participates and how nested calls run without blocking a worker.
fn help_until_done(shared: &Shared, me: Option<usize>, core: &BatchCore) {
    while core.outstanding.load(Ordering::Acquire) != 0 {
        match find_task(shared, me) {
            Some((task, stolen)) => {
                if stolen {
                    task.job.core().steals.fetch_add(1, Ordering::Relaxed);
                }
                run_task(shared, me, task);
            }
            None => idle_wait(shared, || core.outstanding.load(Ordering::Acquire) == 0),
        }
    }
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((shared.clone(), id)));
    loop {
        match find_task(&shared, Some(id)) {
            Some((task, stolen)) => {
                if stolen {
                    task.job.core().steals.fetch_add(1, Ordering::Relaxed);
                }
                run_task(&shared, Some(id), task);
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                idle_wait(&shared, || false);
            }
        }
    }
}

/// A work-stealing worker pool. [`Runtime::global`] is the process-wide
/// instance every parallel call uses by default; private instances
/// ([`Runtime::with_workers`] + [`Runtime::install`]) exist for the
/// scaling bench and the forced-worker-count determinism tests.
pub struct Runtime {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers())
            .finish()
    }
}

impl Runtime {
    /// A private pool with exactly `workers` worker threads (clamped to
    /// at most 512). The submitting thread of each call participates
    /// too, so a call sees at most `workers + 1` executors. Zero
    /// workers is allowed: every call then executes entirely — and
    /// strictly in task order — on the submitting thread, which is the
    /// deterministic degenerate point the poisoning tests pin down.
    pub fn with_workers(workers: usize) -> Runtime {
        let workers = workers.min(512);
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            oversub: AtomicUsize::new(8),
        });
        let threads = (0..workers)
            .map(|id| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("hbbtv-pool-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawning pool worker")
            })
            .collect();
        Runtime { shared, threads }
    }

    /// The process-wide pool: `HBBTV_POOL_WORKERS` workers when set,
    /// else one per hardware thread. Created on first use, never torn
    /// down.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| Runtime::with_workers(configured_workers()))
    }

    /// Number of pool worker threads (fixed at construction).
    pub fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    /// Runs `f` with this pool as the calling thread's dispatch target:
    /// every `par_map`/`par_chunks` issued inside (and, transitively, on
    /// this pool's workers) executes here instead of on the global
    /// pool. Installations nest; the previous target is restored on
    /// return or unwind.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Uninstall;
        impl Drop for Uninstall {
            fn drop(&mut self) {
                AMBIENT.with(|a| {
                    a.borrow_mut().pop();
                });
            }
        }
        AMBIENT.with(|a| a.borrow_mut().push(self.shared.clone()));
        let _uninstall = Uninstall;
        f()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = lock(&self.shared.sleep);
            self.shared.wake.notify_all();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The global pool's configured size (see [`WORKERS_ENV`]).
fn configured_workers() -> usize {
    if let Ok(v) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 512);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The fold-chunk length the capture-scan analyses should use for `len`
/// items: enough chunks to spread over every executor times the adapted
/// oversubscription factor, clamped to `64..=4096`. Chunk boundaries
/// never change analysis output (the per-chunk partials merge
/// associatively, which the engine-parity suite enforces), so the length
/// is free to follow the telemetry.
pub(crate) fn adaptive_chunk_len(len: usize) -> usize {
    let (shared, _) = current_pool();
    let executors = shared.deques.len() + 1;
    let oversub = shared.oversub.load(Ordering::Relaxed).max(1);
    len.div_ceil(executors * oversub)
        .clamp(MIN_CHUNK, MAX_CHUNK)
}

/// Scheduling statistics of one completed batch, fed to
/// [`super::parallel::PoolObserver`] by the observed entry points.
pub(crate) struct BatchStats {
    /// Items executed per executor that touched the batch (nonzero
    /// tallies only).
    pub per_executor_items: Vec<u64>,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// High-water mark of unclaimed items observed at claim time.
    pub depth_high_water: i64,
}

/// Erases the batch's borrow so tasks can sit in `'static` queues.
///
/// # Safety
///
/// Callers must guarantee the referent outlives every `Task` holding
/// the returned reference. [`run_map`] upholds this by not returning —
/// aborting the process rather than unwinding — until the batch's
/// outstanding-task count is zero, at which point no queue or executor
/// holds a task of this batch. This is the same lifetime erasure
/// `std::thread::scope` performs on its closure environment, with the
/// same join-before-return discipline.
#[allow(unsafe_code)]
fn erase<'scope>(job: &'scope (dyn RangeJob + 'scope)) -> &'static (dyn RangeJob + 'static) {
    unsafe {
        std::mem::transmute::<&'scope (dyn RangeJob + 'scope), &'static (dyn RangeJob + 'static)>(
            job,
        )
    }
}

/// One parallel map call: items, closure, and result slots, borrowed
/// from the submitting frame for the duration of the batch.
struct Batch<'scope, T, R, F> {
    items: &'scope [T],
    f: &'scope F,
    slots: &'scope [Mutex<Option<R>>],
    core: BatchCore,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, R, F> RangeJob for Batch<'_, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    fn core(&self) -> &BatchCore {
        &self.core
    }

    fn execute(&self, range: Range<usize>, slot: usize) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut done = 0u64;
            for i in range {
                if self.core.poisoned.load(Ordering::Relaxed) {
                    break;
                }
                let value = (self.f)(i, &self.items[i]);
                *lock(&self.slots[i]) = Some(value);
                done += 1;
            }
            done
        }));
        match result {
            Ok(done) => {
                self.core.worker_items[slot].fetch_add(done, Ordering::Relaxed);
            }
            Err(payload) => {
                // Poison first so siblings stop at their next claim,
                // then keep the *first* payload for the rethrow.
                self.core.poisoned.store(true, Ordering::SeqCst);
                let mut slot = lock(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }
}

/// Maps `f` over `items` on the current pool (see [`current_pool`]) and
/// returns the results in item order plus the batch's scheduling stats.
/// Single-item and empty inputs run inline on the calling thread — the
/// result is identical either way.
///
/// Rethrows the first worker panic (original payload) after the batch
/// has fully drained.
pub(crate) fn run_map<T, R, F>(items: &[T], f: &F) -> (Vec<R>, BatchStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let total = items.len();
    if total <= 1 {
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        return (
            out,
            BatchStats {
                per_executor_items: vec![total as u64],
                steals: 0,
                depth_high_water: total as i64,
            },
        );
    }

    let (shared, me) = current_pool();
    let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let batch = Batch {
        items,
        f,
        slots: &slots,
        core: BatchCore::new(total, 1, shared.deques.len() + 1),
        panic: Mutex::new(None),
    };

    {
        // Abort rather than unwind past live tasks: between submission
        // and completion, queues hold lifetime-erased references into
        // `batch`. `help_until_done` cannot panic by construction
        // (leaf panics are caught into the batch; locks are
        // poison-tolerant), so the guard is a soundness backstop, the
        // moral equivalent of `std::thread::scope` aborting when it
        // cannot join.
        struct AbortOnUnwind;
        impl Drop for AbortOnUnwind {
            fn drop(&mut self) {
                std::process::abort();
            }
        }
        let guard = AbortOnUnwind;
        let job = erase(&batch);
        batch.core.outstanding.store(1, Ordering::SeqCst);
        push_task(
            &shared,
            me,
            Task {
                job,
                range: 0..total,
            },
        );
        help_until_done(&shared, me, &batch.core);
        std::mem::forget(guard);
    }

    // Feed the adaptation: deep queues mean the split grain was finer
    // than the executors could drain; starved queues mean it was too
    // coarse for stealing to balance.
    let executors = shared.deques.len() + 1;
    let queued_hw = batch.core.queued_hw.load(Ordering::Relaxed);
    let oversub = shared.oversub.load(Ordering::Relaxed);
    if queued_hw > executors * 8 && oversub > 2 {
        shared.oversub.store(oversub / 2, Ordering::Relaxed);
    } else if queued_hw < executors && oversub < 32 {
        shared.oversub.store(oversub * 2, Ordering::Relaxed);
    }

    if let Some(payload) = lock(&batch.panic).take() {
        resume_unwind(payload);
    }

    let stats = BatchStats {
        per_executor_items: batch
            .core
            .worker_items
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .filter(|&c| c > 0)
            .collect(),
        steals: batch.core.steals.load(Ordering::Relaxed),
        depth_high_water: batch.core.depth_hw.load(Ordering::Relaxed),
    };
    drop(batch);
    let out = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every item produces a result")
        })
        .collect();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_has_pinned_worker_count() {
        let rt = Runtime::global();
        assert!(rt.workers() >= 1);
        assert_eq!(rt.workers(), Runtime::global().workers());
    }

    #[test]
    fn private_pool_executes_and_tears_down() {
        let rt = Runtime::with_workers(2);
        assert_eq!(rt.workers(), 2);
        let items: Vec<u64> = (0..997).collect();
        let (out, stats) = rt.install(|| run_map(&items, &|i, &v| i as u64 * 2 + v));
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &v)| i as u64 * 2 + v)
            .collect();
        assert_eq!(out, expected);
        assert_eq!(stats.per_executor_items.iter().sum::<u64>(), 997);
        drop(rt); // joins its workers; a hang here is a shutdown bug
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = Runtime::with_workers(1);
        let inner = Runtime::with_workers(2);
        outer.install(|| {
            let (before, _) = current_pool();
            assert!(Arc::ptr_eq(&before, &outer.shared));
            inner.install(|| {
                let (mid, _) = current_pool();
                assert!(Arc::ptr_eq(&mid, &inner.shared));
            });
            let (after, _) = current_pool();
            assert!(Arc::ptr_eq(&after, &outer.shared));
        });
    }

    #[test]
    fn adaptive_chunk_len_is_clamped() {
        for len in [0usize, 1, 63, 64, 1000, 50_000, 10_000_000] {
            let c = adaptive_chunk_len(len);
            assert!((MIN_CHUNK..=MAX_CHUNK).contains(&c), "len {len} -> {c}");
        }
    }

    #[test]
    fn splitting_covers_every_index_exactly_once() {
        let rt = Runtime::with_workers(3);
        let hits: Vec<AtomicUsize> = (0..2048).map(|_| AtomicUsize::new(0)).collect();
        rt.install(|| {
            let (out, _) = run_map(&hits, &|i, cell: &AtomicUsize| {
                cell.fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, (0..2048).collect::<Vec<_>>());
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }
}
