//! Stress suite for the persistent work-stealing runtime: output
//! determinism under forced worker counts, nested calls without
//! thread-count blowup, the empty/single fast paths, and the
//! items-per-worker reconciliation invariant under stealing.
//!
//! Worker counts are forced in-process via private pools
//! ([`Runtime::with_workers`] + [`Runtime::install`]); the
//! `HBBTV_POOL_WORKERS` env override sizes the *global* pool the same
//! way and is exercised cross-process by `scripts/check.sh
//! --pool-smoke` (1- vs 2-worker rendered-report diff), since the
//! global pool reads the environment exactly once.

use hbbtv_study::analysis::{par_chunks, par_chunks_auto, par_map, par_map_observed};
use hbbtv_study::analysis::{PoolObserver, Runtime};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyHarness};
use std::collections::HashSet;
use std::sync::Mutex;

/// The forced worker counts of the issue's checklist: the degenerate
/// submitter-only pool, one worker, two, and "many" (more workers than
/// this machine has cores, so stealing and the sleep/wake protocol get
/// exercised under oversubscription).
const FORCED: [usize; 4] = [0, 1, 2, 8];

#[test]
fn par_map_is_deterministic_under_forced_worker_counts() {
    let items: Vec<u64> = (0..5_000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let f = |i: usize, &v: &u64| (i as u64) ^ v.rotate_left((i % 63) as u32);
    let reference: Vec<u64> = items.iter().enumerate().map(|(i, v)| f(i, v)).collect();
    for workers in FORCED {
        let rt = Runtime::with_workers(workers);
        let out = rt.install(|| par_map(&items, f));
        assert_eq!(out, reference, "{workers} workers");
    }
}

#[test]
fn chunk_partials_are_identical_across_worker_counts() {
    let items: Vec<u64> = (0..4_321).collect();
    let reference = par_chunks(&items, 97, |c| (c[0], c.iter().sum::<u64>()));
    for workers in FORCED {
        let rt = Runtime::with_workers(workers);
        let out = rt.install(|| par_chunks(&items, 97, |c| (c[0], c.iter().sum::<u64>())));
        assert_eq!(out, reference, "{workers} workers");
    }
}

/// The whole study — harness fan-out, parallel epoch sealing, segment
/// refreshes — renders byte-identically at every forced worker count, and
/// identically to the strictly sequential reference.
#[test]
fn study_report_renders_identically_at_every_worker_count() {
    let eco = Ecosystem::with_scale(23, 0.03);
    let reference = {
        let ds = StudyHarness::new(&eco).run_all_sequential();
        StudyReport::compute(&eco, &ds).render(&ds)
    };
    for workers in FORCED {
        let rt = Runtime::with_workers(workers);
        let rendered = rt.install(|| {
            let ds = StudyHarness::new(&eco).run_all();
            StudyReport::compute(&eco, &ds).render(&ds)
        });
        assert_eq!(
            rendered, reference,
            "rendered report drifted at {workers} workers"
        );
    }
}

/// Nested `par_chunks` inside `par_map` returns ordered results, and
/// the set of threads that executed *anything* stays within the pool's
/// executor bound (workers + the submitting thread) — the nested call
/// runs on the current worker and exposes chunks for stealing instead
/// of spawning a second thread army.
#[test]
fn nested_par_chunks_inside_par_map_stays_on_the_pool() {
    let workers = 2;
    let rt = Runtime::with_workers(workers);
    let outer: Vec<u64> = (0..8).collect();
    let inner: Vec<u64> = (0..3_000).collect();
    let seen = Mutex::new(HashSet::new());
    let out = rt.install(|| {
        par_map(&outer, |i, &base| {
            seen.lock().unwrap().insert(std::thread::current().id());
            let partials = par_chunks(&inner, 128, |chunk| {
                seen.lock().unwrap().insert(std::thread::current().id());
                chunk.iter().map(|v| v.wrapping_add(base)).sum::<u64>()
            });
            // Partial order is the chunk order, regardless of stealing.
            assert_eq!(partials.len(), inner.len().div_ceil(128));
            (i, partials.iter().sum::<u64>())
        })
    });
    let inner_sum: u64 = inner.iter().sum();
    for (i, (idx, sum)) in out.iter().enumerate() {
        assert_eq!(*idx, i);
        assert_eq!(*sum, inner_sum + outer[i] * inner.len() as u64);
    }
    let threads = seen.lock().unwrap().len();
    assert!(
        threads <= workers + 1,
        "nested calls must reuse pool threads: saw {threads} distinct \
         threads on a {workers}-worker pool"
    );
}

/// Deep nesting (map → chunks → map) neither deadlocks nor perturbs
/// results: each level helps drain its own sub-batch on the thread it
/// runs on.
#[test]
fn doubly_nested_calls_complete_with_correct_results() {
    let rt = Runtime::with_workers(2);
    let out = rt.install(|| {
        par_map(&[10u64, 20, 30], |_, &base| {
            let mids: Vec<u64> = (0..500).map(|i| base + i).collect();
            par_chunks_auto(&mids, |chunk| {
                par_map(chunk, |_, &v| v * 2).into_iter().sum::<u64>()
            })
            .into_iter()
            .sum::<u64>()
        })
    });
    let expect = |base: u64| -> u64 { (0..500).map(|i| (base + i) * 2).sum() };
    assert_eq!(out, vec![expect(10), expect(20), expect(30)]);
}

/// Empty and single-item calls take the inline fast path on the
/// persistent pool: correct results, observer reporting one executor,
/// no queued work left behind.
#[test]
fn empty_and_single_item_fast_paths() {
    for workers in FORCED {
        let rt = Runtime::with_workers(workers);
        rt.install(|| {
            assert!(par_map(&[] as &[u8], |_, &b| b).is_empty());
            assert_eq!(par_map(&[7u8], |i, &b| (i, b)), vec![(0, 7)]);
            assert!(par_chunks(&[] as &[u8], 16, |c| c.len()).is_empty());
            assert!(par_chunks_auto(&[] as &[u8], |c| c.len()).is_empty());

            let obs = PoolObserver::default();
            let out = par_map_observed(&[3u8], Some(&obs), |_, &b| b * 3);
            assert_eq!(out, vec![9]);
            assert_eq!(obs.workers.get(), 1, "{workers} workers");
            assert_eq!(obs.items_per_worker.summary().sum, 1);
            assert_eq!(obs.steals.get(), 0, "nothing to steal inline");
        });
    }
}

/// The reconciliation invariant under stealing: however tasks migrate
/// between deques, every item is executed exactly once, so the
/// items-per-worker histogram sums to the item count and the executor
/// count stays within the pool bound.
#[test]
fn items_per_worker_reconciles_under_stealing() {
    for workers in [2usize, 8] {
        let rt = Runtime::with_workers(workers);
        let items: Vec<u64> = (0..20_000).collect();
        let obs = PoolObserver::default();
        let out = rt.install(|| {
            par_map_observed(&items, Some(&obs), |i, &v| {
                // Uneven per-item work so deques drain at different
                // rates and stealing actually happens.
                let spins = if i % 97 == 0 { 400 } else { 4 };
                let mut x = v;
                for _ in 0..spins {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                x
            })
        });
        assert_eq!(out.len(), items.len());
        let summary = obs.items_per_worker.summary();
        assert_eq!(
            summary.sum,
            items.len() as u64,
            "{workers} workers: every item claimed exactly once"
        );
        assert_eq!(summary.count, obs.workers.get());
        assert!(
            obs.workers.get() <= workers as u64 + 1,
            "{workers}-worker pool reported {} executors",
            obs.workers.get()
        );
        assert!(obs.queue_depth.get() >= 0);
    }
}

/// The global pool exists, has a pinned size, and survives arbitrarily
/// many calls (no per-call thread spawning to leak).
#[test]
fn global_pool_survives_many_small_calls() {
    let n = Runtime::global().workers();
    assert!(n >= 1);
    for round in 0..200u64 {
        let items: Vec<u64> = (0..50).map(|i| i + round).collect();
        let out = par_map(&items, |_, &v| v * 2);
        assert_eq!(out[49], (49 + round) * 2);
    }
    assert_eq!(Runtime::global().workers(), n);
}
