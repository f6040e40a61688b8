//! Stress suite for the scoped parallel map: output determinism under
//! forced executor counts, nested calls that stay on their item's
//! thread, the empty/single fast paths, and `install`'s restore on
//! unwind.
//!
//! Executor counts are forced in-process by installing a
//! [`Runtime::with_workers`] runtime. The `HBBTV_POOL_WORKERS` env
//! override sizes the *global* runtime, which reads the environment
//! exactly once, so
//! `global_runtime_renders_identically_at_env_worker_counts` re-runs
//! this binary once per setting.

use hbbtv_study::analysis::{par_chunks, par_chunks_auto, par_map, Runtime, WORKERS_ENV};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyHarness};
use std::collections::HashSet;
use std::process::Command;
use std::sync::Mutex;

/// The forced executor counts: 0 and 1 run inline on the caller, 2
/// matches a 2-core box, and 8 oversubscribes it.
const FORCED: [usize; 4] = [0, 1, 2, 8];

/// Brackets the child's render in its stdout, which also carries the
/// test harness's own lines.
const RENDER_BEGIN: &str = "=== render begin ===\n";
const RENDER_END: &str = "=== render end ===\n";

/// The study every cross-worker render comparison uses.
fn render_study() -> Ecosystem {
    Ecosystem::with_scale(23, 0.03)
}

/// A spin that keeps an item busy for a few microseconds.
fn spin(v: u64, rounds: u32) -> u64 {
    let mut x = v;
    for _ in 0..rounds {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    x
}

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
    let eco = render_study();
    let reference = {
        let ds = Runtime::with_workers(1).install(|| StudyHarness::new(&eco).run_all());
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

/// Nested `par_chunks` inside `par_map` returns ordered results, every
/// inner chunk runs on its outer item's thread, and the set of threads
/// that executed *anything* stays within the executor count — nesting
/// never spawns a second set of threads.
#[test]
fn nested_par_chunks_inside_par_map_stays_on_the_pool() {
    let workers = 2;
    let rt = Runtime::with_workers(workers);
    let outer: Vec<u64> = (0..8).collect();
    let inner: Vec<u64> = (0..3_000).collect();
    let seen = Mutex::new(HashSet::new());
    let out = rt.install(|| {
        par_map(&outer, |i, &base| {
            let item_thread = std::thread::current().id();
            seen.lock().unwrap().insert(item_thread);
            let partials = par_chunks(&inner, 128, |chunk| {
                let chunk_thread = std::thread::current().id();
                seen.lock().unwrap().insert(chunk_thread);
                assert_eq!(
                    chunk_thread, item_thread,
                    "an inner chunk left its outer item's thread"
                );
                // Enough work per chunk that a spawned executor, had
                // the nested call made one, would claim chunks too.
                chunk
                    .iter()
                    .map(|&v| {
                        std::hint::black_box(spin(v, 200));
                        v.wrapping_add(base)
                    })
                    .sum::<u64>()
            });
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
        threads <= workers.max(1),
        "nested calls must not spawn threads: saw {threads} distinct \
         threads at {workers} executors"
    );
}

/// Deep nesting (map → chunks → map) neither deadlocks nor perturbs
/// results: every nested level runs inline on its item's thread.
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

/// Empty and single-item calls take the inline fast path at every
/// executor count.
#[test]
fn empty_and_single_item_fast_paths() {
    for workers in FORCED {
        let rt = Runtime::with_workers(workers);
        rt.install(|| {
            assert!(par_map(&[] as &[u8], |_, &b| b).is_empty());
            assert_eq!(par_map(&[7u8], |i, &b| (i, b)), vec![(0, 7)]);
            assert!(par_chunks(&[] as &[u8], 16, |c| c.len()).is_empty());
            assert!(par_chunks_auto(&[] as &[u8], |c| c.len()).is_empty());
        });
    }
}

/// `install` restores the outer executor count when its closure
/// panics: a later `par_map` under a one-executor runtime still runs
/// every item on the calling thread.
#[test]
fn install_restores_the_outer_count_when_its_closure_panics() {
    Runtime::with_workers(1).install(|| {
        let caught = std::panic::catch_unwind(|| {
            Runtime::with_workers(8).install(|| panic!("inside install"))
        });
        assert!(caught.is_err());
        let me = std::thread::current().id();
        let items: Vec<u64> = (0..2_000).collect();
        let threads = par_map(&items, |_, &v| {
            std::hint::black_box(spin(v, 200));
            std::thread::current().id()
        });
        assert!(
            threads.iter().all(|&t| t == me),
            "the panicking install leaked its executor count"
        );
    });
}

/// The global runtime has a pinned size and survives many calls: every
/// call joins the threads it spawned before it returns.
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

/// The child of `global_runtime_renders_identically_at_env_worker_counts`:
/// prints the render of a study made on the global runtime, which its
/// parent sizes through `HBBTV_POOL_WORKERS`.
#[test]
#[ignore = "run by global_runtime_renders_identically_at_env_worker_counts"]
fn env_worker_count_render_child() {
    let eco = render_study();
    let ds = StudyHarness::new(&eco).run_all();
    let rendered = StudyReport::compute(&eco, &ds).render(&ds);
    print!("{RENDER_BEGIN}{rendered}{RENDER_END}");
}

/// `HBBTV_POOL_WORKERS` sizes the global runtime once per process, so
/// each setting needs a process of its own: this test re-runs its own
/// binary at 1 and at 2 executors and requires both renders to equal
/// the sequential reference byte for byte.
#[test]
fn global_runtime_renders_identically_at_env_worker_counts() {
    let eco = render_study();
    let reference = {
        let ds = Runtime::with_workers(1).install(|| StudyHarness::new(&eco).run_all());
        StudyReport::compute(&eco, &ds).render(&ds)
    };
    let exe = std::env::current_exe().expect("the test binary's path");
    for workers in ["1", "2"] {
        let out = Command::new(&exe)
            .args([
                "--ignored",
                "--exact",
                "env_worker_count_render_child",
                "--nocapture",
            ])
            .env(WORKERS_ENV, workers)
            .output()
            .expect("the child test starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "child at {WORKERS_ENV}={workers} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let rendered = stdout
            .split_once(RENDER_BEGIN)
            .and_then(|(_, rest)| rest.split_once(RENDER_END))
            .map(|(render, _)| render)
            .unwrap_or_else(|| panic!("no render in the child's output:\n{stdout}"));
        assert!(
            rendered == reference,
            "rendered report drifted at {WORKERS_ENV}={workers}"
        );
    }
}
