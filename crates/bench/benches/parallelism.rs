//! Benches of the parallel execution layer: the parallel study against
//! its sequential reference, the channel-parallel single run against
//! the in-order protocol, and the chunked analysis map against a plain
//! fold.

use criterion::{criterion_group, criterion_main, Criterion};
use hbbtv_study::analysis::par_chunks;
use hbbtv_study::{Ecosystem, RunKind, StudyHarness};
use std::hint::black_box;

fn bench_parallelism(c: &mut Criterion) {
    // Whole-study wall clock: every (run, visit) slot in one ordered
    // parallel map vs. one thread for everything. The speedup ceiling
    // is min(visits, cores).
    let eco = Ecosystem::with_scale(42, 0.05);
    c.bench_function("run_all_parallel_scale_0_05", |b| {
        b.iter(|| black_box(StudyHarness::new(&eco).run_all()))
    });
    c.bench_function("run_all_sequential_scale_0_05", |b| {
        b.iter(|| black_box(StudyHarness::new(&eco).run_all_sequential()))
    });

    // Per-channel fan-out inside a single run: hermetic visits over
    // par_map vs. the same visits in protocol order on one
    // thread. Isolates the visit-level grain from the run-level one.
    c.bench_function("single_run_channel_parallel_scale_0_05", |b| {
        b.iter(|| black_box(StudyHarness::new(&eco).run_parallel(RunKind::Red)))
    });
    c.bench_function("single_run_sequential_scale_0_05", |b| {
        b.iter(|| black_box(StudyHarness::new(&eco).run(RunKind::Red)))
    });

    // The chunked map against a plain fold on an analysis-shaped
    // workload (per-item work comparable to a filter-list match).
    let items: Vec<u64> = (0..200_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
    let work = |chunk: &[u64]| {
        chunk
            .iter()
            .map(|&v| {
                let mut x = v;
                for _ in 0..32 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                x
            })
            .fold(0u64, u64::wrapping_add)
    };
    c.bench_function("par_chunks_200k_items", |b| {
        b.iter(|| {
            black_box(
                par_chunks(&items, 4096, work)
                    .into_iter()
                    .fold(0u64, u64::wrapping_add),
            )
        })
    });
    c.bench_function("sequential_fold_200k_items", |b| {
        b.iter(|| black_box(work(&items)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallelism
}
criterion_main!(benches);
