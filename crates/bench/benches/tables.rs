//! One bench per table of the paper: the computation that regenerates
//! each table from captured traffic (Table I–V), plus the §IV-B funnel.

use criterion::{criterion_group, criterion_main, Criterion};
use hbbtv_bench::run_study_subset;
use hbbtv_study::analysis::{ConsentAnalysis, CookieAnalysis, FirstPartyMap, TrackingAnalysis};
use hbbtv_study::{tables, Ecosystem, RunKind};
use std::hint::black_box;

fn bench_tables(c: &mut Criterion) {
    // One shared dataset: General + Red at reduced scale.
    let (eco, dataset) = run_study_subset(7, 0.1, &[RunKind::General, RunKind::Red]);
    let fp = FirstPartyMap::identify(&dataset);
    let tracking = TrackingAnalysis::compute(&dataset, &fp);
    let cookies = CookieAnalysis::compute(&dataset, &fp);
    let consent = ConsentAnalysis::compute(&dataset);

    c.bench_function("funnel", |b| {
        b.iter(|| {
            let (report, finals) = eco.lineup().funnel(|_, ait| ait.signals_hbbtv());
            black_box((report, finals.len()))
        })
    });

    c.bench_function("table1", |b| {
        b.iter(|| {
            let cookies = CookieAnalysis::compute(black_box(&dataset), &fp);
            black_box(tables::table1(
                &dataset,
                &cookies,
                &dataset.protocol_splits(),
            ))
        })
    });

    c.bench_function("table2", |b| {
        b.iter(|| black_box(tables::table2(black_box(&cookies))))
    });

    c.bench_function("table3", |b| {
        b.iter(|| {
            let tracking = TrackingAnalysis::compute(black_box(&dataset), &fp);
            black_box(tables::table3(&tracking))
        })
    });

    c.bench_function("table4", |b| {
        b.iter(|| {
            let consent = ConsentAnalysis::compute(black_box(&dataset));
            black_box(tables::table4(&consent))
        })
    });

    c.bench_function("table5", |b| {
        b.iter(|| black_box(tables::table5(black_box(&consent))))
    });

    // The world generator itself (scan + 396 apps + policies).
    c.bench_function("world_generation", |b| {
        b.iter(|| black_box(Ecosystem::with_scale(3, 0.1)))
    });

    black_box(&tracking);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tables
}
criterion_main!(benches);
