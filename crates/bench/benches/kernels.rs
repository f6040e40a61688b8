//! Micro-benches of the core algorithmic kernels the analyses rest on.

use criterion::{criterion_group, criterion_main, Criterion};
use hbbtv_bench::matcher_workload;
use hbbtv_filterlists::{bundled, RequestContext, UrlView};
use hbbtv_graph::Graph;
use hbbtv_net::Url;
use hbbtv_policies::{render_policy, sha1_hex, PolicyProfile, SimHash};
use hbbtv_stats::{kruskal_wallis, mann_whitney_u};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    // Filter-list matching over a mixed URL set.
    let lists = bundled::all();
    let urls: Vec<Url> = (0..200)
        .map(|i| {
            let host = match i % 5 {
                0 => "tvping.com".to_string(),
                1 => "ad.doubleclick.net".to_string(),
                2 => format!("cdn{}.hbbtv-kanal{}.de", i, i),
                3 => "an.xiti.com".to_string(),
                _ => format!("track{:02}.de", i % 38 + 1),
            };
            format!("http://{host}/path/{i}?site=s{i}").parse().unwrap()
        })
        .collect();
    c.bench_function("filterlist_matching_200_urls", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for u in &urls {
                for l in &lists {
                    if l.matches(u, RequestContext::third_party_image()) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
    // Same workload through the zero-alloc view path (one borrowed view
    // per URL instead of one per list probe), and through the retained
    // naive linear scan — the before/after pair for the indexed engine.
    let list_refs = bundled::all_refs();
    c.bench_function("filterlist_matching_200_urls_view", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for u in &urls {
                let view = UrlView::of_url(u);
                for l in &list_refs {
                    if l.matches_view(&view, RequestContext::third_party_image()) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });
    c.bench_function("filterlist_matching_200_urls_linear", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for u in &urls {
                for l in &list_refs {
                    if l.matches_linear(u, RequestContext::third_party_image()) {
                        hits += 1;
                    }
                }
            }
            black_box(hits)
        })
    });

    // Indexed vs linear at synthetic list scales: real lists run from
    // hundreds (smart-TV lists) to tens of thousands (EasyList) of
    // rules; the indexed engine should be flat while linear grows.
    for n in [100usize, 1_000, 10_000] {
        let list = matcher_workload::synthetic_list(n, 7);
        let work = matcher_workload::url_workload(64, n, 11);
        c.bench_function(&format!("matcher_indexed_{n}_rules_64_urls"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for u in &work {
                    let view = UrlView::of_url(u);
                    if list.matches_view(&view, RequestContext::third_party_image()) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
        c.bench_function(&format!("matcher_linear_{n}_rules_64_urls"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for u in &work {
                    if list.matches_linear(u, RequestContext::third_party_image()) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
    }

    // Rank-test kernels on study-shaped samples.
    let groups: Vec<Vec<f64>> = (0..5)
        .map(|g| (0..300).map(|i| ((i * 7 + g * 13) % 97) as f64).collect())
        .collect();
    c.bench_function("kruskal_wallis_5x300", |b| {
        b.iter(|| black_box(kruskal_wallis(black_box(&groups)).unwrap()))
    });
    c.bench_function("mann_whitney_300v300", |b| {
        b.iter(|| black_box(mann_whitney_u(&groups[0], &groups[1]).unwrap()))
    });

    // Policy hashing kernels.
    let policy = render_policy(&PolicyProfile::typical("Bench TV", "Bench Media"));
    c.bench_function("sha1_policy_text", |b| {
        b.iter(|| black_box(sha1_hex(black_box(policy.as_bytes()))))
    });
    c.bench_function("simhash_policy_text", |b| {
        b.iter(|| black_box(SimHash::of_text(black_box(&policy))))
    });

    // Graph metrics on a hub-and-spoke topology like Figure 8's.
    let mut g = Graph::new();
    for hub in 0..12 {
        for ch in 0..40 {
            g.add_edge(&format!("hub{hub}"), &format!("ch{hub}_{ch}"));
        }
        g.add_edge(&format!("hub{hub}"), "tvping.com");
    }
    c.bench_function("graph_average_path_length_500_nodes", |b| {
        b.iter(|| black_box(g.average_path_length()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
