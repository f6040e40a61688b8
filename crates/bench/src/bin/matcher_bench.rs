//! `matcher_bench` — fixed-seed indexed-vs-linear matcher throughput,
//! written to `BENCH_matcher.json` for the `--matcher-smoke` gate.
//!
//! Usage:
//!
//! ```text
//! matcher_bench [output.json]
//! ```
//!
//! Measures the same workloads as the `kernels` criterion bench: the
//! bundled Table III lists over a mixed 200-URL set, and synthetic
//! lists of 10^2..10^5 rules over a 64-URL mix. "Linear" is the seed
//! implementation retained as `matches_linear` (per-call URL
//! serialization, full rule scan); "indexed" is the kind-partitioned
//! bucket engine with its Aho–Corasick residual prefilter behind
//! `matches_view`.
//!
//! Each synthetic list is built inside its row's counting window, so
//! the row's `automaton_states` and query cells describe that engine.

use hbbtv_bench::matcher_workload::{synthetic_list, url_workload};
use hbbtv_filterlists::{bundled, stats, FilterList, MatchOutcome, RequestContext, UrlView};
use hbbtv_net::Url;
use std::time::Instant;

/// Fixed repeat counts per workload, recorded in the report so
/// trajectories stay comparable across PRs (no adaptive timing: the
/// JSON metadata is deterministic, only the throughput numbers move).
const ITERS_BUNDLED: usize = 40;

/// Repeats for each synthetic scale, matched by index with `SCALES`.
const ITERS_SCALES: [usize; 4] = [40, 16, 6, 3];

/// Synthetic rule counts exercised by the scaling section.
const SCALES: [usize; 4] = [100, 1_000, 10_000, 100_000];

/// Workload seeds (list contents and URL mix).
const LIST_SEED: u64 = 7;
const URL_SEED: u64 = 11;

/// Runs `work` exactly `iters` times and returns the best-observed
/// seconds per run.
fn time_best<F: FnMut() -> usize>(iters: usize, mut work: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(work());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// One counting pass over the workload (outside the timed loops):
/// resets the global engine cells, runs the indexed engine once with
/// counting on, and freezes the totals. Drives `matching_rule_view`
/// (not the boolean `matches_view`) so every hit records its true
/// first-match distance — the boolean path answers some queries from
/// the exception index without a distance, which used to leave the
/// histogram degenerate (p50 == p99 == max at every scale).
fn instrumented_pass(
    lists: &[&FilterList],
    urls: &[Url],
    ctx: RequestContext,
) -> stats::MatcherStats {
    stats::reset();
    stats::enable();
    std::hint::black_box(rule_pass(lists, urls, ctx));
    stats::disable();
    stats::snapshot()
}

/// Query-path cells only; engine-construction cells are reported
/// separately by [`load_json`] because they are recorded at build
/// time, not gated on the per-query switch.
fn stats_json(s: &stats::MatcherStats) -> String {
    format!(
        "{{ \"queries\": {}, \"bucket_probes\": {}, \"bucket_candidates\": {}, \"residual_checks\": {}, \"residual_walks\": {}, \"hits\": {}, \"rules_per_query\": {:.2}, \"first_match_p50\": {}, \"first_match_p99\": {}, \"first_match_max\": {} }}",
        s.queries,
        s.bucket_probes,
        s.bucket_candidates,
        s.residual_checks,
        s.residual_walks,
        s.hits,
        s.rules_per_query(),
        s.first_match_distance.p50,
        s.first_match_distance.p99,
        s.first_match_distance.max
    )
}

/// Engine-construction cells: how many engines this window built, and
/// the DFA states they materialized.
fn load_json(s: &stats::MatcherStats) -> String {
    format!(
        "{{ \"automaton_states\": {}, \"engines_built\": {} }}",
        s.automaton_states, s.engines_built
    )
}

fn indexed_pass(lists: &[&FilterList], urls: &[Url], ctx: RequestContext) -> usize {
    let mut hits = 0;
    for u in urls {
        let view = UrlView::of_url(u);
        for l in lists {
            if l.matches_view(&view, ctx) {
                hits += 1;
            }
        }
    }
    hits
}

/// The indexed engine via `matching_rule_view`: same decisions as
/// `matches_view`, but every positive answer names its rule (and so
/// records a real first-match distance when counting is on).
fn rule_pass(lists: &[&FilterList], urls: &[Url], ctx: RequestContext) -> usize {
    let mut hits = 0;
    for u in urls {
        let view = UrlView::of_url(u);
        for l in lists {
            match l.matching_rule_view(&view, ctx) {
                MatchOutcome::Blocked(_) | MatchOutcome::HostBlocked => hits += 1,
                MatchOutcome::Allowed | MatchOutcome::NoMatch => {}
            }
        }
    }
    hits
}

fn linear_pass(lists: &[&FilterList], urls: &[Url], ctx: RequestContext) -> usize {
    let mut hits = 0;
    for u in urls {
        for l in lists {
            if l.matches_linear(u, ctx) {
                hits += 1;
            }
        }
    }
    hits
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_matcher.json".to_string());
    let ctx = RequestContext::third_party_image();
    let mut sections = Vec::new();

    // Bundled Table III lists, probed together per URL as the fused
    // per-exchange classification does. Forcing the registry here also
    // records the boot-time engine constructions.
    stats::reset();
    let lists = bundled::all_refs();
    let boot = stats::snapshot();
    let urls: Vec<Url> = (0..200)
        .map(|i| {
            let host = match i % 5 {
                0 => "tvping.com".to_string(),
                1 => "ad.doubleclick.net".to_string(),
                2 => format!("cdn{i}.hbbtv-kanal{i}.de"),
                3 => "an.xiti.com".to_string(),
                _ => format!("track{:02}.de", i % 38 + 1),
            };
            format!("http://{host}/path/{i}?site=s{i}").parse().unwrap()
        })
        .collect();
    let hits = indexed_pass(&lists, &urls, ctx);
    assert_eq!(
        hits,
        linear_pass(&lists, &urls, ctx),
        "engines disagree on the bundled workload"
    );
    // Counting pass first, outside the timed loops, so the timed runs
    // below see the disabled (one relaxed load) path.
    let bundled_stats = instrumented_pass(&lists, &urls, ctx);
    let total_rules: usize = lists.iter().map(|l| l.len()).sum();
    let rule_counts: Vec<String> = lists
        .iter()
        .map(|l| format!("\"{}\": {}", l.name(), l.len()))
        .collect();

    let checks = (urls.len() * lists.len()) as f64;
    let t_idx = time_best(ITERS_BUNDLED, || indexed_pass(&lists, &urls, ctx));
    let t_lin = time_best(ITERS_BUNDLED, || linear_pass(&lists, &urls, ctx));
    let bundled_speedup = t_lin / t_idx;
    println!(
        "bundled lists      : indexed {:>12.0} checks/s, linear {:>12.0} checks/s, speedup {:.1}x",
        checks / t_idx,
        checks / t_lin,
        bundled_speedup
    );
    sections.push(format!(
        "  \"bundled\": {{ \"lists\": {}, \"rules\": {}, \"rule_counts\": {{ {} }}, \"urls\": {}, \"iters\": {}, \"hits\": {}, \"indexed_checks_per_s\": {:.0}, \"linear_checks_per_s\": {:.0}, \"speedup\": {:.2}, \"boot\": {}, \"engine\": {} }}",
        lists.len(),
        total_rules,
        rule_counts.join(", "),
        urls.len(),
        ITERS_BUNDLED,
        hits,
        checks / t_idx,
        checks / t_lin,
        bundled_speedup,
        load_json(&boot),
        stats_json(&bundled_stats)
    ));

    // Synthetic scales: indexed should stay flat while linear grows
    // with the rule count.
    let mut scale_rows = Vec::new();
    for (i, n) in SCALES.into_iter().enumerate() {
        let iters = ITERS_SCALES[i];
        let work = url_workload(64, n, URL_SEED);

        // Instrumented pass with the build itself inside the counting
        // window, so the row's load cells describe this engine.
        stats::reset();
        stats::enable();
        let list = synthetic_list(n, LIST_SEED);
        let one = [&list];
        let hits = rule_pass(&one, &work, ctx);
        stats::disable();
        let scale_stats = stats::snapshot();
        assert_eq!(
            hits,
            indexed_pass(&one, &work, ctx),
            "matching_rule_view disagrees with matches_view at {n} rules"
        );
        assert_eq!(
            hits,
            linear_pass(&one, &work, ctx),
            "engines disagree at {n} rules"
        );

        let checks = work.len() as f64;
        let t_idx = time_best(iters, || indexed_pass(&one, &work, ctx));
        let t_lin = time_best(iters, || linear_pass(&one, &work, ctx));
        println!(
            "{n:>6} rules       : indexed {:>12.0} urls/s, linear {:>12.0} urls/s, speedup {:.1}x",
            checks / t_idx,
            checks / t_lin,
            t_lin / t_idx
        );
        scale_rows.push(format!(
            "    {{ \"rules\": {}, \"urls\": {}, \"iters\": {}, \"hits\": {}, \"indexed_urls_per_s\": {:.0}, \"linear_urls_per_s\": {:.0}, \"speedup\": {:.2}, \"load\": {}, \"engine\": {} }}",
            n,
            work.len(),
            iters,
            hits,
            checks / t_idx,
            checks / t_lin,
            t_lin / t_idx,
            load_json(&scale_stats),
            stats_json(&scale_stats)
        ));
    }
    sections.push(format!("  \"scales\": [\n{}\n  ]", scale_rows.join(",\n")));

    let json = format!(
        "{{\n  \"list_seed\": {LIST_SEED},\n  \"url_seed\": {URL_SEED},\n  \"context\": \"third_party_image\",\n{}\n}}\n",
        sections.join(",\n")
    );
    std::fs::write(&out, &json).expect("writing the benchmark report");
    println!("wrote {out}");
    if bundled_speedup < 5.0 {
        eprintln!("warning: bundled-scale speedup below the 5x target");
    }
}
