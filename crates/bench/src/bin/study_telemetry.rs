//! `study_telemetry` — end-to-end study run under `Profile` telemetry,
//! written to `BENCH_study.json`.
//!
//! Usage:
//!
//! ```text
//! study_telemetry [output.json] [--scale <0..1>] [--seed <u64>]
//! ```
//!
//! Runs all five measurement runs with a `Profile` scope (sim-time
//! journal plus wall-clock histograms), then computes the full report
//! under spans, and reports per-run visit/exchange totals, wall-time
//! percentiles for the instrumented spans, and per-stage analysis
//! times. The reconciliation invariant — summed per-visit exchange
//! counters equal the dataset's captured exchanges — is asserted here
//! on every run.
//!
//! The `scaling` block reruns study + analysis at 1, 2, 4, … executors
//! (up to the machine's parallelism), asserting along the way that the
//! rendered report is byte-identical at every executor count.

use hbbtv_bench::cli::study_args_or_exit;
use hbbtv_study::obs::{MemoryRecorder, SimClock, Telemetry, TelemetryMode};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyHarness, TelemetryConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = study_args_or_exit(
        "study_telemetry [output.json] [--scale <0..1>] [--seed <u64>]",
        0.1,
    );
    let (scale, seed) = (args.scale, args.seed);
    let out = args
        .positional
        .last()
        .cloned()
        .unwrap_or_else(|| "BENCH_study.json".to_string());

    eprintln!("study_telemetry: seed {seed}, scale {scale}");
    let eco = Ecosystem::with_scale(seed, scale);

    let journal = Arc::new(MemoryRecorder::new());
    let harness = StudyHarness::with_telemetry(&eco, TelemetryConfig::profile(journal.clone()));
    let t0 = Instant::now();
    let dataset = harness.run_all();
    let study_wall = t0.elapsed().as_secs_f64();
    let tel = harness.telemetry().expect("profile mode records telemetry");
    let events = journal.take();

    // Reconciliation: per-visit exchange counters must sum to the
    // dataset's captured exchanges, run by run.
    for (run_tel, run_ds) in tel.runs.iter().zip(&dataset.runs) {
        assert_eq!(
            run_tel.exchanges_recorded,
            run_ds.captures.len() as u64,
            "run {}: telemetry exchanges disagree with the dataset",
            run_tel.run
        );
    }

    // The naive oracle first, then the analysis engine, each under its
    // own Profile scope so the per-stage wall histograms can be compared
    // side by side.
    let naive_tel = Telemetry::scope(
        TelemetryMode::Profile,
        SimClock::starting_at(hbbtv_net::Timestamp::MEASUREMENT_START),
        1 << 55,
    );
    let t1 = Instant::now();
    let naive_report = StudyReport::compute_naive_with_telemetry(&eco, &dataset, &naive_tel);
    let naive_wall = t1.elapsed().as_secs_f64();
    std::hint::black_box(&naive_report);

    let t1 = Instant::now();
    let analysis_tel = Telemetry::scope(
        TelemetryMode::Profile,
        SimClock::starting_at(hbbtv_net::Timestamp::MEASUREMENT_START),
        1 << 56,
    );
    let report = StudyReport::compute_with_telemetry(&eco, &dataset, &analysis_tel);
    let analysis_wall = t1.elapsed().as_secs_f64();
    std::hint::black_box(&report);

    // Drift gate: the engine must render the byte-identical report. A mismatch here means an analysis regressed, not just
    // slowed down.
    let rendered = report.render(&dataset);
    assert_eq!(
        rendered,
        naive_report.render(&dataset),
        "engine report drifted from the naive reference"
    );

    let visits = tel.total_visits();
    let mut sections = Vec::new();
    sections.push(format!(
        "  \"study\": {{ \"runs\": {}, \"visits\": {}, \"exchanges\": {}, \"bytes\": {}, \"journal_events\": {}, \"wall_s\": {:.3}, \"visits_per_s\": {:.1} }}",
        tel.runs.len(),
        visits,
        tel.total_exchanges(),
        tel.total_bytes(),
        events.len(),
        study_wall,
        visits as f64 / study_wall.max(1e-9)
    ));

    let mut run_rows = Vec::new();
    for run in &tel.runs {
        let visit_wall = run.histograms.get("wall.visit");
        let (p50, p99) = visit_wall.map_or((0, 0), |h| (h.p50, h.p99));
        run_rows.push(format!(
            "    {{ \"run\": \"{}\", \"visits\": {}, \"exchanges\": {}, \"bytes\": {}, \"visit_wall_p50_us\": {}, \"visit_wall_p99_us\": {} }}",
            run.run, run.visits, run.exchanges_recorded, run.bytes_recorded, p50, p99
        ));
    }
    sections.push(format!("  \"runs\": [\n{}\n  ]", run_rows.join(",\n")));

    // Per-stage naive-vs-engine walls from the two scopes' span
    // histograms (the `frame_*` keys hold the engine's numbers);
    // `speedup` is naive / engine, rounded to one decimal. The engine's
    // epoch sealing gets its own stage line (no naive counterpart)
    // instead of being charged to whichever stage ran first.
    let frame_walls = analysis_tel.histograms_snapshot();
    let frame_build_us = frame_walls.get("wall.frame.build").map_or(0, |h| h.max);
    let mut stage_rows = vec![format!(
        "    \"frame_build\": {{ \"frame_us\": {frame_build_us} }}"
    )];
    for (name, naive_h) in naive_tel.histograms_snapshot() {
        let Some(stage) = name.strip_prefix("wall.analysis.") else {
            continue;
        };
        let frame_us = frame_walls.get(&name).map_or(0, |h| h.max);
        let speedup = naive_h.max as f64 / (frame_us as f64).max(1.0);
        stage_rows.push(format!(
            "    \"{stage}\": {{ \"naive_us\": {}, \"frame_us\": {frame_us}, \"speedup\": {speedup:.1} }}",
            naive_h.max
        ));
    }
    sections.push(format!(
        "  \"analysis\": {{ \"naive_wall_s\": {naive_wall:.3}, \"frame_wall_s\": {analysis_wall:.3}, \"speedup\": {:.1}, \"frame_build_us\": {frame_build_us}, \"stages\": {{\n{}\n  }} }}",
        naive_wall / analysis_wall.max(1e-9),
        stage_rows.join(",\n")
    ));

    // The 1→N-core scaling sweep: the whole study plus the engine's
    // analysis at doubling executor counts (the calling thread
    // included), each point gated on rendering the byte-identical
    // report.
    let max_workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut counts = vec![1usize, 2, 4];
    counts.push(max_workers);
    counts.sort_unstable();
    counts.dedup();
    let mut scaling_rows = Vec::new();
    for &k in &counts {
        let rt = hbbtv_study::analysis::Runtime::with_workers(k);
        let (ds_k, report_k, study_s, analysis_s) = rt.install(|| {
            let t = Instant::now();
            let ds = StudyHarness::new(&eco).run_all();
            let study_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let report = StudyReport::compute(&eco, &ds);
            let analysis_s = t.elapsed().as_secs_f64();
            (ds, report, study_s, analysis_s)
        });
        assert_eq!(
            report_k.render(&ds_k),
            rendered,
            "rendered report drifted at {k} workers"
        );
        eprintln!("scaling: {k} workers -> study {study_s:.3}s, analysis {analysis_s:.3}s");
        scaling_rows.push(format!(
            "    {{ \"workers\": {k}, \"study_wall_s\": {study_s:.3}, \"analysis_wall_s\": {analysis_s:.3} }}"
        ));
    }
    // Record the largest worker count actually swept, not the raw
    // `available_parallelism` probe (which reports 1 in restricted
    // environments even though larger pools ran).
    let swept_max = *counts.last().expect("the sweep has at least one point");
    sections.push(format!(
        "  \"scaling\": {{ \"max_workers\": {swept_max}, \"points\": [\n{}\n  ] }}",
        scaling_rows.join(",\n")
    ));

    // The incremental engine: feed the same dataset in k = 5%-of-N
    // epochs under an out-of-core budget, rendering a live delta report
    // at three prefixes. Each prefix is hard-gated byte-identical
    // against a full recompute; the delta-vs-full ratio is recorded
    // (target >=5x at the 0.95 prefix), not asserted.
    let total_exchanges: usize = dataset.runs.iter().map(|r| r.captures.len()).sum();
    let epoch = (total_exchanges / 20).max(1);
    let frame_budget = 1usize << 19;
    let mut inc = hbbtv_study::analysis::IncrementalStudy::with_budget(Some(frame_budget));
    let mut append_wall = 0.0f64;
    let mut fed = 0usize;
    let fractions = [0.5f64, 0.75, 0.95];
    let targets: Vec<usize> = fractions
        .iter()
        .map(|f| ((total_exchanges as f64 * f) as usize).max(1))
        .collect();
    let mut next_target = 0usize;
    let mut prefix_rows = Vec::new();
    for run in &dataset.runs {
        let mut meta = run.clone();
        let caps = std::mem::take(&mut meta.captures);
        let t = Instant::now();
        inc.push_run(meta);
        append_wall += t.elapsed().as_secs_f64();
        for chunk in caps.chunks(epoch) {
            let t = Instant::now();
            inc.extend_run(chunk.to_vec());
            append_wall += t.elapsed().as_secs_f64();
            fed += chunk.len();
            while next_target < targets.len() && fed >= targets[next_target] {
                let frac = fractions[next_target];
                let t = Instant::now();
                let delta_render = inc.render(&eco);
                let delta_s = t.elapsed().as_secs_f64();
                let prefix_ds = inc.dataset().clone();
                let t = Instant::now();
                let full_render = StudyReport::compute(&eco, &prefix_ds).render(&prefix_ds);
                let full_s = t.elapsed().as_secs_f64();
                assert_eq!(
                    delta_render, full_render,
                    "incremental report drifted from the full recompute at the {frac} prefix"
                );
                let ratio = full_s / delta_s.max(1e-9);
                eprintln!(
                    "incremental: prefix {frac} ({fed} exchanges) -> delta {delta_s:.4}s \
                     vs full {full_s:.4}s ({ratio:.1}x)"
                );
                prefix_rows.push(format!(
                    "    {{ \"fraction\": {frac}, \"exchanges\": {fed}, \"delta_report_s\": {delta_s:.4}, \"full_recompute_s\": {full_s:.4}, \"ratio\": {ratio:.1} }}"
                ));
                next_target += 1;
            }
        }
    }
    let t = Instant::now();
    let final_render = inc.render(&eco);
    let final_delta_s = t.elapsed().as_secs_f64();
    assert_eq!(
        final_render, rendered,
        "incremental final render drifted from the one-shot engine report"
    );
    let append_rate = total_exchanges as f64 / append_wall.max(1e-9);
    eprintln!(
        "incremental: {total_exchanges} exchanges appended in {append_wall:.3}s \
         ({append_rate:.0}/s), peak {} resident bytes under a {frame_budget}-byte budget, \
         {} spill writes / {} loads",
        inc.peak_resident_bytes(),
        inc.spill_writes(),
        inc.spill_loads()
    );
    sections.push(format!(
        "  \"incremental\": {{ \"exchanges\": {total_exchanges}, \"epoch_exchanges\": {epoch}, \"append_wall_s\": {append_wall:.3}, \"append_exchanges_per_s\": {append_rate:.0}, \"budget_bytes\": {frame_budget}, \"peak_resident_bytes\": {}, \"spill_writes\": {}, \"spill_loads\": {}, \"delta_recomputes\": {}, \"final_delta_report_s\": {final_delta_s:.4}, \"prefixes\": [\n{}\n  ] }}",
        inc.peak_resident_bytes(),
        inc.spill_writes(),
        inc.spill_loads(),
        inc.delta_recomputes(),
        prefix_rows.join(",\n")
    ));

    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"scale\": {scale},\n{}\n}}\n",
        sections.join(",\n")
    );
    std::fs::write(&out, &json).expect("writing the benchmark report");
    println!(
        "wrote {out}: {} visits, {} exchanges in {:.2}s study + {:.2}s analysis",
        visits,
        tel.total_exchanges(),
        study_wall,
        analysis_wall
    );
}
