//! Frame smoke: live incremental reports out of a streaming collector,
//! under an out-of-core segment budget.
//!
//! Run with `cargo run --release -p hbbtv-ingest --example frame_smoke`
//! (scripts/check.sh --frame-smoke does, with a 4 MiB
//! `HBBTV_FRAME_BUDGET_BYTES`). The smoke:
//!
//! 1. starts a collector and streams a small study into it through
//!    concurrent sharded TV sessions, run by run,
//! 2. after each run lands — while later runs are still to stream —
//!    renders a live report from the incremental engine and diffs it
//!    byte-for-byte against the post-hoc [`StudyReport::compute`] over
//!    the same prefix of runs,
//! 3. checks after every live report that the engine folded each
//!    segment's partials into its running accumulators at most once
//!    plus once per recompute (`partials_folded ≤ segments +
//!    delta_recomputes`): a report that re-merged history fails here,
//! 4. checks the segment budget actually engaged (segments spilled and
//!    resident bytes stayed at or under the cap) when one is set,
//! 5. diffs the final live render against the full in-process build.
//!
//! Exits nonzero (panics) on any failure, so it works as a CI gate.

use hbbtv_ingest::{
    shard_study, DiscoveryResponder, IngestConfig, IngestServer, LiveStudy, SimTvClient,
};
use hbbtv_study::analysis::frame_store::FRAME_BUDGET_ENV;
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyDataset, StudyHarness};
use std::time::{Duration, Instant};

fn main() {
    let server = IngestServer::start(IngestConfig::default()).expect("collector starts");
    let responder = DiscoveryResponder::start(
        "127.0.0.1:0".parse().expect("literal addr"),
        server.addr().port(),
    )
    .expect("discovery responder starts");
    let addr = server.addr();
    let budget = std::env::var(FRAME_BUDGET_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok());
    match budget {
        Some(b) => println!("collector on {addr}, segment budget {b} bytes"),
        None => println!("collector on {addr}, no segment budget"),
    }

    let eco = Ecosystem::with_scale(42, 0.05);
    let dataset = StudyHarness::new(&eco).run_all();
    let total_runs = dataset.runs.len();

    // Stream the study run by run so each run is complete on the
    // collector while the next is still to come: that is the mid-stream
    // window the live report is for. Each run still fans out over
    // concurrent shard sessions.
    let mut live = LiveStudy::new("frame-smoke").epoch_captures(97);
    let mut prefix = StudyDataset { runs: Vec::new() };
    for (done, run) in dataset.runs.iter().enumerate() {
        let one_run = StudyDataset {
            runs: vec![run.clone()],
        };
        let specs = shard_study("frame-smoke", &one_run, 2).expect("run shards");
        let threads: Vec<_> = specs
            .into_iter()
            .map(|spec| std::thread::spawn(move || SimTvClient::new().stream(addr, &spec)))
            .collect();
        for t in threads {
            let report = t.join().expect("session thread").expect("session streams");
            assert_eq!(report.acked_exchanges, report.exchanges);
        }
        // Earlier runs were drained by poll, so the streamed run is
        // complete exactly when the assembler holds one complete run.
        let deadline = Instant::now() + Duration::from_secs(60);
        while server.complete_runs("frame-smoke").is_empty() {
            if Instant::now() > deadline {
                panic!("timed out waiting for run {} to land", run.run);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(live.poll(&server), 1, "run {} lands live", run.run);

        // Live report mid-stream vs. post-hoc over the same prefix.
        prefix.runs.push(run.clone());
        let t0 = Instant::now();
        let live_render = live.render(&eco);
        let live_wall = t0.elapsed();
        let t0 = Instant::now();
        let post_hoc = StudyReport::compute(&eco, &prefix).render(&prefix);
        let full_wall = t0.elapsed();
        assert_eq!(
            live_render,
            post_hoc,
            "live report drifted from post-hoc after {} of {total_runs} runs",
            done + 1
        );
        let inc = live.incremental();
        assert!(
            inc.partials_folded() <= inc.segments() as u64 + inc.delta_recomputes(),
            "live reports re-folded history: {} partials folded for {} segments and {} recomputes",
            inc.partials_folded(),
            inc.segments(),
            inc.delta_recomputes()
        );
        println!(
            "live report OK after {}/{} runs: {} segments, {} partials folded, {} resident bytes, \
             delta {:?} vs full {:?}",
            done + 1,
            total_runs,
            inc.segments(),
            inc.partials_folded(),
            inc.resident_bytes(),
            live_wall,
            full_wall,
        );
    }

    // The budget, if set, must have held throughout.
    if let Some(b) = budget {
        let inc = live.incremental();
        assert!(
            inc.resident_bytes() <= b,
            "resident bytes {} exceed the {b}-byte budget",
            inc.resident_bytes()
        );
        println!(
            "budget OK: peak {} resident bytes, {} spill writes, {} spill loads",
            inc.peak_resident_bytes(),
            inc.spill_writes(),
            inc.spill_loads()
        );
    }

    // Final parity against the full in-process build.
    let in_process = StudyReport::compute(&eco, &dataset).render(&dataset);
    assert_eq!(
        live.render(&eco),
        in_process,
        "final live render drifted from the in-process build"
    );

    // Out-of-core proof: re-analyze the streamed dataset under a budget
    // an order of magnitude smaller than its in-RAM frame size, and
    // require that the spilled run completes with the identical render.
    let frame_bytes = live.incremental().peak_resident_bytes();
    let tiny = (frame_bytes / 8).max(4096);
    let mut spilled = hbbtv_study::analysis::IncrementalStudy::with_budget(Some(tiny));
    for run in live.dataset().runs.clone() {
        let mut meta = run;
        let caps = std::mem::take(&mut meta.captures);
        spilled.push_run(meta);
        for chunk in caps.chunks(97) {
            spilled.extend_run(chunk.to_vec());
        }
    }
    assert_eq!(
        spilled.render(&eco),
        in_process,
        "spilled-frame render drifted from the in-process build"
    );
    assert!(
        spilled.spill_writes() > 0,
        "a {tiny}-byte budget over a {frame_bytes}-byte frame must spill"
    );
    assert!(
        spilled.resident_bytes() <= tiny,
        "spilled run ended over budget: {} > {tiny}",
        spilled.resident_bytes()
    );
    println!(
        "out-of-core OK: {frame_bytes}-byte frame analyzed under a {tiny}-byte budget \
         ({} spill writes, {} spill loads)",
        spilled.spill_writes(),
        spilled.spill_loads()
    );
    println!(
        "frame smoke OK: {total_runs} runs, {} segments, {} exchanges, reports byte-identical",
        live.incremental().segments(),
        server.telemetry().counter_value("ingest.exchanges")
    );
    drop(responder);
    server.shutdown();
}
