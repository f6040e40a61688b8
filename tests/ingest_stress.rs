//! Soak / stress suite: the collector under fleet-scale concurrency.
//!
//! Two bars, from the ingest design note:
//!
//! 1. **Scale**: a thousand-plus concurrent sessions — far more
//!    sessions than reader threads — all land, with the `ingest.*`
//!    counters reconciling exactly against the data that was streamed.
//!    The sweep starts the collector under forced executor counts
//!    {1, 2, 8}, so the single-threaded, small, and oversubscribed
//!    decode shapes all prove out on the same workload.
//! 2. **Determinism**: a real harness-built study streamed through the
//!    collector reassembles into a dataset whose full analysis report
//!    renders byte-identically to the in-process build, and a spilling
//!    live study polled after every run renders each prefix
//!    byte-identically too.

use hbbtv_ingest::{shard_study, IngestConfig, IngestServer, LiveStudy, SimTvClient};
use hbbtv_study::analysis::Runtime;
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyDataset, StudyHarness};
use std::time::{Duration, Instant};

#[path = "golden_fixture.rs"]
mod golden_fixture;
use golden_fixture::golden_fixture;

/// 500 studies × 2 shard sessions each = 1000 concurrent sessions per
/// pool shape. The payload per session is tiny (the golden fixture), so
/// the pressure is all on connection handling, queueing, and assembly —
/// not on JSON throughput.
#[test]
fn thousand_concurrent_sessions_reconcile_at_every_pool_shape() {
    const STUDIES: usize = 500;
    let fixture = golden_fixture();
    let fixture_json = serde_json::to_string(&fixture).expect("fixture serializes");

    for workers in [1usize, 2, 8] {
        // The collector decodes at the executor count in effect where
        // it starts.
        let server = Runtime::with_workers(workers)
            .install(|| {
                IngestServer::start(IngestConfig {
                    max_sessions: 2 * STUDIES + 16,
                    ..IngestConfig::default()
                })
            })
            .expect("server starts");
        let addr = server.addr();

        // Pre-build every spec, then open all sessions at once.
        let mut specs = Vec::new();
        for s in 0..STUDIES {
            specs.extend(
                shard_study(&format!("fleet-{workers}-{s}"), &fixture, 2).expect("fixture shards"),
            );
        }
        assert_eq!(specs.len(), 2 * STUDIES);
        let expected_frames: u64 = {
            let client = SimTvClient::new();
            specs
                .iter()
                .map(|spec| client.frames(spec).expect("spec streams").len() as u64)
                .sum()
        };
        let expected_bytes: u64 = {
            let client = SimTvClient::new();
            specs
                .iter()
                .flat_map(|spec| client.frames(spec).expect("spec streams"))
                .map(|f| f.encoded_len() as u64)
                .sum()
        };

        let threads: Vec<_> = specs
            .into_iter()
            .map(|spec| std::thread::spawn(move || SimTvClient::new().stream(addr, &spec)))
            .collect();
        for t in threads {
            let report = t
                .join()
                .expect("session thread")
                .unwrap_or_else(|e| panic!("workers={workers}: session failed: {e}"));
            assert_eq!(report.acked_exchanges, report.exchanges);
        }

        // Every study reassembles byte-identically.
        for s in 0..STUDIES {
            let study = format!("fleet-{workers}-{s}");
            let streamed = server
                .wait_study(&study, 1, Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert_eq!(
                serde_json::to_string(&streamed).expect("streamed serializes"),
                fixture_json,
                "study {study} diverged from the in-process fixture"
            );
        }

        // Counter reconciliation against what was actually streamed.
        let tel = server.telemetry();
        let total_sessions = 2 * STUDIES as u64;
        assert_eq!(tel.counter_value("ingest.sessions"), total_sessions);
        assert_eq!(
            tel.counter_value("ingest.sessions_completed"),
            total_sessions
        );
        assert_eq!(tel.counter_value("ingest.sessions_rejected"), 0);
        assert_eq!(tel.counter_value("ingest.sessions_gc"), 0);
        assert_eq!(
            tel.counter_value("ingest.exchanges"),
            (STUDIES * fixture.runs[0].captures.len()) as u64,
            "every exchange decoded exactly once"
        );
        assert_eq!(
            tel.counter_value("ingest.frames"),
            expected_frames,
            "every frame consumed exactly once"
        );
        assert_eq!(
            tel.counter_value("ingest.bytes"),
            expected_bytes,
            "every byte the fleet wrote was read"
        );
        // Live-session accounting: every accepted session closed, so
        // the gauge is back to zero and the terminal counters cover the
        // accepts exactly (no observers in this fleet).
        let deadline = Instant::now() + Duration::from_secs(5);
        while tel.gauge("ingest.sessions_open").get() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(tel.gauge("ingest.sessions_open").get(), 0);
        assert_eq!(tel.counter_value("ingest.sessions_observer"), 0);
        server.shutdown();
    }
}

/// The determinism bar: a full harness-built study, streamed sharded
/// through the collector run by run, renders its complete analysis
/// report byte-identically to the in-process build. A [`LiveStudy`]
/// under a resident budget smaller than its frame polls the collector
/// after every run, and each live render equals the post-hoc render
/// over the same prefix of runs.
#[test]
fn streamed_study_renders_byte_identically_to_in_process() {
    /// About a third of the frame's resident size here (415 kB in
    /// memory), so segments spill.
    const BUDGET: usize = 128 * 1024;
    let eco = Ecosystem::with_scale(77, 0.05);
    let dataset = StudyHarness::new(&eco).run_all();
    let in_process_render = StudyReport::compute(&eco, &dataset).render(&dataset);

    let server = IngestServer::start(IngestConfig::default()).expect("server starts");
    let addr = server.addr();
    let mut live = LiveStudy::with_budget("real", Some(BUDGET)).epoch_captures(97);

    // Stream one run at a time, each sharded 3 ways over concurrent
    // sessions, so the live study reports while later runs are still
    // to come.
    let mut streamed_exchanges = 0u64;
    for (done, run) in dataset.runs.iter().enumerate() {
        let one_run = StudyDataset {
            runs: vec![run.clone()],
        };
        let specs = shard_study("real", &one_run, 3).expect("run shards");
        let threads: Vec<_> = specs
            .into_iter()
            .map(|spec| std::thread::spawn(move || SimTvClient::new().stream(addr, &spec)))
            .collect();
        for t in threads {
            let report = t.join().expect("session thread").expect("session streams");
            assert_eq!(report.acked_exchanges, report.exchanges);
            streamed_exchanges += report.exchanges;
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while live.poll(&server) == 0 {
            assert!(Instant::now() < deadline, "run {:?} never landed", run.run);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(live.runs_ingested(), done + 1);

        let prefix = StudyDataset {
            runs: dataset.runs[..=done].to_vec(),
        };
        assert_eq!(
            live.render(&eco),
            StudyReport::compute(&eco, &prefix).render(&prefix),
            "live report drifted from post-hoc after {} runs",
            done + 1
        );
        let inc = live.incremental();
        assert!(
            inc.partials_folded() <= inc.segments() as u64 + inc.delta_recomputes(),
            "live reports re-folded history: {} partials for {} segments and {} recomputes",
            inc.partials_folded(),
            inc.segments(),
            inc.delta_recomputes()
        );
        assert!(
            inc.resident_bytes() <= BUDGET,
            "{} resident",
            inc.resident_bytes()
        );
    }
    assert!(live.incremental().spill_writes() > 0, "the budget spills");

    let total_captures: usize = dataset.runs.iter().map(|r| r.captures.len()).sum();
    assert_eq!(streamed_exchanges, total_captures as u64);
    assert_eq!(
        server.telemetry().counter_value("ingest.exchanges"),
        total_captures as u64
    );

    // Dataset equality first (better diagnostics), then the actual bar:
    // byte-identical rendered analysis.
    let streamed = live.dataset();
    assert_eq!(
        serde_json::to_string(streamed).unwrap(),
        serde_json::to_string(&dataset).unwrap(),
        "reassembled dataset diverged"
    );
    let streamed_render = StudyReport::compute(&eco, streamed).render(streamed);
    assert_eq!(
        streamed_render, in_process_render,
        "rendered analysis diverged between streamed and in-process datasets"
    );
    server.shutdown();
}
