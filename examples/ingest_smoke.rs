//! Ingest smoke: the collector end to end on a loopback socket.
//!
//! Run with `cargo run --release -p hbbtv-ingest --example ingest_smoke`
//! (scripts/check.sh --ingest-smoke does). The smoke:
//!
//! 1. starts a collector and finds it via UDP discovery (no port is
//!    passed around by hand),
//! 2. builds a small study in-process, streams it through concurrent
//!    sharded TV sessions, and diffs the reassembled dataset's rendered
//!    analysis report byte-for-byte against the in-process build,
//! 3. replays one fault of every kind at the same collector and checks
//!    each is contained (rejected or GC'd, nothing assembled), a
//!    100,000-deep nested `CAPTURE` payload as a typed decode error.
//!
//! Exits nonzero (panics) on any failure, so it works as a CI gate.

use hbbtv_ingest::{
    discover, shard_study, DiscoveryResponder, FaultKind, FaultOutcome, FaultPlan, IngestConfig,
    IngestServer, SimTvClient,
};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyHarness};
use std::time::Duration;

fn main() {
    // 1. Collector + discovery.
    let server = IngestServer::start(IngestConfig::default()).expect("collector starts");
    let responder = DiscoveryResponder::start(
        "127.0.0.1:0".parse().expect("literal addr"),
        server.addr().port(),
    )
    .expect("discovery responder starts");
    let port = discover(responder.addr(), Duration::from_secs(5)).expect("collector discovered");
    assert_eq!(
        port,
        server.addr().port(),
        "discovery advertises the collector"
    );
    let addr = server.addr();
    println!("collector on {addr} (found via UDP discovery)");

    // 2. Streamed-vs-in-process parity on a small real study.
    let eco = Ecosystem::with_scale(42, 0.05);
    let dataset = StudyHarness::new(&eco).run_all();
    let in_process = StudyReport::compute(&eco, &dataset).render(&dataset);

    let specs = shard_study("smoke", &dataset, 2).expect("dataset shards");
    let sessions = specs.len();
    let threads: Vec<_> = specs
        .into_iter()
        .map(|spec| std::thread::spawn(move || SimTvClient::new().stream(addr, &spec)))
        .collect();
    for t in threads {
        let report = t.join().expect("session thread").expect("session streams");
        assert_eq!(report.acked_exchanges, report.exchanges);
    }
    let streamed = server
        .wait_study("smoke", dataset.runs.len(), Duration::from_secs(60))
        .expect("study reassembles");
    let streamed_render = StudyReport::compute(&eco, &streamed).render(&streamed);
    assert_eq!(
        streamed_render, in_process,
        "rendered report drifted between streamed and in-process datasets"
    );
    println!(
        "parity OK: {sessions} sessions, {} exchanges, rendered reports byte-identical",
        server.telemetry().counter_value("ingest.exchanges")
    );

    // 3. One fault of every kind, all contained. A separate collector
    // with a short heartbeat timeout, so stalled sessions are GC'd
    // quickly without the aggressive GC racing the (backpressured)
    // parity streams above.
    let fault_server = IngestServer::start(IngestConfig {
        heartbeat_timeout: Duration::from_millis(800),
        ..IngestConfig::default()
    })
    .expect("fault collector starts");
    let fault_addr = fault_server.addr();
    let fault_spec = shard_study("smoke-faults", &dataset, 1)
        .expect("dataset shards")
        .remove(0);
    for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
        let outcome = SimTvClient::new()
            .stream_with_fault(
                fault_addr,
                &fault_spec,
                FaultPlan {
                    kind,
                    seed: 7 + i as u64,
                },
                Duration::from_secs(30),
            )
            .expect("fault script executes");
        assert_ne!(
            outcome,
            FaultOutcome::StallTimeout,
            "{kind:?}: stalled session was never collected"
        );
        let rejections = fault_server
            .wait_rejections(i + 1, Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        if kind == FaultKind::DeepNesting {
            let reason = &rejections.last().expect("a rejection").reason;
            assert!(
                reason.contains("bad Capture payload"),
                "{kind:?} must be a typed decode error, got: {reason}"
            );
        }
        assert!(
            fault_server.complete_runs("smoke-faults").is_empty(),
            "{kind:?}: a faulty session must not produce a run"
        );
        println!("fault contained: {kind:?}");
    }

    let tel = server.telemetry();
    let fault_tel = fault_server.telemetry();
    println!(
        "ingest smoke OK: sessions={} completed={} rejected={} gc={} stalls={}",
        tel.counter_value("ingest.sessions") + fault_tel.counter_value("ingest.sessions"),
        tel.counter_value("ingest.sessions_completed"),
        fault_tel.counter_value("ingest.sessions_rejected"),
        fault_tel.counter_value("ingest.sessions_gc"),
        tel.counter_value("ingest.backpressure_stalls")
            + fault_tel.counter_value("ingest.backpressure_stalls"),
    );
    server.shutdown();
    fault_server.shutdown();
}
