//! Fault-injection suite: every [`FaultKind`] against a live collector.
//!
//! The contract under test is *containment*: a misbehaving session is
//! rejected (or collected by the heartbeat GC), the sessions sharing the
//! collector are untouched, and the datasets that survive are
//! byte-identical to their in-process builds — a fault never corrupts
//! data, it only costs the faulty session.

use hbbtv_ingest::{
    shard_study, FaultKind, FaultOutcome, FaultPlan, IngestConfig, IngestServer, SimTvClient,
};
use std::time::Duration;

#[path = "golden_fixture.rs"]
mod golden_fixture;
use golden_fixture::golden_fixture;

fn test_config() -> IngestConfig {
    IngestConfig {
        // Short heartbeat so stalled/garbage sessions are collected
        // within the test budget; healthy sessions finish in
        // milliseconds and never come near it.
        heartbeat_timeout: Duration::from_millis(700),
        ..IngestConfig::default()
    }
}

/// Sweeps all eight fault kinds against one collector. For each kind, two
/// healthy sibling sessions stream the golden fixture concurrently with
/// the faulty session; the faulty one must be rejected or GC'd, and the
/// siblings' study must reassemble byte-identically.
#[test]
fn every_fault_kind_is_rejected_and_siblings_survive() {
    let server = IngestServer::start(test_config()).expect("server starts");
    let addr = server.addr();
    let fixture = golden_fixture();
    let fixture_json = serde_json::to_string(&fixture).expect("fixture serializes");

    for (round, kind) in FaultKind::ALL.into_iter().enumerate() {
        let healthy_study = format!("healthy-{round}");
        let faulty_study = format!("faulty-{round}");

        // Two healthy shard sessions, streamed concurrently from their
        // own threads while the fault plays out on this one.
        let healthy_specs = shard_study(&healthy_study, &fixture, 2).expect("fixture shards");
        assert_eq!(healthy_specs.len(), 2);
        let healthy_threads: Vec<_> = healthy_specs
            .into_iter()
            .map(|spec| std::thread::spawn(move || SimTvClient::new().stream(addr, &spec)))
            .collect();

        let faulty_spec = shard_study(&faulty_study, &fixture, 1)
            .expect("fixture shards")
            .remove(0);
        let plan = FaultPlan {
            kind,
            seed: 0xC0FFEE + round as u64,
        };
        let outcome = SimTvClient::new()
            .stream_with_fault(addr, &faulty_spec, plan, Duration::from_secs(30))
            .expect("fault script executes");
        assert_ne!(
            outcome,
            FaultOutcome::StallTimeout,
            "{kind:?}: the server never collected the stalled session"
        );

        // The faulty session lands in the rejection log (one new entry
        // per round).
        let rejections = server
            .wait_rejections(round + 1, Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        let newest = rejections.last().expect("at least one rejection");
        match kind {
            FaultKind::StalledWriter => assert!(
                newest.timed_out,
                "{kind:?} must be collected by the heartbeat GC, got: {}",
                newest.reason
            ),
            FaultKind::MidFrameDisconnect => assert!(
                newest.reason.contains("closed mid-session")
                    || newest.reason.contains("decode error"),
                "{kind:?} got unexpected reason: {}",
                newest.reason
            ),
            FaultKind::DuplicateBatch | FaultKind::ReorderedBatches => assert!(
                newest.reason.contains("sequence violation"),
                "{kind:?} must trip the per-session sequence numbers, got: {}",
                newest.reason
            ),
            FaultKind::GarbageStats => assert!(
                newest.reason.contains("STATS"),
                "{kind:?} must be rejected at STATS request validation, got: {}",
                newest.reason
            ),
            FaultKind::DeepNesting => assert!(
                newest.reason.contains("bad Capture payload"),
                "{kind:?} must be a typed capture decode error, got: {}",
                newest.reason
            ),
            // Garbage and torn frames surface wherever the corruption
            // happens to land: decode error, bad payload, seq break, or
            // a silent wedge the GC collects. Any of those is
            // containment; the assertions below prove no data survived.
            FaultKind::GarbagePrefix | FaultKind::TornFrame => {}
        }

        // Nothing of the faulty study ever assembles.
        assert!(
            server.complete_runs(&faulty_study).is_empty(),
            "{kind:?}: a faulty session must not produce a run"
        );

        // The healthy siblings are untouched: their sessions completed
        // and their study reassembles byte-identically.
        for t in healthy_threads {
            let report = t
                .join()
                .expect("healthy thread")
                .unwrap_or_else(|e| panic!("{kind:?}: healthy sibling failed: {e}"));
            assert_eq!(report.acked_exchanges, report.exchanges);
        }
        let streamed = server
            .wait_study(&healthy_study, 1, Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        let streamed_json = serde_json::to_string(&streamed).expect("streamed serializes");
        assert_eq!(
            streamed_json, fixture_json,
            "{kind:?}: surviving dataset must be byte-identical to the in-process build"
        );
    }

    // Counter reconciliation across the whole sweep: every faulty
    // session was counted exactly once as rejected or GC'd, and every
    // healthy session completed.
    let tel = server.telemetry();
    let rejected = tel.counter_value("ingest.sessions_rejected");
    let gcd = tel.counter_value("ingest.sessions_gc");
    let completed = tel.counter_value("ingest.sessions_completed");
    assert_eq!(
        rejected + gcd,
        FaultKind::ALL.len() as u64,
        "one contained failure per fault kind"
    );
    assert_eq!(
        completed,
        2 * FaultKind::ALL.len() as u64,
        "two healthy sibling sessions per round"
    );
    // Session accounting closes: every accepted session ended in exactly
    // one terminal state, and the live gauge is back to zero.
    let sessions = tel.counter_value("ingest.sessions");
    let observer = tel.counter_value("ingest.sessions_observer");
    // The last session's close lands moments after its study is
    // observable; give the gauge a bounded beat to reach zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while tel.gauge("ingest.sessions_open").get() != 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let open = tel.gauge("ingest.sessions_open").get();
    assert_eq!(open, 0, "no session may stay open at quiesce");
    assert_eq!(
        open as u64 + completed + rejected + gcd + observer,
        sessions,
        "open + completed + rejected + gc + observer must equal accepted sessions"
    );
    server.shutdown();
}

/// A duplicated shard HELLO (same study/run/shard while the original is
/// still live) is itself a containment case: the retry is rejected and
/// at most one copy of the shard ever assembles.
#[test]
fn duplicate_shard_hello_is_rejected_without_hurting_the_original() {
    let server = IngestServer::start(test_config()).expect("server starts");
    let addr = server.addr();
    let fixture = golden_fixture();

    let spec = shard_study("dup", &fixture, 1).expect("shards").remove(0);
    let dup_spec = spec.clone();
    // The duplicate side uses a stalled-writer fault: it sends its
    // frames up to the seeded point (including the HELLO) and then goes
    // silent. Whichever session registers the shard key first wins;
    // the loser is rejected at HELLO, and if the stalled copy won the
    // race it is collected by the heartbeat GC instead. Either way
    // exactly one failure lands per copy that lost.
    let orig = std::thread::spawn(move || SimTvClient::new().stream(addr, &spec));
    let plan = FaultPlan {
        kind: FaultKind::StalledWriter,
        seed: 1,
    };
    let _ = SimTvClient::new().stream_with_fault(addr, &dup_spec, plan, Duration::from_secs(30));

    let rejections = server
        .wait_rejections(1, Duration::from_secs(20))
        .expect("the losing session is rejected");
    assert!(!rejections.is_empty());

    let orig_result = orig.join().expect("original thread");
    match orig_result {
        Ok(report) => {
            assert_eq!(report.acked_exchanges, report.exchanges);
            let streamed = server
                .wait_study("dup", 1, Duration::from_secs(20))
                .expect("original study lands");
            assert_eq!(
                serde_json::to_string(&streamed).unwrap(),
                serde_json::to_string(&fixture).unwrap()
            );
        }
        // The stalled duplicate won the registration race: the original
        // was rejected at HELLO and the duplicate never finished, so no
        // run may assemble — both gone is still containment.
        Err(_) => {
            assert!(server.complete_runs("dup").is_empty());
        }
    }
    server.shutdown();
}
