//! Operations-plane suite: the `STATS` introspection frame, the scrape
//! endpoint, and live-session accounting.
//!
//! The bar, from the ops design note: a running collector mid-stream
//! answers both a scrape and a `STATS` frame whose `ingest.*` numbers
//! agree with each other, with the session table, and — after quiesce —
//! with the terminal-counter reconciliation identity
//! `open + completed + rejected + gc + observer == sessions`. And the
//! observers are read-only: no amount of STATS traffic may perturb the
//! frame counters the capture path reconciles against.

use hbbtv_ingest::frame::StatsRequest;
use hbbtv_ingest::{
    shard_study, Command, Frame, FrameDecoder, IngestConfig, IngestServer, LiveStudy, SimTvClient,
    StatsReport,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

#[path = "golden_fixture.rs"]
mod golden_fixture;
use golden_fixture::golden_fixture;

/// Sends one `STATS` request on `stream` (seq is per-direction, so the
/// caller threads it) and reads frames until the `STATS_REPLY` arrives.
fn query_stats(stream: &mut TcpStream, decoder: &mut FrameDecoder, seq: u32) -> StatsReport {
    let req = Frame::json(Command::Stats, seq, &StatsRequest::default());
    stream
        .write_all(&req.encode())
        .expect("stats request sends");
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        while let Some(frame) = decoder.next_frame().expect("answer stream decodes") {
            if frame.command == Command::StatsReply {
                return frame.parse().expect("stats reply parses");
            }
        }
        assert!(Instant::now() < deadline, "no STATS_REPLY within deadline");
        match stream.read(&mut buf) {
            Ok(0) => panic!("collector hung up before answering STATS"),
            Ok(n) => decoder.push_bytes(&buf[..n]),
            Err(e) => panic!("read error waiting for STATS_REPLY: {e}"),
        }
    }
}

/// One plain HTTP/1.0 GET against the scrape endpoint; returns the body.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("scrape endpoint connects");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
        .expect("request sends");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response reads");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has header/body split");
    assert!(
        head.starts_with("HTTP/1.0 200"),
        "unexpected status: {head}"
    );
    body.to_string()
}

/// The value of one exposition metric line (`name value`), by exact
/// sanitized name.
fn exposition_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let (n, v) = line.split_once(' ')?;
            (n == name).then(|| v.parse().expect("metric value parses"))
        })
}

/// Mid-stream, the collector answers a scrape and a `STATS` frame whose
/// numbers agree with each other and with the session table; at
/// quiesce the accounting identity closes with the observer counted.
#[test]
fn stats_and_scrape_agree_mid_stream_and_reconcile_at_quiesce() {
    let server = IngestServer::start(IngestConfig {
        scrape_addr: Some("127.0.0.1:0".parse().unwrap()),
        ..IngestConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let scrape = server.scrape_addr().expect("scrape endpoint mounted");
    let fixture = golden_fixture();

    // One complete healthy session.
    let done_spec = shard_study("done", &fixture, 1).expect("shards").remove(0);
    let report = SimTvClient::new()
        .stream(addr, &done_spec)
        .expect("healthy session streams");
    assert_eq!(report.acked_exchanges, report.exchanges);

    // A live study on the collector's own scope, so one STATS answer
    // covers its frame.* cells next to ingest.*.
    let mut live = LiveStudy::new("done").with_telemetry(server.telemetry().clone());
    let deadline = Instant::now() + Duration::from_secs(10);
    while live.poll(&server) == 0 {
        assert!(Instant::now() < deadline, "the done run never landed");
        std::thread::sleep(Duration::from_millis(2));
    }

    // One session parked mid-stream: everything except VISIT_END + BYE.
    let mid_spec = shard_study("midway", &fixture, 1)
        .expect("shards")
        .remove(0);
    let mid_frames = SimTvClient::new().frames(&mid_spec).expect("spec frames");
    assert!(
        mid_frames.len() > 2,
        "fixture session has a body to park in"
    );
    let mid_prefix = &mid_frames[..mid_frames.len() - 2];
    let mid_exchanges: u64 = mid_prefix
        .iter()
        .filter(|f| f.command == Command::Capture)
        .map(|f| {
            hbbtv_ingest::frame::parse_capture_batch(&f.payload)
                .expect("own capture frame parses")
                .len() as u64
        })
        .sum();
    assert!(mid_exchanges > 0, "parked prefix carries captures");
    let mut mid_stream = TcpStream::connect(addr).expect("mid-stream connects");
    for frame in mid_prefix {
        mid_stream
            .write_all(&frame.encode())
            .expect("mid-stream frame sends");
    }

    // An observer (no HELLO) polls STATS until the mid-stream session's
    // capture work has drained into the table.
    let mut observer = TcpStream::connect(addr).expect("observer connects");
    let mut decoder = FrameDecoder::new();
    let mut seq = 0u32;
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = query_stats(&mut observer, &mut decoder, seq);
        seq += 1;
        // Fully drained, not momentarily idle: every exchange written
        // must have landed, or bytes still in the socket would keep
        // stalling the reader (and re-degrading the watchdog) later.
        let drained = stats
            .sessions
            .iter()
            .any(|s| s.study == "midway" && s.exchanges == mid_exchanges && s.queued == 0);
        // Also wait out watchdog hysteresis from any backpressure burst
        // while streaming, so the health assertions below are stable.
        if drained && stats.health.status == hbbtv_obs::HealthStatus::Healthy {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "mid-stream session never drained into the STATS table healthy"
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    // The STATS answer carries a health verdict and the metric snapshot.
    assert_eq!(
        stats.counters["ingest.sessions"], 3,
        "done + midway + observer"
    );
    assert_eq!(stats.counters["ingest.sessions_completed"], 1);
    assert_eq!(
        stats.gauges["ingest.sessions_open"], 2,
        "midway + observer live"
    );
    assert!(stats.counters["ingest.stats_requests"] >= 1);
    assert_eq!(
        stats.gauges.get("frame.resident_bytes"),
        Some(&(live.incremental().resident_bytes() as i64)),
        "the live study's frame.* cells share the collector scope"
    );

    // The session table: the parked session mid-visit with its
    // identity, and the observer marked as such.
    let mid = stats
        .sessions
        .iter()
        .find(|s| s.study == "midway")
        .expect("mid-stream session in table");
    assert_eq!(mid.shards, 1);
    assert_eq!(mid.state, "in_visit");
    assert!(mid.visits >= 1);
    assert!(mid.bytes > 0);
    assert!(!mid.stalled);
    let obs = stats
        .sessions
        .iter()
        .find(|s| s.state == "observer")
        .expect("observer session in table");
    assert!(obs.stats_served >= 1);
    assert!(obs.study.is_empty(), "observers have no identity");
    assert_eq!(
        stats.sessions.len(),
        2,
        "completed sessions leave the table"
    );

    // The scrape endpoint agrees with the STATS answer on every stable
    // counter (bytes moves with the STATS traffic itself, so it is
    // deliberately not compared).
    let metrics = http_get(scrape, "/metrics");
    for (key, name) in [
        ("ingest.sessions", "ingest_sessions"),
        ("ingest.sessions_completed", "ingest_sessions_completed"),
        ("ingest.exchanges", "ingest_exchanges"),
        ("ingest.frames", "ingest_frames"),
    ] {
        assert_eq!(
            exposition_value(&metrics, name).unwrap_or_else(|| panic!("{name} exposed")),
            stats.counters[key] as f64,
            "scrape and STATS disagree on {key}"
        );
    }
    assert_eq!(
        exposition_value(&metrics, "ingest_sessions_open").expect("gauge exposed"),
        stats.gauges["ingest.sessions_open"] as f64
    );
    assert_eq!(
        exposition_value(&metrics, "health_status").expect("health gauge exposed"),
        0.0,
        "an idle mid-stream collector is healthy"
    );
    let health = http_get(scrape, "/health");
    assert!(
        health.contains("\"status\""),
        "health JSON has a status: {health}"
    );

    // Quiesce: the mid-stream session is torn (EOF mid-visit → one
    // rejection), the observer hangs up cleanly.
    drop(mid_stream);
    server
        .wait_rejections(1, Duration::from_secs(10))
        .expect("torn mid-stream session is rejected");
    drop(observer);

    let tel = server.telemetry();
    let deadline = Instant::now() + Duration::from_secs(10);
    while (tel.gauge("ingest.sessions_open").get() != 0
        || tel.counter_value("ingest.sessions_observer") != 1)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(tel.gauge("ingest.sessions_open").get(), 0);
    assert_eq!(tel.counter_value("ingest.sessions_observer"), 1);
    assert_eq!(tel.counter_value("ingest.sessions_rejected"), 1);
    assert_eq!(
        tel.counter_value("ingest.sessions_completed")
            + tel.counter_value("ingest.sessions_rejected")
            + tel.counter_value("ingest.sessions_gc")
            + tel.counter_value("ingest.sessions_observer"),
        tel.counter_value("ingest.sessions"),
        "every accepted session ended in exactly one terminal state"
    );
    server.shutdown();
}

/// The accept cap: with `max_sessions: 1`, a connection opened while
/// another is live is refused (closed unread and counted in
/// `ingest.sessions_refused`, not `ingest.sessions`), and once the live
/// one has closed the next connection is accepted and streams a whole
/// session.
#[test]
fn accept_cap_refuses_past_max_sessions_and_admits_after_a_close() {
    let server = IngestServer::start(IngestConfig {
        max_sessions: 1,
        ..IngestConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let tel = server.telemetry();
    let wait_until = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    let idle = TcpStream::connect(addr).expect("first connection");
    wait_until("the first accept", &|| {
        tel.counter_value("ingest.sessions") == 1
    });

    let mut refused = TcpStream::connect(addr).expect("the handshake completes");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout sets");
    let mut byte = [0u8; 1];
    assert_eq!(
        refused.read(&mut byte).expect("refused socket reads EOF"),
        0,
        "the collector closes a connection past the cap unread"
    );
    assert_eq!(tel.counter_value("ingest.sessions_refused"), 1);
    assert_eq!(tel.counter_value("ingest.sessions"), 1);

    // The idle connection hangs up without a HELLO: one rejection,
    // which frees its slot at once, not at the dispatcher's next sweep,
    // so the session below connects as soon as the gauge reads 0.
    let spec = shard_study("after-cap", &golden_fixture(), 1)
        .expect("shards")
        .remove(0);
    drop(idle);
    wait_until("the idle session to close", &|| {
        tel.gauge("ingest.sessions_open").get() == 0
    });
    let report = SimTvClient::new()
        .stream(addr, &spec)
        .expect("a connection after the close is accepted");
    assert_eq!(report.acked_exchanges, report.exchanges);

    assert_eq!(tel.counter_value("ingest.sessions"), 2);
    assert_eq!(tel.counter_value("ingest.sessions_refused"), 1);
    assert_eq!(tel.counter_value("ingest.sessions_completed"), 1);
    assert_eq!(tel.counter_value("ingest.sessions_rejected"), 1);
    assert_eq!(
        tel.gauge("ingest.sessions_open").get() as u64
            + tel.counter_value("ingest.sessions_completed")
            + tel.counter_value("ingest.sessions_rejected")
            + tel.counter_value("ingest.sessions_gc")
            + tel.counter_value("ingest.sessions_observer"),
        tel.counter_value("ingest.sessions"),
        "every accepted session is open or ended in exactly one terminal state"
    );
    server.shutdown();
}

/// STATS traffic is invisible to the capture path's frame accounting:
/// `ingest.frames` counts exactly the fleet's protocol frames however
/// many STATS requests are answered alongside them.
#[test]
fn stats_requests_never_perturb_frame_accounting() {
    let server = IngestServer::start(IngestConfig::default()).expect("server starts");
    let addr = server.addr();
    let fixture = golden_fixture();

    let specs = shard_study("clean", &fixture, 2).expect("shards");
    let expected_frames: u64 = {
        let client = SimTvClient::new();
        specs
            .iter()
            .map(|spec| client.frames(spec).expect("spec frames").len() as u64)
            .sum()
    };

    // Fleet streams while an observer polls STATS concurrently.
    let threads: Vec<_> = specs
        .into_iter()
        .map(|spec| std::thread::spawn(move || SimTvClient::new().stream(addr, &spec)))
        .collect();
    let mut observer = TcpStream::connect(addr).expect("observer connects");
    let mut decoder = FrameDecoder::new();
    for seq in 0..5u32 {
        let stats = query_stats(&mut observer, &mut decoder, seq);
        assert!(stats.counters.contains_key("ingest.frames"));
    }
    drop(observer);
    for t in threads {
        let report = t.join().expect("session thread").expect("session streams");
        assert_eq!(report.acked_exchanges, report.exchanges);
    }
    server
        .wait_study("clean", 1, Duration::from_secs(20))
        .expect("study reassembles");

    let tel = server.telemetry();
    assert_eq!(
        tel.counter_value("ingest.frames"),
        expected_frames,
        "STATS frames leaked into ingest.frames"
    );
    assert_eq!(tel.counter_value("ingest.stats_requests"), 5);
    server.shutdown();
}

/// A garbage STATS payload poisons only its own session: the sender is
/// rejected at request validation, a concurrently streaming study is
/// untouched, and a fresh observer still gets answers afterwards.
#[test]
fn garbage_stats_rejects_only_the_sender() {
    let server = IngestServer::start(IngestConfig::default()).expect("server starts");
    let addr = server.addr();
    let fixture = golden_fixture();
    let fixture_json = serde_json::to_string(&fixture).expect("fixture serializes");

    let spec = shard_study("sibling", &fixture, 1)
        .expect("shards")
        .remove(0);
    let healthy = std::thread::spawn(move || SimTvClient::new().stream(addr, &spec));

    let mut bad = TcpStream::connect(addr).expect("bad observer connects");
    let garbage = Frame {
        command: Command::Stats,
        seq: 0,
        payload: vec![0xff, 0x00, 0x42],
    };
    bad.write_all(&garbage.encode()).expect("garbage sends");
    let rejections = server
        .wait_rejections(1, Duration::from_secs(10))
        .expect("garbage STATS is rejected");
    assert!(
        rejections[0].reason.contains("STATS"),
        "unexpected reason: {}",
        rejections[0].reason
    );
    drop(bad);

    let report = healthy.join().expect("thread").expect("sibling streams");
    assert_eq!(report.acked_exchanges, report.exchanges);
    let streamed = server
        .wait_study("sibling", 1, Duration::from_secs(20))
        .expect("sibling study lands");
    assert_eq!(serde_json::to_string(&streamed).unwrap(), fixture_json);

    let mut observer = TcpStream::connect(addr).expect("fresh observer connects");
    let mut decoder = FrameDecoder::new();
    let stats = query_stats(&mut observer, &mut decoder, 0);
    assert_eq!(stats.counters["ingest.sessions_rejected"], 1);
    server.shutdown();
}
