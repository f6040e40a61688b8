//! `collector_status` — a one-line-per-poll operator view of a running
//! ingest collector, over the same TCP port the TVs stream to.
//!
//! Usage:
//!
//! ```text
//! collector_status <host:port> [--interval-ms N] [--count N]
//! ```
//!
//! Each poll sends one out-of-band `STATS` frame on a persistent
//! connection and renders the answer: health verdict (with reasons when
//! not healthy), session accounting, throughput counters, and the
//! backpressure picture. `--count 0` (the default) polls forever; the
//! crate's `cli` test runs it with `--count 3` against an in-process
//! collector.

use hbbtv_ingest::frame::StatsRequest;
use hbbtv_ingest::{Command, Frame, FrameDecoder, StatsReport};
use hbbtv_obs::HealthStatus;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!("usage: collector_status <host:port> [--interval-ms N] [--count N]");
    std::process::exit(2);
}

/// Every network failure ends the same way: one stderr line, exit 1.
fn fail(reason: impl std::fmt::Display) -> ! {
    eprintln!("{reason}");
    std::process::exit(1);
}

fn poll(stream: &mut TcpStream, decoder: &mut FrameDecoder, seq: u32) -> StatsReport {
    let req = Frame::json(Command::Stats, seq, &StatsRequest::default());
    stream
        .write_all(&req.encode())
        .unwrap_or_else(|e| fail(format!("cannot send STATS request: {e}")));
    let mut buf = [0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        while let Some(frame) = decoder
            .next_frame()
            .unwrap_or_else(|e| fail(format!("undecodable answer from collector: {e}")))
        {
            if frame.command == Command::StatsReply {
                return frame
                    .parse()
                    .unwrap_or_else(|e| fail(format!("malformed STATS_REPLY: {e}")));
            }
        }
        if Instant::now() > deadline {
            fail("collector did not answer STATS within 10s");
        }
        match stream.read(&mut buf) {
            Ok(0) => fail("collector hung up"),
            Ok(n) => decoder.push_bytes(&buf[..n]),
            Err(e) => fail(format!("read error: {e}")),
        }
    }
}

fn render_line(stats: &StatsReport) -> String {
    let c = |name: &str| stats.counters.get(name).copied().unwrap_or(0);
    let g = |name: &str| stats.gauges.get(name).copied().unwrap_or(0);
    let streaming = stats
        .sessions
        .iter()
        .filter(|s| s.state != "observer")
        .count();
    let stalled = stats.sessions.iter().filter(|s| s.stalled).count();
    let mut line = format!(
        "health={} open={} (streaming={} stalled={}) done={} rejected={} gc={} \
         exchanges={} bytes={} frames={} queue={} stalls={}",
        stats.health.status,
        g("ingest.sessions_open"),
        streaming,
        stalled,
        c("ingest.sessions_completed"),
        c("ingest.sessions_rejected"),
        c("ingest.sessions_gc"),
        c("ingest.exchanges"),
        c("ingest.bytes"),
        c("ingest.frames"),
        g("ingest.queue_depth"),
        c("ingest.backpressure_stalls"),
    );
    if stats.health.status != HealthStatus::Healthy {
        let reasons: Vec<String> = stats
            .health
            .reasons
            .iter()
            .map(|r| format!("{}={:.2}/{:.2}", r.code, r.value, r.threshold))
            .collect();
        line.push_str(&format!(" reasons=[{}]", reasons.join(",")));
    }
    line
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(target) = args.next() else { usage() };
    if target.starts_with('-') {
        usage();
    }
    let mut interval = Duration::from_secs(1);
    let mut count = 0u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--interval-ms" => {
                let ms: u64 = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
                interval = Duration::from_millis(ms);
            }
            "--count" => {
                count = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }

    let mut stream = TcpStream::connect(&target)
        .unwrap_or_else(|e| fail(format!("cannot connect to collector at {target}: {e}")));
    let mut decoder = FrameDecoder::new();
    let mut polls = 0u64;
    let mut seq = 0u32;
    loop {
        let stats = poll(&mut stream, &mut decoder, seq);
        seq += 1;
        println!("{}", render_line(&stats));
        polls += 1;
        if count > 0 && polls >= count {
            break;
        }
        std::thread::sleep(interval);
    }
}
