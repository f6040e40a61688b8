//! Prometheus-style text exposition and the std-only scrape endpoint.
//!
//! [`render_exposition`] turns any [`Telemetry`] scope into the
//! Prometheus text format (version 0.0.4): counters and gauges as
//! single samples, histograms as cumulative `le` buckets (the log₂
//! bucket upper bounds) plus `_sum` and `_count`. Metric names are
//! sanitized (`ingest.sessions` → `ingest_sessions`) and emitted in
//! sorted order, so the output is stable for golden tests and diffing.
//!
//! [`ScrapeServer`] serves `/metrics` and `/health` over one minimal
//! HTTP/1.0 responder thread on a `TcpListener` — no dependencies, no
//! keep-alive, every response `Connection: close`. It is a read-only
//! observer: nothing it does can steer the pipeline or perturb the
//! byte-identical report contract.

use crate::health::Watchdog;
use crate::hub::Telemetry;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maps a metric name onto the Prometheus charset: any character
/// outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit gets a `_`
/// prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    out
}

/// Renders the full exposition text for a scope: counters, then gauges,
/// then histograms, each sorted by name.
pub fn render_exposition(tel: &Telemetry) -> String {
    let mut out = String::with_capacity(1024);
    for (name, value) in tel.counters_snapshot() {
        let n = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in tel.gauges_snapshot() {
        let n = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {value}");
    }
    let mut cells = tel.histogram_cells();
    cells.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, hist) in cells {
        let n = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let buckets = hist.cumulative_buckets();
        let total = buckets.last().map_or(0, |&(_, c)| c);
        for (upper, cum) in buckets {
            let _ = writeln!(out, "{n}_bucket{{le=\"{upper}\"}} {cum}");
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {total}");
        let _ = writeln!(out, "{n}_sum {}", hist.sum());
        let _ = writeln!(out, "{n}_count {total}");
    }
    out
}

/// The std-only scrape endpoint. Serves, until dropped:
///
/// * `GET /metrics` — [`render_exposition`] output, rendered afresh
///   for each request, plus a `health_status` gauge and one
///   `health_reason{code,severity}` sample per active reason.
/// * `GET /health` — the [`Watchdog`] report as JSON.
///
/// Each request triggers one watchdog assessment, which is what ticks
/// the rate derivation on a scraped-but-otherwise-idle collector.
pub struct ScrapeServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (port 0 picks an ephemeral port) and starts the
    /// responder thread over `tel` and the shared `watchdog`.
    pub fn start(
        addr: SocketAddr,
        tel: Telemetry,
        watchdog: Arc<Mutex<Watchdog>>,
    ) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("obs-scrape".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => handle_conn(stream, &tel, &watchdog),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
            })?;
        Ok(ScrapeServer {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (for scrapers and tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// How long one connection may take to deliver its whole request. The
/// responder serves one connection at a time, so a client that sends a
/// byte now and then must not hold `/metrics` and `/health` any longer.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// A request that reaches this many bytes without its header terminator
/// is answered as it stands (a `GET` has no body).
const MAX_REQUEST_LEN: usize = 4096;

/// Reads one request, answers it, closes. Any socket error, or a
/// request still incomplete at [`REQUEST_DEADLINE`], just drops the
/// connection — a scraper retries, the collector must not care.
fn handle_conn(mut stream: TcpStream, tel: &Telemetry, watchdog: &Mutex<Watchdog>) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Each read waits only for what is left of the deadline, and the
    // terminator search covers the new bytes plus the 3 before them.
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => return,
        };
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        if buf[from..].windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_LEN {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => {
            let report = watchdog.lock().assess(tel);
            let mut body = render_exposition(tel);
            let _ = writeln!(body, "# TYPE health_status gauge");
            let _ = writeln!(body, "health_status {}", report.status.code());
            for r in &report.reasons {
                let _ = writeln!(body, "# TYPE health_reason gauge");
                let _ = writeln!(
                    body,
                    "health_reason{{code=\"{}\",severity=\"{}\"}} 1",
                    sanitize_metric_name(&r.code),
                    r.severity.as_str()
                );
            }
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        "/health" => {
            let report = watchdog.lock().assess(tel);
            ("200 OK", "application/json", report.to_json())
        }
        "/" => (
            "200 OK",
            "text/plain",
            "hbbtv collector operations plane\n/metrics  Prometheus text exposition\n/health   watchdog verdict as JSON\n".to_string(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::TelemetryMode;
    use hbbtv_net::SimClock;

    fn tel() -> Telemetry {
        Telemetry::scope(TelemetryMode::Metrics, SimClock::new(), 0)
    }

    #[test]
    fn golden_exposition_format() {
        let tel = tel();
        tel.counter("ingest.sessions").add(3);
        tel.counter("ingest.bytes").add(1024);
        tel.gauge("ingest.sessions_open").set(2);
        let h = tel.histogram("ingest.batch_exchanges");
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(5);
        let text = render_exposition(&tel);
        let expected = "\
# TYPE ingest_bytes counter
ingest_bytes 1024
# TYPE ingest_sessions counter
ingest_sessions 3
# TYPE ingest_sessions_open gauge
ingest_sessions_open 2
# TYPE ingest_batch_exchanges histogram
ingest_batch_exchanges_bucket{le=\"0\"} 1
ingest_batch_exchanges_bucket{le=\"1\"} 3
ingest_batch_exchanges_bucket{le=\"3\"} 3
ingest_batch_exchanges_bucket{le=\"7\"} 4
ingest_batch_exchanges_bucket{le=\"+Inf\"} 4
ingest_batch_exchanges_sum 7
ingest_batch_exchanges_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total_matches_count() {
        let tel = tel();
        let h = tel.histogram("h");
        for v in [0u64, 1, 2, 3, 100, 5000, 70000, u64::MAX] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        let mut prev = 0u64;
        let mut prev_upper = None::<u64>;
        for &(upper, cum) in &buckets {
            assert!(cum >= prev, "cumulative counts are monotone");
            if let Some(pu) = prev_upper {
                assert!(upper > pu, "bucket bounds strictly increase");
            }
            prev = cum;
            prev_upper = Some(upper);
        }
        assert_eq!(prev, h.count());
        // And the rendered text carries them in the same order.
        let text = render_exposition(&tel);
        assert!(text.contains("h_bucket{le=\"+Inf\"} 8"));
        assert!(text.contains("h_count 8"));
    }

    #[test]
    fn name_sanitization_keeps_the_charset_legal() {
        assert_eq!(sanitize_metric_name("ingest.sessions"), "ingest_sessions");
        assert_eq!(sanitize_metric_name("span.visit"), "span_visit");
        assert_eq!(sanitize_metric_name("a-b c\"d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("0weird"), "_0weird");
    }

    #[test]
    fn scrape_server_answers_metrics_and_health() {
        let tel = tel();
        tel.counter("ingest.sessions").add(5);
        let watchdog = Arc::new(Mutex::new(Watchdog::new()));
        let server = ScrapeServer::start(
            "127.0.0.1:0".parse().unwrap(),
            tel.clone(),
            Arc::clone(&watchdog),
        )
        .unwrap();

        let get = |path: &str| -> String {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(metrics.contains("ingest_sessions 5"));
        assert!(metrics.contains("health_status 0"));
        let health = get("/health");
        assert!(health.contains("\"status\":\"Healthy\""));
        assert!(get("/nope").starts_with("HTTP/1.0 404"));
        drop(server);
    }

    fn start_server() -> ScrapeServer {
        let watchdog = Arc::new(Mutex::new(Watchdog::new()));
        ScrapeServer::start("127.0.0.1:0".parse().unwrap(), tel(), watchdog).unwrap()
    }

    /// A client that sends one byte every 300 ms never completes its
    /// request. It must lose the responder at [`REQUEST_DEADLINE`], so a
    /// scrape queued behind it is answered within the deadline plus
    /// slack, not whenever the dripping stops.
    #[test]
    fn a_dripping_client_cannot_hold_the_scrape_endpoint() {
        let server = start_server();
        let stop = Arc::new(AtomicBool::new(false));
        let mut drip = TcpStream::connect(server.addr()).unwrap();
        let dripping = Arc::clone(&stop);
        let dripper = std::thread::spawn(move || {
            let start = Instant::now();
            while !dripping.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10) {
                if drip.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        // Connected first, the dripper is accepted first.
        let start = Instant::now();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write!(s, "GET /health HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        let waited = start.elapsed();
        stop.store(true, Ordering::SeqCst);
        dripper.join().unwrap();
        assert!(out.starts_with("HTTP/1.0 200 OK\r\n"), "{out:?}");
        assert!(
            waited < REQUEST_DEADLINE + Duration::from_millis(1500),
            "the scrape waited {waited:?} behind a dripping client"
        );
    }

    /// A 4 KiB request line with no terminator is answered at the size
    /// cap, not held until the deadline: the fastest of five round
    /// trips, each sent in 16-byte writes, stays far below
    /// [`REQUEST_DEADLINE`].
    #[test]
    fn an_unterminated_4k_request_is_answered_within_the_deadline() {
        let server = start_server();
        let mut request = b"GET /".to_vec();
        request.resize(MAX_REQUEST_LEN, b'a');
        let best = (0..5)
            .map(|_| {
                let start = Instant::now();
                let mut s = TcpStream::connect(server.addr()).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                for piece in request.chunks(16) {
                    s.write_all(piece).unwrap();
                }
                let mut out = String::new();
                let _ = s.read_to_string(&mut out);
                assert!(out.starts_with("HTTP/1.0 404"), "{out:?}");
                start.elapsed()
            })
            .min()
            .expect("five samples");
        assert!(best < REQUEST_DEADLINE / 4, "answered after {best:?}");
    }
}
