//! The TCP ingest server: bounded reader threads, parallel decoding,
//! backpressure, and heartbeat GC.
//!
//! ## Thread model
//!
//! * **Acceptor** — one thread polling the listener; beyond
//!   [`IngestConfig::max_sessions`] live connections it refuses (closes)
//!   new sockets instead of queueing unbounded state.
//! * **Readers** — two threads (`READER_THREADS`), each multiplexing a
//!   share of the connections over non-blocking reads.
//!   Readers run the [`SessionState`] machine inline (control frames are
//!   cheap) and push `CAPTURE` payloads onto the session's bounded
//!   pending queue. When that queue is full the reader simply **stops
//!   reading the socket** — TCP flow control then pushes back on the
//!   client, which is the whole backpressure story: a slow collector
//!   never buffers unboundedly, it slows the TVs down.
//! * **Dispatcher** — one thread draining pending queues in connection
//!   order and fanning the JSON batch decodes out with the ordered
//!   scoped map `hbbtv_study::analysis::par_map`, at the executor count
//!   that was in effect on the thread that called
//!   [`IngestServer::start`]. Results are
//!   applied back per session *in queue order*, so a session's capture
//!   log grows exactly in streamed order regardless of worker count.
//!   The dispatcher also finalizes drained `BYE` sessions (deferred ACK
//!   with the authoritative exchange count) and garbage-collects
//!   sessions whose last frame is older than
//!   [`IngestConfig::heartbeat_timeout`].
//!
//! A rejected or timed-out session surrenders nothing to the
//! [`Assembler`]: its shard never lands, its run stays incomplete, and
//! sibling sessions are untouched. That containment is what the
//! fault-injection suite (`tests/ingest_faults.rs`) pins down.

use crate::frame::{
    parse_stats_request, Ack, Command, ErrInfo, Frame, FrameDecoder, SessionStat, StatsReport,
    PROTO_VERSION,
};
use crate::session::{Action, Assembler, SessionState, Violation};
use hbbtv_obs::{
    keys, Counter, Gauge, Histogram, ScrapeServer, SimClock, Telemetry, TelemetryMode, Watchdog,
};
use hbbtv_study::analysis::Runtime;
use hbbtv_study::{RunDataset, RunKind, StudyDataset};
use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reader threads multiplexing connections (bounded regardless of
/// session count).
const READER_THREADS: usize = 2;

/// Maximum undecoded capture batches buffered per session before the
/// reader stops reading its socket (the backpressure bound).
const SESSION_QUEUE: usize = 8;

/// Settings of an [`IngestServer`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Address to listen on; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Maximum live connections; further accepts are refused.
    pub max_sessions: usize,
    /// A session with no frame for this long is rejected and collected.
    pub heartbeat_timeout: Duration,
    /// Mount a Prometheus-style scrape endpoint on this address (port 0
    /// picks an ephemeral port); `None` (the default) mounts nothing.
    pub scrape_addr: Option<SocketAddr>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            max_sessions: 2048,
            heartbeat_timeout: Duration::from_secs(30),
            scrape_addr: None,
        }
    }
}

/// The `ingest.*` metric cells, pre-resolved once.
#[derive(Debug, Clone)]
struct IngestMetrics {
    /// Sessions accepted (`ingest.sessions`).
    sessions: Counter,
    /// Sessions that finalized cleanly (`ingest.sessions_completed`).
    sessions_completed: Counter,
    /// Sessions rejected for protocol violations
    /// (`ingest.sessions_rejected`).
    sessions_rejected: Counter,
    /// Sessions collected by the heartbeat GC (`ingest.sessions_gc`).
    sessions_gc: Counter,
    /// Connections refused at the accept cap (`ingest.sessions_refused`).
    sessions_refused: Counter,
    /// Observer connections that closed cleanly after only `STATS`
    /// traffic (`ingest.sessions_observer`).
    sessions_observer: Counter,
    /// `STATS` requests answered (`ingest.stats_requests`). STATS frames
    /// are *not* counted in `ingest.frames` — they are out-of-band — but
    /// their bytes do land in `ingest.bytes`.
    stats_requests: Counter,
    /// Frames consumed (`ingest.frames`).
    frames: Counter,
    /// Raw bytes read off sockets (`ingest.bytes`).
    bytes: Counter,
    /// Exchanges decoded out of capture batches (`ingest.exchanges`).
    exchanges: Counter,
    /// Reader stalls on a full session queue
    /// (`ingest.backpressure_stalls`).
    backpressure_stalls: Counter,
    /// Per-batch exchange counts (`ingest.batch_exchanges`).
    batch_exchanges: Histogram,
    /// Per-session exchange totals at finalize
    /// (`ingest.session_exchanges`).
    session_exchanges: Histogram,
    /// Live sessions right now (`ingest.sessions_open`, gauge).
    sessions_open: Gauge,
    /// Undecoded batches queued across sessions, set once per dispatcher
    /// round (`ingest.queue_depth`, gauge).
    queue_depth: Gauge,
    /// High-water mark of the queue depth (`ingest.queue_depth_hw`,
    /// gauge).
    queue_depth_hw: Gauge,
}

impl IngestMetrics {
    fn resolve(tel: &Telemetry) -> IngestMetrics {
        IngestMetrics {
            sessions: tel.counter("ingest.sessions"),
            sessions_completed: tel.counter("ingest.sessions_completed"),
            sessions_rejected: tel.counter("ingest.sessions_rejected"),
            sessions_gc: tel.counter(keys::INGEST_SESSIONS_GC),
            sessions_refused: tel.counter("ingest.sessions_refused"),
            sessions_observer: tel.counter("ingest.sessions_observer"),
            stats_requests: tel.counter("ingest.stats_requests"),
            frames: tel.counter("ingest.frames"),
            bytes: tel.counter("ingest.bytes"),
            exchanges: tel.counter("ingest.exchanges"),
            backpressure_stalls: tel.counter(keys::INGEST_BACKPRESSURE_STALLS),
            batch_exchanges: tel.histogram("ingest.batch_exchanges"),
            session_exchanges: tel.histogram("ingest.session_exchanges"),
            sessions_open: tel.gauge(keys::INGEST_SESSIONS_OPEN),
            queue_depth: tel.gauge(keys::INGEST_QUEUE_DEPTH),
            queue_depth_hw: tel.gauge(keys::INGEST_QUEUE_DEPTH_HW),
        }
    }
}

/// A rejected session, kept for diagnosis (and the fault tests).
#[derive(Debug, Clone)]
pub struct RejectedSession {
    /// `(study, run, shard)` if the session got past HELLO.
    pub identity: Option<(String, String, u32)>,
    /// Why it was rejected.
    pub reason: String,
    /// Whether the heartbeat GC (rather than a protocol violation)
    /// collected it.
    pub timed_out: bool,
}

/// Lock-free mirror of one connection's observable state, shared with
/// the `STATS` session table so a report never has to take a `Conn`
/// lock (a reader blocked mid-frame must not block introspection).
struct SessionInfo {
    /// `(study, run, shard, shards)` once HELLO registers.
    identity: Mutex<Option<(String, String, u32, u32)>>,
    /// Phase code: 0 await_hello, 1 active, 2 in_visit, 3 draining.
    state: AtomicU8,
    visits: AtomicU64,
    exchanges: AtomicU64,
    bytes: AtomicU64,
    queued: AtomicU64,
    stalled: AtomicBool,
    /// Milliseconds since `Shared::epoch` of the last read activity.
    last_activity_ms: AtomicU64,
    stats_served: AtomicU64,
    /// Set exactly once when the session leaves the live table (by any
    /// terminal path); guards the `sessions_open` decrement.
    closed: AtomicBool,
}

impl SessionInfo {
    fn new(epoch_ms: u64) -> SessionInfo {
        SessionInfo {
            identity: Mutex::new(None),
            state: AtomicU8::new(0),
            visits: AtomicU64::new(0),
            exchanges: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            stalled: AtomicBool::new(false),
            last_activity_ms: AtomicU64::new(epoch_ms),
            stats_served: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Copies the session machine's observable fields into the mirror.
    fn sync(&self, s: &SessionState) {
        let code = match s.phase_name() {
            "active" => 1,
            "in_visit" => 2,
            "draining" => 3,
            _ => 0,
        };
        self.state.store(code, Ordering::Relaxed);
        self.visits.store(s.visit_count() as u64, Ordering::Relaxed);
        self.exchanges.store(s.exchanges(), Ordering::Relaxed);
    }

    fn state_name(&self) -> &'static str {
        let observer = self.stats_served.load(Ordering::Relaxed) > 0;
        match self.state.load(Ordering::Relaxed) {
            0 if observer => "observer",
            0 => "await_hello",
            1 => "active",
            2 => "in_visit",
            _ => "draining",
        }
    }
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    session: SessionState,
    /// Pending capture batches: (visit ordinal, raw payload).
    pending: VecDeque<(usize, Vec<u8>)>,
    /// Batches handed to the current decode round, still counting
    /// against the queue bound.
    inflight: usize,
    last_activity: Instant,
    stalled: bool,
    out_seq: u32,
    bye_seq: Option<u32>,
    done: bool,
    rejected: bool,
    info: Arc<SessionInfo>,
}

impl Conn {
    fn queue_len(&self) -> usize {
        self.pending.len() + self.inflight
    }

    fn send_frame(&mut self, frame: &Frame) {
        // Answer frames are tiny (tens of bytes); if the client stopped
        // reading, a bounded retry loop gives up rather than wedging the
        // reader or dispatcher.
        let bytes = frame.encode();
        let mut written = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while written < bytes.len() {
            match self.stream.write(&bytes[written..]) {
                Ok(0) => return,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

type ConnRef = Arc<Mutex<Conn>>;

struct Shared {
    cfg: IngestConfig,
    telemetry: Telemetry,
    metrics: IngestMetrics,
    /// All live connections, in accept order (the dispatcher's drain
    /// order, which keeps decode application deterministic per session).
    conns: Mutex<Vec<ConnRef>>,
    /// Per-reader inboxes of newly accepted connections.
    inboxes: Vec<Mutex<Vec<ConnRef>>>,
    /// Identities of sessions currently streaming, to refuse duplicate
    /// shards while the first is still live.
    active_keys: Mutex<HashSet<(String, String, u32)>>,
    assembler: Mutex<Assembler>,
    rejected: Mutex<Vec<RejectedSession>>,
    shutdown: AtomicBool,
    /// Live-session mirrors for the `STATS` table, in accept order;
    /// swept of closed entries each dispatcher round.
    table: Mutex<Vec<Arc<SessionInfo>>>,
    /// Zero point for the relative-millisecond timestamps in
    /// [`SessionInfo`].
    epoch: Instant,
    /// The health watchdog, shared with the scrape endpoint.
    watchdog: Arc<Mutex<Watchdog>>,
    /// The executor count of the batch decodes.
    runtime: Runtime,
}

impl Shared {
    fn epoch_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Marks a session's mirror closed (idempotent) and keeps the
    /// `sessions_open` gauge honest: exactly one decrement per accept,
    /// whatever terminal path the session takes.
    fn mark_closed(&self, info: &SessionInfo) {
        if !info.closed.swap(true, Ordering::SeqCst) {
            self.metrics.sessions_open.add(-1);
        }
    }

    fn reject(&self, conn: &mut Conn, violation: &Violation) {
        self.reject_inner(conn, violation, true);
    }

    /// `release_key = false` for a duplicate-shard HELLO: the active key
    /// belongs to the original session and must survive this rejection.
    fn reject_inner(&self, conn: &mut Conn, violation: &Violation, release_key: bool) {
        if conn.rejected || conn.done {
            return;
        }
        conn.rejected = true;
        let timed_out = matches!(violation, Violation::HeartbeatTimeout);
        if timed_out {
            self.metrics.sessions_gc.inc();
        } else {
            self.metrics.sessions_rejected.inc();
        }
        let identity = conn
            .session
            .hello()
            .map(|h| (h.study.clone(), h.run.clone(), h.shard));
        if release_key {
            if let Some(key) = &identity {
                self.active_keys.lock().remove(key);
            }
        }
        let reason = violation.to_string();
        let err = Frame::json(
            Command::Err,
            conn.out_seq,
            &ErrInfo {
                reason: reason.clone(),
            },
        );
        conn.out_seq += 1;
        conn.send_frame(&err);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.mark_closed(&conn.info);
        self.rejected.lock().push(RejectedSession {
            identity,
            reason,
            timed_out,
        });
    }
}

/// Builds the `STATS` answer: health verdict, full metric snapshot, and
/// the per-session table — all from lock-free mirrors and telemetry
/// cells, never a `Conn` lock.
fn stats_report(shared: &Shared) -> StatsReport {
    let health = shared.watchdog.lock().assess(&shared.telemetry);
    let now_ms = shared.epoch_ms();
    let sessions = shared
        .table
        .lock()
        .iter()
        .filter(|info| !info.closed.load(Ordering::SeqCst))
        .map(|info| {
            let identity = info.identity.lock().clone();
            let (study, run, shard, shards) =
                identity.unwrap_or_else(|| (String::new(), String::new(), 0, 0));
            let last = info.last_activity_ms.load(Ordering::Relaxed);
            SessionStat {
                study,
                run,
                shard,
                shards,
                state: info.state_name().to_string(),
                visits: info.visits.load(Ordering::Relaxed),
                exchanges: info.exchanges.load(Ordering::Relaxed),
                bytes: info.bytes.load(Ordering::Relaxed),
                queued: info.queued.load(Ordering::Relaxed),
                stalled: info.stalled.load(Ordering::Relaxed),
                last_activity_ms: now_ms.saturating_sub(last),
                stats_served: info.stats_served.load(Ordering::Relaxed),
            }
        })
        .collect();
    StatsReport {
        proto: PROTO_VERSION,
        health,
        counters: shared.telemetry.counters_snapshot(),
        gauges: shared.telemetry.gauges_snapshot(),
        histograms: shared.telemetry.histograms_snapshot(),
        sessions,
    }
}

/// A running ingest collector. Dropping it (or calling
/// [`IngestServer::shutdown`]) stops every thread.
pub struct IngestServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    scrape: Option<ScrapeServer>,
}

impl IngestServer {
    /// Binds and starts the collector (and, when
    /// [`IngestConfig::scrape_addr`] is set, its scrape endpoint). Batch
    /// decodes run at the executor count in effect on the calling
    /// thread ([`Runtime::current_workers`]), so
    /// `Runtime::with_workers(n).install(|| IngestServer::start(cfg))`
    /// fixes it at `n`.
    pub fn start(cfg: IngestConfig) -> std::io::Result<IngestServer> {
        let listener = TcpListener::bind(cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let telemetry = Telemetry::scope(TelemetryMode::Metrics, SimClock::new(), 0);
        let metrics = IngestMetrics::resolve(&telemetry);
        let scrape_addr = cfg.scrape_addr;
        // The server exists before any thread starts, so an early `?`
        // below drops it and `Drop` stops and joins what already runs.
        let mut server = IngestServer {
            shared: Arc::new(Shared {
                telemetry,
                metrics,
                conns: Mutex::new(Vec::new()),
                inboxes: (0..READER_THREADS)
                    .map(|_| Mutex::new(Vec::new()))
                    .collect(),
                active_keys: Mutex::new(HashSet::new()),
                assembler: Mutex::new(Assembler::new()),
                rejected: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                table: Mutex::new(Vec::new()),
                epoch: Instant::now(),
                watchdog: Arc::new(Mutex::new(Watchdog::new())),
                runtime: Runtime::with_workers(Runtime::current_workers()),
                cfg,
            }),
            addr,
            threads: Vec::new(),
            scrape: None,
        };
        if let Some(scrape_addr) = scrape_addr {
            server.scrape = Some(ScrapeServer::start(
                scrape_addr,
                server.shared.telemetry.clone(),
                Arc::clone(&server.shared.watchdog),
            )?);
        }
        server.spawn("ingest-accept".into(), move |shared| {
            acceptor_loop(shared, listener)
        })?;
        for r in 0..READER_THREADS {
            server.spawn(format!("ingest-read-{r}"), move |shared| {
                reader_loop(shared, r)
            })?;
        }
        server.spawn("ingest-dispatch".into(), dispatcher_loop)?;
        Ok(server)
    }

    /// Starts one server thread over the shared state and keeps its
    /// handle for [`IngestServer::shutdown`].
    fn spawn(
        &mut self,
        name: String,
        body: impl FnOnce(&Shared) + Send + 'static,
    ) -> std::io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || body(&shared))?;
        self.threads.push(handle);
        Ok(())
    }

    /// The bound TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scrape endpoint's bound address, when one is mounted.
    pub fn scrape_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(|s| s.addr())
    }

    /// Assesses health now, as the scrape endpoint and `STATS` answers
    /// would report it.
    pub fn health(&self) -> hbbtv_obs::HealthReport {
        self.shared.watchdog.lock().assess(&self.shared.telemetry)
    }

    /// The server's telemetry scope (all `ingest.*` cells live here).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Run kinds of `study` whose every shard has landed.
    pub fn complete_runs(&self, study: &str) -> Vec<RunKind> {
        self.shared.assembler.lock().complete_runs(study)
    }

    /// Removes and reassembles one complete run.
    pub fn take_run(&self, study: &str, kind: RunKind) -> Result<RunDataset, String> {
        self.shared.assembler.lock().take_run(study, kind)
    }

    /// Removes and reassembles every complete run of `study`.
    pub fn take_study(&self, study: &str) -> Result<StudyDataset, String> {
        self.shared.assembler.lock().take_study(study)
    }

    /// Polls until `study` has `runs` complete runs, then reassembles.
    /// Fails fast once `timeout` passes.
    pub fn wait_study(
        &self,
        study: &str,
        runs: usize,
        timeout: Duration,
    ) -> Result<StudyDataset, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let complete = self.complete_runs(study).len();
            if complete >= runs {
                return self.take_study(study);
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "timed out waiting for {runs} runs of {study:?}; {complete} complete, \
                     {} sessions rejected",
                    self.rejections().len()
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Polls until `n` sessions have been rejected/collected (fault
    /// tests), failing after `timeout`.
    pub fn wait_rejections(
        &self,
        n: usize,
        timeout: Duration,
    ) -> Result<Vec<RejectedSession>, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let rejected = self.rejections();
            if rejected.len() >= n {
                return Ok(rejected);
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "timed out waiting for {n} rejections, have {}",
                    rejected.len()
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Snapshot of rejected sessions so far.
    pub fn rejections(&self) -> Vec<RejectedSession> {
        self.shared.rejected.lock().clone()
    }

    /// Stops every server thread and waits for them.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn acceptor_loop(shared: &Shared, listener: TcpListener) {
    let mut next_reader = 0usize;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The live-session gauge, not the registry: a closed
                // session leaves the registry only at the next dispatcher
                // sweep, and must not hold its slot until then.
                let open = usize::try_from(shared.metrics.sessions_open.get()).unwrap_or(0);
                if open >= shared.cfg.max_sessions {
                    shared.metrics.sessions_refused.inc();
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let info = Arc::new(SessionInfo::new(shared.epoch_ms()));
                let conn = Arc::new(Mutex::new(Conn {
                    stream,
                    decoder: FrameDecoder::new(),
                    session: SessionState::new(),
                    pending: VecDeque::new(),
                    inflight: 0,
                    last_activity: Instant::now(),
                    stalled: false,
                    out_seq: 0,
                    bye_seq: None,
                    done: false,
                    rejected: false,
                    info: Arc::clone(&info),
                }));
                shared.metrics.sessions.inc();
                shared.metrics.sessions_open.add(1);
                shared.table.lock().push(info);
                shared.conns.lock().push(Arc::clone(&conn));
                shared.inboxes[next_reader].lock().push(conn);
                next_reader = (next_reader + 1) % shared.inboxes.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn reader_loop(shared: &Shared, index: usize) {
    let mut mine: Vec<ConnRef> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while !shared.shutdown.load(Ordering::SeqCst) {
        mine.extend(shared.inboxes[index].lock().drain(..));
        let mut progressed = false;
        mine.retain(|conn_ref| {
            let mut conn = conn_ref.lock();
            if conn.done || conn.rejected {
                return false;
            }
            // Backpressure: a full pending queue parks the socket
            // unread; the client's writes stall on TCP flow control.
            if conn.queue_len() >= SESSION_QUEUE {
                if !conn.stalled {
                    conn.stalled = true;
                    conn.info.stalled.store(true, Ordering::Relaxed);
                    shared.metrics.backpressure_stalls.inc();
                }
                return true;
            }
            conn.stalled = false;
            conn.info.stalled.store(false, Ordering::Relaxed);
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // EOF. Mid-session (or mid-frame) this is a torn
                    // stream; after BYE the dispatcher owns the session
                    // and EOF is just the client hanging up post-ack. An
                    // *observer* — no HELLO, only answered STATS, at a
                    // frame boundary — hanging up is a clean close, not
                    // a torn session.
                    if !conn.session.bye_seen() {
                        if conn.session.hello().is_none()
                            && conn.info.stats_served.load(Ordering::Relaxed) > 0
                            && conn.decoder.at_frame_boundary()
                        {
                            conn.done = true;
                            shared.metrics.sessions_observer.inc();
                            shared.mark_closed(&conn.info);
                            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                            return false;
                        }
                        shared.reject(&mut conn, &Violation::Eof);
                        return false;
                    }
                    true
                }
                Ok(n) => {
                    progressed = true;
                    shared.metrics.bytes.add(n as u64);
                    conn.last_activity = Instant::now();
                    let now_ms = shared.epoch_ms();
                    conn.info.bytes.fetch_add(n as u64, Ordering::Relaxed);
                    conn.info.last_activity_ms.store(now_ms, Ordering::Relaxed);
                    conn.decoder.push_bytes(&buf[..n]);
                    drive_frames(shared, &mut conn)
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => true,
                Err(e) if e.kind() == ErrorKind::Interrupted => true,
                Err(e) => {
                    shared.reject(&mut conn, &Violation::Io(e.to_string()));
                    false
                }
            }
        });
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Pops every decodable frame and runs the state machine. Returns false
/// when the connection should leave the reader's set.
fn drive_frames(shared: &Shared, conn: &mut Conn) -> bool {
    loop {
        let frame = match conn.decoder.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return true,
            Err(e) => {
                shared.reject(conn, &e.into());
                return false;
            }
        };
        // STATS is out-of-band introspection: answered inline, before
        // (and without) the session machine, so it consumes no session
        // seq and is legal in any state. It is excluded from
        // `ingest.frames` (its bytes still land in `ingest.bytes`).
        if frame.command == Command::Stats {
            match parse_stats_request(&frame.payload) {
                Ok(_req) => {
                    shared.metrics.stats_requests.inc();
                    conn.info.stats_served.fetch_add(1, Ordering::Relaxed);
                    let report = stats_report(shared);
                    let answer = Frame::json(Command::StatsReply, conn.out_seq, &report);
                    conn.out_seq += 1;
                    conn.send_frame(&answer);
                    continue;
                }
                Err(detail) => {
                    let v = Violation::BadState(format!("bad STATS request: {detail}"));
                    shared.reject(conn, &v);
                    return false;
                }
            }
        }
        shared.metrics.frames.inc();
        let actions = match conn.session.on_frame(frame) {
            Ok(a) => a,
            Err(v) => {
                shared.reject(conn, &v);
                return false;
            }
        };
        for action in actions {
            match action {
                Action::Register(hello) => {
                    conn.info.identity.lock().replace((
                        hello.study.clone(),
                        hello.run.clone(),
                        hello.shard,
                        hello.shards,
                    ));
                    let key = (hello.study, hello.run, hello.shard);
                    if !shared.active_keys.lock().insert(key.clone()) {
                        // A retry while the original is still live: the
                        // assembler would refuse the duplicate at BYE
                        // anyway, but rejecting at HELLO keeps it from
                        // consuming queue space. The active key is the
                        // original's — leave it in place.
                        let v = Violation::BadHello(format!(
                            "shard {}/{} of {:?} is already streaming",
                            key.2, key.1, key.0
                        ));
                        shared.reject_inner(conn, &v, false);
                        return false;
                    }
                }
                Action::Ack(ack) => {
                    let frame = Frame::json(Command::Ack, conn.out_seq, &ack);
                    conn.out_seq += 1;
                    conn.send_frame(&frame);
                }
                Action::QueueBatch { visit_ord, payload } => {
                    conn.pending.push_back((visit_ord, payload));
                }
                Action::ByeReady { bye_seq } => {
                    conn.bye_seq = Some(bye_seq);
                }
            }
        }
        conn.info.sync(&conn.session);
        conn.info
            .queued
            .store(conn.queue_len() as u64, Ordering::Relaxed);
        if conn.session.bye_seen() {
            // Nothing further may arrive; hand the session to the
            // dispatcher for drain + finalize.
            return false;
        }
    }
}

fn dispatcher_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        if !shared.runtime.install(|| dispatch_round(shared)) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One dispatcher round: drain pending batches, decode them in
/// parallel, apply results in order, finalize drained BYEs, GC stalled
/// sessions. Returns whether any work happened.
fn dispatch_round(shared: &Shared) -> bool {
    let conns: Vec<ConnRef> = shared.conns.lock().clone();

    // Collect decode jobs in connection order; per connection the
    // pending queue drains FIFO, so application order == stream order.
    let mut jobs: Vec<(ConnRef, usize, Vec<u8>)> = Vec::new();
    let mut depth = 0i64;
    for conn_ref in &conns {
        let mut conn = conn_ref.lock();
        if conn.rejected || conn.done {
            continue;
        }
        while let Some((visit_ord, payload)) = conn.pending.pop_front() {
            conn.inflight += 1;
            jobs.push((Arc::clone(conn_ref), visit_ord, payload));
        }
        depth += conn.queue_len() as i64;
    }
    shared.metrics.queue_depth.set(depth);
    shared.metrics.queue_depth_hw.raise_to(depth);

    let mut worked = !jobs.is_empty();
    if !jobs.is_empty() {
        let decoded = hbbtv_study::analysis::par_map(&jobs, |_, (_, _, payload)| {
            crate::frame::parse_capture_batch(payload)
        });
        for ((conn_ref, visit_ord, _), result) in jobs.into_iter().zip(decoded) {
            let mut conn = conn_ref.lock();
            conn.inflight -= 1;
            if conn.rejected {
                continue;
            }
            match result {
                Ok(batch) => {
                    shared.metrics.exchanges.add(batch.len() as u64);
                    shared.metrics.batch_exchanges.record(batch.len() as u64);
                    conn.last_activity = Instant::now();
                    conn.session.apply_batch(visit_ord, batch);
                    conn.info.sync(&conn.session);
                    conn.info
                        .queued
                        .store(conn.queue_len() as u64, Ordering::Relaxed);
                }
                Err(e) => shared.reject(&mut conn, &e.into()),
            }
        }
    }

    // Finalize sessions whose BYE has fully drained.
    for conn_ref in &conns {
        let mut conn = conn_ref.lock();
        if conn.done || conn.rejected || !conn.session.bye_seen() {
            continue;
        }
        if !conn.pending.is_empty() || conn.inflight > 0 {
            continue;
        }
        let Some(bye_seq) = conn.bye_seq else {
            continue;
        };
        match conn.session.finalize() {
            Ok(shard) => {
                worked = true;
                let exchanges = shard.captures.len() as u64;
                let key = (
                    shard.hello.study.clone(),
                    shard.hello.run.clone(),
                    shard.hello.shard,
                );
                match shared.assembler.lock().add(shard) {
                    Ok(()) => {
                        shared.metrics.sessions_completed.inc();
                        shared.metrics.session_exchanges.record(exchanges);
                        conn.done = true;
                        shared.mark_closed(&conn.info);
                        shared.active_keys.lock().remove(&key);
                        let ack = Frame::json(
                            Command::Ack,
                            conn.out_seq,
                            &Ack {
                                of: bye_seq,
                                exchanges,
                            },
                        );
                        conn.out_seq += 1;
                        conn.send_frame(&ack);
                        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                    }
                    Err(e) => shared.reject(&mut conn, &Violation::BadState(e)),
                }
            }
            Err(v) => shared.reject(&mut conn, &v),
        }
    }

    // Heartbeat GC + registry sweep.
    let timeout = shared.cfg.heartbeat_timeout;
    let mut registry = shared.conns.lock();
    registry.retain(|conn_ref| {
        let mut conn = conn_ref.lock();
        if conn.done || conn.rejected {
            return false;
        }
        // A drained BYE is all server-side work now — never GC it, the
        // finalize sweep above will get to it.
        if !conn.session.bye_seen() && conn.last_activity.elapsed() > timeout {
            shared.reject(&mut conn, &Violation::HeartbeatTimeout);
            return false;
        }
        true
    });
    drop(registry);

    // Sweep closed mirrors out of the STATS table.
    shared
        .table
        .lock()
        .retain(|info| !info.closed.load(Ordering::SeqCst));
    worked
}
