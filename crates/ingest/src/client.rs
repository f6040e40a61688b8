//! `SimTvClient`: simulated TVs streaming captured datasets into the
//! collector.
//!
//! A [`SessionSpec`] is one TV's worth of work: a contiguous range of a
//! run's visits plus exactly the capture-log slice those visits
//! recorded. [`shard_study`] cuts a [`StudyDataset`] into such specs
//! using the visit-sharding invariant the parallel harness established
//! (a run's capture log is the concatenation of per-visit slices, and
//! `VisitSummary::captures` is each slice's length), so streaming all
//! specs of a study — in any order, concurrently, from any number of
//! threads — reassembles the exact original dataset on the server.
//!
//! [`SimTvClient::stream`] performs one healthy session;
//! [`SimTvClient::stream_with_fault`] compiles the same frames through a
//! [`FaultPlan`] and executes the resulting
//! fault script instead, returning what the client observed (server
//! error, hangup, GC).

use crate::fault::{FaultPlan, FaultStep};
use crate::frame::{
    Ack, Bye, Command, Frame, FrameDecoder, Hello, RunTrailer, VisitBegin, VisitEnd, PROTO_VERSION,
};
use hbbtv_proxy::CapturedExchange;
use hbbtv_study::{RunDataset, StudyDataset, VisitSummary};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One session's worth of streaming work.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Collector namespace (which study/fleet this session belongs to).
    pub study: String,
    /// Run label (`RunKind::label()`).
    pub run: String,
    /// Shard index within the run.
    pub shard: u32,
    /// Total shards of the run.
    pub shards: u32,
    /// The shard's visits, in canonical order.
    pub visits: Vec<VisitSummary>,
    /// The shard's capture-log slice: visit slices concatenated in
    /// visit order.
    pub captures: Vec<CapturedExchange>,
    /// Run trailer; exactly one shard of a run carries it.
    pub trailer: Option<RunTrailer>,
}

/// Client tuning.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Exchanges per CAPTURE frame.
    pub batch: usize,
    /// Emit a HEARTBEAT every this many data frames.
    pub heartbeat_every: usize,
    /// Socket read timeout (waiting for ACKs).
    pub read_timeout: Duration,
    /// Socket write timeout (a stalled collector eventually errors the
    /// client instead of wedging it).
    pub write_timeout: Duration,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            batch: 64,
            heartbeat_every: 16,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// What a healthy session reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// Frames sent (including HELLO and BYE).
    pub frames_sent: u64,
    /// Exchanges streamed.
    pub exchanges: u64,
    /// Exchanges the server acknowledged on the BYE ack.
    pub acked_exchanges: u64,
}

/// What a fault-script execution observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The server sent an ERR frame with this reason.
    ServerError(String),
    /// The server hung up without an ERR the client managed to read.
    Hangup,
    /// The stall was ended by the server closing the socket (heartbeat
    /// GC did its job).
    ClosedDuringStall,
    /// The stall outlived the executor's bound — the server never
    /// collected the session.
    StallTimeout,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server answered something other than the expected ACK.
    Protocol(String),
    /// The spec is internally inconsistent (visit counts vs. captures).
    BadSpec(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::BadSpec(e) => write!(f, "bad spec: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Extracts the run-level trailer fields of a dataset's run.
pub fn trailer_of(run: &RunDataset) -> RunTrailer {
    RunTrailer {
        channels_measured: run.channels_measured.clone(),
        channel_names: run.channel_names.clone(),
        cookies: run.cookies.clone(),
        local_storage: run.local_storage.clone(),
        screenshots: run.screenshots.clone(),
        interactions: run.interactions,
        consented_channels: run.consented_channels.clone(),
    }
}

/// Cuts one run into `shards` contiguous visit-range sessions.
///
/// Shard boundaries are visit boundaries; the capture log splits at the
/// cumulative per-visit counts. The trailer rides on shard 0.
pub fn shard_run(study: &str, run: &RunDataset, shards: u32) -> Result<Vec<SessionSpec>, String> {
    let declared: usize = run.visits.iter().map(|v| v.captures).sum();
    if declared != run.captures.len() {
        return Err(format!(
            "run {}: visit summaries declare {declared} captures but the log has {} — \
             not visit-partitionable",
            run.run,
            run.captures.len()
        ));
    }
    let shards = shards.clamp(1, run.visits.len().max(1) as u32);
    let n_visits = run.visits.len();
    let mut specs = Vec::with_capacity(shards as usize);
    let mut visit_cursor = 0usize;
    let mut capture_cursor = 0usize;
    for s in 0..shards {
        // Even split of visits, remainder to the front shards.
        let len =
            n_visits / shards as usize + usize::from((s as usize) < n_visits % shards as usize);
        let visits = run.visits[visit_cursor..visit_cursor + len].to_vec();
        let slice: usize = visits.iter().map(|v| v.captures).sum();
        let captures = run.captures[capture_cursor..capture_cursor + slice].to_vec();
        visit_cursor += len;
        capture_cursor += slice;
        specs.push(SessionSpec {
            study: study.to_string(),
            run: run.run.label().to_string(),
            shard: s,
            shards,
            visits,
            captures,
            trailer: (s == 0).then(|| trailer_of(run)),
        });
    }
    Ok(specs)
}

/// Cuts a whole study into session specs, `shards_per_run` per run.
pub fn shard_study(
    study: &str,
    dataset: &StudyDataset,
    shards_per_run: u32,
) -> Result<Vec<SessionSpec>, String> {
    let mut specs = Vec::new();
    for run in &dataset.runs {
        specs.extend(shard_run(study, run, shards_per_run)?);
    }
    Ok(specs)
}

/// A simulated TV.
#[derive(Debug, Clone, Default)]
pub struct SimTvClient {
    opts: StreamOptions,
}

impl SimTvClient {
    /// A client with default options.
    pub fn new() -> SimTvClient {
        SimTvClient::default()
    }

    /// A client with explicit options.
    pub fn with_options(opts: StreamOptions) -> SimTvClient {
        SimTvClient { opts }
    }

    /// Builds the complete, healthy frame sequence for a spec.
    pub fn frames(&self, spec: &SessionSpec) -> Result<Vec<Frame>, ClientError> {
        let declared: usize = spec.visits.iter().map(|v| v.captures).sum();
        if declared != spec.captures.len() {
            return Err(ClientError::BadSpec(format!(
                "visits declare {declared} captures, spec carries {}",
                spec.captures.len()
            )));
        }
        let mut frames = Vec::new();
        let mut seq = 0u32;
        let mut next_seq = || {
            let s = seq;
            seq += 1;
            s
        };
        frames.push(Frame::json(
            Command::Hello,
            next_seq(),
            &Hello {
                proto: PROTO_VERSION,
                study: spec.study.clone(),
                run: spec.run.clone(),
                shard: spec.shard,
                shards: spec.shards,
            },
        ));
        let mut cursor = 0usize;
        let mut since_heartbeat = 0usize;
        for v in &spec.visits {
            frames.push(Frame::json(
                Command::VisitBegin,
                next_seq(),
                &VisitBegin {
                    visit: v.visit,
                    channel: v.channel,
                    opened: v.opened,
                },
            ));
            let slice = &spec.captures[cursor..cursor + v.captures];
            cursor += v.captures;
            for batch in slice.chunks(self.opts.batch.max(1)) {
                frames.push(crate::frame::capture_frame(next_seq(), batch));
                since_heartbeat += 1;
                if since_heartbeat >= self.opts.heartbeat_every.max(1) {
                    frames.push(Frame::empty(Command::Heartbeat, next_seq()));
                    since_heartbeat = 0;
                }
            }
            frames.push(Frame::json(
                Command::VisitEnd,
                next_seq(),
                &VisitEnd {
                    visit: v.visit,
                    captures: v.captures as u64,
                },
            ));
        }
        frames.push(Frame::json(
            Command::Bye,
            next_seq(),
            &Bye {
                trailer: spec.trailer.clone(),
            },
        ));
        Ok(frames)
    }

    /// Streams one healthy session and verifies the server's final
    /// exchange count.
    pub fn stream(
        &self,
        addr: SocketAddr,
        spec: &SessionSpec,
    ) -> Result<ClientReport, ClientError> {
        let frames = self.frames(spec)?;
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(self.opts.read_timeout))?;
        stream.set_write_timeout(Some(self.opts.write_timeout))?;
        stream.set_nodelay(true)?;
        let mut conn = ClientConn::new(stream);

        // HELLO, then wait for its ACK before streaming data — the
        // command/answer handshake that lets a fleet fail fast on a
        // full or incompatible collector.
        conn.write_frame(&frames[0])?;
        let hello_deadline = Instant::now() + self.opts.read_timeout;
        let ack = conn.read_ack_blocking(hello_deadline)?.ok_or_else(|| {
            ClientError::Protocol("connection closed before HELLO was acknowledged".into())
        })?;
        if ack.of != 0 {
            return Err(ClientError::Protocol(format!(
                "HELLO answered with ack of frame {}",
                ack.of
            )));
        }

        // Stream the data frames; VISIT_END acks arrive asynchronously
        // and are drained (and counted) opportunistically to keep the
        // pipe full. No drain follows BYE: a collector that has already
        // sealed the shard answers BYE and closes, and a drain would
        // swallow that ACK and then read the close as an error.
        let (bye, data) = frames.split_last().expect("frames nonempty");
        for frame in &data[1..] {
            conn.write_frame(frame)?;
            conn.drain_acks()?;
        }
        conn.write_frame(bye)?;

        // The BYE ack is authoritative: the server has decoded
        // everything and sealed the shard.
        let bye_seq = bye.seq;
        let deadline = Instant::now() + self.opts.read_timeout;
        let final_ack = loop {
            if let Some(ack) = conn.read_ack_blocking(deadline)? {
                if ack.of == bye_seq {
                    break ack;
                }
            } else {
                return Err(ClientError::Protocol(
                    "connection closed before BYE was acknowledged".into(),
                ));
            }
        };
        Ok(ClientReport {
            frames_sent: frames.len() as u64,
            exchanges: spec.captures.len() as u64,
            acked_exchanges: final_ack.exchanges,
        })
    }

    /// Executes the spec through a fault plan instead of streaming it
    /// faithfully.
    pub fn stream_with_fault(
        &self,
        addr: SocketAddr,
        spec: &SessionSpec,
        plan: FaultPlan,
        stall_bound: Duration,
    ) -> Result<FaultOutcome, ClientError> {
        let frames = self.frames(spec)?;
        let script = plan.compile(&frames);
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        stream.set_write_timeout(Some(self.opts.write_timeout))?;
        stream.set_nodelay(true)?;
        let mut conn = ClientConn::new(stream);

        for step in &script {
            match step {
                FaultStep::Write(bytes) => {
                    if let Err(e) = conn.stream.write_all(bytes) {
                        // The server already rejected us and closed the
                        // socket — exactly what the fault should cause.
                        let _ = e;
                        return Ok(conn.observed_error().unwrap_or(FaultOutcome::Hangup));
                    }
                }
                FaultStep::StallUntilClosed => {
                    let deadline = Instant::now() + stall_bound;
                    loop {
                        match conn.poll_server() {
                            PollResult::Err(reason) => {
                                return Ok(FaultOutcome::ServerError(reason))
                            }
                            PollResult::Closed => return Ok(FaultOutcome::ClosedDuringStall),
                            PollResult::Open => {}
                        }
                        if Instant::now() > deadline {
                            return Ok(FaultOutcome::StallTimeout);
                        }
                    }
                }
                FaultStep::Disconnect => {
                    // Send the FIN now — the judgment poll below keeps
                    // the read side open to catch the server's verdict.
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                    break;
                }
            }
        }
        // Give the server a beat to pronounce judgement, then report
        // whatever it said.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match conn.poll_server() {
                PollResult::Err(reason) => return Ok(FaultOutcome::ServerError(reason)),
                PollResult::Closed => {
                    return Ok(conn.observed_error().unwrap_or(FaultOutcome::Hangup))
                }
                PollResult::Open => {}
            }
            if Instant::now() > deadline {
                return Ok(conn.observed_error().unwrap_or(FaultOutcome::Hangup));
            }
        }
    }
}

enum PollResult {
    Open,
    Closed,
    Err(String),
}

struct ClientConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    seen_error: Option<String>,
}

impl ClientConn {
    fn new(stream: TcpStream) -> ClientConn {
        ClientConn {
            stream,
            decoder: FrameDecoder::new(),
            seen_error: None,
        }
    }

    fn observed_error(&self) -> Option<FaultOutcome> {
        self.seen_error.clone().map(FaultOutcome::ServerError)
    }

    fn write_frame(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.stream.write_all(&frame.encode())?;
        Ok(())
    }

    /// Reads whatever answer frames are already buffered, without
    /// blocking beyond the socket's short timeout. ERR is fatal.
    fn drain_acks(&mut self) -> Result<(), ClientError> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    self.note_answer(&frame)?;
                    continue;
                }
                Ok(None) => {}
                Err(e) => return Err(ClientError::Protocol(e.to_string())),
            }
            // Peek the socket without waiting: only pull bytes the
            // kernel already has.
            let mut buf = [0u8; 4096];
            self.stream.set_nonblocking(true)?;
            let read = self.stream.read(&mut buf);
            self.stream.set_nonblocking(false)?;
            match read {
                Ok(0) => {
                    return Err(ClientError::Protocol(
                        self.seen_error
                            .clone()
                            .unwrap_or_else(|| "server closed the connection".into()),
                    ))
                }
                Ok(n) => self.decoder.push_bytes(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn note_answer(&mut self, frame: &Frame) -> Result<(), ClientError> {
        match frame.command {
            Command::Ack => Ok(()),
            Command::Err => {
                let reason = frame
                    .parse::<crate::frame::ErrInfo>()
                    .map(|e| e.reason)
                    .unwrap_or_else(|_| "unparseable server error".into());
                self.seen_error = Some(reason.clone());
                Err(ClientError::Protocol(format!("server rejected: {reason}")))
            }
            other => Err(ClientError::Protocol(format!(
                "unexpected {other:?} from server"
            ))),
        }
    }

    /// Blocks (bounded by the socket timeout and `deadline`) until an
    /// ACK arrives; `None` on clean EOF.
    fn read_ack_blocking(&mut self, deadline: Instant) -> Result<Option<Ack>, ClientError> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => match frame.command {
                    Command::Ack => {
                        return frame
                            .parse::<Ack>()
                            .map(Some)
                            .map_err(|e| ClientError::Protocol(e.to_string()))
                    }
                    _ => {
                        self.note_answer(&frame)?;
                        continue;
                    }
                },
                Ok(None) => {}
                Err(e) => return Err(ClientError::Protocol(e.to_string())),
            }
            if Instant::now() > deadline {
                return Err(ClientError::Protocol("timed out waiting for ack".into()));
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(None),
                Ok(n) => self.decoder.push_bytes(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// One short, non-blocking look at the server side of the socket.
    fn poll_server(&mut self) -> PollResult {
        if let Ok(Some(frame)) = self.decoder.next_frame() {
            if frame.command == Command::Err {
                let reason = frame
                    .parse::<crate::frame::ErrInfo>()
                    .map(|e| e.reason)
                    .unwrap_or_else(|_| "unparseable server error".into());
                return PollResult::Err(reason);
            }
            return PollResult::Open;
        }
        let mut buf = [0u8; 1024];
        match self.stream.read(&mut buf) {
            Ok(0) => PollResult::Closed,
            Ok(n) => {
                self.decoder.push_bytes(&buf[..n]);
                PollResult::Open
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                PollResult::Open
            }
            Err(_) => PollResult::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbtv_broadcast::ChannelId;
    use hbbtv_net::{Request, Response, Status, Timestamp};
    use hbbtv_proxy::VisitId;
    use hbbtv_study::RunKind;
    use std::collections::BTreeMap;

    fn tiny_run(visits: usize, per_visit: usize) -> RunDataset {
        let mut vs = Vec::new();
        let mut captures = Vec::new();
        for v in 0..visits {
            vs.push(VisitSummary {
                visit: VisitId(v as u32),
                channel: ChannelId(v as u32 + 1),
                opened: Timestamp::from_unix(100 + v as u64),
                captures: per_visit,
            });
            for c in 0..per_visit {
                captures.push(CapturedExchange {
                    session: "General".into(),
                    visit: Some(VisitId(v as u32)),
                    channel: Some(ChannelId(v as u32 + 1)),
                    channel_name: Some(format!("ch{v}").into()),
                    request: Request::get(
                        format!("http://app-{v}.example.de/r{c}").parse().unwrap(),
                    )
                    .at(Timestamp::from_unix(110 + v as u64))
                    .build(),
                    response: Response::builder(Status::OK).build(),
                });
            }
        }
        RunDataset {
            run: RunKind::General,
            channels_measured: (1..=visits as u32).map(ChannelId).collect(),
            channel_names: BTreeMap::new(),
            visits: vs,
            captures,
            cookies: vec![],
            local_storage: vec![],
            screenshots: vec![],
            interactions: 0,
            consented_channels: vec![],
        }
    }

    #[test]
    fn sharding_partitions_visits_and_captures_exactly() {
        let run = tiny_run(5, 3);
        let specs = shard_run("s", &run, 2).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].visits.len(), 3);
        assert_eq!(specs[1].visits.len(), 2);
        assert_eq!(specs[0].captures.len(), 9);
        assert_eq!(specs[1].captures.len(), 6);
        assert!(specs[0].trailer.is_some());
        assert!(specs[1].trailer.is_none());
        let rejoined: Vec<_> = specs
            .iter()
            .flat_map(|s| s.captures.iter().cloned())
            .collect();
        assert_eq!(rejoined, run.captures, "concatenation restores the log");
    }

    #[test]
    fn shard_count_clamps_to_visit_count() {
        let run = tiny_run(2, 1);
        let specs = shard_run("s", &run, 64).unwrap();
        assert_eq!(specs.len(), 2, "no empty shards");
    }

    #[test]
    fn unpartitionable_run_is_refused() {
        let mut run = tiny_run(2, 2);
        run.visits[0].captures = 3; // now inconsistent with the log
        assert!(shard_run("s", &run, 2).is_err());
    }

    #[test]
    fn frame_sequence_is_seq_contiguous_and_complete() {
        let run = tiny_run(3, 5);
        let spec = &shard_run("s", &run, 1).unwrap()[0];
        let client = SimTvClient::with_options(StreamOptions {
            batch: 2,
            heartbeat_every: 3,
            ..StreamOptions::default()
        });
        let frames = client.frames(spec).unwrap();
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.seq, i as u32, "seq numbers are gapless");
        }
        assert_eq!(frames.first().unwrap().command, Command::Hello);
        assert_eq!(frames.last().unwrap().command, Command::Bye);
        let captured: usize = frames
            .iter()
            .filter(|f| f.command == Command::Capture)
            .map(|f| crate::frame::parse_capture_batch(&f.payload).unwrap().len())
            .sum();
        assert_eq!(captured, 15);
        assert!(frames.iter().any(|f| f.command == Command::Heartbeat));
    }

    /// A collector that answers BYE and closes before the client looks
    /// again: the BYE ACK and the FIN are already buffered on the
    /// client's socket when it sends BYE. The session completed, so the
    /// client must report it, not "server closed the connection".
    #[test]
    fn bye_ack_buffered_with_the_close_completes_the_session() {
        use std::net::TcpListener;
        let spec = SessionSpec {
            study: "s".into(),
            run: "General".into(),
            shard: 0,
            shards: 1,
            visits: vec![],
            captures: vec![],
            trailer: None,
        };
        let client = SimTvClient::new();
        let frames = client.frames(&spec).unwrap();
        let commands: Vec<Command> = frames.iter().map(|f| f.command).collect();
        assert_eq!(commands, [Command::Hello, Command::Bye]);
        let bye_seq = frames[1].seq;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            let hello = loop {
                if let Some(frame) = decoder.next_frame().unwrap() {
                    break frame;
                }
                let n = sock.read(&mut buf).unwrap();
                assert!(n > 0, "client hung up before HELLO");
                decoder.push_bytes(&buf[..n]);
            };
            assert_eq!(hello.command, Command::Hello);
            // Both ACKs in one write, then the FIN: by the time the
            // client has read the HELLO ACK, the BYE ACK is in its
            // buffer and the close is right behind it.
            let mut out = Vec::new();
            let ack = |of, exchanges| Frame::json(Command::Ack, of, &Ack { of, exchanges });
            ack(hello.seq, 0).encode_into(&mut out);
            ack(bye_seq, 0).encode_into(&mut out);
            sock.write_all(&out).unwrap();
            sock.shutdown(std::net::Shutdown::Write).unwrap();
            // Keep reading until the client is done, so its BYE write
            // lands on an open socket.
            while matches!(sock.read(&mut buf), Ok(n) if n > 0) {}
        });
        let report = client.stream(addr, &spec);
        server.join().unwrap();
        let report = report.expect("a session the collector completed is reported complete");
        assert_eq!(report.frames_sent, 2);
        assert_eq!(report.acked_exchanges, 0);
    }
}
