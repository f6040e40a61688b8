//! Per-connection session state: the protocol state machine and shard
//! reassembly.
//!
//! This module is deliberately socket-free. [`SessionState`] consumes
//! decoded [`Frame`]s and emits [`Action`]s for the transport layer to
//! perform; [`Assembler`] collects finalized [`ShardResult`]s and
//! reassembles them into [`RunDataset`]s/[`StudyDataset`]s. Keeping both
//! pure makes every protocol rule unit-testable without a socket in
//! sight, and it is what the fault-injection suite leans on: a
//! violation is a value, not a hang.
//!
//! ## The state machine
//!
//! ```text
//! AwaitHello --HELLO--> Active --VISIT_BEGIN--> InVisit
//!                        ^  |                    |   ^
//!                        |  +----BYE--> ByeSeen  |   |
//!                        +-----VISIT_END---------+   CAPTURE (loops)
//! ```
//!
//! `HEARTBEAT` is legal in `Active` and `InVisit`. Any other
//! command/state pair, any sequence-number gap or repeat, and any
//! malformed payload is a [`Violation`]: the session is rejected and
//! none of its data survives.
//!
//! ## Sharding = visit sharding
//!
//! A run streams in as `shards` sessions, each carrying a **contiguous
//! range of visits** and exactly the capture-log slice those visits
//! recorded — the same decomposition the parallel harness makes, where
//! the run's capture log is the concatenation of the per-visit
//! `hbbtv_proxy::VisitLog`s in canonical visit order.
//! Reassembly is therefore pure concatenation in shard order, which is
//! what makes a streamed dataset byte-identical to its in-process
//! original.

use crate::frame::{
    Ack, Bye, Command, Frame, FrameError, Hello, RunTrailer, VisitBegin, VisitEnd, PROTO_VERSION,
};
use hbbtv_proxy::{CapturedExchange, VisitId};
use hbbtv_study::{RunDataset, RunKind, StudyDataset, VisitSummary};
use std::collections::BTreeMap;
use std::fmt;

/// Why a session was rejected. Carried into the server's rejection log
/// so tests (and operators) can tell a torn frame from a timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The byte stream failed to decode as frames.
    Decode(String),
    /// A frame arrived with the wrong sequence number (duplicate,
    /// reordered, or gapped).
    BadSeq {
        /// What the server expected next.
        expected: u32,
        /// What arrived.
        got: u32,
    },
    /// A legal frame arrived in the wrong state.
    BadState(String),
    /// The HELLO itself was unacceptable (version, shard layout, run
    /// label).
    BadHello(String),
    /// VISIT_END's declared capture count did not match what was
    /// received and decoded.
    CountMismatch {
        /// The visit in question.
        visit: VisitId,
        /// Count the client declared.
        declared: u64,
        /// Exchanges the server actually decoded for the visit.
        received: u64,
    },
    /// The connection stalled past the heartbeat timeout.
    HeartbeatTimeout,
    /// The peer closed the connection mid-session.
    Eof,
    /// Socket-level failure.
    Io(String),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Decode(e) => write!(f, "decode error: {e}"),
            Violation::BadSeq { expected, got } => {
                write!(f, "sequence violation: expected {expected}, got {got}")
            }
            Violation::BadState(e) => write!(f, "protocol violation: {e}"),
            Violation::BadHello(e) => write!(f, "bad hello: {e}"),
            Violation::CountMismatch {
                visit,
                declared,
                received,
            } => write!(
                f,
                "visit {} declared {declared} captures but {received} arrived",
                visit.0
            ),
            Violation::HeartbeatTimeout => write!(f, "heartbeat timeout"),
            Violation::Eof => write!(f, "connection closed mid-session"),
            Violation::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl From<FrameError> for Violation {
    fn from(e: FrameError) -> Violation {
        Violation::Decode(e.to_string())
    }
}

/// What the transport layer must do after a frame was consumed.
#[derive(Debug, PartialEq)]
pub enum Action {
    /// The session identified itself: register `(study, run, shard)`
    /// before any data is accepted.
    Register(Hello),
    /// Send an ACK now.
    Ack(Ack),
    /// Queue a capture batch for pool decoding. `visit_ord` is the
    /// session-local ordinal of the visit the batch belongs to.
    QueueBatch {
        /// Session-local visit ordinal (index into finished+open visits).
        visit_ord: usize,
        /// Raw JSON payload, decoded later on the worker pool.
        payload: Vec<u8>,
    },
    /// BYE received: finalize once every queued batch has been decoded,
    /// then ACK with the authoritative exchange count.
    ByeReady {
        /// Sequence number of the BYE frame, for its deferred ACK.
        bye_seq: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitHello,
    Active,
    InVisit,
    ByeSeen,
}

/// Progress of one visit within a session.
#[derive(Debug)]
struct VisitProgress {
    begin: VisitBegin,
    /// Capture count declared by VISIT_END; `None` while the visit is
    /// open.
    declared: Option<u64>,
    /// Exchanges decoded for this visit so far.
    received: u64,
}

/// The protocol state machine for one ingest session.
#[derive(Debug)]
pub struct SessionState {
    phase: Phase,
    next_seq: u32,
    hello: Option<Hello>,
    visits: Vec<VisitProgress>,
    captures: Vec<CapturedExchange>,
    trailer: Option<RunTrailer>,
}

impl Default for SessionState {
    fn default() -> Self {
        SessionState::new()
    }
}

impl SessionState {
    /// A fresh session awaiting its HELLO.
    pub fn new() -> SessionState {
        SessionState {
            phase: Phase::AwaitHello,
            next_seq: 0,
            hello: None,
            visits: Vec::new(),
            captures: Vec::new(),
            trailer: None,
        }
    }

    /// The session's HELLO, once received.
    pub fn hello(&self) -> Option<&Hello> {
        self.hello.as_ref()
    }

    /// Whether BYE has been received (the session is draining).
    pub fn bye_seen(&self) -> bool {
        self.phase == Phase::ByeSeen
    }

    /// Exchanges decoded so far.
    pub fn exchanges(&self) -> u64 {
        self.captures.len() as u64
    }

    /// The protocol phase as the stable lowercase name used in the
    /// `STATS` session table (`"await_hello"`, `"active"`,
    /// `"in_visit"`, `"draining"`).
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::AwaitHello => "await_hello",
            Phase::Active => "active",
            Phase::InVisit => "in_visit",
            Phase::ByeSeen => "draining",
        }
    }

    /// Visits opened so far (including the one in progress, if any).
    pub fn visit_count(&self) -> usize {
        self.visits.len()
    }

    /// Consumes one frame, advancing the state machine.
    pub fn on_frame(&mut self, frame: Frame) -> Result<Vec<Action>, Violation> {
        if frame.seq != self.next_seq {
            return Err(Violation::BadSeq {
                expected: self.next_seq,
                got: frame.seq,
            });
        }
        self.next_seq = self.next_seq.wrapping_add(1);
        match (self.phase, frame.command) {
            (Phase::AwaitHello, Command::Hello) => {
                let hello: Hello = frame.parse()?;
                if hello.proto != PROTO_VERSION {
                    return Err(Violation::BadHello(format!(
                        "protocol version {} (want {PROTO_VERSION})",
                        hello.proto
                    )));
                }
                if hello.shards == 0 || hello.shard >= hello.shards {
                    return Err(Violation::BadHello(format!(
                        "shard {}/{} out of range",
                        hello.shard, hello.shards
                    )));
                }
                if run_kind_of(&hello.run).is_none() {
                    return Err(Violation::BadHello(format!("unknown run {:?}", hello.run)));
                }
                self.hello = Some(hello.clone());
                self.phase = Phase::Active;
                Ok(vec![
                    Action::Register(hello),
                    Action::Ack(Ack {
                        of: frame.seq,
                        exchanges: 0,
                    }),
                ])
            }
            (Phase::Active, Command::VisitBegin) => {
                let begin: VisitBegin = frame.parse()?;
                if let Some(last) = self.visits.last() {
                    if begin.visit <= last.begin.visit {
                        return Err(Violation::BadState(format!(
                            "visit {} does not advance past {}",
                            begin.visit.0, last.begin.visit.0
                        )));
                    }
                }
                self.visits.push(VisitProgress {
                    begin,
                    declared: None,
                    received: 0,
                });
                self.phase = Phase::InVisit;
                Ok(vec![])
            }
            (Phase::InVisit, Command::Capture) => Ok(vec![Action::QueueBatch {
                visit_ord: self.visits.len() - 1,
                payload: frame.payload,
            }]),
            (Phase::InVisit, Command::VisitEnd) => {
                let end: VisitEnd = frame.parse()?;
                let open = self.visits.last_mut().expect("InVisit has an open visit");
                if end.visit != open.begin.visit {
                    return Err(Violation::BadState(format!(
                        "VISIT_END for {} while visit {} is open",
                        end.visit.0, open.begin.visit.0
                    )));
                }
                open.declared = Some(end.captures);
                self.phase = Phase::Active;
                Ok(vec![Action::Ack(Ack {
                    of: frame.seq,
                    exchanges: self.captures.len() as u64,
                })])
            }
            (Phase::Active | Phase::InVisit, Command::Heartbeat) => Ok(vec![]),
            (Phase::Active, Command::Bye) => {
                let bye: Bye = frame.parse()?;
                self.trailer = bye.trailer;
                self.phase = Phase::ByeSeen;
                Ok(vec![Action::ByeReady { bye_seq: frame.seq }])
            }
            (phase, command) => Err(Violation::BadState(format!(
                "{command:?} not legal in {phase:?}"
            ))),
        }
    }

    /// Applies one decoded capture batch (called from the pool drain, in
    /// the exact order the batches were queued).
    pub fn apply_batch(&mut self, visit_ord: usize, batch: Vec<CapturedExchange>) {
        self.visits[visit_ord].received += batch.len() as u64;
        self.captures.extend(batch);
    }

    /// Seals the session after BYE once every queued batch is decoded:
    /// verifies per-visit declared counts and produces the shard's
    /// contribution to the run.
    pub fn finalize(&mut self) -> Result<ShardResult, Violation> {
        debug_assert_eq!(self.phase, Phase::ByeSeen);
        let hello = self.hello.clone().expect("ByeSeen implies hello");
        let mut summaries = Vec::with_capacity(self.visits.len());
        for v in &self.visits {
            let declared = v.declared.unwrap_or(0);
            if declared != v.received {
                return Err(Violation::CountMismatch {
                    visit: v.begin.visit,
                    declared,
                    received: v.received,
                });
            }
            summaries.push(VisitSummary {
                visit: v.begin.visit,
                channel: v.begin.channel,
                opened: v.begin.opened,
                captures: v.received as usize,
            });
        }
        Ok(ShardResult {
            hello,
            visits: summaries,
            captures: std::mem::take(&mut self.captures),
            trailer: self.trailer.take(),
        })
    }
}

/// One finalized session: a shard's worth of a run.
#[derive(Debug)]
pub struct ShardResult {
    /// The session's identity.
    pub hello: Hello,
    /// Visit summaries, reassembled from VISIT_BEGIN/VISIT_END pairs.
    pub visits: Vec<VisitSummary>,
    /// The shard's capture-log slice, in streamed order.
    pub captures: Vec<CapturedExchange>,
    /// Run-level trailer, on the shard that carried it.
    pub trailer: Option<RunTrailer>,
}

/// Parses a run label back to its [`RunKind`].
pub fn run_kind_of(label: &str) -> Option<RunKind> {
    RunKind::ALL.iter().copied().find(|k| k.label() == label)
}

#[derive(Debug)]
struct RunSlot {
    shards: u32,
    results: Vec<Option<ShardResult>>,
}

impl RunSlot {
    fn complete(&self) -> bool {
        self.results.iter().all(|r| r.is_some())
    }
}

/// Collects finalized shards and reassembles complete runs/studies.
#[derive(Debug, Default)]
pub struct Assembler {
    runs: BTreeMap<(String, String), RunSlot>,
}

impl Assembler {
    /// A fresh, empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Adds one finalized shard. Rejects shard-layout conflicts and
    /// duplicate shards (a retry of an already-landed shard must not
    /// silently double data).
    pub fn add(&mut self, result: ShardResult) -> Result<(), String> {
        let key = (result.hello.study.clone(), result.hello.run.clone());
        let slot = self.runs.entry(key).or_insert_with(|| RunSlot {
            shards: result.hello.shards,
            results: (0..result.hello.shards).map(|_| None).collect(),
        });
        if slot.shards != result.hello.shards {
            return Err(format!(
                "shard layout conflict: run {} already has {} shards, session declared {}",
                result.hello.run, slot.shards, result.hello.shards
            ));
        }
        let idx = result.hello.shard as usize;
        if slot.results[idx].is_some() {
            return Err(format!(
                "duplicate shard {} for run {}",
                result.hello.shard, result.hello.run
            ));
        }
        slot.results[idx] = Some(result);
        Ok(())
    }

    /// Run kinds of `study` whose every shard has landed, in canonical
    /// order.
    pub fn complete_runs(&self, study: &str) -> Vec<RunKind> {
        RunKind::ALL
            .iter()
            .copied()
            .filter(|k| {
                self.runs
                    .get(&(study.to_string(), k.label().to_string()))
                    .is_some_and(|slot| slot.complete())
            })
            .collect()
    }

    /// Removes and reassembles one complete run: shards concatenate in
    /// shard order, which by the visit-sharding contract reproduces the
    /// original capture log exactly.
    pub fn take_run(&mut self, study: &str, kind: RunKind) -> Result<RunDataset, String> {
        let key = (study.to_string(), kind.label().to_string());
        let complete = self.runs.get(&key).is_some_and(|s| s.complete());
        if !complete {
            return Err(format!("run {kind} of study {study:?} is not complete"));
        }
        let slot = self.runs.remove(&key).expect("checked above");
        let mut visits = Vec::new();
        let mut captures = Vec::new();
        let mut trailer = None;
        for result in slot.results.into_iter().flatten() {
            visits.extend(result.visits);
            captures.extend(result.captures);
            if let Some(t) = result.trailer {
                if trailer.is_some() {
                    return Err(format!("run {kind}: more than one shard carried a trailer"));
                }
                trailer = Some(t);
            }
        }
        let Some(t) = trailer else {
            return Err(format!("run {kind}: no shard carried the run trailer"));
        };
        Ok(RunDataset {
            run: kind,
            channels_measured: t.channels_measured,
            channel_names: t.channel_names,
            visits,
            captures,
            cookies: t.cookies,
            local_storage: t.local_storage,
            screenshots: t.screenshots,
            interactions: t.interactions,
            consented_channels: t.consented_channels,
        })
    }

    /// Removes and reassembles every complete run of `study` into a
    /// dataset, runs in canonical [`RunKind::ALL`] order. Incomplete
    /// runs (lost shards, rejected sessions) are simply absent — losing
    /// one TV must not block the fleet.
    pub fn take_study(&mut self, study: &str) -> Result<StudyDataset, String> {
        let mut runs = Vec::new();
        for kind in self.complete_runs(study) {
            runs.push(self.take_run(study, kind)?);
        }
        Ok(StudyDataset { runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbtv_broadcast::ChannelId;
    use hbbtv_net::Timestamp;

    fn hello_frame(seq: u32) -> Frame {
        Frame::json(
            Command::Hello,
            seq,
            &Hello {
                proto: PROTO_VERSION,
                study: "s".into(),
                run: "General".into(),
                shard: 0,
                shards: 1,
            },
        )
    }

    fn begin_frame(seq: u32, visit: u32) -> Frame {
        Frame::json(
            Command::VisitBegin,
            seq,
            &VisitBegin {
                visit: VisitId(visit),
                channel: ChannelId(1),
                opened: Timestamp::from_unix(100),
            },
        )
    }

    #[test]
    fn happy_path_produces_shard_result() {
        let mut s = SessionState::new();
        let a = s.on_frame(hello_frame(0)).unwrap();
        assert!(matches!(a[0], Action::Register(_)));
        assert!(matches!(a[1], Action::Ack(Ack { of: 0, .. })));
        s.on_frame(begin_frame(1, 0)).unwrap();
        let a = s.on_frame(crate::frame::capture_frame(2, &[])).unwrap();
        let Action::QueueBatch { visit_ord, payload } = &a[0] else {
            panic!("expected QueueBatch");
        };
        assert_eq!(*visit_ord, 0);
        s.apply_batch(0, crate::frame::parse_capture_batch(payload).unwrap());
        s.on_frame(Frame::json(
            Command::VisitEnd,
            3,
            &VisitEnd {
                visit: VisitId(0),
                captures: 0,
            },
        ))
        .unwrap();
        let a = s
            .on_frame(Frame::json(Command::Bye, 4, &Bye { trailer: None }))
            .unwrap();
        assert_eq!(a, vec![Action::ByeReady { bye_seq: 4 }]);
        let shard = s.finalize().unwrap();
        assert_eq!(shard.visits.len(), 1);
        assert_eq!(shard.visits[0].captures, 0);
    }

    #[test]
    fn seq_gap_and_repeat_are_violations() {
        let mut s = SessionState::new();
        s.on_frame(hello_frame(0)).unwrap();
        let err = s.on_frame(begin_frame(5, 0)).unwrap_err();
        assert_eq!(
            err,
            Violation::BadSeq {
                expected: 1,
                got: 5
            }
        );

        let mut s = SessionState::new();
        s.on_frame(hello_frame(0)).unwrap();
        let err = s.on_frame(hello_frame(0)).unwrap_err();
        assert_eq!(
            err,
            Violation::BadSeq {
                expected: 1,
                got: 0
            }
        );
    }

    #[test]
    fn capture_outside_a_visit_is_a_violation() {
        let mut s = SessionState::new();
        s.on_frame(hello_frame(0)).unwrap();
        let err = s.on_frame(crate::frame::capture_frame(1, &[])).unwrap_err();
        assert!(matches!(err, Violation::BadState(_)));
    }

    #[test]
    fn non_monotonic_visits_are_rejected() {
        let mut s = SessionState::new();
        s.on_frame(hello_frame(0)).unwrap();
        s.on_frame(begin_frame(1, 3)).unwrap();
        s.on_frame(Frame::json(
            Command::VisitEnd,
            2,
            &VisitEnd {
                visit: VisitId(3),
                captures: 0,
            },
        ))
        .unwrap();
        let err = s.on_frame(begin_frame(3, 3)).unwrap_err();
        assert!(matches!(err, Violation::BadState(_)));
    }

    #[test]
    fn bad_hello_variants() {
        let mut s = SessionState::new();
        let bad_proto = Frame::json(
            Command::Hello,
            0,
            &Hello {
                proto: 99,
                study: "s".into(),
                run: "General".into(),
                shard: 0,
                shards: 1,
            },
        );
        assert!(matches!(
            s.on_frame(bad_proto).unwrap_err(),
            Violation::BadHello(_)
        ));

        let mut s = SessionState::new();
        let bad_shard = Frame::json(
            Command::Hello,
            0,
            &Hello {
                proto: PROTO_VERSION,
                study: "s".into(),
                run: "General".into(),
                shard: 2,
                shards: 2,
            },
        );
        assert!(matches!(
            s.on_frame(bad_shard).unwrap_err(),
            Violation::BadHello(_)
        ));

        let mut s = SessionState::new();
        let bad_run = Frame::json(
            Command::Hello,
            0,
            &Hello {
                proto: PROTO_VERSION,
                study: "s".into(),
                run: "Purple".into(),
                shard: 0,
                shards: 1,
            },
        );
        assert!(matches!(
            s.on_frame(bad_run).unwrap_err(),
            Violation::BadHello(_)
        ));
    }

    #[test]
    fn count_mismatch_is_caught_at_finalize() {
        let mut s = SessionState::new();
        s.on_frame(hello_frame(0)).unwrap();
        s.on_frame(begin_frame(1, 0)).unwrap();
        s.on_frame(Frame::json(
            Command::VisitEnd,
            2,
            &VisitEnd {
                visit: VisitId(0),
                captures: 7,
            },
        ))
        .unwrap();
        s.on_frame(Frame::json(Command::Bye, 3, &Bye { trailer: None }))
            .unwrap();
        let err = s.finalize().unwrap_err();
        assert_eq!(
            err,
            Violation::CountMismatch {
                visit: VisitId(0),
                declared: 7,
                received: 0
            }
        );
    }

    #[test]
    fn assembler_rejects_duplicate_and_conflicting_shards() {
        let mk = |shard: u32, shards: u32| ShardResult {
            hello: Hello {
                proto: PROTO_VERSION,
                study: "s".into(),
                run: "General".into(),
                shard,
                shards,
            },
            visits: vec![],
            captures: vec![],
            trailer: None,
        };
        let mut asm = Assembler::new();
        asm.add(mk(0, 2)).unwrap();
        assert!(asm.add(mk(0, 2)).is_err(), "duplicate shard");
        assert!(asm.add(mk(1, 3)).is_err(), "layout conflict");
        assert!(asm.complete_runs("s").is_empty());
        asm.add(mk(1, 2)).unwrap();
        assert_eq!(asm.complete_runs("s"), vec![RunKind::General]);
        // Complete but trailer-less: reassembly reports it.
        assert!(asm.take_run("s", RunKind::General).is_err());
    }
}
