//! Deterministic fault injection for ingest sessions.
//!
//! A [`FaultPlan`] turns a healthy session's frame sequence into a
//! *fault script* — the exact bytes (and stalls, and disconnects) a
//! misbehaving TV would put on the wire. Everything derives from the
//! plan's seed through a splitmix64 stream, so a failing soak run
//! replays byte-for-byte from its seed: which frame is torn, where the
//! cut lands, which batches swap — all pure functions of `(plan,
//! frames)`.
//!
//! The eight kinds cover the failure classes a long-running collector
//! fleet actually sees (flaky embedded TCP stacks, power cuts
//! mid-write, buggy retry loops, middleboxes, confused operators):
//!
//! | kind | wire effect | server defense |
//! |------|-------------|----------------|
//! | [`FaultKind::GarbagePrefix`] | noise before `HELLO` | length/command validation |
//! | [`FaultKind::TornFrame`] | frame truncated, stream continues | decode error or seq break |
//! | [`FaultKind::MidFrameDisconnect`] | FIN lands mid-frame | EOF-mid-session rejection |
//! | [`FaultKind::DuplicateBatch`] | a `CAPTURE` frame sent twice | per-session seq numbers |
//! | [`FaultKind::ReorderedBatches`] | adjacent `CAPTURE`s swapped | per-session seq numbers |
//! | [`FaultKind::StalledWriter`] | writer goes silent, socket open | heartbeat-timeout GC |
//! | [`FaultKind::GarbageStats`] | `STATS` frame with a junk payload | request validation, session-local rejection |
//! | [`FaultKind::DeepNesting`] | a `CAPTURE` payload of [`NESTING_DEPTH`] `[` | decoder depth limit, typed decode error |

use crate::frame::{Command, Frame};

/// The failure classes the collector must contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Random bytes precede the `HELLO` (a client that talked the wrong
    /// protocol, or a corrupted handshake).
    GarbagePrefix,
    /// One frame is truncated but the writer keeps going with the next
    /// frame — the stream stays alive and misaligned.
    TornFrame,
    /// The connection drops in the middle of a frame.
    MidFrameDisconnect,
    /// One capture batch is transmitted twice (a retry bug).
    DuplicateBatch,
    /// Two adjacent capture batches swap places (a reordering proxy or
    /// a multi-socket retry).
    ReorderedBatches,
    /// The writer stalls silently with the socket open — no frames, no
    /// heartbeats, no FIN.
    StalledWriter,
    /// A `STATS` introspection request with a garbage (non-JSON)
    /// payload lands mid-stream (a broken operator tool on the data
    /// port). Must reject only the offending session.
    GarbageStats,
    /// One `CAPTURE` frame, well formed and in sequence, carries
    /// [`NESTING_DEPTH`] nested `[` instead of a batch (a hostile or
    /// corrupted encoder). The decoder must fail with a typed error,
    /// not recurse until the stack overflows.
    DeepNesting,
}

/// Open brackets in a [`FaultKind::DeepNesting`] payload: deep enough
/// to overflow the stack of a decoder that recursed per level.
pub const NESTING_DEPTH: usize = 100_000;

impl FaultKind {
    /// Every kind, for suites that sweep all of them.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::GarbagePrefix,
        FaultKind::TornFrame,
        FaultKind::MidFrameDisconnect,
        FaultKind::DuplicateBatch,
        FaultKind::ReorderedBatches,
        FaultKind::StalledWriter,
        FaultKind::GarbageStats,
        FaultKind::DeepNesting,
    ];
}

/// A seeded fault: which [`FaultKind`], and the randomness that places
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The failure class to inject.
    pub kind: FaultKind,
    /// Seed for all placement decisions.
    pub seed: u64,
}

/// One step of a fault script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultStep {
    /// Put these bytes on the wire.
    Write(Vec<u8>),
    /// Go silent with the socket open until the server hangs up (the
    /// executor bounds the wait; the heartbeat GC is what should end
    /// it).
    StallUntilClosed,
    /// Close the connection (FIN) and stop.
    Disconnect,
}

/// Deterministic splitmix64, the standard 64-bit mixer. Hand-rolled so
/// fault placement does not depend on any RNG crate's version-to-version
/// stream stability.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound >= 1);
        (self.next_u64() % bound as u64) as usize
    }
}

impl FaultPlan {
    /// Compiles the healthy frame sequence into a fault script.
    ///
    /// `frames` is the session's full intended output (HELLO through
    /// BYE) in order. The script replaces the tail of the session from
    /// the injection point on; every choice comes from the plan's seed.
    pub fn compile(&self, frames: &[Frame]) -> Vec<FaultStep> {
        let mut rng = SplitMix64::new(self.seed);
        // Prefer to strike a CAPTURE frame — that is where data-loss
        // bugs hide — falling back to any mid-session frame.
        let capture_at: Vec<usize> = frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.command == Command::Capture)
            .map(|(i, _)| i)
            .collect();
        let target = if capture_at.is_empty() {
            frames.len() / 2
        } else {
            capture_at[rng.below(capture_at.len())]
        };

        let mut steps = Vec::new();
        let emit = |range: std::ops::Range<usize>, steps: &mut Vec<FaultStep>| {
            let mut bytes = Vec::new();
            for f in &frames[range] {
                f.encode_into(&mut bytes);
            }
            if !bytes.is_empty() {
                steps.push(FaultStep::Write(bytes));
            }
        };

        match self.kind {
            FaultKind::GarbagePrefix => {
                let n = 16 + rng.below(48);
                let garbage: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                steps.push(FaultStep::Write(garbage));
                emit(0..frames.len(), &mut steps);
                steps.push(FaultStep::Disconnect);
            }
            FaultKind::TornFrame => {
                emit(0..target, &mut steps);
                let encoded = frames[target].encode();
                // Keep at least one byte, lose at least one.
                let cut = 1 + rng.below(encoded.len() - 1);
                steps.push(FaultStep::Write(encoded[..cut].to_vec()));
                // The writer is oblivious and keeps streaming.
                emit(target + 1..frames.len(), &mut steps);
                steps.push(FaultStep::Disconnect);
            }
            FaultKind::MidFrameDisconnect => {
                emit(0..target, &mut steps);
                let encoded = frames[target].encode();
                let cut = 1 + rng.below(encoded.len() - 1);
                steps.push(FaultStep::Write(encoded[..cut].to_vec()));
                steps.push(FaultStep::Disconnect);
            }
            FaultKind::DuplicateBatch => {
                emit(0..target + 1, &mut steps);
                steps.push(FaultStep::Write(frames[target].encode()));
                emit(target + 1..frames.len(), &mut steps);
                steps.push(FaultStep::Disconnect);
            }
            FaultKind::ReorderedBatches => {
                // Swap the target with its successor frame (whatever it
                // is — a CAPTURE/VISIT_END swap is just as illegal). A
                // sub-two-frame session has nothing to swap; degrade to
                // a clean stream so the executor still runs.
                if frames.len() < 2 {
                    emit(0..frames.len(), &mut steps);
                    steps.push(FaultStep::Disconnect);
                } else {
                    let first = target.min(frames.len() - 2);
                    let second = first + 1;
                    emit(0..first, &mut steps);
                    let mut bytes = frames[second].encode();
                    bytes.extend(frames[first].encode());
                    steps.push(FaultStep::Write(bytes));
                    emit(second + 1..frames.len(), &mut steps);
                    steps.push(FaultStep::Disconnect);
                }
            }
            FaultKind::StalledWriter => {
                emit(0..target, &mut steps);
                steps.push(FaultStep::StallUntilClosed);
            }
            FaultKind::GarbageStats => {
                // STATS is out-of-band (no session seq), so it can land
                // between any two frames; the payload is junk bytes
                // that fail request validation. The writer is oblivious
                // and keeps streaming the rest of the session.
                emit(0..target, &mut steps);
                let n = 8 + rng.below(24);
                let mut garbage: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
                // 0xff is never valid UTF-8, so the payload fails
                // validation for every seed.
                garbage[0] = 0xff;
                let stats = Frame {
                    command: Command::Stats,
                    seq: 0,
                    payload: garbage,
                };
                steps.push(FaultStep::Write(stats.encode()));
                emit(target..frames.len(), &mut steps);
                steps.push(FaultStep::Disconnect);
            }
            FaultKind::DeepNesting => {
                // The frame keeps the target's command and seq, so only
                // the payload decode can reject it; the writer keeps
                // streaming the rest of the session.
                emit(0..target, &mut steps);
                let nested = Frame {
                    command: Command::Capture,
                    seq: frames[target].seq,
                    payload: vec![b'['; NESTING_DEPTH],
                };
                steps.push(FaultStep::Write(nested.encode()));
                emit(target + 1..frames.len(), &mut steps);
                steps.push(FaultStep::Disconnect);
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Bye, Hello, PROTO_VERSION};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::json(
                Command::Hello,
                0,
                &Hello {
                    proto: PROTO_VERSION,
                    study: "s".into(),
                    run: "General".into(),
                    shard: 0,
                    shards: 1,
                },
            ),
            Frame::json(
                Command::VisitBegin,
                1,
                &crate::frame::VisitBegin {
                    visit: hbbtv_proxy::VisitId(0),
                    channel: hbbtv_broadcast::ChannelId(1),
                    opened: hbbtv_net::Timestamp::from_unix(1),
                },
            ),
            crate::frame::capture_frame(2, &[]),
            crate::frame::capture_frame(3, &[]),
            Frame::json(
                Command::VisitEnd,
                4,
                &crate::frame::VisitEnd {
                    visit: hbbtv_proxy::VisitId(0),
                    captures: 0,
                },
            ),
            Frame::json(Command::Bye, 5, &Bye { trailer: None }),
        ]
    }

    #[test]
    fn scripts_are_deterministic_in_the_seed() {
        let frames = sample_frames();
        for kind in FaultKind::ALL {
            let a = FaultPlan { kind, seed: 42 }.compile(&frames);
            let b = FaultPlan { kind, seed: 42 }.compile(&frames);
            assert_eq!(a, b, "{kind:?} must be deterministic");
            let c = FaultPlan { kind, seed: 43 }.compile(&frames);
            // Different seeds are allowed to coincide for some kinds
            // (duplicate always duplicates *a* capture frame), but the
            // script must still be well-formed.
            assert!(!c.is_empty());
        }
    }

    #[test]
    fn torn_frame_loses_bytes() {
        let frames = sample_frames();
        let healthy: usize = frames.iter().map(|f| f.encoded_len()).sum();
        let script = FaultPlan {
            kind: FaultKind::TornFrame,
            seed: 7,
        }
        .compile(&frames);
        let written: usize = script
            .iter()
            .map(|s| match s {
                FaultStep::Write(b) => b.len(),
                _ => 0,
            })
            .sum();
        assert!(written < healthy, "a torn frame must lose bytes");
        assert_eq!(script.last(), Some(&FaultStep::Disconnect));
    }

    #[test]
    fn duplicate_adds_exactly_one_frame() {
        let frames = sample_frames();
        let healthy: usize = frames.iter().map(|f| f.encoded_len()).sum();
        let script = FaultPlan {
            kind: FaultKind::DuplicateBatch,
            seed: 9,
        }
        .compile(&frames);
        let written: usize = script
            .iter()
            .map(|s| match s {
                FaultStep::Write(b) => b.len(),
                _ => 0,
            })
            .sum();
        assert!(written > healthy);
    }

    #[test]
    fn stalled_writer_ends_in_a_stall_not_a_disconnect() {
        let frames = sample_frames();
        let script = FaultPlan {
            kind: FaultKind::StalledWriter,
            seed: 3,
        }
        .compile(&frames);
        assert!(matches!(script.last(), Some(FaultStep::StallUntilClosed)));
    }

    #[test]
    fn deep_nesting_swaps_one_capture_payload_for_brackets() {
        let frames = sample_frames();
        let script = FaultPlan {
            kind: FaultKind::DeepNesting,
            seed: 5,
        }
        .compile(&frames);
        let mut bytes = Vec::new();
        for step in &script {
            if let FaultStep::Write(b) = step {
                bytes.extend_from_slice(b);
            }
        }
        let mut dec = crate::frame::FrameDecoder::new();
        dec.push_bytes(&bytes);
        let mut decoded = Vec::new();
        while let Some(f) = dec.next_frame().expect("every frame is well formed") {
            decoded.push(f);
        }
        assert_eq!(decoded.len(), frames.len(), "one frame swapped, none lost");
        let nested: Vec<&Frame> = decoded
            .iter()
            .filter(|f| f.payload == vec![b'['; NESTING_DEPTH])
            .collect();
        assert_eq!(nested.len(), 1);
        assert_eq!(nested[0].command, Command::Capture);
        assert!(crate::frame::parse_capture_batch(&nested[0].payload).is_err());
        assert_eq!(script.last(), Some(&FaultStep::Disconnect));
    }

    #[test]
    fn reordered_swaps_preserve_total_bytes() {
        let frames = sample_frames();
        let healthy: usize = frames.iter().map(|f| f.encoded_len()).sum();
        let script = FaultPlan {
            kind: FaultKind::ReorderedBatches,
            seed: 11,
        }
        .compile(&frames);
        let written: usize = script
            .iter()
            .map(|s| match s {
                FaultStep::Write(b) => b.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(written, healthy);
    }
}
