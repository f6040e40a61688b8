//! Property tests for the ingest frame codec.
//!
//! The decoder's job is to turn an *arbitrarily chunked* byte stream
//! back into the exact frame sequence that was encoded — TCP guarantees
//! order and integrity but not read boundaries, so the properties here
//! split encoded streams at every kind of awkward place. The dual
//! property is robustness: no byte prefix, however hostile, may panic
//! the decoder or make it hallucinate a frame that was never encoded.

use hbbtv_broadcast::ChannelId;
use hbbtv_ingest::fault::SplitMix64;
use hbbtv_ingest::frame::{
    capture_frame, parse_capture_batch, Ack, Bye, Command, ErrInfo, Frame, FrameError, Hello,
    RunTrailer, SessionStat, StatsReport, StatsRequest, VisitBegin, VisitEnd, PROTO_VERSION,
};
use hbbtv_ingest::FrameDecoder;
use hbbtv_net::{Request, Response, Status, Timestamp};
use hbbtv_proxy::{CapturedExchange, VisitId};
use hbbtv_study::{Ecosystem, RunKind, StudyHarness};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// A deterministic frame of every type, driven by an rng so proptest
/// explores payload shapes (string lengths, counts, option-ness).
fn arbitrary_frame(rng: &mut SplitMix64, seq: u32) -> Frame {
    match rng.below(10) {
        0 => Frame::json(
            Command::Hello,
            seq,
            &Hello {
                proto: PROTO_VERSION,
                study: format!("study-{}", rng.below(1000)),
                run: "General".into(),
                shard: rng.below(16) as u32,
                shards: 16,
            },
        ),
        1 => Frame::json(
            Command::Ack,
            seq,
            &Ack {
                of: rng.below(10_000) as u32,
                exchanges: rng.next_u64() % 100_000,
            },
        ),
        2 => Frame::json(
            Command::VisitBegin,
            seq,
            &VisitBegin {
                visit: VisitId(rng.below(500) as u32),
                channel: ChannelId(rng.below(500) as u32),
                opened: Timestamp::from_unix(rng.next_u64() % 1_000_000),
            },
        ),
        3 => {
            let n = rng.below(4);
            let batch: Vec<CapturedExchange> = (0..n)
                .map(|i| CapturedExchange {
                    session: "General".into(),
                    visit: Some(VisitId(i as u32)),
                    channel: Some(ChannelId(7)),
                    channel_name: Some(format!("ch-{i}")),
                    request: Request::get(
                        format!("http://app-{}.example.de/r{i}", rng.below(50))
                            .parse()
                            .unwrap(),
                    )
                    .at(Timestamp::from_unix(rng.next_u64() % 100_000))
                    .build(),
                    response: Response::builder(Status::OK).build(),
                })
                .collect();
            capture_frame(seq, &batch)
        }
        4 => Frame::json(
            Command::VisitEnd,
            seq,
            &VisitEnd {
                visit: VisitId(rng.below(500) as u32),
                captures: rng.next_u64() % 1000,
            },
        ),
        5 => Frame::empty(Command::Heartbeat, seq),
        6 => Frame::json(
            Command::Bye,
            seq,
            &Bye {
                trailer: if rng.below(2) == 0 {
                    None
                } else {
                    Some(RunTrailer {
                        channels_measured: vec![ChannelId(1), ChannelId(2)],
                        channel_names: Default::default(),
                        cookies: vec![],
                        local_storage: vec![(
                            "host.example.de".into(),
                            format!("k{}", rng.below(10)),
                            "v".into(),
                        )],
                        screenshots: vec![],
                        interactions: rng.below(50),
                        consented_channels: vec![],
                    })
                },
            },
        ),
        7 => Frame::json(
            Command::Err,
            seq,
            &ErrInfo {
                reason: format!("reason-{}", rng.below(100)),
            },
        ),
        8 => {
            // STATS requests are usually empty-payload; exercise both.
            if rng.below(2) == 0 {
                Frame::empty(Command::Stats, seq)
            } else {
                Frame::json(Command::Stats, seq, &StatsRequest::default())
            }
        }
        _ => {
            let sessions: Vec<SessionStat> = (0..rng.below(3))
                .map(|i| SessionStat {
                    study: format!("study-{}", rng.below(100)),
                    run: "General".into(),
                    shard: i as u32,
                    shards: 4,
                    state: "active".into(),
                    visits: rng.next_u64() % 100,
                    exchanges: rng.next_u64() % 10_000,
                    bytes: rng.next_u64() % 1_000_000,
                    queued: rng.next_u64() % 8,
                    stalled: rng.below(2) == 0,
                    last_activity_ms: rng.next_u64() % 60_000,
                    stats_served: rng.next_u64() % 5,
                })
                .collect();
            Frame::json(
                Command::StatsReply,
                seq,
                &StatsReport {
                    proto: PROTO_VERSION,
                    health: hbbtv_obs::HealthReport {
                        status: hbbtv_obs::HealthStatus::Healthy,
                        raw: hbbtv_obs::HealthStatus::Healthy,
                        reasons: vec![],
                    },
                    counters: [(format!("ingest.c{}", rng.below(4)), rng.next_u64() % 999)]
                        .into_iter()
                        .collect(),
                    gauges: [("ingest.sessions_open".to_string(), rng.below(9) as i64)]
                        .into_iter()
                        .collect(),
                    histograms: Default::default(),
                    sessions,
                },
            )
        }
    }
}

fn frame_sequence(seed: u64, count: usize) -> Vec<Frame> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|i| arbitrary_frame(&mut rng, i as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Encode N frames of every type, feed the bytes to the decoder in
    /// chunks of arbitrary (seeded) sizes — 1-byte drips through
    /// multi-frame gulps — and require the exact frame sequence back.
    #[test]
    fn chunked_decode_round_trips_every_frame_type(
        seed in 0u64..5_000,
        count in 1usize..12,
        chunk_seed in 0u64..5_000,
    ) {
        let frames = frame_sequence(seed, count);
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }

        let mut chunker = SplitMix64::new(chunk_seed);
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        while offset < bytes.len() {
            // Chunk sizes from 1 byte to a bit over one typical frame.
            let n = (1 + chunker.below(200)).min(bytes.len() - offset);
            decoder.push_bytes(&bytes[offset..offset + n]);
            offset += n;
            while let Some(frame) = decoder.next_frame().expect("healthy stream decodes") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert!(decoder.at_frame_boundary());
    }

    /// Every single-byte split point of a two-frame stream round-trips:
    /// the exhaustive version of the chunking property at the
    /// granularity where header/payload boundary bugs live.
    #[test]
    fn every_split_point_round_trips(seed in 0u64..2_000) {
        let frames = frame_sequence(seed, 2);
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        for cut in 0..=bytes.len() {
            let mut decoder = FrameDecoder::new();
            let mut decoded = Vec::new();
            decoder.push_bytes(&bytes[..cut]);
            while let Some(frame) = decoder.next_frame().expect("prefix decodes") {
                decoded.push(frame);
            }
            decoder.push_bytes(&bytes[cut..]);
            while let Some(frame) = decoder.next_frame().expect("suffix decodes") {
                decoded.push(frame);
            }
            prop_assert_eq!(&decoded, &frames, "split at byte {} broke decode", cut);
        }
    }

    /// Fuzz-shaped robustness: arbitrary byte prefixes (pure noise)
    /// never panic the decoder — they either decode as (garbage) frames
    /// or produce a clean error, after which the decoder stays
    /// poisoned and keeps returning errors instead of resynchronizing on
    /// attacker-controlled bytes.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        noise in proptest::collection::vec(0u8..=255u8, 0..600usize),
        chunk_seed in 0u64..1_000,
    ) {
        let mut chunker = SplitMix64::new(chunk_seed);
        let mut decoder = FrameDecoder::new();
        let mut errored = false;
        let mut offset = 0;
        while offset < noise.len() {
            let n = (1 + chunker.below(64)).min(noise.len() - offset);
            decoder.push_bytes(&noise[offset..offset + n]);
            offset += n;
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => {
                        errored = true;
                        break;
                    }
                }
            }
            if errored {
                // Sticky: once poisoned, every further call errors.
                prop_assert!(decoder.next_frame().is_err());
                break;
            }
        }
    }

    /// Torn healthy streams never panic either: any prefix of a valid
    /// stream decodes only whole frames and then waits for more bytes.
    #[test]
    fn truncated_streams_decode_only_whole_frames(
        seed in 0u64..2_000,
        count in 1usize..8,
        cut_seed in 0u64..1_000,
    ) {
        let frames = frame_sequence(seed, count);
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let cut = SplitMix64::new(cut_seed).below(bytes.len() + 1);
        let mut decoder = FrameDecoder::new();
        decoder.push_bytes(&bytes[..cut]);
        let mut decoded = Vec::new();
        while let Some(frame) = decoder.next_frame().expect("valid prefix never errors") {
            decoded.push(frame);
        }
        // Whatever decoded is a strict prefix of the original sequence.
        prop_assert!(decoded.len() <= frames.len());
        prop_assert_eq!(&decoded[..], &frames[..decoded.len()]);
    }
}

/// Best of five decodes of one capture payload.
fn best_decode_time(payload: &[u8]) -> Duration {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let batch = parse_capture_batch(std::hint::black_box(payload));
            let elapsed = t.elapsed();
            assert!(batch.is_ok(), "probe payloads decode");
            elapsed
        })
        .min()
        .expect("five samples")
}

/// Capture decoding is linear in the payload: a batch of twice the
/// exchanges decodes in well under three times the time of one. A
/// string parser that rescans the remaining input per character is
/// quadratic and lands near four.
#[test]
fn capture_batch_decode_time_is_linear() {
    let eco = Ecosystem::with_scale(42, 0.02);
    let mut sample = StudyHarness::new(&eco).run(RunKind::General).captures;
    sample.truncate(256);
    assert_eq!(sample.len(), 256, "the study yields enough exchanges");
    // Non-ASCII text and escapes must survive the run-at-a-time scan.
    sample[0].channel_name = Some("Zürich \"Süd\"\n\tTV \u{1F4FA}".into());
    let one = capture_frame(0, &sample[..128]).payload;
    let two = capture_frame(0, &sample).payload;
    assert_eq!(parse_capture_batch(&two).expect("decodes"), sample);

    let ratio = best_decode_time(&two).as_secs_f64() / best_decode_time(&one).as_secs_f64();
    assert!(ratio < 3.0, "2x payload decodes {ratio:.2}x slower than 1x");
}

/// Deeply nested JSON fails with a typed error instead of overflowing
/// the stack. The collector decodes on pool workers with 2 MiB stacks,
/// so the payload is parsed on a thread of exactly that size: 100,000
/// `[` bytes (well under `MAX_FRAME_LEN`) must come back as
/// `BadPayload`, not abort the process.
#[test]
fn deeply_nested_capture_payload_is_a_typed_error() {
    let payload = vec![b'['; 100_000];
    let result = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || parse_capture_batch(&payload))
        .expect("spawn a 2 MiB-stack decoder thread")
        .join()
        .expect("the decoder thread must not panic");
    match result {
        Err(FrameError::BadPayload { command, .. }) => assert_eq!(command, Command::Capture),
        other => panic!("expected BadPayload, got {other:?}"),
    }
}
