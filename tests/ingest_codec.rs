//! Property tests for the ingest frame codec.
//!
//! The decoder's job is to turn an *arbitrarily chunked* byte stream
//! back into the exact frame sequence that was encoded — TCP guarantees
//! order and integrity but not read boundaries, so the properties here
//! split encoded streams at every kind of awkward place. The dual
//! property is robustness: no byte prefix, however hostile, may panic
//! the decoder or make it hallucinate a frame that was never encoded,
//! and no near-valid capture payload may panic the payload decoder or
//! take it more than linear time.

use hbbtv_broadcast::ChannelId;
use hbbtv_ingest::fault::SplitMix64;
use hbbtv_ingest::frame::{
    capture_frame, parse_capture_batch, parse_stats_request, Ack, Bye, Command, ErrInfo, Frame,
    FrameError, Hello, RunTrailer, SessionStat, StatsReport, StatsRequest, VisitBegin, VisitEnd,
    PROTO_VERSION,
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
                    channel_name: Some(format!("ch-{i}").into()),
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

/// Picks one of `options`.
fn pick<'a>(rng: &mut SplitMix64, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

/// The families of [`hostile_capture_payload`].
const HOSTILE_KINDS: usize = 4;

/// `base` (a valid capture batch's text) made hostile in family `kind`
/// at size `n`, so it reaches the decode paths that random bytes almost
/// never do: 0 nests arrays and objects `n` deep where a number
/// belongs, 1 puts a run of `n` escapes in a string, 2 puts a huge or
/// malformed number in an integer field, and 3 bends one `Url` part
/// (host, eTLD+1, path length against the `u16` offsets, port, query
/// pair). Every size-independent choice is drawn before the size is
/// used, so one seed at two sizes gives the same payload, only longer.
fn hostile_capture_payload(kind: usize, n: usize, rng: &mut SplitMix64, base: &str) -> String {
    match kind {
        0 => {
            let nest: String = (0..n)
                .map(|_| if rng.below(2) == 0 { "[" } else { "{\"a\":" })
                .collect();
            base.replacen("\"visit\":0", &format!("\"visit\":{nest}"), 1)
        }
        1 => {
            const ESCAPES: &[&str] = &[
                "\\n",
                "\\\"",
                "\\\\",
                "\\/",
                "\\u00e9",
                "\\ud83d\\udcfa",
                "\\ud800",
                "\\udc00",
                "\\x",
                "\\u12g4",
                "\\u",
            ];
            let (run, tail) = (pick(rng, ESCAPES), pick(rng, ESCAPES));
            base.replacen("Das Erste", &(run.repeat(n) + tail), 1)
        }
        2 => {
            let field = pick(
                rng,
                &[
                    "\"visit\":0",
                    "\"channel\":1",
                    "\"timestamp\":7",
                    "\"status\":200",
                    "\"body_len\":0",
                    "\"port\":null",
                ],
            );
            let shape = rng.below(4);
            let fixed = pick(
                rng,
                &[
                    "18446744073709551616",
                    "-9223372036854775809",
                    "4294967296",
                    "65536",
                    "-1",
                    "-0",
                    "1e400",
                    "1.5",
                    "0x10",
                    "00",
                    "1.",
                    "+1",
                    "1e",
                    "-",
                    "NaN",
                ],
            );
            let digits: String = (0..n)
                .map(|_| char::from(b'0' + rng.below(10) as u8))
                .collect();
            let number = match shape {
                0 => digits,
                1 => format!("-{digits}"),
                2 => format!("1.{digits}e-{digits}"),
                _ => fixed.to_string(),
            };
            let name = field.split(':').next().unwrap();
            base.replacen(field, &format!("{name}:{number}"), 1)
        }
        _ => {
            // `http://pixel.tvping.com` is 23 bytes before the path.
            let (from, to) = match rng.below(5) {
                0 => {
                    let bad = pick(rng, &["_", ".", "/", " ", "A", "é", ":", "%", "\\u0000"]);
                    let at = rng.below("pixel.tvping.com".len() + 1);
                    let mut host = "pixel.tvping.com".to_string();
                    host.insert_str(at, bad);
                    let labels = if rng.below(2) == 0 { 0 } else { n };
                    (
                        "\"host\":\"pixel.tvping.com\"",
                        format!("\"host\":\"{}{host}\"", "a.".repeat(labels)),
                    )
                }
                1 => {
                    let host = "pixel.tvping.com";
                    let cut = rng.below(host.len() + 1);
                    let etld1 = pick(rng, &[&host[cut..], "ping.com", "com", "tvping.de"]);
                    ("\"etld1\":\"tvping.com\"", format!("\"etld1\":\"{etld1}\""))
                }
                2 => {
                    let len = usize::from(u16::MAX) - 23 - 8 + rng.below(16);
                    let path = match rng.below(4) {
                        0 => format!("/{}", "p".repeat(len)),
                        1 => "p".repeat(n),
                        2 => format!("/{}?", "p".repeat(n)),
                        _ => format!("/{}#", "p".repeat(n)),
                    };
                    ("\"path\":\"/p\"", format!("\"path\":\"{path}\""))
                }
                3 => {
                    let port = 65_530 + rng.below(12);
                    ("\"port\":null", format!("\"port\":{port}"))
                }
                _ => {
                    let (k, v) = (rng.below(3), rng.below(3));
                    let mut text = |len| -> String {
                        (0..len)
                            .map(|_| pick(rng, &["a", "&", "=", "#", "%", "é", " "]))
                            .collect()
                    };
                    let (name, value) = (text(k), text(v));
                    (
                        "[\"a\",\"1\"]",
                        format!("[\"{name}\",\"{value}{}\"]", "v".repeat(n)),
                    )
                }
            };
            base.replacen(from, &to, 1)
        }
    }
}

/// A capture payload either decodes to a batch that re-encodes to an
/// identical decode, or fails with a typed `BadPayload` for `CAPTURE`.
fn assert_decodes_or_is_typed(payload: &[u8]) {
    match parse_capture_batch(payload) {
        Ok(batch) => {
            let again = parse_capture_batch(&capture_frame(0, &batch).payload);
            assert_eq!(again.expect("a decoded batch re-encodes"), batch);
        }
        Err(FrameError::BadPayload { command, .. }) => assert_eq!(command, Command::Capture),
        Err(other) => panic!("expected BadPayload, got {other:?}"),
    }
}

/// The structured counterpart of the noise property: hostile payloads
/// built from a valid batch (see [`hostile_capture_payload`]) decode or
/// fail with a typed error, without a panic and on the collector's
/// 2 MiB worker stack. Each family decodes in linear time: doubling its
/// size stays well under a 3x slower decode, where a parser that
/// rescanned per nesting level, escape or digit would be quadratic.
#[test]
fn structured_hostile_payloads_decode_or_fail_typed() {
    on_worker_stack(|| {
        let base = sample_capture_text();
        for seed in 0..400u64 {
            let mut rng = SplitMix64::new(seed);
            let n = 1 + rng.below(5_000);
            let kind = seed as usize % HOSTILE_KINDS;
            assert_decodes_or_is_typed(
                hostile_capture_payload(kind, n, &mut rng, &base).as_bytes(),
            );
        }
        for kind in 0..HOSTILE_KINDS {
            for seed in 0..4u64 {
                let [one, two] = [20_000, 40_000]
                    .map(|n| hostile_capture_payload(kind, n, &mut SplitMix64::new(seed), &base));
                let best = |payload: &str| {
                    (0..5)
                        .map(|_| {
                            let t = Instant::now();
                            assert_decodes_or_is_typed(std::hint::black_box(payload.as_bytes()));
                            t.elapsed()
                        })
                        .min()
                        .expect("five samples")
                };
                let (t1, t2) = (best(&one), best(&two));
                assert!(
                    t2 < 3 * t1.max(Duration::from_micros(200)),
                    "family {kind}, seed {seed}: 2x payload took {t2:?} against {t1:?}"
                );
            }
        }
    });
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

/// Runs `decode` on a thread with the collector's 2 MiB worker stack,
/// so a decoder that recursed per nesting level would abort the test
/// process instead of returning.
fn on_worker_stack<R: Send + 'static>(decode: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(decode)
        .expect("spawn a 2 MiB-stack decoder thread")
        .join()
        .expect("the decoder thread must not panic")
}

/// Deeply nested JSON fails with a typed error instead of overflowing
/// the stack, in every JSON payload decoder on the collector path. The
/// collector decodes on pool workers with 2 MiB stacks, so each payload
/// is parsed on a thread of exactly that size: 100,000 `[` bytes (well
/// under `MAX_FRAME_LEN`) must come back as `BadPayload` for the
/// frame's command (or, for `STATS`, a rejected request), not abort the
/// process.
#[test]
fn deeply_nested_capture_payload_is_a_typed_error() {
    let nested = vec![b'['; 100_000];
    let payload = nested.clone();
    match on_worker_stack(move || parse_capture_batch(&payload)) {
        Err(FrameError::BadPayload { command, .. }) => assert_eq!(command, Command::Capture),
        other => panic!("expected BadPayload, got {other:?}"),
    }

    type Decode = fn(&Frame) -> Result<(), FrameError>;
    let decoders: [(Command, Decode); 4] = [
        (Command::Hello, |f| f.parse::<Hello>().map(drop)),
        (Command::VisitBegin, |f| f.parse::<VisitBegin>().map(drop)),
        (Command::VisitEnd, |f| f.parse::<VisitEnd>().map(drop)),
        (Command::Bye, |f| f.parse::<Bye>().map(drop)),
    ];
    for (command, decode) in decoders {
        let frame = Frame {
            command,
            seq: 0,
            payload: nested.clone(),
        };
        match on_worker_stack(move || decode(&frame)) {
            Err(FrameError::BadPayload { command: c, .. }) => assert_eq!(c, command),
            other => panic!("{command:?}: expected BadPayload, got {other:?}"),
        }
    }

    let mut stats = b"{\"a\":".to_vec();
    stats.extend_from_slice(&nested);
    let result = on_worker_stack(move || parse_stats_request(&stats).map(drop));
    assert!(result.is_err(), "a nested STATS request must be rejected");
}

/// The JSON text of a valid capture batch of one exchange; the batch
/// decodes to itself.
fn sample_capture_text() -> String {
    let exchange = CapturedExchange {
        session: "General".into(),
        visit: Some(VisitId(0)),
        channel: Some(ChannelId(1)),
        channel_name: Some("Das Erste".into()),
        request: Request::get("http://pixel.tvping.com/p?a=1&flag".parse().unwrap())
            .at(Timestamp::from_unix(7))
            .build(),
        response: Response::builder(Status::OK).build(),
    };
    let payload = capture_frame(0, std::slice::from_ref(&exchange)).payload;
    assert_eq!(parse_capture_batch(&payload).expect("decodes"), [exchange]);
    String::from_utf8(payload).unwrap()
}

/// A capture batch of one exchange whose JSON has `from` replaced by
/// each of `tos`, decoded.
fn tampered_capture_batches(from: &str, tos: &[&str]) -> Vec<Result<(), FrameError>> {
    let text = sample_capture_text();
    assert!(text.contains(from), "{from} in {text}");
    tos.iter()
        .map(|to| parse_capture_batch(text.replacen(from, to, 1).as_bytes()).map(drop))
        .collect()
}

/// Asserts every result is a `BadPayload` for `CAPTURE` naming `part`.
fn assert_rejected(results: &[Result<(), FrameError>], part: &str) {
    for result in results {
        match result {
            Err(FrameError::BadPayload { command, detail }) => {
                assert_eq!(*command, Command::Capture);
                assert!(detail.contains(part), "{detail}");
            }
            other => panic!("expected BadPayload naming {part}, got {other:?}"),
        }
    }
}

/// A URL host the parser would reject, or would lower-case into a
/// different text, is a typed error.
#[test]
fn capture_url_with_an_invalid_host_is_a_typed_error() {
    let results = tampered_capture_batches(
        "\"host\":\"pixel.tvping.com\"",
        &[
            "\"host\":\"pixel.tv_ping.com\"",
            "\"host\":\"pixel..tvping.com\"",
            "\"host\":\"\"",
            "\"host\":\"pixel.tvping.com/x\"",
            "\"host\":\"Pixel.TVping.com\"",
        ],
    );
    assert_rejected(&results, "Url.host");
}

/// An `etld1` that is not the host's registrable domain is a typed
/// error.
#[test]
fn capture_url_with_a_foreign_etld1_is_a_typed_error() {
    let results = tampered_capture_batches(
        "\"etld1\":\"tvping.com\"",
        &[
            "\"etld1\":\"ping.com\"",
            "\"etld1\":\"pixel.tvping.com\"",
            "\"etld1\":\"\"",
        ],
    );
    assert_rejected(&results, "Url.etld1");
}

/// Query pairs that would not split back out of the URL's text (a name
/// holding `&`, `=` or `#`, a value holding `&` or `#`, an empty pair)
/// are a typed error.
#[test]
fn capture_url_with_an_unrepresentable_query_pair_is_a_typed_error() {
    let results = tampered_capture_batches(
        "[\"a\",\"1\"]",
        &[
            "[\"a&b\",\"1\"]",
            "[\"a=b\",\"1\"]",
            "[\"a#\",\"1\"]",
            "[\"a\",\"1&b=2\"]",
            "[\"a\",\"1#x\"]",
            "[\"\",\"\"]",
            "[\"a\"]",
            "[\"a\",1]",
        ],
    );
    assert_rejected(&results, "Url.query");
}

/// An integer outside its field's type is a typed error, not a
/// truncated or saturated decode: a `u32` visit id takes `u32::MAX` but
/// not `u32::MAX + 1` (which a cast would read as visit 0), and no
/// unsigned field takes a negative number.
#[test]
fn capture_integer_out_of_range_is_a_typed_error() {
    let results = tampered_capture_batches(
        "\"visit\":0",
        &[
            "\"visit\":4294967296",
            "\"visit\":4294967299",
            "\"visit\":-1",
        ],
    );
    assert_rejected(&results, "out of range for u32");
    let results = tampered_capture_batches("\"visit\":0", &["\"visit\":1.5"]);
    assert_rejected(&results, "expected unsigned int");
    assert!(tampered_capture_batches("\"visit\":0", &["\"visit\":4294967295"])[0].is_ok());
}

/// A URL whose text before the query is longer than its `u16` offsets
/// address is a typed error, not a truncated or panicking decode.
#[test]
fn capture_url_longer_than_its_offsets_is_a_typed_error() {
    let long_path = format!("\"path\":\"/{}\"", "p".repeat(usize::from(u16::MAX)));
    let results = tampered_capture_batches("\"path\":\"/p\"", &[&long_path]);
    assert_rejected(&results, "too long");
    let fits = format!("\"path\":\"/{}\"", "p".repeat(60_000));
    assert!(tampered_capture_batches("\"path\":\"/p\"", &[&fits])[0].is_ok());
}
