//! `fleet_ingest`: the live path. A scale-0.02 study is simulated and
//! cut into one session per visit in set-up. Two `SimTvClient` threads
//! stream the sessions back to back into a loopback `IngestServer`
//! (closed loop, two connections) while `LiveStudy` polls and renders
//! after each run lands. A pass streams the whole fleet under its own
//! study name, and a run makes passes until its time is up, so the
//! workload stays measurable however fast decoding gets. The oracle is
//! the in-process render over the same runs; a mismatch, an un-acked
//! session or a rejected one counts as a failed operation.

use crate::bench::{metric, Budget, Metric, RunOut, Samples, Setups};
use crate::trace::Tracer;
use hbbtv_ingest::frame::{capture_frame, parse_capture_batch};
use hbbtv_ingest::{
    shard_study, Command, IngestConfig, IngestServer, LiveStudy, SessionSpec, SimTvClient,
    StreamOptions,
};
use hbbtv_obs::keys;
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyDataset, StudyHarness};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const SCALE: f64 = 0.02;
/// Client threads, one connection each: one per core of the 2-core
/// reference box.
const CLIENTS: usize = 2;
/// Pause between live polls that found no new run.
const POLL_INTERVAL: Duration = Duration::from_micros(200);
/// Shortest time the codec probe repeats one decode for.
const DECODE_PROBE_TIME: Duration = Duration::from_millis(200);

pub struct Fleet {
    eco: Ecosystem,
    specs: Vec<SessionSpec>,
    /// Dataset run index of each session.
    run_of: Vec<usize>,
    exchanges: usize,
    /// `oracle[k]`: the in-process render over the first `k + 1` runs.
    oracle: Vec<String>,
}

/// Simulates the study and cuts it into one session per visit.
pub fn sessions(seed: u64) -> (Ecosystem, StudyDataset, Vec<SessionSpec>) {
    let eco = Ecosystem::with_scale(seed, SCALE);
    let ds = StudyHarness::new(&eco).run_all();
    let specs = shard_study("fleet", &ds, u32::MAX).expect("harness runs are visit-partitionable");
    (eco, ds, specs)
}

/// Prepares the fleet; `reps` set-ups in all are to be timed. The
/// oracle renders are computed afterwards, outside the set-up time.
pub fn setup_workload(seed: u64, reps: usize, tracer: &Tracer) -> (Fleet, Setups) {
    let ((eco, ds, specs), setups) =
        Setups::first(reps, tracer, "fleet.setup", move || sessions(seed));
    let run_of = specs
        .iter()
        .map(|s| {
            ds.runs
                .iter()
                .position(|r| r.run.label() == s.run)
                .expect("every session belongs to a run")
        })
        .collect();
    let oracle = (1..=ds.runs.len())
        .map(|k| {
            let prefix = StudyDataset {
                runs: ds.runs[..k].to_vec(),
            };
            StudyReport::compute(&eco, &prefix).render(&prefix)
        })
        .collect();
    let fleet = Fleet {
        eco,
        specs,
        run_of,
        exchanges: ds.total_requests(),
        oracle,
    };
    (fleet, setups)
}

struct Session {
    run: usize,
    ms: f64,
    acked_at: Instant,
    error: Option<String>,
}

struct Render {
    runs: usize,
    at: Instant,
    text: String,
}

struct Pass {
    wall: Duration,
    sessions: Vec<Session>,
    renders: Vec<Render>,
    poll: Duration,
    render: Duration,
}

impl Fleet {
    pub fn run(&mut self, mut budget: Budget, tracer: &Tracer) -> Result<RunOut, String> {
        let server = IngestServer::start(IngestConfig::default())
            .map_err(|e| format!("the collector failed to start: {e}"))?;
        let mut out = RunOut::default();
        let (mut session_ms, mut poll_s, mut render_s) =
            (Samples::default(), Samples::default(), Samples::default());
        let start = Instant::now();
        let mut pass = 0;
        while budget.more(start, pass) {
            let rejected_before = server.rejections().len();
            let p = self.pass(&server, pass, tracer);
            let wall = p.wall.as_secs_f64();
            out.iter_s.push(pass, wall);
            out.throughput.push(pass, self.exchanges as f64 / wall);
            poll_s.push(pass, p.poll.as_secs_f64());
            render_s.push(pass, p.render.as_secs_f64());
            for (i, s) in p.sessions.iter().enumerate() {
                session_ms.push(pass, s.ms);
                out.check(s.error.is_none(), || {
                    format!(
                        "pass {pass} session {i}: {}",
                        s.error.as_deref().unwrap_or("")
                    )
                });
            }
            for r in &p.renders {
                out.check(r.text == self.oracle[r.runs - 1], || {
                    format!(
                        "pass {pass}: live render over {} runs differs from the in-process one",
                        r.runs
                    )
                });
                let last_input = p
                    .sessions
                    .iter()
                    .filter(|s| s.run < r.runs)
                    .map(|s| s.acked_at)
                    .max();
                if let Some(t) = last_input {
                    out.report_ms
                        .push(pass, r.at.saturating_duration_since(t).as_secs_f64() * 1e3);
                }
            }
            let landed = p.renders.last().map_or(0, |r| r.runs);
            out.check(landed == self.oracle.len(), || {
                format!("pass {pass}: {landed} of {} runs landed", self.oracle.len())
            });
            let rejected = server.rejections().len() - rejected_before;
            out.check(rejected == 0, || {
                format!("pass {pass}: {rejected} sessions rejected")
            });
            pass += 1;
        }
        out.peak_rss_mb = budget.peak_rss_mb();

        // The cells an operator scrapes, per pass.
        let tel = server.telemetry();
        let per_pass = |name: &str| tel.counter_value(name) as f64 / pass as f64;
        let queue_hw = tel
            .gauges_snapshot()
            .get(keys::INGEST_QUEUE_DEPTH_HW)
            .copied()
            .unwrap_or(0);
        out.layers = vec![
            metric("ingest.frames", per_pass("ingest.frames"), "count"),
            metric("ingest.bytes", per_pass("ingest.bytes"), "bytes"),
            metric("ingest.exchanges", per_pass("ingest.exchanges"), "count"),
            metric(
                "ingest.backpressure_stalls",
                per_pass(keys::INGEST_BACKPRESSURE_STALLS),
                "count",
            ),
            metric("ingest.queue_depth_hw", queue_hw as f64, "count"),
            metric(
                "ingest.sessions_completed",
                per_pass("ingest.sessions_completed"),
                "count",
            ),
            metric("live.poll_s", poll_s.median(), "s"),
            metric("live.render_s", render_s.median(), "s"),
        ];
        out.notes.push(format!(
            "fleet_ingest: {pass} passes of {} sessions, {} exchanges; session_p50_ms {:.3} ms, \
             session_p90_ms {}; {} rejected",
            self.specs.len(),
            self.exchanges,
            session_ms.median(),
            session_ms.p90("ms"),
            tel.counter_value("ingest.sessions_rejected")
        ));
        server.shutdown();
        Ok(out)
    }

    /// Streams every session once under a fresh study name while a live
    /// study renders each run as it lands.
    fn pass(&mut self, server: &IngestServer, pass: usize, tracer: &Tracer) -> Pass {
        let study = format!("fleet-{pass:05}");
        for spec in &mut self.specs {
            spec.study.clone_from(&study);
        }
        let this = &*self;
        let mut live = LiveStudy::with_budget(study.as_str(), None);
        let (next, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let client = SimTvClient::new();
        let addr = server.addr();
        let mut renders = Vec::new();
        let (mut poll, mut render) = (Duration::ZERO, Duration::ZERO);
        let (sessions, wall) = tracer.time("fleet.pass", 0, pass as u64, |pass_id| {
            std::thread::scope(|s| {
                let (next, finished, client) = (&next, &finished, &client);
                let threads: Vec<_> = (0..CLIENTS)
                    .map(|_| {
                        s.spawn(move || {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(spec) = this.specs.get(i) else { break };
                                let group = ((pass as u64) << 32) | i as u64;
                                let (res, dur) =
                                    tracer.time("ingest.session", pass_id, group, |_| {
                                        client.stream(addr, spec)
                                    });
                                let error = match res {
                                    Ok(r) if r.acked_exchanges == r.exchanges => None,
                                    Ok(r) => Some(format!(
                                        "acked {} of {} exchanges",
                                        r.acked_exchanges, r.exchanges
                                    )),
                                    Err(e) => Some(e.to_string()),
                                };
                                done.push(Session {
                                    run: this.run_of[i],
                                    ms: dur.as_secs_f64() * 1e3,
                                    acked_at: Instant::now(),
                                    error,
                                });
                            }
                            finished.fetch_add(1, Ordering::SeqCst);
                            done
                        })
                    })
                    .collect();
                loop {
                    // Read before polling: once every client is done, one
                    // more poll sees every run that will ever land.
                    let clients_done = finished.load(Ordering::SeqCst) == CLIENTS;
                    let t = Instant::now();
                    let landed = live.poll(server);
                    if landed > 0 {
                        let polled = Instant::now();
                        let runs = live.runs_ingested();
                        tracer.record("live.poll", pass_id, runs as u64, t, polled);
                        poll += polled - t;
                        let (text, d) = tracer.time("live.render", pass_id, runs as u64, |_| {
                            live.render(&this.eco)
                        });
                        render += d;
                        renders.push(Render {
                            runs,
                            at: Instant::now(),
                            text,
                        });
                    }
                    if live.runs_ingested() == this.oracle.len() || (clients_done && landed == 0) {
                        break;
                    }
                    if landed == 0 {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                }
                threads
                    .into_iter()
                    .flat_map(|t| t.join().expect("client threads do not panic"))
                    .collect::<Vec<_>>()
            })
        });
        Pass {
            wall,
            sessions,
            renders,
            poll,
            render,
        }
    }

    /// Encodes every session's frames and decodes every capture batch
    /// on one thread, then times one batch's decode against a batch
    /// twice as long. `pass_wall_s` is the warm pass wall; the base of
    /// `ingest.decode_share` is that wall on each of the `CLIENTS`
    /// connections, which the collector decodes in parallel.
    pub fn codec_probe(&self, pass_wall_s: f64, tracer: &Tracer, out: &mut RunOut) -> Vec<Metric> {
        let client = SimTvClient::new();
        let (frames, encode) = tracer.time("ingest.encode", 0, 0, |_| {
            self.specs
                .iter()
                .map(|s| client.frames(s).expect("set-up sessions are consistent"))
                .collect::<Vec<_>>()
        });
        let payloads: Vec<&[u8]> = frames
            .iter()
            .flatten()
            .filter(|f| f.command == Command::Capture)
            .map(|f| f.payload.as_slice())
            .collect();
        let bytes: usize = payloads.iter().map(|p| p.len()).sum();
        let (decoded, decode) = tracer.time("ingest.decode", 0, 0, |_| {
            payloads
                .iter()
                .map(|p| parse_capture_batch(p).map(|b| b.len()))
                .sum::<Result<usize, _>>()
        });
        out.check(decoded.as_ref().ok() == Some(&self.exchanges), || {
            format!(
                "decoding the fleet's batches gave {decoded:?}, not {} exchanges",
                self.exchanges
            )
        });

        let batch = StreamOptions::default().batch;
        let sample: Vec<_> = self
            .specs
            .iter()
            .flat_map(|s| s.captures.iter())
            .take(2 * batch)
            .cloned()
            .collect();
        let half = sample.len() / 2;
        let one = capture_frame(0, &sample[..half]).payload;
        let two = capture_frame(0, &sample[..2 * half]).payload;
        let (ratio, _) = tracer.time("ingest.decode_2x_probe", 0, 0, |_| {
            decode_time(&two) / decode_time(&one)
        });

        let decode_s = decode.as_secs_f64();
        vec![
            metric("ingest.encode_s", encode.as_secs_f64(), "s"),
            metric("ingest.decode_s", decode_s, "s"),
            metric(
                "ingest.decode_mb_per_s",
                bytes as f64 / decode_s / 1e6,
                "MB/s",
            ),
            metric(
                "ingest.decode_share",
                decode_s / (pass_wall_s * CLIENTS as f64),
                "ratio",
            ),
            metric("ingest.decode_2x_ratio", ratio, "ratio"),
        ]
    }
}

/// Median seconds of one `parse_capture_batch` call on `payload`.
fn decode_time(payload: &[u8]) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed() < DECODE_PROBE_TIME {
        let t = Instant::now();
        let batch = parse_capture_batch(std::hint::black_box(payload));
        times.push(t.elapsed().as_secs_f64());
        std::hint::black_box(batch.expect("probe batches decode"));
    }
    crate::stats::median(&times).expect("the probe ran")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_the_same_sessions() {
        let (_, _, a) = sessions(42);
        let (_, _, b) = sessions(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.len() > 1, "one session per visit");
        let (_, _, c) = sessions(7);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "the seed changes the fleet"
        );
    }
}
