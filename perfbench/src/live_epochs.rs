//! `live_epochs`: the incremental engine with writes beside reads. A
//! scale-0.3 study from set-up is fed through `IncrementalStudy` in
//! epochs of 1% of its exchanges, with a delta render after every
//! epoch, under a resident budget smaller than the frame so
//! `frame_store` spills. The oracle is a full `StudyReport::compute` at
//! a few prefixes. No sockets and no simulation in the timed loop.

use crate::bench::{metric, Budget, RunOut, Samples, Setups};
use crate::trace::Tracer;
use hbbtv_obs::{SimClock, Telemetry, TelemetryMode};
use hbbtv_study::analysis::IncrementalStudy;
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, RunDataset, StudyDataset, StudyHarness};
use std::time::{Duration, Instant};

/// World scale. A delta render costs about the same at any epoch size,
/// so throughput follows the study's size. At scale 0.1 that size moves
/// by ±9% with the seed (30.0k to 35.7k exchanges over seeds 1 to 10);
/// at 0.3 nine of those ten seeds give 151k to 156k.
pub const SCALE: f64 = 0.3;
/// Epochs per pass, each 1% of the study's exchanges.
pub const EPOCHS: usize = 100;
/// Resident bytes for segment columns: a fraction of the frame's size
/// at this scale, so segments spill.
pub const BUDGET_BYTES: usize = 1 << 18;
/// Where in the pass (as a share of its epochs) a full recompute
/// checks the delta render.
const CHECKS: [f64; 3] = [0.25, 0.5, 1.0];

/// One epoch: a contiguous slice of one run's capture log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    pub run: usize,
    pub start: usize,
    pub end: usize,
}

/// Cuts every run's capture log into epochs of `1/epochs` of the
/// study's exchanges; a run's last epoch may be shorter.
pub fn epoch_cuts(ds: &StudyDataset, epochs: usize) -> Vec<Cut> {
    let len = (ds.total_requests() / epochs.max(1)).max(1);
    let mut cuts = Vec::new();
    for (run, r) in ds.runs.iter().enumerate() {
        let mut start = 0;
        while start < r.captures.len() {
            let end = (start + len).min(r.captures.len());
            cuts.push(Cut { run, start, end });
            start = end;
        }
    }
    cuts
}

pub struct Live {
    eco: Ecosystem,
    ds: StudyDataset,
    cuts: Vec<Cut>,
    /// `(epoch index, full-compute render of the prefix it ends)`.
    checks: Vec<(usize, String)>,
}

/// Simulates the study and cuts its epochs; `reps` set-ups in all are to
/// be timed. The oracle renders are computed afterwards, outside the
/// set-up time.
pub fn setup_workload(seed: u64, reps: usize, tracer: &Tracer) -> (Live, Setups) {
    let ((eco, ds, cuts), setups) = Setups::first(reps, tracer, "live_epochs.setup", move || {
        let eco = Ecosystem::with_scale(seed, SCALE);
        let ds = StudyHarness::new(&eco).run_all();
        let cuts = epoch_cuts(&ds, EPOCHS);
        (eco, ds, cuts)
    });
    assert!(!cuts.is_empty(), "the study captured exchanges");
    let checks = CHECKS
        .iter()
        .map(|share| {
            let j = ((cuts.len() as f64 * share).ceil() as usize).clamp(1, cuts.len()) - 1;
            let cut = &cuts[j];
            let mut runs = ds.runs[..=cut.run].to_vec();
            runs[cut.run].captures.truncate(cut.end);
            let prefix = StudyDataset { runs };
            (j, StudyReport::compute(&eco, &prefix).render(&prefix))
        })
        .collect();
    let live = Live {
        eco,
        ds,
        cuts,
        checks,
    };
    (live, setups)
}

impl Live {
    pub fn run(&self, mut budget: Budget, tracer: &Tracer) -> RunOut {
        let mut out = RunOut::default();
        let (mut append_s, mut report_s) = (Samples::default(), Samples::default());
        let mut tel = Telemetry::disabled();
        let start = Instant::now();
        let mut pass = 0;
        while budget.more(start, pass) {
            // The pass's inputs, copied before its clock starts.
            let metas: Vec<RunDataset> = self
                .ds
                .runs
                .iter()
                .map(|r| RunDataset {
                    captures: Vec::new(),
                    ..r.clone()
                })
                .collect();
            let epochs: Vec<_> = self
                .cuts
                .iter()
                .map(|c| self.ds.runs[c.run].captures[c.start..c.end].to_vec())
                .collect();
            // The frame cells an operator scrapes from a live collector.
            tel = Telemetry::scope(TelemetryMode::Metrics, SimClock::new(), 0);
            let mut inc =
                IncrementalStudy::with_budget(Some(BUDGET_BYTES)).with_telemetry(tel.clone());
            let (mut append, mut report) = (Duration::ZERO, Duration::ZERO);
            let mut epoch_ms = Vec::with_capacity(epochs.len());
            let mut checked = Vec::new();
            let mut epochs = epochs.into_iter().zip(&self.cuts).enumerate().peekable();
            let ((), wall) = tracer.time("live_epochs.pass", 0, pass as u64, |pass_id| {
                for (r, meta) in metas.into_iter().enumerate() {
                    let (_, d) = tracer.time("incremental.push_run", pass_id, r as u64, |_| {
                        inc.push_run(meta)
                    });
                    append += d;
                    while let Some((j, (caps, _))) = epochs.next_if(|(_, (_, cut))| cut.run == r) {
                        let group = ((pass as u64) << 32) | j as u64;
                        let ((), d) = tracer.time("live_epochs.epoch", pass_id, group, |id| {
                            let (_, a) = tracer.time("incremental.extend_run", id, group, |_| {
                                inc.extend_run(caps)
                            });
                            let (text, d) = tracer
                                .time("incremental.render", id, group, |_| inc.render(&self.eco));
                            append += a;
                            report += d;
                            if let Some((_, want)) = self.checks.iter().find(|(k, _)| *k == j) {
                                checked.push((j, text == *want));
                            }
                        });
                        epoch_ms.push(d.as_secs_f64() * 1e3);
                    }
                }
            });
            let wall = wall.as_secs_f64();
            out.iter_s.push(pass, wall);
            out.throughput
                .push(pass, self.ds.total_requests() as f64 / wall);
            append_s.push(pass, append.as_secs_f64());
            report_s.push(pass, report.as_secs_f64());
            out.attempted += epoch_ms.len() as u64;
            for ms in epoch_ms {
                out.report_ms.push(pass, ms);
            }
            out.check(checked.len() == self.checks.len(), || {
                format!(
                    "pass {pass}: {} of {} checkpoints reached",
                    checked.len(),
                    self.checks.len()
                )
            });
            for (j, ok) in checked {
                out.check(ok, || {
                    format!(
                        "pass {pass}: the delta render after epoch {j} differs from a full compute"
                    )
                });
            }
            pass += 1;
        }
        out.peak_rss_mb = budget.peak_rss_mb();

        // Frame-store cells of the last pass.
        let gauge = |name: &str| tel.gauges_snapshot().get(name).copied().unwrap_or(0) as f64;
        let counter = |name: &str| tel.counter_value(name) as f64;
        out.layers = vec![
            metric("incremental.append_s", append_s.median(), "s"),
            metric("incremental.report_s", report_s.median(), "s"),
            metric("incremental.segments", gauge("frame.segments"), "count"),
            metric(
                "incremental.delta_recomputes",
                counter("frame.delta_recomputes"),
                "count",
            ),
            metric(
                "frame_store.spill_writes",
                counter("frame.spill_writes"),
                "count",
            ),
            metric(
                "frame_store.peak_resident_bytes",
                gauge("frame.peak_resident_bytes"),
                "bytes",
            ),
        ];
        out.notes.push(format!(
            "live_epochs: {pass} passes of {} epochs over {} exchanges, {} spill writes per pass; epoch {}",
            self.cuts.len(),
            self.ds.total_requests(),
            counter("frame.spill_writes"),
            out.report_ms.describe("ms")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_the_same_epoch_cuts() {
        let cut = |seed| {
            let eco = Ecosystem::with_scale(seed, 0.02);
            let ds = StudyHarness::new(&eco).run_all();
            let cuts = epoch_cuts(&ds, EPOCHS);
            (ds, cuts)
        };
        let (ds, a) = cut(42);
        let (_, b) = cut(42);
        assert_eq!(a, b);
        // The cuts tile every run's capture log in order.
        for (run, r) in ds.runs.iter().enumerate() {
            let mine: Vec<&Cut> = a.iter().filter(|c| c.run == run).collect();
            let mut at = 0;
            for c in &mine {
                assert_eq!(c.start, at);
                assert!(c.end > c.start);
                at = c.end;
            }
            assert_eq!(at, r.captures.len());
        }
        assert!(
            (EPOCHS..EPOCHS + EPOCHS / 10).contains(&a.len()),
            "{} epochs",
            a.len()
        );
    }
}
