//! `paper_batch`: the paper's batch study at scale 1.0, the reference
//! workload. Closed loop with one caller: each iteration runs
//! `StudyHarness::run_all`, then `StudyReport::compute`, then `render`.
//! The oracle is `StudyReport::compute_naive` on the same dataset,
//! computed after the timed loop. The ingest codec is never touched.
//!
//! The traced run adds the layer probes that live on this dataset:
//! filter-list replay, the pool speed-up, and one iteration under
//! `Profile` telemetry for the per-pass walls and its own cost.

use crate::bench::{metric, Budget, Metric, RunOut, Samples, Setups};
use crate::trace::Tracer;
use hbbtv_filterlists::{bundled, RequestContext, UrlView};
use hbbtv_obs::{NullRecorder, SimClock, Telemetry, TelemetryConfig, TelemetryMode};
use hbbtv_study::analysis::Runtime;
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyDataset, StudyHarness};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// World scale of the reference workload.
pub const SCALE: f64 = 1.0;

/// How long the filter-list replay repeats, so its per-query time is
/// read off many passes.
const REPLAY_TIME: Duration = Duration::from_millis(300);

/// The `wall.*` cells `compute_with_telemetry` fills under `Profile`,
/// and the per-layer metric each becomes.
const PASS_CELLS: [(&str, &str); 13] = [
    ("wall.frame.build", "analysis.frame_build_s"),
    ("wall.analysis.report", "analysis.report_s"),
    ("wall.analysis.first_parties", "analysis.first_parties_s"),
    ("wall.analysis.tracking", "analysis.tracking_s"),
    ("wall.analysis.cookies", "analysis.cookies_s"),
    ("wall.analysis.categories", "analysis.categories_s"),
    ("wall.analysis.children", "analysis.children_s"),
    ("wall.analysis.leakage", "analysis.leakage_s"),
    ("wall.analysis.syncing", "analysis.syncing_s"),
    ("wall.analysis.graph", "analysis.graph_s"),
    ("wall.analysis.consent", "analysis.consent_s"),
    ("wall.analysis.policies", "analysis.policies_s"),
    ("wall.analysis.significance", "analysis.significance_s"),
];

pub struct PaperBatch {
    eco: Ecosystem,
}

/// Builds the world; `reps` builds in all are to be timed.
pub fn setup_workload(seed: u64, reps: usize, tracer: &Tracer) -> (PaperBatch, Setups) {
    let (eco, setups) = Setups::first(reps, tracer, "ecosystem.build", move || {
        Ecosystem::with_scale(seed, SCALE)
    });
    (PaperBatch { eco }, setups)
}

/// A finished run, with the last iteration's dataset and the oracle
/// render for the probes.
pub struct Batch {
    pub out: RunOut,
    dataset: StudyDataset,
    oracle: String,
}

impl PaperBatch {
    pub fn run(&self, mut budget: Budget, tracer: &Tracer) -> Batch {
        let mut out = RunOut::default();
        let (mut run_all_s, mut compute_s, mut render_ms) =
            (Samples::default(), Samples::default(), Samples::default());
        let mut renders = Vec::new();
        let mut dataset = None;
        let start = Instant::now();
        let mut i = 0;
        while budget.more(start, i) {
            drop(dataset.take()); // one dataset resident at a time
            let group = i as u64;
            let ((ds, text, d_run, d_compute, d_render), wall) =
                tracer.time("paper_batch.iteration", 0, group, |id| {
                    let (ds, d_run) = tracer.time("harness.run_all", id, group, |_| {
                        StudyHarness::new(&self.eco).run_all()
                    });
                    let (report, d_compute) = tracer.time("analysis.compute", id, group, |_| {
                        StudyReport::compute(&self.eco, &ds)
                    });
                    let (text, d_render) =
                        tracer.time("tables.render", id, group, |_| report.render(&ds));
                    (ds, text, d_run, d_compute, d_render)
                });
            let wall = wall.as_secs_f64();
            out.iter_s.push(i, wall);
            out.throughput.push(i, ds.total_requests() as f64 / wall);
            out.report_ms
                .push(i, (d_compute + d_render).as_secs_f64() * 1e3);
            run_all_s.push(i, d_run.as_secs_f64());
            compute_s.push(i, d_compute.as_secs_f64());
            render_ms.push(i, d_render.as_secs_f64() * 1e3);
            renders.push(text);
            dataset = Some(ds);
            i += 1;
        }
        out.peak_rss_mb = budget.peak_rss_mb();
        let dataset = dataset.expect("the budget runs at least one iteration");

        let oracle = StudyReport::compute_naive(&self.eco, &dataset).render(&dataset);
        for (k, text) in renders.iter().enumerate() {
            out.check(*text == oracle, || {
                format!("paper_batch iteration {k}: render differs from compute_naive")
            });
        }
        let visits: usize = dataset.runs.iter().map(|r| r.visits.len()).sum();
        out.layers = vec![
            metric("harness.run_all_s", run_all_s.median(), "s"),
            metric("harness.visits", visits as f64, "count"),
            metric(
                "harness.exchanges",
                dataset.total_requests() as f64,
                "count",
            ),
            metric("analysis.compute_s", compute_s.median(), "s"),
            metric("tables.render_ms", render_ms.median(), "ms"),
        ];
        out.notes.push(format!(
            "paper_batch: {i} iterations of {} exchanges; run_all {}; compute {}",
            dataset.total_requests(),
            run_all_s.describe("s"),
            compute_s.describe("s")
        ));
        Batch {
            out,
            dataset,
            oracle,
        }
    }

    /// The layer probes on a finished run. `off_wall_s` is the warm
    /// iteration wall without telemetry, the base of
    /// `obs.profile_overhead`.
    pub fn probes(&self, batch: Batch, off_wall_s: f64, tracer: &Tracer) -> RunOut {
        let Batch {
            dataset, oracle, ..
        } = batch;
        let mut out = RunOut::default();
        let replay = filterlist_replay(&dataset, tracer, &mut out);
        out.layers.extend(replay);
        out.layers.push(pool_speedup(&self.eco, &dataset, tracer));
        drop(dataset);
        let profile = self.profile_iteration(&oracle, off_wall_s, tracer, &mut out);
        out.layers.extend(profile);
        out
    }

    /// One iteration with `Profile` telemetry on the harness and the
    /// analysis: the per-pass walls from the `wall.*` cells, and the
    /// iteration's wall against the telemetry-off one.
    fn profile_iteration(
        &self,
        oracle: &str,
        off_wall_s: f64,
        tracer: &Tracer,
        out: &mut RunOut,
    ) -> Vec<Metric> {
        let tel = Telemetry::scope(TelemetryMode::Profile, SimClock::new(), 1 << 56);
        let (text, wall) = tracer.time("obs.profile_iteration", 0, 0, |_| {
            let harness = StudyHarness::with_telemetry(
                &self.eco,
                TelemetryConfig::profile(Arc::new(NullRecorder)),
            );
            let ds = harness.run_all();
            StudyReport::compute_with_telemetry(&self.eco, &ds, &tel).render(&ds)
        });
        out.check(text == oracle, || {
            "the render under Profile telemetry differs from compute_naive".into()
        });
        let cells = tel.histogram_cells();
        let cell_s = |name: &str| {
            cells
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, h)| h.sum() as f64 / 1e6)
        };
        let mut m = vec![metric(
            "obs.profile_overhead",
            wall.as_secs_f64() / off_wall_s,
            "ratio",
        )];
        m.extend(
            PASS_CELLS
                .iter()
                .map(|&(cell, name)| metric(name, cell_s(cell), "s")),
        );
        m
    }
}

/// Replays the dataset's unique URLs through the five bundled lists,
/// checked against the linear reference scan.
fn filterlist_replay(ds: &StudyDataset, tracer: &Tracer, out: &mut RunOut) -> Vec<Metric> {
    let mut seen = HashSet::new();
    let urls: Vec<_> = ds
        .all_captures()
        .map(|c| &c.request.url)
        .filter(|u| seen.insert(u.to_text()))
        .collect();
    let texts: Vec<String> = urls.iter().map(|u| u.to_text()).collect();
    let views: Vec<UrlView<'_>> = urls
        .iter()
        .zip(&texts)
        .map(|(u, t)| UrlView::new(t, u.host(), u.etld1().as_str()))
        .collect();
    let lists = bundled::all_refs();
    let ctx = RequestContext::third_party_image();
    let (mut rounds, mut flagged) = (0u64, 0u64);
    let ((), wall) = tracer.time("filterlists.replay", 0, 0, |_| {
        let start = Instant::now();
        while rounds == 0 || start.elapsed() < REPLAY_TIME {
            flagged = 0;
            for view in &views {
                for list in lists {
                    flagged += u64::from(list.matches_view(black_box(view), ctx));
                }
            }
            rounds += 1;
        }
    });
    let linear: u64 = urls
        .iter()
        .map(|u| lists.iter().filter(|l| l.matches_linear(u, ctx)).count() as u64)
        .sum();
    out.check(flagged == linear, || {
        format!("filter-list replay flagged {flagged} URL/list pairs, the linear scan {linear}")
    });
    let queries = (views.len() * lists.len()) as f64;
    vec![
        metric("filterlists.queries", queries, "count"),
        metric(
            "filterlists.ns_per_query",
            wall.as_nanos() as f64 / (queries * rounds as f64),
            "ns",
        ),
    ]
}

/// `StudyReport::compute` on one executor against the default pool
/// (best of two each).
fn pool_speedup(eco: &Ecosystem, ds: &StudyDataset, tracer: &Tracer) -> Metric {
    let single = Runtime::with_workers(0);
    let (mut one, mut default) = (f64::INFINITY, f64::INFINITY);
    for round in 0..2 {
        let (_, d) = tracer.time("pool.compute_one_executor", 0, round, |_| {
            black_box(single.install(|| StudyReport::compute(eco, ds)))
        });
        one = one.min(d.as_secs_f64());
        let (_, d) = tracer.time("pool.compute_default", 0, round, |_| {
            black_box(StudyReport::compute(eco, ds))
        });
        default = default.min(d.as_secs_f64());
    }
    metric("pool.speedup", one / default, "ratio")
}
