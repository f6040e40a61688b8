//! Live reports while ingesting: the bridge between the collector and
//! the incremental study engine.
//!
//! [`LiveStudy`] owns an [`IncrementalStudy`] and drains complete runs
//! out of a running [`IngestServer`] in canonical [`RunKind::ALL`]
//! order, feeding each run's capture log in as epoch segments. At any
//! point — including while later runs are still streaming — a rendered
//! report over everything ingested so far is available, and it is
//! byte-identical to what [`StudyReport::compute`] +
//! [`StudyReport::render`] would produce post hoc over the same runs
//! (the incremental engine's parity suites pin that down).
//!
//! Canonical order is what makes the live render match the post-hoc
//! one: [`Assembler::take_study`](crate::Assembler::take_study)
//! reassembles complete runs in [`RunKind::ALL`] order, so the live
//! path must ingest them in that order too, even when a later run's
//! shards finish streaming first. [`LiveStudy::poll`] therefore waits
//! at the first canonical kind whose shards have not all landed.
//!
//! [`StudyReport::compute`]: hbbtv_study::report::StudyReport::compute
//! [`StudyReport::render`]: hbbtv_study::report::StudyReport::render

use crate::server::IngestServer;
use hbbtv_study::analysis::IncrementalStudy;
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, RunKind, StudyDataset};

/// An incremental study fed from a live collector.
pub struct LiveStudy {
    study: String,
    inc: IncrementalStudy,
    /// Captures per epoch segment when feeding a run in; 0 = one epoch
    /// per run.
    epoch_captures: usize,
    /// Index into [`RunKind::ALL`] of the next run to ingest.
    next: usize,
}

impl LiveStudy {
    /// A live study for `study` with no segment budget: every segment
    /// stays resident.
    pub fn new(study: impl Into<String>) -> LiveStudy {
        Self::with_budget(study, None)
    }

    /// A live study with an explicit resident-byte budget for segment
    /// columns.
    pub fn with_budget(study: impl Into<String>, budget: Option<usize>) -> LiveStudy {
        LiveStudy {
            study: study.into(),
            inc: IncrementalStudy::with_budget(budget),
            epoch_captures: 0,
            next: 0,
        }
    }

    /// Splits each ingested run into epoch segments of at most
    /// `captures` exchanges (0 restores one epoch per run). Smaller
    /// epochs mean finer-grained spilling under a budget; the rendered
    /// report is identical either way.
    pub fn epoch_captures(mut self, captures: usize) -> LiveStudy {
        self.epoch_captures = captures;
        self
    }

    /// Routes the incremental engine's `frame.*` cells into `tel`.
    /// Passing the collector's own scope
    /// ([`IngestServer::telemetry`]) puts frame-store gauges and
    /// `ingest.*` counters in one place, so a single scrape or `STATS`
    /// answer covers both — and gives the health watchdog its
    /// frame-budget residency input.
    pub fn with_telemetry(mut self, tel: hbbtv_obs::Telemetry) -> LiveStudy {
        self.inc.attach_telemetry(tel);
        self
    }

    /// Drains every run that is complete on `server` and next in
    /// canonical order into the incremental study. Returns how many
    /// runs were ingested by this call.
    pub fn poll(&mut self, server: &IngestServer) -> usize {
        let mut ingested = 0;
        while let Some(kind) = RunKind::ALL.get(self.next).copied() {
            if !server.complete_runs(&self.study).contains(&kind) {
                break;
            }
            let run = server
                .take_run(&self.study, kind)
                .expect("run reported complete reassembles");
            self.ingest_run(run);
            self.next += 1;
            ingested += 1;
        }
        ingested
    }

    /// Feeds one reassembled run into the incremental study, chunked
    /// into epochs per [`LiveStudy::epoch_captures`].
    fn ingest_run(&mut self, mut run: hbbtv_study::RunDataset) {
        if self.epoch_captures == 0 {
            self.inc.push_run(run);
            return;
        }
        let caps = std::mem::take(&mut run.captures);
        self.inc.push_run(run);
        for chunk in caps.chunks(self.epoch_captures) {
            self.inc.extend_run(chunk.to_vec());
        }
    }

    /// Runs ingested so far.
    pub fn runs_ingested(&self) -> usize {
        self.inc.dataset().runs.len()
    }

    /// The accumulated dataset (canonical run order).
    pub fn dataset(&self) -> &StudyDataset {
        self.inc.dataset()
    }

    /// The live report over everything ingested so far.
    pub fn report(&mut self, eco: &Ecosystem) -> StudyReport {
        self.inc.report(eco)
    }

    /// The live report, rendered — byte-identical to the post-hoc
    /// render over the same runs.
    pub fn render(&mut self, eco: &Ecosystem) -> String {
        self.inc.render(eco)
    }

    /// The underlying incremental study (segment and spill
    /// accounting).
    pub fn incremental(&self) -> &IncrementalStudy {
        &self.inc
    }
}
