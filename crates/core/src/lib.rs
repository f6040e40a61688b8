//! `hbbtv-study` — the paper's measurement framework, end to end.
//!
//! This crate ties the substrates together into the full §IV pipeline:
//!
//! 1. [`Ecosystem`] (from [`ecosystem`]) generates the world: 3,575
//!    received broadcast services, the tracker roster, per-channel HbbTV
//!    applications, consent notices, and privacy policies — seeded and
//!    calibrated against the population statistics the paper reports.
//! 2. [`StudyHarness`] (from [`harness`]) performs the five measurement
//!    runs (General, Red, Green, Blue, Yellow) by driving the simulated
//!    TV with the remote-control script of §IV-C, capturing HTTP(S)
//!    traffic through the intercepting proxy, taking screenshots, and
//!    extracting the cookie jar and local storage after each run.
//! 3. [`analysis`] computes every result of §V–§VII from the captured
//!    [`StudyDataset`] — nothing in the tables is hardcoded; every number
//!    is measured from the simulated traffic.
//! 4. [`tables`] renders Tables I–V and Figures 5–8; [`report`] bundles
//!    the complete study.
//!
//! # Quickstart
//!
//! ```
//! use hbbtv_study::{Ecosystem, StudyHarness, RunKind};
//!
//! // A small world keeps the doctest fast; `Ecosystem::paper()` builds
//! // the full 3,575-service scan.
//! let eco = Ecosystem::with_scale(42, 0.05);
//! let harness = StudyHarness::new(&eco);
//! let dataset = harness.run(RunKind::General);
//! assert!(!dataset.captures.is_empty());
//! ```

// Parallel calls borrow across threads through `std::thread::scope`,
// so the crate needs no `unsafe` at all.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ecosystem;
pub mod harness;
pub mod report;
pub mod tables;

mod dataset;
mod run;

pub use dataset::{RunDataset, StudyDataset, VisitSummary};
pub use ecosystem::{ChannelBlueprint, Ecosystem};
pub use harness::StudyHarness;
pub use run::RunKind;

// The telemetry layer, re-exported so harness callers can configure it
// without naming `hbbtv-obs` themselves.
pub use hbbtv_obs as obs;
pub use hbbtv_obs::{
    JsonlRecorder, RunTelemetry, StudyTelemetry, Telemetry, TelemetryConfig, TelemetryMode,
};
