//! Zero-dependency telemetry for the study pipeline: spans, counters,
//! gauges, log-bucketed histograms, and a structured JSONL event
//! journal.
//!
//! The measurement campaign's credibility rests on knowing exactly what
//! the instrument did — visits per run, exchanges per visit, where the
//! matcher spent its probes. This crate makes those numbers first-class
//! outputs of every run. It is hand-rolled (dependencies cannot be
//! vendored, so no `tracing`/`metrics`): the primitives are a few
//! atomic cells, and everything is `Send + Sync` behind `parking_lot`.
//!
//! # Pieces
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free metric cells;
//!   the histogram is log₂-bucketed with p50/p90/p99/max summaries.
//! * [`Event`] / [`Recorder`] — the JSONL journal: [`NullRecorder`]
//!   (default), [`JsonlRecorder`] (a writer sink), [`MemoryRecorder`]
//!   (the per-visit buffers the harness merges deterministically).
//! * [`Telemetry`] / [`Span`] — the per-scope hub and its RAII spans,
//!   with deterministic span ids derived from canonical ordinals.
//! * [`RunTelemetry`] / [`StudyTelemetry`] — serializable roll-ups.
//!
//! # The determinism contract
//!
//! Timing is dual-clock. Sim-time (from the scope's
//! [`SimClock`]) stamps every journal event, so
//! [`TelemetryMode::Journal`] output is byte-stable across reruns and
//! thread counts. Wall-clock timings and scheduling-dependent stats are
//! confined to [`TelemetryMode::Profile`]. And in every mode, analysis
//! *outputs* are byte-identical to a telemetry-free run — telemetry
//! observes the pipeline, it never steers it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
mod health;
mod hub;
mod journal;
mod metrics;
mod summary;

pub use expose::{render_exposition, sanitize_metric_name, ExpositionCache, ScrapeServer};
pub use hbbtv_net::{SimClock, Timestamp};
pub use health::{HealthReason, HealthReport, HealthStatus, HealthThresholds, Watchdog};
pub use hub::{Span, Telemetry, TelemetryConfig, TelemetryMode};
pub use journal::{Event, FieldValue, JsonlRecorder, MemoryRecorder, NullRecorder, Recorder};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use summary::{RunTelemetry, StudyTelemetry};

/// Well-known metric names shared between the instrumented crates and
/// the [`RunTelemetry`] roll-up.
pub mod keys {
    /// Channel visits performed in a run (counter).
    pub const VISITS: &str = "visits";
    /// Exchanges recorded by the proxy shards (counter).
    pub const PROXY_EXCHANGES: &str = "proxy.exchanges";
    /// Approximate bytes captured by the proxy shards (counter).
    pub const PROXY_BYTES: &str = "proxy.bytes";
    /// Per-visit exchange counts (histogram).
    pub const VISIT_CAPTURES: &str = "visit.captures";
    /// Reader stalls on a full session queue (counter; watchdog rate
    /// input).
    pub const INGEST_BACKPRESSURE_STALLS: &str = "ingest.backpressure_stalls";
    /// Sessions collected by the heartbeat GC (counter; watchdog rate
    /// input).
    pub const INGEST_SESSIONS_GC: &str = "ingest.sessions_gc";
    /// Undecoded capture batches queued across sessions (gauge, set per
    /// dispatcher round; watchdog input).
    pub const INGEST_QUEUE_DEPTH: &str = "ingest.queue_depth";
    /// High-water mark of [`INGEST_QUEUE_DEPTH`] (gauge).
    pub const INGEST_QUEUE_DEPTH_HW: &str = "ingest.queue_depth_hw";
    /// Live sessions right now (gauge, not a terminal-state counter).
    pub const INGEST_SESSIONS_OPEN: &str = "ingest.sessions_open";
    /// Frame-store bytes currently resident (gauge; watchdog residency
    /// numerator).
    pub const FRAME_RESIDENT_BYTES: &str = "frame.resident_bytes";
    /// Frame-store byte budget (gauge, set when a budget is configured;
    /// watchdog residency denominator).
    pub const FRAME_BUDGET_BYTES: &str = "frame.budget_bytes";
}
