//! `hbbtv-ingest` — a streaming capture collector for distributed
//! measurement runs.
//!
//! The in-process harness builds a [`StudyDataset`](hbbtv_study::StudyDataset)
//! by running every simulated TV inside one address space. A production
//! fleet cannot: TVs in different households capture locally and stream
//! their exchanges to a central collector. This crate is that
//! collector, plus the simulated fleet that exercises it.
//!
//! The design bar is **byte-identical reassembly**: a study streamed
//! through TCP sessions — sharded, concurrent, interleaved — must
//! reassemble into a `StudyDataset` whose full analysis report renders
//! byte-identically to the in-process build. Everything else (frame
//! codec, per-session sequence numbers, visit-range sharding, bounded
//! queues) exists to make that bar reachable and *checkable*.
//!
//! Layers, bottom up:
//!
//! - [`frame`]: length-prefixed little-endian frame codec and the
//!   command/answer payload schemas (`HELLO`/`ACK`, `VISIT_BEGIN`,
//!   `CAPTURE`, `VISIT_END`, `HEARTBEAT`, `BYE`, `ERR`, plus the
//!   out-of-band `STATS`/`STATS_REPLY` introspection pair). The capture
//!   payload is the same serde schema as the golden study dataset.
//! - [`session`]: the per-connection protocol state machine (pure: it
//!   consumes frames, emits actions, never touches a socket) and the
//!   [`Assembler`] that reassembles shard results
//!   into runs and studies.
//! - [`server`]: the threaded collector — nonblocking acceptor, reader
//!   threads, a dispatcher that JSON-decodes capture batches with the
//!   analysis crate's ordered parallel map, bounded per-session queues for
//!   backpressure, heartbeat-timeout GC, and `hbbtv-obs` telemetry
//!   (`ingest.sessions`, `ingest.frames`, `ingest.bytes`,
//!   `ingest.backpressure_stalls`, …). The operations plane rides the
//!   same port: any connection may send a `STATS` frame and get back a
//!   [`StatsReport`] (health verdict, metric
//!   snapshot, per-session table), and
//!   [`IngestConfig::scrape_addr`](server::IngestConfig::scrape_addr)
//!   mounts a Prometheus-style `/metrics` + `/health` endpoint.
//! - [`client`]: [`SimTvClient`] and the
//!   visit-range sharding ([`shard_study`]) that
//!   turns a dataset into a fleet of sessions.
//! - [`fault`]: seeded fault scripts (torn frames, mid-frame
//!   disconnects, duplicates, reorders, garbage, stalls) for the
//!   fault-injection suite.
//! - [`discovery`]: the UDP "where is the collector?" responder.
//! - [`live`]: [`LiveStudy`], which drains complete
//!   runs out of a collector in canonical order into the incremental
//!   study engine, so a rendered report is available mid-stream —
//!   byte-identical to the post-hoc build over the same runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod discovery;
pub mod fault;
pub mod frame;
pub mod live;
pub mod server;
pub mod session;

pub use client::{
    shard_run, shard_study, trailer_of, ClientError, ClientReport, FaultOutcome, SessionSpec,
    SimTvClient, StreamOptions,
};
pub use discovery::{discover, DiscoveryResponder};
pub use fault::{FaultKind, FaultPlan, FaultStep};
pub use frame::{
    parse_stats_request, Command, Frame, FrameDecoder, RunTrailer, SessionStat, StatsReport,
    StatsRequest, PROTO_VERSION,
};
pub use live::LiveStudy;
pub use server::{IngestConfig, IngestServer, RejectedSession};
pub use session::{Assembler, SessionState, Violation};
