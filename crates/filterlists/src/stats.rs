//! Global match-engine instrumentation: bucket probes, residual
//! automaton walks, and first-match distances — the numbers that
//! justify the indexed engine's speedup over the linear scan.
//!
//! Per-query counting is process-global and **off by default**; the
//! only cost on the disabled path is one relaxed atomic load per index
//! query, so the matcher benchmarks are unaffected. When several lists
//! (or several threads) match concurrently, the totals are exact but
//! not attributable to one caller — the cells are plain commutative
//! counters, so enable/snapshot windows stay deterministic for
//! single-threaded measurement passes (the bench runs one instrumented
//! pass with counting on, outside its timed loops).
//!
//! Engine *construction* events ([`note_engine`](crate)) are recorded
//! unconditionally — builds happen a handful of times per process, so
//! counting them needs no arming of the per-query cells first.

use hbbtv_obs::{Counter, Histogram, HistogramSummary};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Cells {
    queries: Counter,
    bucket_probes: Counter,
    bucket_candidates: Counter,
    residual_checks: Counter,
    residual_walks: Counter,
    hits: Counter,
    first_match_distance: Histogram,
    automaton_states: Counter,
    engines_built: Counter,
}

fn cells() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(|| Cells {
        queries: Counter::new(),
        bucket_probes: Counter::new(),
        bucket_candidates: Counter::new(),
        residual_checks: Counter::new(),
        residual_walks: Counter::new(),
        hits: Counter::new(),
        first_match_distance: Histogram::new(),
        automaton_states: Counter::new(),
        engines_built: Counter::new(),
    })
}

/// Turns counting on (it starts off).
pub fn enable() {
    cells(); // materialize before the hot path can race the init
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns counting off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the engine should count this query.
#[inline]
pub(crate) fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every cell (bench isolation between passes).
pub fn reset() {
    let c = cells();
    c.queries.reset();
    c.bucket_probes.reset();
    c.bucket_candidates.reset();
    c.residual_checks.reset();
    c.residual_walks.reset();
    c.hits.reset();
    c.first_match_distance.reset();
    c.automaton_states.reset();
    c.engines_built.reset();
}

/// Folds one finished index query into the global cells.
/// `distance` is the number of rules examined before the query decided
/// (recorded only on a hit).
pub(crate) fn note_query(
    bucket_probes: u64,
    bucket_candidates: u64,
    residual_checks: u64,
    residual_walks: u64,
    hit_distance: Option<u64>,
) {
    let c = cells();
    c.queries.inc();
    c.bucket_probes.add(bucket_probes);
    c.bucket_candidates.add(bucket_candidates);
    c.residual_checks.add(residual_checks);
    c.residual_walks.add(residual_walks);
    if let Some(distance) = hit_distance {
        c.hits.inc();
        c.first_match_distance.record(distance);
    }
}

/// Records one engine construction with `states` DFA states
/// materialized. Called unconditionally — construction is rare, so the
/// count need not depend on the per-query switch.
pub(crate) fn note_engine(states: u64) {
    let c = cells();
    c.automaton_states.add(states);
    c.engines_built.inc();
}

/// A frozen view of the global match-engine cells.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MatcherStats {
    /// Index queries answered while counting was on.
    pub queries: u64,
    /// Domain-bucket lookups performed (≤ host label count per query).
    pub bucket_probes: u64,
    /// Rules examined out of probed buckets.
    pub bucket_candidates: u64,
    /// Residual rules examined after surviving the automaton prefilter
    /// (plus the always-check list) — the linear engine's version of
    /// this number was the full residual rule count per query.
    pub residual_checks: u64,
    /// Residual automaton walks performed (≤ 1 per query; 0 when the
    /// partition has no residual rules with a literal part).
    pub residual_walks: u64,
    /// Queries that found a matching rule.
    pub hits: u64,
    /// Rules examined before each hit decided (the indexed engine's
    /// answer to "how far did we scan?").
    pub first_match_distance: HistogramSummary,
    /// Total DFA states across every residual automaton constructed
    /// this process (counted at build, not gated on [`enable`]).
    pub automaton_states: u64,
    /// Engines built by parsing list text.
    pub engines_built: u64,
}

impl MatcherStats {
    /// Mean rules examined per query (bucket + residual).
    pub fn rules_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            (self.bucket_candidates + self.residual_checks) as f64 / self.queries as f64
        }
    }
}

/// Snapshots the global cells (zeros if counting never ran).
pub fn snapshot() -> MatcherStats {
    let c = cells();
    MatcherStats {
        queries: c.queries.get(),
        bucket_probes: c.bucket_probes.get(),
        bucket_candidates: c.bucket_candidates.get(),
        residual_checks: c.residual_checks.get(),
        residual_walks: c.residual_walks.get(),
        hits: c.hits.get(),
        first_match_distance: c.first_match_distance.summary(),
        automaton_states: c.automaton_states.get(),
        engines_built: c.engines_built.get(),
    }
}
