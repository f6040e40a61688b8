//! The telemetry hub: modes, scopes, and RAII spans.
//!
//! A [`Telemetry`] value is one *scope* of instrumentation — the study
//! harness makes one per run and one per hermetic channel visit. Each
//! scope owns a deterministic span-id allocator, a parent-span stack,
//! a private event buffer, and a registry of named counters, gauges,
//! and histograms. Child scopes are derived with
//! [`Telemetry::child_scope`] from a canonical ordinal (the visit's
//! position in the run plan), so span ids are a pure function of the
//! scope tree — never of thread scheduling — and
//! [`Telemetry::merge_child`] folds a child's metrics and buffered
//! events back into the parent in whatever order the caller fixes.
//!
//! # The dual-clock rule
//!
//! Every scope carries a [`SimClock`]. Span and event timestamps come
//! from *sim time* only, so a journal produced in
//! [`TelemetryMode::Journal`] is byte-stable across reruns, machines,
//! and thread counts. Wall-clock timings exist only in
//! [`TelemetryMode::Profile`], which deliberately gives up
//! byte-stability in exchange for real timings.

use crate::journal::{Event, FieldValue, MemoryRecorder, Recorder};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSummary};
use hbbtv_net::SimClock;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Span-id block reserved for each child scope (a visit opens far fewer
/// spans than this, so sibling visits can never collide).
const CHILD_STRIDE: u64 = 4096;

/// How much the pipeline records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Record nothing. Instrument calls cost a branch on a `None`.
    #[default]
    Off,
    /// Counters, gauges, and histograms only — no journal.
    Metrics,
    /// Metrics plus the sim-time JSONL journal (byte-stable).
    Journal,
    /// Everything, plus wall-clock span timings. **Not** byte-stable.
    Profile,
}

impl TelemetryMode {
    /// Whether metric registries are live.
    pub fn metrics_on(self) -> bool {
        self != TelemetryMode::Off
    }

    /// Whether journal events are recorded.
    pub fn journal_on(self) -> bool {
        matches!(self, TelemetryMode::Journal | TelemetryMode::Profile)
    }

    /// Whether wall-clock / scheduling-dependent extras are recorded.
    pub fn profile_on(self) -> bool {
        self == TelemetryMode::Profile
    }
}

/// A mode plus the sink the merged journal is eventually flushed to.
#[derive(Clone)]
pub struct TelemetryConfig {
    /// How much to record.
    pub mode: TelemetryMode,
    /// Where flushed journal events go.
    pub sink: Arc<dyn Recorder>,
}

impl TelemetryConfig {
    /// Telemetry off (the default).
    pub fn off() -> Self {
        TelemetryConfig {
            mode: TelemetryMode::Off,
            sink: Arc::new(crate::journal::NullRecorder),
        }
    }

    /// Metrics only, journal discarded.
    pub fn metrics() -> Self {
        TelemetryConfig {
            mode: TelemetryMode::Metrics,
            ..TelemetryConfig::off()
        }
    }

    /// Byte-stable sim-time journal into `sink`, plus metrics.
    pub fn journal(sink: Arc<dyn Recorder>) -> Self {
        TelemetryConfig {
            mode: TelemetryMode::Journal,
            sink,
        }
    }

    /// Everything, including wall-clock timings, into `sink`.
    pub fn profile(sink: Arc<dyn Recorder>) -> Self {
        TelemetryConfig {
            mode: TelemetryMode::Profile,
            sink,
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::off()
    }
}

impl std::fmt::Debug for TelemetryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryConfig")
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

struct Inner {
    mode: TelemetryMode,
    clock: SimClock,
    id_base: u64,
    buffer: MemoryRecorder,
    next_id: AtomicU64,
    /// Open span ids, innermost last; seeded with the parent scope's
    /// innermost span so child scopes link into the tree.
    stack: Mutex<Vec<u64>>,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// One scope of instrumentation (see the module docs).
///
/// Cloning shares the scope. The disabled hub is a `None` inside, so
/// every instrument call on it is a single branch.
///
/// # Examples
///
/// ```
/// use hbbtv_obs::{Telemetry, TelemetryMode};
/// use hbbtv_net::{SimClock, Timestamp};
///
/// let clock = SimClock::starting_at(Timestamp::from_unix(100));
/// let tel = Telemetry::scope(TelemetryMode::Journal, clock, 1 << 32);
/// {
///     let mut span = tel.span("run");
///     span.add_field("channels", 3u64);
///     let child = tel.span("visit");
///     assert_eq!(child.parent(), span.id());
/// }
/// let events = tel.drain_events();
/// assert_eq!(events.len(), 2, "one span event per closed span");
/// assert_eq!(events[0].name, "span");
/// ```
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("mode", &self.mode())
            .finish()
    }
}

impl Telemetry {
    /// The inert hub: records nothing, allocates nothing.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A root scope. `id_base` seeds the span-id allocator; give
    /// distinct scopes disjoint bases (the harness uses
    /// `(run index + 1) << 32`) so ids are globally unique and
    /// deterministic.
    pub fn scope(mode: TelemetryMode, clock: SimClock, id_base: u64) -> Telemetry {
        if !mode.metrics_on() {
            return Telemetry::disabled();
        }
        Telemetry {
            inner: Some(Arc::new(Inner {
                mode,
                clock,
                id_base,
                buffer: MemoryRecorder::new(),
                next_id: AtomicU64::new(id_base),
                stack: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A child scope for the `ordinal`-th subtask of this scope (a
    /// visit's position in the run plan). The child allocates span ids
    /// from its own disjoint block and parents its root spans under
    /// this scope's innermost open span — both pure functions of
    /// `ordinal`, so children are safe to run on any thread.
    pub fn child_scope(&self, ordinal: usize, clock: SimClock) -> Telemetry {
        let Some(inner) = &self.inner else {
            return Telemetry::disabled();
        };
        let base = inner.id_base + (ordinal as u64 + 1) * CHILD_STRIDE;
        let child = Telemetry::scope(inner.mode, clock, base);
        if let (Some(child_inner), Some(&parent)) = (&child.inner, inner.stack.lock().last()) {
            child_inner.stack.lock().push(parent);
        }
        child
    }

    /// The recording mode ([`TelemetryMode::Off`] when disabled).
    pub fn mode(&self) -> TelemetryMode {
        self.inner.as_ref().map_or(TelemetryMode::Off, |i| i.mode)
    }

    /// Whether anything is recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current sim time in seconds (0 when disabled).
    pub fn now(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now().as_unix())
    }

    /// Opens a span; it closes (and records) when dropped. Nested calls
    /// parent under the innermost open span of this scope.
    pub fn span(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span::inert(name);
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let mut stack = inner.stack.lock();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        drop(stack);
        Span {
            inner: Some(inner.clone()),
            name,
            id,
            parent,
            t0: inner.clock.now().as_unix(),
            wall: inner.mode.profile_on().then(std::time::Instant::now),
            fields: Vec::new(),
        }
    }

    /// Records an ad-hoc journal event under the innermost open span.
    /// No-op unless the journal is on.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        if !inner.mode.journal_on() {
            return;
        }
        let span = inner.stack.lock().last().copied().unwrap_or(0);
        inner.buffer.record(&Event {
            name,
            ts: inner.clock.now().as_unix(),
            span,
            parent: 0,
            fields: fields.to_vec(),
        });
    }

    /// The named counter of this scope (created on first use). The
    /// returned handle is a cheap clone — hold it outside hot loops.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::new(),
            Some(inner) => inner
                .counters
                .lock()
                .entry(name.to_string())
                .or_default()
                .clone(),
        }
    }

    /// The named gauge of this scope (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::new(),
            Some(inner) => inner
                .gauges
                .lock()
                .entry(name.to_string())
                .or_default()
                .clone(),
        }
    }

    /// The named histogram of this scope (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::new(),
            Some(inner) => inner
                .histograms
                .lock()
                .entry(name.to_string())
                .or_default()
                .clone(),
        }
    }

    /// Folds a child scope's counters, gauges, histograms, and buffered
    /// journal events into this scope. Call sites fix the merge order
    /// (the harness merges visits in canonical channel order), which is
    /// what keeps journals scheduling-independent.
    pub fn merge_child(&self, child: &Telemetry) {
        let (Some(inner), Some(child_inner)) = (&self.inner, &child.inner) else {
            return;
        };
        for (name, counter) in child_inner.counters.lock().iter() {
            self.counter(name).add(counter.get());
        }
        for (name, gauge) in child_inner.gauges.lock().iter() {
            self.gauge(name).raise_to(gauge.get());
        }
        for (name, histogram) in child_inner.histograms.lock().iter() {
            self.histogram(name).merge_from(histogram);
        }
        for event in child_inner.buffer.take() {
            inner.buffer.record(&event);
        }
    }

    /// Removes and returns this scope's buffered journal events.
    pub fn drain_events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.buffer.take())
    }

    /// Drains the buffered journal events into `sink` and flushes it.
    pub fn flush_into(&self, sink: &dyn Recorder) {
        for event in self.drain_events() {
            sink.record(&event);
        }
        sink.flush();
    }

    /// Current value of a named counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.counters.lock().get(name).map_or(0, Counter::get),
        }
    }

    /// All counters of this scope, by name.
    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            None => BTreeMap::new(),
            Some(inner) => inner
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }

    /// All gauges of this scope, by name.
    pub fn gauges_snapshot(&self) -> BTreeMap<String, i64> {
        match &self.inner {
            None => BTreeMap::new(),
            Some(inner) => inner
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }

    /// All histograms of this scope, summarized, by name.
    pub fn histograms_snapshot(&self) -> BTreeMap<String, HistogramSummary> {
        match &self.inner {
            None => BTreeMap::new(),
            Some(inner) => inner
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }

    /// Raw histogram handles of this scope, by name (handles are cheap
    /// `Arc` clones). The exposition renderer uses this to emit full
    /// cumulative buckets rather than the percentile summary.
    pub fn histogram_cells(&self) -> Vec<(String, Histogram)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// A cheap change fingerprint over every metric cell of this scope:
    /// an FNV-1a fold of each name and its current value (count/sum/max
    /// for histograms). Two calls return the same value iff no metric
    /// moved in between (modulo 64-bit collision, which only costs one
    /// redundant re-render). Allocation-free; disabled scopes return 0.
    pub fn metrics_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn fold(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        let Some(inner) = &self.inner else { return 0 };
        let mut h = OFFSET;
        for (name, c) in inner.counters.lock().iter() {
            fold(&mut h, name.as_bytes());
            fold(&mut h, &c.get().to_le_bytes());
        }
        for (name, g) in inner.gauges.lock().iter() {
            fold(&mut h, name.as_bytes());
            fold(&mut h, &g.get().to_le_bytes());
        }
        for (name, hist) in inner.histograms.lock().iter() {
            fold(&mut h, name.as_bytes());
            // Every record() moves count; sum and max catch merges of
            // degenerate all-zero histograms growing max-only.
            fold(&mut h, &hist.count().to_le_bytes());
            fold(&mut h, &hist.sum().to_le_bytes());
            fold(&mut h, &hist.max().to_le_bytes());
        }
        h
    }
}

/// An open span: RAII scope timing with parent/child nesting.
///
/// Closing (dropping) the span records its sim-time duration into the
/// scope histogram `span.<name>` and, when the journal is on, emits one
/// `"span"` event timestamped at the span's start. In
/// [`TelemetryMode::Profile`] the wall-clock duration is additionally
/// recorded (histogram `wall.<name>`, journal field `wall_us`).
pub struct Span {
    inner: Option<Arc<Inner>>,
    name: &'static str,
    id: u64,
    parent: u64,
    t0: u64,
    wall: Option<std::time::Instant>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("id", &self.id)
            .field("parent", &self.parent)
            .finish_non_exhaustive()
    }
}

impl Span {
    fn inert(name: &'static str) -> Span {
        Span {
            inner: None,
            name,
            id: 0,
            parent: 0,
            t0: 0,
            wall: None,
            fields: Vec::new(),
        }
    }

    /// The span's id (0 when telemetry is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The parent span's id (0 for a root span).
    pub fn parent(&self) -> u64 {
        self.parent
    }

    /// Attaches a field to the span's close event.
    pub fn add_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.inner.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        {
            let mut stack = inner.stack.lock();
            if let Some(pos) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(pos);
            }
        }
        let dur = inner.clock.now().as_unix().saturating_sub(self.t0);
        inner
            .histograms
            .lock()
            .entry(format!("span.{}", self.name))
            .or_default()
            .record(dur);
        let wall_us = self.wall.map(|t| t.elapsed().as_micros() as u64);
        if let Some(us) = wall_us {
            inner
                .histograms
                .lock()
                .entry(format!("wall.{}", self.name))
                .or_default()
                .record(us);
        }
        if inner.mode.journal_on() {
            let mut fields = Vec::with_capacity(self.fields.len() + 3);
            fields.push(("name", FieldValue::Str(self.name.to_string())));
            fields.push(("dur_s", FieldValue::U64(dur)));
            fields.append(&mut self.fields);
            if let Some(us) = wall_us {
                fields.push(("wall_us", FieldValue::U64(us)));
            }
            inner.buffer.record(&Event {
                name: "span",
                ts: self.t0,
                span: self.id,
                parent: self.parent,
                fields,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbtv_net::{Duration, Timestamp};

    fn clock_at(secs: u64) -> SimClock {
        SimClock::starting_at(Timestamp::from_unix(secs))
    }

    #[test]
    fn disabled_hub_is_fully_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut span = tel.span("x");
        span.add_field("k", 1u64);
        assert_eq!(span.id(), 0);
        drop(span);
        tel.event("e", &[]);
        tel.counter("c").inc();
        assert_eq!(tel.counter_value("c"), 0, "unregistered handle");
        assert!(tel.drain_events().is_empty());
        assert!(tel.counters_snapshot().is_empty());
    }

    #[test]
    fn off_mode_scope_collapses_to_disabled() {
        let tel = Telemetry::scope(TelemetryMode::Off, clock_at(0), 7);
        assert!(!tel.is_enabled());
    }

    #[test]
    fn spans_nest_and_record_sim_durations() {
        let clock = clock_at(1000);
        let tel = Telemetry::scope(TelemetryMode::Journal, clock.clone(), 100);
        {
            let outer = tel.span("outer");
            assert_eq!(outer.id(), 100);
            assert_eq!(outer.parent(), 0);
            clock.advance(Duration::from_secs(5));
            {
                let inner = tel.span("inner");
                assert_eq!(inner.id(), 101);
                assert_eq!(inner.parent(), 100);
                clock.advance(Duration::from_secs(2));
            }
            clock.advance(Duration::from_secs(1));
        }
        let events = tel.drain_events();
        assert_eq!(events.len(), 2);
        // Inner closes first.
        assert_eq!(events[0].span, 101);
        assert_eq!(events[0].parent, 100);
        assert_eq!(events[0].ts, 1005);
        assert_eq!(events[1].span, 100);
        assert_eq!(events[1].ts, 1000);
        assert!(events[1].fields.contains(&("dur_s", FieldValue::U64(8))));
        let h = tel.histograms_snapshot();
        assert_eq!(h["span.outer"].count, 1);
        assert_eq!(h["span.inner"].max, 2);
    }

    #[test]
    fn metrics_mode_records_no_journal() {
        let tel = Telemetry::scope(TelemetryMode::Metrics, clock_at(0), 1);
        drop(tel.span("x"));
        tel.event("e", &[]);
        assert!(tel.drain_events().is_empty());
        assert_eq!(tel.histograms_snapshot()["span.x"].count, 1);
    }

    #[test]
    fn child_scope_ids_are_a_function_of_the_ordinal() {
        let tel = Telemetry::scope(TelemetryMode::Journal, clock_at(0), 1 << 32);
        let root = tel.span("run");
        let a = tel.child_scope(0, clock_at(10));
        let b = tel.child_scope(1, clock_at(20));
        let sa = a.span("visit");
        let sb = b.span("visit");
        assert_eq!(sa.id(), (1 << 32) + 4096);
        assert_eq!(sb.id(), (1 << 32) + 2 * 4096);
        assert_eq!(sa.parent(), root.id());
        assert_eq!(sb.parent(), root.id());
    }

    #[test]
    fn merge_child_folds_metrics_and_events_in_call_order() {
        let parent = Telemetry::scope(TelemetryMode::Journal, clock_at(0), 1);
        let a = parent.child_scope(0, clock_at(10));
        let b = parent.child_scope(1, clock_at(20));
        // Record on b first to prove merge order is the caller's.
        b.counter("n").add(2);
        b.event("visit", &[("seq", FieldValue::U64(1))]);
        a.counter("n").add(3);
        a.histogram("h").record(7);
        a.event("visit", &[("seq", FieldValue::U64(0))]);
        parent.merge_child(&a);
        parent.merge_child(&b);
        assert_eq!(parent.counter_value("n"), 5);
        assert_eq!(parent.histograms_snapshot()["h"].sum, 7);
        let events = parent.drain_events();
        assert_eq!(
            events[0].fields,
            vec![("seq", FieldValue::U64(0))],
            "a merged first"
        );
        assert_eq!(events[1].fields, vec![("seq", FieldValue::U64(1))]);
        assert!(a.drain_events().is_empty(), "merge drains the child");
    }

    #[test]
    fn flush_into_hands_events_to_the_sink() {
        let tel = Telemetry::scope(TelemetryMode::Journal, clock_at(0), 1);
        tel.event("x", &[]);
        let sink = MemoryRecorder::new();
        tel.flush_into(&sink);
        assert_eq!(sink.len(), 1);
        assert!(tel.drain_events().is_empty());
    }
}
