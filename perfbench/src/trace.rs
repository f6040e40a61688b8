//! In-memory spans for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side:
//! its name, start, end, the span that caused it, and a group id shared
//! by the spans of one session, epoch or iteration. Spans stay in
//! memory and are written out once, when the benchmark ends, with each
//! layer's self time: its duration minus the part of it that its child
//! spans cover.

use crate::json::quote;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Inner {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// The span recorder. [`Tracer::off`] records nothing but still times,
/// so traced and untraced runs share one code path.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Inner {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    fn next_id(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Runs `f` as span `name` under `parent` in `group`, and returns
    /// its result and wall time. `f` receives the span's id (0 when
    /// tracing is off) to parent the calls it makes.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        group: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = self.next_id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(id, name, parent, group, start, end);
        (out, end - start)
    }

    /// Records a span timed by the caller.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.next_id();
        self.push(id, name, parent, group, start, end);
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        let Some(inner) = &self.0 else { return };
        let ns = |t: Instant| t.saturating_duration_since(inner.origin).as_nanos() as u64;
        inner
            .spans
            .lock()
            .expect("no thread panics while holding the span log")
            .push(SpanRec {
                id,
                parent,
                group,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
    }

    /// Every span recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.0.as_ref().map_or_else(Vec::new, |i| {
            i.spans
                .lock()
                .expect("no thread panics while holding the span log")
                .clone()
        })
    }
}

/// Time spent in one span name across a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total and self time per span name. Children running
/// concurrently (sessions on two client threads) cover their parent
/// once, as the union of their intervals.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The spans and the per-layer self times as one JSON object.
pub fn to_json(spans: &[SpanRec]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"group\": {}, \"name\": {}, \"start_us\": {}, \"end_us\": {}}}",
                s.id,
                s.parent,
                s.group,
                quote(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )
        })
        .collect();
    let layers: Vec<String> = self_times(spans)
        .into_iter()
        .map(|(name, t)| {
            format!(
                "{}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                quote(name),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )
        })
        .collect();
    format!(
        "{{\"self_time\": {{{}}}, \"spans\": [\n{}\n]}}",
        layers.join(", "),
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            group: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "pass", 0, 100),
            span(2, 1, "session", 10, 50),
            span(3, 1, "session", 40, 70),
            span(4, 1, "render", 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover [10, 70] and [90, 100] of the pass.
        assert_eq!(t["pass"].self_ns, 100 - 60 - 10);
        assert_eq!(t["session"].count, 2);
        assert_eq!(t["session"].total_ns, 70);
        assert_eq!(t["session"].self_ns, 70);
    }

    #[test]
    fn off_tracer_times_but_records_nothing() {
        let off = Tracer::off();
        let (v, _) = off.time("x", 0, 0, |id| id);
        assert_eq!(v, 0);
        assert!(off.spans().is_empty());
        let on = Tracer::on();
        let ((), _) = on.time("outer", 0, 7, |id| {
            on.time("inner", id, 7, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
