//! Counters, gauges, and log-bucketed histograms.
//!
//! All three are cheap atomic cells behind an `Arc`, so handles can be
//! cloned into worker threads and hot loops freely: recording is a
//! single relaxed atomic RMW (three for a histogram). None of them
//! allocate after construction, which is what keeps the disabled
//! telemetry path to a few atomic ops.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
///
/// # Examples
///
/// ```
/// use hbbtv_obs::Counter;
/// let c = Counter::new();
/// let handle = c.clone();
/// handle.inc();
/// c.add(2);
/// assert_eq!(c.get(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, worker counts).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn raise_to(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket count: one bucket per bit width of the recorded value
/// (0, 1, 2–3, 4–7, …, 2^63–2^64−1).
const BUCKETS: usize = 65;

/// The bucket a value lands in: its bit width (0 for 0).
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value bucket `b` holds.
fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

struct HistogramState {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log₂-bucketed histogram of `u64` samples.
///
/// Values share a bucket with everything of the same bit width, so any
/// reported percentile is exact to within a factor of two — plenty for
/// instrument telemetry (per-visit capture counts, span durations,
/// first-match distances) while recording stays three relaxed atomic
/// RMWs with no allocation and no lock.
///
/// # Examples
///
/// ```
/// use hbbtv_obs::Histogram;
/// let h = Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.sum, 106);
/// assert_eq!(s.max, 100);
/// assert!(s.p50 >= 2 && s.p50 <= 4, "within a factor of two");
/// ```
#[derive(Clone)]
pub struct Histogram {
    state: Arc<HistogramState>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("summary", &self.summary())
            .finish()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            state: Arc::new(HistogramState {
                counts: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.state.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.state.sum.fetch_add(v, Ordering::Relaxed);
        self.state.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.state
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Folds another histogram's buckets into this one (used to merge
    /// per-visit histograms into a run histogram; addition commutes, so
    /// the merged result is independent of visit scheduling).
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.state.counts.iter().zip(&other.state.counts) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.state
            .sum
            .fetch_add(other.state.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.state
            .max
            .fetch_max(other.state.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The value at quantile `q` (0 < q ≤ 1), reported as the upper
    /// bound of the bucket holding the rank-`⌈q·count⌉` sample — so it
    /// is ≥ the exact order statistic and < 2× it (exact for 0).
    /// Returns 0 on an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .state
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (b, &n) in counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                // Never report past the true maximum.
                return bucket_upper(b).min(self.state.max.load(Ordering::Relaxed));
            }
        }
        self.state.max.load(Ordering::Relaxed)
    }

    /// Cumulative `(upper_bound, count_le_upper)` pairs for every
    /// bucket up to the highest non-empty one, in ascending bound
    /// order — the shape a Prometheus-style `le` exposition wants.
    /// Counts are monotone non-decreasing; the final pair's count
    /// equals [`Histogram::count`]. Empty histogram ⇒ empty vec.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let counts: Vec<u64> = self
            .state
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let Some(highest) = counts.iter().rposition(|&n| n > 0) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(highest + 1);
        let mut cum = 0u64;
        for (b, &n) in counts.iter().enumerate().take(highest + 1) {
            cum += n;
            out.push((bucket_upper(b), cum));
        }
        out
    }

    /// The sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.state.sum.load(Ordering::Relaxed)
    }

    /// The largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.state.max.load(Ordering::Relaxed)
    }

    /// A serializable summary: count, sum, max, and p50/p90/p99.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.state.sum.load(Ordering::Relaxed),
            max: self.state.max.load(Ordering::Relaxed),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// The summary a [`Histogram`] reduces to for reports and datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact).
    pub max: u64,
    /// Median, exact to within a factor of two.
    pub p50: u64,
    /// 90th percentile, exact to within a factor of two.
    pub p90: u64,
    /// 99th percentile, exact to within a factor of two.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (0 on an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_share_state_across_clones() {
        let c = Counter::new();
        c.clone().add(5);
        c.inc();
        assert_eq!(c.get(), 6);

        let g = Gauge::new();
        g.set(3);
        g.clone().add(-1);
        assert_eq!(g.get(), 2);
        g.raise_to(10);
        g.raise_to(4);
        assert_eq!(g.get(), 10, "raise_to keeps the high-water mark");
    }

    #[test]
    fn bucket_boundaries_follow_bit_width() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn single_value_percentiles_hit_the_bucket_upper_bound() {
        for (v, upper) in [(0u64, 0u64), (1, 1), (2, 3), (3, 3), (4, 7), (1023, 1023)] {
            let h = Histogram::new();
            h.record(v);
            // Capped at the exact max, which here is the only sample.
            assert_eq!(h.percentile(0.5), upper.min(v), "value {v}");
            assert_eq!(h.summary().max, v);
        }
    }

    #[test]
    fn percentiles_are_within_a_factor_of_two_of_exact() {
        let mut values: Vec<u64> = (0..1000).map(|i| (i * i * 7 + 13) % 5000).collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let got = h.percentile(q);
            assert!(got >= exact, "p{q}: {got} < exact {exact}");
            assert!(got <= exact.max(1) * 2, "p{q}: {got} > 2x exact {exact}");
        }
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 { &a } else { &b }.record(v * 3);
            all.record(v * 3);
        }
        a.merge_from(&b);
        assert_eq!(a.summary(), all.summary());
    }

    #[test]
    fn empty_histogram_summary_is_zero() {
        let s = Histogram::new().summary();
        assert_eq!(s, HistogramSummary::default());
        assert_eq!(s.mean(), 0.0);
    }
}
