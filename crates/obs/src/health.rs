//! The collector watchdog: `healthy / degraded / unhealthy` with
//! machine-readable reasons.
//!
//! A long-running collector fails slowly — backpressure stalls creep
//! up, the heartbeat GC starts reaping sessions, the frame store blows
//! past its budget — and none of that is visible in a single counter
//! value. [`Watchdog::assess`] turns a [`Telemetry`] scope into a
//! [`HealthReport`]: it derives *rates* from counter deltas between
//! consecutive assessments (stalls/s, GC'd sessions/s), reads the
//! instantaneous gauges (queue depth, frame-store residency), compares
//! each signal against a degraded and an unhealthy threshold, and
//! applies hysteresis — status worsens immediately but only recovers
//! after [`HealthThresholds::recover_after`] consecutive cleaner
//! assessments, so a flapping signal cannot flap the verdict.
//!
//! The watchdog is a pure observer: it reads metric cells and keeps its
//! own small state (previous counter values, streak), never steering
//! the pipeline. Both the scrape endpoint and the ingest `STATS` answer
//! share one watchdog behind a mutex, so they report one consistent
//! verdict.

use crate::hub::Telemetry;
use crate::journal::escape_into;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;

/// The three-level verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthStatus {
    /// All signals under their degraded thresholds.
    Healthy,
    /// At least one signal past its degraded threshold.
    Degraded,
    /// At least one signal past its unhealthy threshold.
    Unhealthy,
}

impl HealthStatus {
    /// Lowercase label (`"healthy"` / `"degraded"` / `"unhealthy"`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        }
    }

    /// Numeric code for gauge exposition: 0 / 1 / 2.
    pub fn code(self) -> i64 {
        match self {
            HealthStatus::Healthy => 0,
            HealthStatus::Degraded => 1,
            HealthStatus::Unhealthy => 2,
        }
    }
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Degraded/unhealthy cut-offs for each watched signal, plus the
/// hysteresis depth. Each pair is `(degraded, unhealthy)` with
/// `degraded <= unhealthy`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthThresholds {
    /// Backpressure stalls per second (`ingest.backpressure_stalls`
    /// delta rate). Occasional stalls are the backpressure design
    /// working; a sustained rate means the pool cannot keep up.
    pub stall_rate: (f64, f64),
    /// Heartbeat-GC'd sessions per second (`ingest.sessions_gc` delta
    /// rate). TVs silently dying is the paper's overnight failure mode.
    pub gc_rate: (f64, f64),
    /// Undecoded batches queued (`ingest.queue_depth`).
    pub queue_depth: (i64, i64),
    /// Frame-store residency as a fraction of the configured budget
    /// (`frame.resident_bytes / frame.budget_bytes`; skipped when no
    /// budget gauge is set). Over 1.0 means a segment pinned past the
    /// budget.
    pub residency: (f64, f64),
    /// Consecutive cleaner assessments required before the reported
    /// status improves (worsening is always immediate).
    pub recover_after: u32,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            stall_rate: (1.0, 10.0),
            gc_rate: (0.2, 2.0),
            queue_depth: (64, 512),
            residency: (1.0, 2.0),
            recover_after: 2,
        }
    }
}

/// One signal past a threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReason {
    /// Machine-readable signal id (`"stall_rate"`, `"gc_rate"`,
    /// `"queue_depth"`, `"residency"`).
    pub code: String,
    /// Severity this signal alone implies.
    pub severity: HealthStatus,
    /// The observed value.
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub detail: String,
}

/// One watchdog assessment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The verdict after hysteresis — what operators should act on.
    pub status: HealthStatus,
    /// The instantaneous verdict of this assessment alone.
    pub raw: HealthStatus,
    /// Every signal past a threshold (empty when healthy).
    pub reasons: Vec<HealthReason>,
}

impl HealthReport {
    /// Hand-rolled JSON (the `hbbtv-obs` crate carries no runtime JSON
    /// dependency). Statuses serialize as their variant names
    /// (`"Healthy"`), field-compatible with the serde derive, so the
    /// ingest STATS answer and the `/health` endpoint agree.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"status\":\"{:?}\",\"raw\":\"{:?}\",\"reasons\":[",
            self.status, self.raw
        );
        for (i, r) in self.reasons.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            escape_into(&mut out, &r.code);
            let _ = write!(
                out,
                "\",\"severity\":\"{:?}\",\"value\":{},\"threshold\":{},\"detail\":\"",
                r.severity, r.value, r.threshold
            );
            escape_into(&mut out, &r.detail);
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

/// Previous-assessment state for rate derivation.
#[derive(Debug, Clone, Copy)]
struct PrevSample {
    at: Instant,
    stalls: u64,
    gc: u64,
}

/// The watchdog itself: thresholds plus the small state that rate
/// derivation and hysteresis need. See the module docs.
#[derive(Debug)]
pub struct Watchdog {
    thresholds: HealthThresholds,
    prev: Option<PrevSample>,
    status: HealthStatus,
    clean_streak: u32,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new(HealthThresholds::default())
    }
}

impl Watchdog {
    /// A watchdog with the given thresholds, initially healthy.
    pub fn new(thresholds: HealthThresholds) -> Watchdog {
        Watchdog {
            thresholds,
            prev: None,
            status: HealthStatus::Healthy,
            clean_streak: 0,
        }
    }

    /// The thresholds this watchdog applies.
    pub fn thresholds(&self) -> &HealthThresholds {
        &self.thresholds
    }

    /// Assesses `tel` now, deriving rates from the wall-clock elapsed
    /// since the previous assessment (the first assessment reports all
    /// rates as 0 — there is no interval yet).
    pub fn assess(&mut self, tel: &Telemetry) -> HealthReport {
        let now = Instant::now();
        let elapsed = self
            .prev
            .map(|p| now.duration_since(p.at).as_secs_f64())
            .unwrap_or(0.0);
        self.assess_with_elapsed(tel, now, elapsed)
    }

    /// [`Watchdog::assess`] with an explicit elapsed interval, so tests
    /// can drive deterministic rates.
    pub fn assess_at(&mut self, tel: &Telemetry, elapsed_secs: f64) -> HealthReport {
        self.assess_with_elapsed(tel, Instant::now(), elapsed_secs)
    }

    fn assess_with_elapsed(
        &mut self,
        tel: &Telemetry,
        now: Instant,
        elapsed_secs: f64,
    ) -> HealthReport {
        let stalls = tel.counter_value(crate::keys::INGEST_BACKPRESSURE_STALLS);
        let gc = tel.counter_value(crate::keys::INGEST_SESSIONS_GC);
        let rate = |cur: u64, field: fn(&PrevSample) -> u64| -> f64 {
            match (&self.prev, elapsed_secs > 0.0) {
                (Some(p), true) => cur.saturating_sub(field(p)) as f64 / elapsed_secs,
                _ => 0.0,
            }
        };
        let stall_rate = rate(stalls, |p| p.stalls);
        let gc_rate = rate(gc, |p| p.gc);
        self.prev = Some(PrevSample {
            at: now,
            stalls,
            gc,
        });

        let gauges = tel.gauges_snapshot();
        let gauge = |name: &str| gauges.get(name).copied().unwrap_or(0);
        let queue_depth = gauge(crate::keys::INGEST_QUEUE_DEPTH);
        let budget = gauge(crate::keys::FRAME_BUDGET_BYTES);
        let residency = if budget > 0 {
            gauge(crate::keys::FRAME_RESIDENT_BYTES) as f64 / budget as f64
        } else {
            0.0
        };

        let t = &self.thresholds;
        let mut reasons = Vec::new();
        let mut judge = |code: &str, value: f64, (deg, unh): (f64, f64), what: &str| {
            let severity = if value >= unh {
                HealthStatus::Unhealthy
            } else if value >= deg {
                HealthStatus::Degraded
            } else {
                return;
            };
            let threshold = if severity == HealthStatus::Unhealthy {
                unh
            } else {
                deg
            };
            reasons.push(HealthReason {
                code: code.to_string(),
                severity,
                value,
                threshold,
                detail: format!("{what}: {value:.2} >= {threshold:.2}"),
            });
        };
        judge(
            "stall_rate",
            stall_rate,
            t.stall_rate,
            "backpressure stalls/s",
        );
        judge("gc_rate", gc_rate, t.gc_rate, "heartbeat-GC'd sessions/s");
        judge(
            "queue_depth",
            queue_depth as f64,
            (t.queue_depth.0 as f64, t.queue_depth.1 as f64),
            "undecoded batches queued",
        );
        judge(
            "residency",
            residency,
            t.residency,
            "frame-store budget residency",
        );

        let raw = reasons
            .iter()
            .map(|r| r.severity)
            .max()
            .unwrap_or(HealthStatus::Healthy);
        if raw >= self.status {
            self.status = raw;
            self.clean_streak = 0;
        } else {
            self.clean_streak += 1;
            if self.clean_streak >= self.thresholds.recover_after {
                self.status = raw;
                self.clean_streak = 0;
            }
        }
        HealthReport {
            status: self.status,
            raw,
            reasons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::TelemetryMode;
    use hbbtv_net::SimClock;

    fn tel() -> Telemetry {
        Telemetry::scope(TelemetryMode::Metrics, SimClock::new(), 0)
    }

    #[test]
    fn quiet_hub_is_healthy_and_first_assessment_has_no_rates() {
        let tel = tel();
        // A counter value alone, with no prior sample, must not spike a
        // rate: the first assessment has no interval.
        tel.counter(crate::keys::INGEST_BACKPRESSURE_STALLS)
            .add(500);
        let mut dog = Watchdog::default();
        let r = dog.assess_at(&tel, 0.0);
        assert_eq!(r.status, HealthStatus::Healthy);
        assert!(r.reasons.is_empty());
    }

    #[test]
    fn stall_rate_degrades_then_unhealthy() {
        let tel = tel();
        let stalls = tel.counter(crate::keys::INGEST_BACKPRESSURE_STALLS);
        let mut dog = Watchdog::default();
        dog.assess_at(&tel, 0.0);
        stalls.add(2); // 2 stalls over 1s >= degraded (1.0/s)
        let r = dog.assess_at(&tel, 1.0);
        assert_eq!(r.status, HealthStatus::Degraded);
        assert_eq!(r.reasons[0].code, "stall_rate");
        stalls.add(50); // 50/s >= unhealthy (10.0/s)
        let r = dog.assess_at(&tel, 1.0);
        assert_eq!(r.status, HealthStatus::Unhealthy);
        assert_eq!(r.reasons[0].severity, HealthStatus::Unhealthy);
    }

    #[test]
    fn recovery_needs_consecutive_clean_assessments() {
        let tel = tel();
        let gc = tel.counter(crate::keys::INGEST_SESSIONS_GC);
        let mut dog = Watchdog::new(HealthThresholds {
            recover_after: 2,
            ..HealthThresholds::default()
        });
        dog.assess_at(&tel, 0.0);
        gc.add(10);
        assert_eq!(dog.assess_at(&tel, 1.0).status, HealthStatus::Unhealthy);
        // Signal stops; the verdict lags by recover_after assessments.
        let r = dog.assess_at(&tel, 1.0);
        assert_eq!(r.raw, HealthStatus::Healthy);
        assert_eq!(r.status, HealthStatus::Unhealthy, "hysteresis holds");
        let r = dog.assess_at(&tel, 1.0);
        assert_eq!(r.status, HealthStatus::Healthy, "recovers after streak");
    }

    #[test]
    fn queue_depth_and_residency_read_gauges() {
        let tel = tel();
        tel.gauge(crate::keys::INGEST_QUEUE_DEPTH).set(600);
        tel.gauge(crate::keys::FRAME_BUDGET_BYTES).set(1000);
        tel.gauge(crate::keys::FRAME_RESIDENT_BYTES).set(1500);
        let mut dog = Watchdog::default();
        let r = dog.assess_at(&tel, 1.0);
        assert_eq!(r.status, HealthStatus::Unhealthy);
        let codes: Vec<&str> = r.reasons.iter().map(|r| r.code.as_str()).collect();
        assert!(codes.contains(&"queue_depth"));
        assert!(codes.contains(&"residency"));
        let res = r.reasons.iter().find(|r| r.code == "residency").unwrap();
        assert_eq!(res.severity, HealthStatus::Degraded);
        assert!((res.value - 1.5).abs() < 1e-9);
    }

    #[test]
    fn report_json_matches_serde_shape() {
        let report = HealthReport {
            status: HealthStatus::Degraded,
            raw: HealthStatus::Healthy,
            reasons: vec![HealthReason {
                code: "gc_rate".into(),
                severity: HealthStatus::Degraded,
                value: 0.5,
                threshold: 0.2,
                detail: "a \"quoted\" detail".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"status\":\"Degraded\""));
        assert!(json.contains("\\\"quoted\\\""));
        // Round-trippable (serde_json is a dev-dependency).
        let back: HealthReport = serde_json::from_str(&json).expect("hand JSON parses via serde");
        assert_eq!(back.reasons[0].code, "gc_rate");
    }

    #[test]
    fn disabled_telemetry_is_trivially_healthy() {
        let mut dog = Watchdog::default();
        let r = dog.assess(&Telemetry::disabled());
        assert_eq!(r.status, HealthStatus::Healthy);
    }
}
