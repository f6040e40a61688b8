//! Simulated wall-clock time.
//!
//! The measurement study ran from August to December 2023. All timestamps
//! in the reproduction are seconds since the Unix epoch, driven by a
//! [`SimClock`] that the study harness advances deterministically — no call
//! ever touches the host clock, so runs are exactly reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in simulated time, in whole seconds since the Unix epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(u64);

impl Timestamp {
    /// 2023-08-01T00:00:00Z — the start of the paper's measurement window.
    pub const MEASUREMENT_START: Timestamp = Timestamp(1_690_848_000);
    /// 2023-12-31T23:59:59Z — the end of the paper's measurement window.
    pub const MEASUREMENT_END: Timestamp = Timestamp(1_704_067_199);

    /// Creates a timestamp from seconds since the Unix epoch.
    ///
    /// # Examples
    ///
    /// ```
    /// use hbbtv_net::Timestamp;
    /// let t = Timestamp::from_unix(1_700_000_000);
    /// assert_eq!(t.as_unix(), 1_700_000_000);
    /// ```
    pub const fn from_unix(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Returns the number of seconds since the Unix epoch.
    pub const fn as_unix(self) -> u64 {
        self.0
    }

    /// The seconds since the Unix epoch as decimal text, on the stack.
    ///
    /// # Examples
    ///
    /// ```
    /// use hbbtv_net::Timestamp;
    /// assert_eq!(Timestamp::from_unix(1_700_000_000).unix_text().as_str(), "1700000000");
    /// assert_eq!(Timestamp::from_unix(0).unix_text().as_str(), "0");
    /// ```
    pub fn unix_text(self) -> UnixText {
        let mut text = UnixText {
            digits: [0; 20],
            start: 20,
        };
        let mut n = self.0;
        loop {
            text.start -= 1;
            text.digits[text.start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return text;
            }
        }
    }

    /// Seconds elapsed since `earlier`, saturating at zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration::from_secs(self.0.saturating_sub(earlier.0))
    }

    /// Whether this timestamp falls inside the paper's measurement window
    /// (used by the cookie-syncing ID heuristic of §V-C3, which discards
    /// cookie values that are valid Unix timestamps within the window).
    pub fn in_measurement_window(self) -> bool {
        self >= Self::MEASUREMENT_START && self <= Self::MEASUREMENT_END
    }

    /// The hour of day (0–23, UTC) of this timestamp.
    ///
    /// Used by the "5 PM to 6 AM" policy-compliance check of §VII-C: the
    /// Super RTL policy limits profiling to 17:00–06:00.
    pub fn hour_of_day(self) -> u8 {
        ((self.0 / 3600) % 24) as u8
    }

    /// The day index since the Unix epoch (UTC midnight boundaries).
    pub fn day_index(self) -> u64 {
        self.0 / 86_400
    }
}

/// The decimal text of a [`Timestamp`]'s unix seconds, held on the
/// stack so writing it into a header or a URL allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct UnixText {
    digits: [u8; 20],
    start: usize,
}

impl UnixText {
    /// The digits as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.digits[self.start..]).expect("ASCII digits")
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_secs())
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_secs();
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        self.since(rhs)
    }
}

/// A span of simulated time, in whole seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl Duration {
    /// A zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        Duration(mins * 60)
    }

    /// Returns the duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

/// A shared, monotonically advancing simulated clock.
///
/// Cloning a `SimClock` yields a handle to the *same* underlying clock, so
/// the TV runtime, the proxy, and the study harness all observe a single
/// consistent timeline — mirroring the single wall clock of the physical
/// testbed.
///
/// # Examples
///
/// ```
/// use hbbtv_net::{Duration, SimClock, Timestamp};
///
/// let clock = SimClock::starting_at(Timestamp::from_unix(1_700_000_000));
/// let handle = clock.clone();
/// clock.advance(Duration::from_secs(10));
/// assert_eq!(handle.now().as_unix(), 1_700_000_010);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at the paper's measurement-window start.
    pub fn new() -> Self {
        Self::starting_at(Timestamp::MEASUREMENT_START)
    }

    /// Creates a clock starting at an arbitrary instant.
    pub fn starting_at(start: Timestamp) -> Self {
        SimClock {
            now: Arc::new(AtomicU64::new(start.as_unix())),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&self, d: Duration) -> Timestamp {
        Timestamp(self.now.fetch_add(d.as_secs(), Ordering::SeqCst) + d.as_secs())
    }

    /// Jumps the clock forward to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current instant; simulated time
    /// never flows backwards.
    pub fn jump_to(&self, t: Timestamp) {
        let cur = self.now();
        assert!(
            t >= cur,
            "SimClock::jump_to would move time backwards ({t} < {cur})"
        );
        self.now.store(t.as_unix(), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_round_trips() {
        let t = Timestamp::from_unix(100);
        let later = t + Duration::from_secs(42);
        assert_eq!(later.as_unix(), 142);
        assert_eq!(later - t, Duration::from_secs(42));
        assert_eq!(t - later, Duration::ZERO, "subtraction saturates");
    }

    #[test]
    fn measurement_window_bounds_are_inclusive() {
        assert!(Timestamp::MEASUREMENT_START.in_measurement_window());
        assert!(Timestamp::MEASUREMENT_END.in_measurement_window());
        assert!(
            !Timestamp::from_unix(Timestamp::MEASUREMENT_START.as_unix() - 1)
                .in_measurement_window()
        );
        assert!(
            !Timestamp::from_unix(Timestamp::MEASUREMENT_END.as_unix() + 1).in_measurement_window()
        );
    }

    #[test]
    fn hour_of_day_wraps_at_midnight() {
        // 1_690_848_000 is a UTC midnight (divisible by 86_400).
        assert_eq!(Timestamp::MEASUREMENT_START.as_unix() % 86_400, 0);
        assert_eq!(Timestamp::MEASUREMENT_START.hour_of_day(), 0);
        let five_pm = Timestamp::MEASUREMENT_START + Duration::from_secs(17 * 3600);
        assert_eq!(five_pm.hour_of_day(), 17);
        let next_midnight = Timestamp::MEASUREMENT_START + Duration::from_secs(24 * 3600);
        assert_eq!(next_midnight.hour_of_day(), 0);
        assert_eq!(
            next_midnight.day_index(),
            Timestamp::MEASUREMENT_START.day_index() + 1
        );
    }

    #[test]
    fn clock_handles_share_state() {
        let clock = SimClock::new();
        let handle = clock.clone();
        let before = handle.now();
        clock.advance(Duration::from_mins(2));
        assert_eq!(handle.now(), before + Duration::from_secs(120));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn clock_refuses_to_rewind() {
        let clock = SimClock::new();
        clock.jump_to(Timestamp::from_unix(0));
    }

    #[test]
    fn duration_display_and_sum() {
        assert_eq!(Duration::from_mins(2).to_string(), "120s");
        assert_eq!(
            Duration::from_secs(1) + Duration::from_secs(2),
            Duration::from_secs(3)
        );
    }
}
