//! Virtual time.
//!
//! Every component of VPPB — the machine, the recorder and the trace-driven
//! simulator — operates on a *virtual* wall clock measured in nanoseconds.
//! The paper records wall-clock time with 1 µs resolution; we keep an extra
//! three decimal digits internally so that probe intrusion (a couple of
//! microseconds per event) and sub-microsecond scheduling costs accumulate
//! without rounding, and round to microseconds only at the log boundary.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, in nanoseconds since the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Duration(pub u64);

/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl Time {
    /// The start of the run.
    pub const ZERO: Time = Time(0);
    /// A time later than any that occurs in practice; used as the "never"
    /// sentinel by event queues.
    pub const MAX: Time = Time(u64::MAX);

    /// Nanoseconds since the start of the run.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds, rounding down — the paper's log resolution.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Seconds as a float (for ratios and reports).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// A time point `us` microseconds into the run.
    #[inline]
    pub fn from_micros(us: u64) -> Time {
        Time(us * NANOS_PER_MICRO)
    }

    /// A time point `ms` milliseconds into the run.
    #[inline]
    pub fn from_millis(ms: u64) -> Time {
        Time(ms * NANOS_PER_MILLI)
    }

    /// A time point `s` seconds into the run (rounded to nanoseconds).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Time {
        Time((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The earlier of two time points.
    #[inline]
    pub fn min_of(a: Time, b: Time) -> Time {
        if a <= b {
            a
        } else {
            b
        }
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// The span in nanoseconds.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// A span of `ns` nanoseconds.
    #[inline]
    pub fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// A span of `us` microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Duration {
        Duration(us * NANOS_PER_MICRO)
    }

    /// A span of `us` microseconds, or `None` when that many nanoseconds
    /// do not fit in a `u64` (where [`Duration::from_micros`] overflows,
    /// and wraps in a release build).
    #[inline]
    pub fn checked_from_micros(us: u64) -> Option<Duration> {
        us.checked_mul(NANOS_PER_MICRO).map(Duration)
    }

    /// A span of `ms` milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Duration {
        Duration(ms * NANOS_PER_MILLI)
    }

    /// A span of `s` whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> Duration {
        Duration(s * NANOS_PER_SEC)
    }

    /// A span of `s` seconds (rounded to nanoseconds).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Duration {
        Duration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Whole microseconds, rounding down.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Whether the span is empty.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a dimensionless factor (used for the bound-thread cost
    /// factors 6.7× and 5.9× and for jitter).
    #[inline]
    pub fn scale(self, factor: f64) -> Duration {
        Duration((self.0 as f64 * factor).round() as u64)
    }

    /// Subtract, clamping at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    /// Seconds with microsecond precision, e.g. `1.234567`, matching the
    /// paper's log excerpts (fig. 2).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}", self.0 / NANOS_PER_SEC, (self.0 % NANOS_PER_SEC) / NANOS_PER_MICRO)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.0 as f64 / NANOS_PER_MILLI as f64)
        } else {
            write!(f, "{}us", self.0 as f64 / NANOS_PER_MICRO as f64)
        }
    }
}

/// Parse a `Time` from the `sec.micros` text-log format. A time past
/// `Time::MAX` is `None`, not a wrapped value.
pub fn parse_time(s: &str) -> Option<Time> {
    let (secs, frac) = s.split_once('.')?;
    let secs: u64 = secs.parse().ok()?;
    if frac.len() != 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let micros: u64 = frac.parse().ok()?;
    secs.checked_mul(NANOS_PER_SEC)?.checked_add(micros * NANOS_PER_MICRO).map(Time)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_micros_refuse_what_would_wrap() {
        let max = u64::MAX / NANOS_PER_MICRO;
        assert_eq!(Duration::checked_from_micros(1_000_000), Some(Duration::from_secs(1)));
        assert_eq!(Duration::checked_from_micros(max), Some(Duration(max * NANOS_PER_MICRO)));
        // One more microsecond is 2^64 + 384 ns: unchecked, it wraps to 384 ns.
        assert_eq!(max + 1, 18_446_744_073_709_552);
        assert_eq!(Duration::checked_from_micros(max + 1), None);
        assert_eq!(Duration::checked_from_micros(u64::MAX), None);
    }

    #[test]
    fn display_round_trips_at_microsecond_resolution() {
        let t = Time::from_micros(1_234_567);
        assert_eq!(t.to_string(), "1.234567");
        assert_eq!(parse_time(&t.to_string()), Some(t));
    }

    #[test]
    fn display_truncates_sub_microsecond_digits() {
        let t = Time(1_500); // 1.5 µs
        assert_eq!(t.to_string(), "0.000001");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(parse_time("1"), None);
        assert_eq!(parse_time("1.23"), None); // must be 6 digits
        assert_eq!(parse_time("1.23456x"), None);
        assert_eq!(parse_time("x.234567"), None);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Time(5) - Time(9), Duration(0));
        assert_eq!(Duration(3).saturating_sub(Duration(7)), Duration(0));
        assert_eq!(Time::MAX + Duration(1), Time::MAX);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Duration(10).scale(6.7), Duration(67));
        assert_eq!(Duration(10).scale(0.59), Duration(6));
        assert_eq!(Duration(1000).scale(5.9), Duration(5900));
    }

    #[test]
    fn duration_display_chooses_unit() {
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
        assert_eq!(Duration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(Duration::from_micros(4).to_string(), "4us");
    }

    #[test]
    fn since_is_saturating_difference() {
        assert_eq!(Time(10).since(Time(4)), Duration(6));
        assert_eq!(Time(4).since(Time(10)), Duration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [Duration(1), Duration(2), Duration(3)].into_iter().sum();
        assert_eq!(total, Duration(6));
    }
}
