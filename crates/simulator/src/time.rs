//! Simulated time.
//!
//! The engine advances a virtual clock with millisecond resolution. Wrapping time in
//! dedicated newtypes ([`SimTime`] for instants, [`SimDuration`] for spans) keeps the rest
//! of the codebase free of unit confusion.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, measured in milliseconds since the start of the run.
///
/// # Examples
///
/// ```
/// use croupier_simulator::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_millis(), 2_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(2_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
///
/// # Examples
///
/// ```
/// use croupier_simulator::SimDuration;
///
/// let d = SimDuration::from_secs(1) + SimDuration::from_millis(500);
/// assert_eq!(d.as_millis(), 1_500);
/// assert_eq!(d.to_string(), "1500ms");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from milliseconds since the start of the run.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from whole seconds since the start of the run.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Milliseconds since the start of the run.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a floating point number.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant `duration` later than `self`, saturating on overflow.
    pub const fn saturating_add(self, duration: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(duration.0))
    }

    /// Returns the span elapsed since `earlier`, or [`SimDuration::ZERO`] if `earlier` is in
    /// the future.
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a span from a floating point number of milliseconds, rounding to the nearest
    /// whole millisecond and clamping negative values to zero.
    pub(crate) fn from_millis_f64(ms: f64) -> Self {
        if ms.is_nan() || ms <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration(ms.round() as u64)
        }
    }

    /// The span in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub(crate) const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(100) + SimDuration::from_millis(50);
        assert_eq!(t, SimTime::from_millis(150));
        assert_eq!(t - SimTime::from_millis(100), SimDuration::from_millis(50));
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let earlier = SimTime::from_millis(10);
        let later = SimTime::from_millis(50);
        assert_eq!(earlier - later, SimDuration::ZERO);
        assert_eq!(earlier.saturating_since(later), SimDuration::ZERO);
    }

    #[test]
    fn duration_from_float_rounds_and_clamps() {
        assert_eq!(SimDuration::from_millis_f64(1.4).as_millis(), 1);
        assert_eq!(SimDuration::from_millis_f64(1.6).as_millis(), 2);
        assert_eq!(SimDuration::from_millis_f64(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn seconds_conversions() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::ZERO.as_millis(), 0);
    }

    #[test]
    fn add_assign_advances_time() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(250);
        assert_eq!(t.as_millis(), 250);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(42).to_string(), "42ms");
    }

    #[test]
    fn saturating_mul_does_not_overflow() {
        let d = SimDuration::from_millis(u64::MAX / 2);
        assert_eq!(d.saturating_mul(4).as_millis(), u64::MAX);
    }
}
