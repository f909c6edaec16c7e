//! Virtual simulation time.

/// A point in virtual time, in integer nanoseconds since simulation start.
///
/// Integer nanoseconds (rather than `f64` milliseconds) make event ordering
/// exact: two events scheduled from the same timing computation compare
/// identically on every platform, which the determinism guarantee of the
/// engine relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Converts from microseconds (saturating at zero for negative inputs).
    pub fn from_us(us: f64) -> Self {
        SimTime((us.max(0.0) * 1e3).round() as u64)
    }

    /// The time as fractional milliseconds.
    pub fn as_ms(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The time as fractional seconds.
    pub fn as_secs(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Raw nanoseconds.
    pub fn as_ns(&self) -> u64 {
        self.0
    }

    /// This time advanced by `ns` nanoseconds (saturating, so an absurdly
    /// large delay pins to the far future instead of wrapping around and
    /// violating event-queue causality).
    pub fn after_ns(&self, ns: u64) -> SimTime {
        SimTime(self.0.saturating_add(ns))
    }

    /// Nanoseconds elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (a causality bug).
    pub fn since(&self, earlier: SimTime) -> u64 {
        self.0
            .checked_sub(earlier.0)
            // recshard-lint: allow(unwrap) -- documented panic: a reversed
            // interval is a causality bug, not a recoverable condition.
            .expect("SimTime::since called with a later timestamp")
    }

    /// Converts fractional seconds to integer nanoseconds, clamping negative
    /// and NaN inputs to 0 and overly large inputs to `u64::MAX`.
    ///
    /// For non-negative finite inputs below `u64::MAX` ns this computes
    /// exactly `(seconds * 1e9).round() as u64` — the expression the
    /// simulator has always used — so routing existing call sites through
    /// this helper cannot perturb event timestamps or fingerprints.
    pub fn saturating_ns_from_secs(seconds: f64) -> u64 {
        if seconds.is_nan() {
            return 0;
        }
        // `as u64` already saturates at both ends for non-NaN floats.
        (seconds.max(0.0) * 1e9).round() as u64
    }

    /// Converts fractional milliseconds to integer nanoseconds, clamping
    /// negative and NaN inputs to 0 and overly large inputs to `u64::MAX`.
    ///
    /// For non-negative finite inputs this computes exactly
    /// `(ms * 1e6).round() as u64` — the expression arrival-gap drawing has
    /// always used — so the conversion is fingerprint-preserving.
    pub fn saturating_ns_from_ms(ms: f64) -> u64 {
        if ms.is_nan() {
            return 0;
        }
        (ms.max(0.0) * 1e6).round() as u64
    }
}

/// Saturating, like [`SimTime::after_ns`]: a sum past the end of virtual
/// time clamps to `u64::MAX` ns rather than wrapping to an earlier instant
/// (release) or panicking (debug).
impl std::ops::Add<SimTime> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime(SimTime::saturating_ns_from_ms(1.5));
        assert_eq!(t.as_ns(), 1_500_000);
        assert!((t.as_ms() - 1.5).abs() < 1e-12);
        assert!((SimTime::from_us(250.0).as_ms() - 0.25).abs() < 1e-12);
        assert!((SimTime(2_000_000_000).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime(1_000_000).after_ns(500);
        assert_eq!(t.as_ns(), 1_000_500);
        assert_eq!(t.since(SimTime(1_000_000)), 500);
        assert_eq!((SimTime(3) + SimTime(4)).as_ns(), 7);
    }

    #[test]
    fn addition_saturates_at_the_end_of_time() {
        let end = SimTime(u64::MAX);
        assert_eq!(end + SimTime(1), end);
        assert_eq!(SimTime(1) + end, end);
        assert_eq!(end + end, end);
        assert_eq!(SimTime(u64::MAX - 1) + SimTime(1), end);
        // Same clamp as `after_ns`.
        assert_eq!(SimTime(7) + end, SimTime(7).after_ns(u64::MAX));
    }

    #[test]
    fn negative_ms_saturates_to_zero() {
        assert_eq!(SimTime(SimTime::saturating_ns_from_ms(-3.0)), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "later timestamp")]
    fn since_panics_on_causality_violation() {
        let _ = SimTime(1).since(SimTime(2));
    }

    #[test]
    fn saturating_ns_clamps_instead_of_aliasing() {
        assert_eq!(SimTime::saturating_ns_from_secs(1.5), 1_500_000_000);
        assert_eq!(SimTime::saturating_ns_from_secs(-3.0), 0);
        assert_eq!(SimTime::saturating_ns_from_secs(f64::NAN), 0);
        assert_eq!(SimTime::saturating_ns_from_secs(1e30), u64::MAX);
        assert_eq!(SimTime::saturating_ns_from_secs(f64::INFINITY), u64::MAX);
        assert_eq!(SimTime::saturating_ns_from_ms(2.5), 2_500_000);
        assert_eq!(SimTime::saturating_ns_from_ms(-1.0), 0);
        assert_eq!(SimTime::saturating_ns_from_ms(f64::NAN), 0);
        assert_eq!(SimTime::saturating_ns_from_ms(1e30), u64::MAX);
    }

    #[test]
    fn saturating_matches_legacy_expression_on_normal_inputs() {
        // The helper must be a drop-in for `(x * 1e9).round() as u64` /
        // `(x * 1e6).round() as u64` wherever those appeared, or replay
        // fingerprints would shift by ulps.
        for &s in &[0.0, 1e-9, 0.25, 1.0, 3.75, 1234.5678, 9.9e8] {
            assert_eq!(
                SimTime::saturating_ns_from_secs(s),
                (s * 1e9).round() as u64
            );
        }
        for &ms in &[0.0, 0.001, 0.25, 2.5, 800.0, 123456.789] {
            assert_eq!(
                SimTime::saturating_ns_from_ms(ms),
                (ms * 1e6).round() as u64
            );
        }
    }
}
