//! Typed configuration errors of the cluster simulator.
//!
//! Bandwidths, latencies and arrival parameters come from user-facing
//! configuration; a zero or negative bandwidth used to slip through and
//! silently turn into `inf`/NaN transfer seconds (which the float→integer
//! cast then collapsed to `0` or `u64::MAX` nanoseconds). Validation now
//! happens up front in [`ClusterSimulator::try_new`](crate::ClusterSimulator::try_new)
//! and [`ReshardController::try_new`](crate::ReshardController::try_new)
//! and surfaces one of these variants instead.

/// A rejected cluster-simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum DesError {
    /// A configured bandwidth is zero, negative or non-finite. Dividing by
    /// it would produce non-finite transfer seconds.
    NonPositiveBandwidth {
        /// Which configuration field was rejected.
        name: &'static str,
        /// The offending value, GB/s.
        value: f64,
    },
    /// A configured duration (latency/overhead) is negative or non-finite.
    InvalidDuration {
        /// Which configuration field was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An arrival-process parameter is negative or non-finite; drawing gaps
    /// from it would panic or hang the open-loop schedule.
    InvalidArrival {
        /// Which arrival parameter was rejected.
        name: &'static str,
        /// The offending value, milliseconds.
        value: f64,
    },
    /// Plan and system disagree on the number of GPUs.
    GpuCountMismatch {
        /// GPUs the plan shards across.
        plan: usize,
        /// GPUs the system provides.
        system: usize,
    },
    /// The run would simulate nothing (zero iterations or an empty batch).
    EmptyRun {
        /// Human-readable description of the degenerate dimension.
        what: &'static str,
    },
    /// A re-sharding policy field is below 1 (or NaN): a zero check
    /// interval never checks, a threshold below 1 always fires.
    InvalidReshardPolicy {
        /// Which policy field was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for DesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesError::NonPositiveBandwidth { name, value } => write!(
                f,
                "{name} must be a positive finite bandwidth in GB/s, got {value}"
            ),
            DesError::InvalidDuration { name, value } => write!(
                f,
                "{name} must be a non-negative finite duration, got {value}"
            ),
            DesError::InvalidArrival { name, value } => write!(
                f,
                "{name} must be a non-negative finite interval in ms, got {value}"
            ),
            DesError::GpuCountMismatch { plan, system } => write!(
                f,
                "plan/system GPU count mismatch: plan shards {plan} GPUs, system has {system}"
            ),
            DesError::EmptyRun { what } => write!(f, "{what}"),
            DesError::InvalidReshardPolicy { name, value } => {
                write!(f, "re-shard policy {name} must be at least 1, got {value}")
            }
        }
    }
}

impl std::error::Error for DesError {}

/// `Ok(value)` when `value` is a positive finite bandwidth.
pub(crate) fn check_bandwidth(name: &'static str, value: f64) -> Result<f64, DesError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(DesError::NonPositiveBandwidth { name, value })
    }
}

/// `Ok(value)` when `value` is a non-negative finite duration.
pub(crate) fn check_duration(name: &'static str, value: f64) -> Result<f64, DesError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(DesError::InvalidDuration { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_check_rejects_nonpositive_and_nonfinite() {
        assert!(check_bandwidth("bw", 25.0).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = check_bandwidth("bw", bad).unwrap_err();
            assert!(matches!(
                err,
                DesError::NonPositiveBandwidth { name: "bw", .. }
            ));
        }
    }

    #[test]
    fn duration_check_accepts_zero_but_rejects_negative_and_nonfinite() {
        assert!(check_duration("lat", 0.0).is_ok());
        assert!(check_duration("lat", 20.0).is_ok());
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            assert!(check_duration("lat", bad).is_err());
        }
    }

    #[test]
    fn display_is_actionable() {
        let msg = DesError::NonPositiveBandwidth {
            name: "alltoall_bandwidth_gbps",
            value: 0.0,
        }
        .to_string();
        assert!(msg.contains("alltoall_bandwidth_gbps"));
        assert!(msg.contains("positive"));
        let msg = DesError::GpuCountMismatch { plan: 4, system: 2 }.to_string();
        assert!(msg.contains("plan/system GPU count mismatch"));
    }
}
