//! Errors at the profiler boundary.

/// Errors produced by the statistics stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsError {
    /// A profiler sampling rate outside `(0, 1]`, NaN and infinities
    /// included.
    InvalidSamplingRate(f64),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InvalidSamplingRate(rate) => {
                write!(f, "sampling rate must be in (0, 1], got {rate}")
            }
        }
    }
}

impl std::error::Error for StatsError {}
