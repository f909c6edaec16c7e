//! Error type for the RecShard pipeline.

use recshard_milp::MilpError;
use recshard_sharding::ShardingError;

/// Errors produced by the RecShard pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum RecShardError {
    /// The model cannot fit in the system even with every row in UVM.
    CapacityExceeded {
        /// Bytes required by the model.
        required_bytes: u64,
        /// Bytes available across all tiers.
        available_bytes: u64,
    },
    /// The underlying sharding plan machinery reported an error.
    Sharding(ShardingError),
    /// The exact MILP solver reported an error.
    Milp(MilpError),
    /// The profile does not match the model.
    ProfileMismatch(String),
    /// The configuration is invalid (e.g. zero ICDF steps).
    InvalidConfig(String),
    /// A table has no finite cost under a device class: its profile has a
    /// NaN coverage or an infinite pooling factor, or the class has a zero
    /// bandwidth.
    NonFiniteCost {
        /// Dense index of the table.
        table: usize,
        /// Name of the device class.
        class: &'static str,
    },
}

impl std::fmt::Display for RecShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecShardError::CapacityExceeded {
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "model requires {required_bytes} bytes but the system only offers {available_bytes}"
            ),
            RecShardError::Sharding(e) => write!(f, "sharding error: {e}"),
            RecShardError::Milp(e) => write!(f, "MILP solver error: {e}"),
            RecShardError::ProfileMismatch(msg) => write!(f, "profile mismatch: {msg}"),
            RecShardError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RecShardError::NonFiniteCost { table, class } => write!(
                f,
                "table {table} has no finite cost under device class {class:?}"
            ),
        }
    }
}

impl std::error::Error for RecShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecShardError::Sharding(e) => Some(e),
            RecShardError::Milp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShardingError> for RecShardError {
    fn from(e: ShardingError) -> Self {
        RecShardError::Sharding(e)
    }
}

impl From<MilpError> for RecShardError {
    fn from(e: MilpError) -> Self {
        RecShardError::Milp(e)
    }
}
