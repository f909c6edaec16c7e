//! Error type shared by sharders and plan validation.

use recshard_data::FeatureId;

/// Errors produced while constructing or validating sharding plans.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardingError {
    /// A table does not fit anywhere in the system (even split across tiers).
    CapacityExceeded {
        /// The table that could not be placed.
        table: FeatureId,
        /// Bytes that could not be accommodated.
        overflow_bytes: u64,
    },
    /// The aggregate model does not fit in the system's total memory.
    SystemTooSmall {
        /// Bytes required by the model.
        required_bytes: u64,
        /// Bytes available across all tiers and GPUs.
        available_bytes: u64,
    },
    /// A plan is structurally invalid (table missing/duplicated, GPU index out
    /// of range, row counts inconsistent, capacity violated).
    InvalidPlan(String),
    /// The model and profile disagree (e.g. different feature counts).
    ProfileMismatch(String),
    /// A table's sort key is NaN or infinite: its greedy cost, or its
    /// node-assignment traffic (`coverage × row_bytes`), typically from a
    /// NaN coverage or an infinite pooling factor in the profile.
    NonFiniteCost {
        /// The table whose cost or traffic is not finite.
        table: FeatureId,
    },
}

impl std::fmt::Display for ShardingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardingError::CapacityExceeded {
                table,
                overflow_bytes,
            } => {
                write!(
                    f,
                    "table {table} exceeds available capacity by {overflow_bytes} bytes"
                )
            }
            ShardingError::SystemTooSmall {
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "model needs {required_bytes} bytes but the system only has {available_bytes}"
            ),
            ShardingError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            ShardingError::ProfileMismatch(msg) => write!(f, "profile mismatch: {msg}"),
            ShardingError::NonFiniteCost { table } => {
                write!(f, "table {table} has a non-finite cost or traffic")
            }
        }
    }
}

impl std::error::Error for ShardingError {}
