//! Typed configuration errors of the inference server.
//!
//! [`InferenceServer::try_run`](crate::InferenceServer::try_run) checks its
//! inputs before it builds a cache or spawns a worker and returns one of
//! these instead of panicking; [`InferenceServer::run`](crate::InferenceServer::run)
//! panics with the same message.

use recshard_data::ScenarioError;

/// A rejected serving run.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The run would serve nothing (`queries == 0`).
    NoQueries,
    /// A query would contain no samples (`batch_size == 0`).
    EmptyBatch,
    /// An arrival interval is NaN, negative or infinite.
    InvalidArrival {
        /// Which arrival parameter was rejected.
        name: &'static str,
        /// The offending value, microseconds.
        value: f64,
    },
    /// A stat-guided run's `pin_capacity_fraction` is not in `[0, 1]`.
    InvalidPinFraction(f64),
    /// Plan and system disagree on the number of shards.
    ShardCountMismatch {
        /// Shards the plan routes to.
        plan: usize,
        /// GPUs the system provides.
        system: usize,
    },
    /// The plan's routing and the model disagree on the table count.
    RoutingMismatch {
        /// Tables the plan routes.
        routing: usize,
        /// Features of the model.
        model: usize,
    },
    /// The plan routes a table to a shard the plan does not have.
    ShardOutOfRange {
        /// The table.
        table: usize,
        /// The shard it is routed to.
        shard: usize,
        /// Shards the plan has.
        shards: usize,
    },
    /// A stat-guided run's profile and the model disagree on the table count.
    ProfileMismatch {
        /// Tables the profile covers.
        profile: usize,
        /// Features of the model.
        model: usize,
    },
    /// The scenario spec failed validation.
    InvalidScenario(ScenarioError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoQueries => write!(f, "must serve at least one query"),
            ServeError::EmptyBatch => write!(f, "a query must contain at least one sample"),
            ServeError::InvalidArrival { name, value } => write!(
                f,
                "{name} must be a non-negative finite interval in us, got {value}"
            ),
            ServeError::InvalidPinFraction(value) => write!(
                f,
                "pin_capacity_fraction must be a finite fraction in [0, 1], got {value}"
            ),
            ServeError::ShardCountMismatch { plan, system } => write!(
                f,
                "plan/system shard count mismatch: plan routes to {plan} shards, system has {system} GPUs"
            ),
            ServeError::RoutingMismatch { routing, model } => write!(
                f,
                "routing/model mismatch: plan routes {routing} tables, model has {model}"
            ),
            ServeError::ShardOutOfRange {
                table,
                shard,
                shards,
            } => write!(
                f,
                "routing targets an out-of-range shard: table {table} on shard {shard} of {shards}"
            ),
            ServeError::ProfileMismatch { profile, model } => write!(
                f,
                "routing/profile mismatch: profile covers {profile} tables, model has {model}"
            ),
            ServeError::InvalidScenario(e) => write!(f, "invalid scenario spec: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}
