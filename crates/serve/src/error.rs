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
    /// The shard caches would have no lock stripe (`stripes == 0`).
    NoStripes,
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
            ServeError::NoStripes => write!(f, "cache needs at least one stripe"),
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
