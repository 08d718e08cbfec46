//! The simulated-cluster execution engine of the Blaze reproduction.
//!
//! This crate executes [`blaze_dataflow`] plans on a configurable cluster of
//! simulated executors. Data processing is *real* (tasks materialize real
//! partitions, cache misses re-run real lineage); time and placement are
//! *simulated* through a deterministic hardware model, which is what lets a
//! laptop reproduce the shape of the paper's 11-node EC2 evaluation.
//!
//! Key pieces:
//!
//! - [`config::ClusterConfig`] / [`config::HardwareModel`] — the topology and
//!   throughput constants of the simulated cluster.
//! - [`cluster::Cluster`] — the engine; implements
//!   [`blaze_dataflow::runner::JobRunner`]. One cluster runs one
//!   application: its jobs run one after another, numbered from zero.
//! - [`controller::CacheController`] — the unified decision surface for
//!   caching, eviction and recovery; implemented by every baseline policy in
//!   `blaze-policies` and by Blaze itself in `blaze-core`.
//! - [`metrics::Metrics`] — the measurements behind every evaluation figure.
//!
//! # Example
//!
//! ```
//! use blaze_engine::{Cluster, ClusterConfig, NoCacheController};
//! use blaze_dataflow::Context;
//!
//! let cluster = Cluster::new(ClusterConfig::default(), Box::new(NoCacheController)).unwrap();
//! let ctx = Context::new(cluster.clone());
//! let data = ctx.range(0..1000, 8);
//! assert_eq!(data.count().unwrap(), 1000);
//! assert!(cluster.metrics().completion_time.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
// Clippy's default 100-line ceiling, so no engine function grows back into a
// `materialize` (`scripts/ci.sh` runs clippy with `-D warnings`).
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod accounting;
pub mod cluster;
mod commit;
pub mod config;
pub mod controller;
mod exec;
pub mod fault;
pub mod metrics;
pub mod shuffle;
pub mod storage;
mod store_ops;
pub mod tracing;

pub use cluster::Cluster;
pub use config::{ClusterConfig, HardwareModel};
pub use controller::{
    victims_by_key, Admission, BlockInfo, CacheController, CtrlCtx, DegradationNote,
    NoCacheController, PartitionEvent, Residency, StateCommand, StoreTier, VictimAction,
};
pub use fault::{ExecutorCrash, FaultCause, FaultPlan};
pub use metrics::{Metrics, RecoveryMetrics, SpeculationMetrics, TaskCharge, TaskTrace};
pub use tracing::{CacheDecision, CacheRecord, TraceEvent, TraceLog};
