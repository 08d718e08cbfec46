//! The Blaze mechanism (EuroSys '24): holistic, cost-aware caching for
//! iterative dataflow processing.
//!
//! This crate is the paper's primary contribution, rebuilt on the
//! `blaze-dataflow` / `blaze-engine` substrates:
//!
//! - [`costlineage`] — the CostLineage tracking partition metrics (§5.3);
//! - [`pattern`] — repeated-iteration detection (§5.3);
//! - [`induct`] — inductive regression for unobserved metrics (§5.3);
//! - [`refs`] — future-reference derivation over the job sequence;
//! - [`cost`] — the potential-recovery-cost model (Eq. 2–4, §5.4);
//! - [`optimize`] — the ILP-based optimal-state solver (Eq. 5–6, §5.5);
//! - [`profiler`] — the dependency-extraction phase (§5.1);
//! - [`controller`] — the unified decision layer as a
//!   [`blaze_engine::CacheController`] (§5.6), including the §7.3 ablations.
//!
//! # Example
//!
//! ```
//! use blaze_core::{BlazeConfig, BlazeController, extract_dependencies};
//! use blaze_engine::{Cluster, ClusterConfig};
//! use blaze_dataflow::Context;
//!
//! // 1. Dependency extraction on a sample-scale run (paper §5.1 ①).
//! let profile = extract_dependencies(
//!     |ctx| {
//!         let mut cur = ctx.parallelize((0..32u64).collect::<Vec<_>>(), 2);
//!         for _ in 0..3 {
//!             cur = cur.map(|x| x + 1);
//!             cur.cache();
//!             cur.count()?;
//!         }
//!         Ok(())
//!     },
//!     0,
//! )
//! .unwrap();
//!
//! // 2. Run the full-scale workload under the Blaze controller.
//! let controller = BlazeController::new(BlazeConfig::full(), Some(profile));
//! let cluster = Cluster::new(ClusterConfig::default(), Box::new(controller)).unwrap();
//! let ctx = Context::new(cluster.clone());
//! let mut cur = ctx.parallelize((0..100_000u64).collect::<Vec<_>>(), 2);
//! for _ in 0..3 {
//!     cur = cur.map(|x| x + 1);
//!     cur.cache();
//!     cur.count().unwrap();
//! }
//! assert!(cluster.metrics().completion_time.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod cost;
pub mod costlineage;
pub mod incremental;
pub mod induct;
pub mod optimize;
pub mod pattern;
pub mod profiler;
pub mod refs;

pub use controller::{BlazeConfig, BlazeController, BlazeLevel};
pub use cost::CostModel;
pub use costlineage::{CostLineage, PartitionState};
pub use incremental::{DecisionStats, IncrementalOptimizer};
pub use optimize::{LadderReport, OptimizerConfig, SolveRung, SolveStrategy};
pub use pattern::IterationPattern;
pub use profiler::{extract_dependencies, ProfileResult};
pub use refs::JobRefs;
