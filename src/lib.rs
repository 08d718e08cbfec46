//! Facade crate for the Blaze reproduction.
//!
//! Re-exports every workspace crate under one roof so downstream users can
//! depend on a single `blaze` crate. See the individual crates for detail:
//!
//! - [`audit`] — static plan verification and the determinism source lint.
//! - [`common`] — ids, simulated time, sizes, statistics.
//! - [`dataflow`] — the lazily evaluated, lineage-tracked `Dataset` API.
//! - [`engine`] — the simulated-cluster execution engine and metrics.
//! - [`policies`] — baseline cache controllers (LRU, LRC, MRD, Alluxio, ...).
//! - [`solver`] — the LP/ILP solver backing Blaze's optimization.
//! - [`core`] — the Blaze mechanism itself (CostLineage, cost model, UDL).
//! - [`graph`] — Pregel, PageRank, ConnectedComponents, SVD++.
//! - [`ml`] — logistic regression, KMeans, gradient boosted trees.
//! - [`workloads`] — the six configured evaluation applications and systems.

#![warn(missing_docs)]

pub use blaze_audit as audit;
pub use blaze_certify as certify;
pub use blaze_common as common;
pub use blaze_core as core;
pub use blaze_dataflow as dataflow;
pub use blaze_engine as engine;
pub use blaze_graph as graph;
pub use blaze_ml as ml;
pub use blaze_policies as policies;
pub use blaze_solver as solver;
pub use blaze_workloads as workloads;
