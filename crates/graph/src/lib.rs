//! Graph processing on the Blaze dataflow API.
//!
//! Provides the two graph workloads of the paper's evaluation (§7.1) plus
//! the substrate they run on:
//!
//! - [`datagen`] — deterministic power-law graph generation (the SparkBench
//!   synthetic-graph stand-in);
//! - [`pregel`] — a GraphX-style bulk-synchronous vertex-program loop;
//! - [`pagerank`] — PageRank in the classic Spark formulation (paper Fig. 1),
//!   one job per iteration, with the GraphX-style cache/unpersist pattern;
//! - [`cc`] — ConnectedComponents as a Pregel min-label propagation;
//! - [`svdpp`] — SVD++-style matrix factorization with implicit feedback on
//!   the user-item bipartite graph (the paper's recommendation workload).

#![warn(missing_docs)]

pub mod cc;
pub mod datagen;
pub mod pagerank;
pub mod pregel;
pub mod svdpp;
pub mod types;

pub use types::{Edge, VertexId};
