//! A lazily evaluated, lineage-tracked dataflow API in the style of Spark RDDs.
//!
//! This crate is the first substrate of the Blaze reproduction: it provides
//! the *logical* layer — typed [`Dataset`]s whose transformations build a
//! type-erased lineage [`plan::Plan`] — while execution, caching and cost
//! accounting live in `blaze-engine`.
//!
//! # Model (paper §2.1–§2.2)
//!
//! - A [`Dataset<T>`] is a handle to a logical RDD: a set of partitions of
//!   `T` values produced by an operator over parent RDDs.
//! - Every transformation (`map`, `filter`, `reduce_by_key`, `join`, ...) is
//!   lazy: it only appends nodes to the shared lineage plan.
//! - Only actions (`collect`, `count`, `reduce`, ...) submit a *job* through the
//!   [`runner::JobRunner`] installed in the [`Context`]; in iterative
//!   workloads each iteration triggers one job over an identically shaped
//!   sub-DAG.
//! - Jobs split into *stages* at shuffle dependencies ([`planner`]).
//! - `cache()` / `unpersist()` annotate datasets exactly like Spark's user
//!   APIs; whether annotations are obeyed is up to the installed cache
//!   controller (baselines obey, Blaze decides automatically).
//!
//! # Example
//!
//! ```
//! use blaze_dataflow::{Context, runner::LocalRunner};
//!
//! let ctx = Context::new(LocalRunner::default());
//! let numbers = ctx.parallelize((0u64..100).collect::<Vec<_>>(), 4);
//! let even_squares = numbers.filter(|n| n % 2 == 0).map(|n| n * n);
//! let total: u64 = even_squares.collect().unwrap().into_iter().sum();
//! assert_eq!(total, (0..100).filter(|n| n % 2 == 0).map(|n| n * n).sum::<u64>());
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod context;
pub mod dataset;
pub mod pair;
pub mod partitioner;
pub mod plan;
pub mod planner;
pub mod runner;

pub use block::{Block, Buckets, Data};
pub use context::Context;
pub use dataset::Dataset;
pub use partitioner::HashPartitioner;
pub use plan::{Compute, CostSpec, Dep, Plan, RddNode};
pub use planner::{JobPlan, StagePlan};
