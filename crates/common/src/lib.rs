//! Foundational types shared by every crate in the Blaze reproduction.
//!
//! This crate deliberately has no dependency on the dataflow or engine layers
//! so that identifiers, simulated time, byte accounting, size estimation and
//! the small statistics toolbox can be used everywhere without cycles.
//!
//! # Overview
//!
//! - [`ids`] — strongly typed identifiers for RDDs, partitions, blocks, jobs
//!   and executors.
//! - [`time`] — [`time::SimTime`] / [`time::SimDuration`],
//!   the simulated clock used by the execution engine instead of wall time.
//! - [`bytes`] — [`bytes::ByteSize`] with human-readable display.
//! - [`sizeof`] — the [`sizeof::SizeOf`] trait used to estimate the
//!   in-memory footprint of materialized partitions.
//! - [`stats`] — online statistics and the least-squares linear regression
//!   used by Blaze's inductive metric prediction (paper §5.3).
//! - [`rng`] — deterministic, seedable random-number helpers.
//! - [`error`] — the shared [`error::BlazeError`] type.

#![warn(missing_docs)]

pub mod bytes;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod rng;
pub mod sizeof;
pub mod stats;
pub mod time;

pub use bytes::ByteSize;
pub use error::{BlazeError, Result};
pub use ids::{BlockId, ExecutorId, JobId, RddId};
pub use sizeof::SizeOf;
pub use time::{SimDuration, SimTime};
