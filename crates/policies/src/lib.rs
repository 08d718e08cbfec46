//! Baseline cache controllers for the Blaze reproduction.
//!
//! These are the systems Blaze is compared against in the paper's evaluation
//! (§7.1), plus TinyLFU, one of the conventional policies §7.1 considered:
//!
//! - [`LruController`] — Spark's default LRU eviction; with
//!   [`EvictMode::MemOnly`] it is **MEM_ONLY Spark** (discard + recompute),
//!   with [`EvictMode::MemDisk`] it is **MEM+DISK Spark** (spill + reload).
//! - [`TinyLfuController`] — a frequency sketch with an admission filter
//!   that refuses blocks less popular than their would-be victim, on
//!   MEM+DISK Spark.
//! - [`LrcController`] — dependency-aware **Least Reference Count** (Yu et
//!   al., INFOCOM '17): evicts the block whose RDD has the fewest remaining
//!   references *within the current job*.
//! - [`MrdController`] — dependency-aware **Most Reference Distance** (Perez
//!   et al., ICPP '18): evicts the block referenced farthest in the future
//!   (in stages) and prefetches the nearest-referenced spilled blocks.
//! - [`AlluxioController`] — an Alluxio-style external tiered store: all
//!   cached data is serialized (even the memory tier), shrinking footprints
//!   but charging (de)serialization on every access.
//!
//! All controllers obey user `cache()` annotations (none of them decides
//! *what* to cache — that is Blaze's contribution); they only decide *what to
//! evict* and *where victims go*.

#![warn(missing_docs)]

pub mod alluxio;
pub mod lrc;
pub mod lru;
pub mod mode;
pub mod mrd;
pub mod tinylfu;

pub use alluxio::AlluxioController;
pub use lrc::LrcController;
pub use lru::LruController;
pub use mode::EvictMode;
pub use mrd::MrdController;
pub use tinylfu::TinyLfuController;
