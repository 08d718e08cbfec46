//! Baseline cache controllers for the Blaze reproduction.
//!
//! These are the systems Blaze is compared against in the paper's evaluation
//! (§7.1), plus the "considered" conventional policies (§7.1 lists LRU, FIFO,
//! LFUDA, TinyLFU and LeCaR among them):
//!
//! - [`LruController`] — Spark's default LRU eviction; with
//!   [`EvictMode::MemOnly`] it is **MEM_ONLY Spark** (discard + recompute),
//!   with [`EvictMode::MemDisk`] it is **MEM+DISK Spark** (spill + reload).
//! - [`FifoController`], [`LfuController`] (with optional dynamic aging =
//!   LFUDA), [`TinyLfuController`], [`LeCaRController`] — conventional
//!   history-based policies.
//! - [`GdWheelController`] — GreedyDual-style cost-aware eviction (the
//!   GDWheel family).
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
pub mod fifo;
pub mod gdwheel;
pub mod lecar;
pub mod lfu;
pub mod lrc;
pub mod lru;
pub mod mode;
pub mod mrd;
pub mod tinylfu;

pub use alluxio::AlluxioController;
pub use fifo::FifoController;
pub use gdwheel::GdWheelController;
pub use lecar::LeCaRController;
pub use lfu::LfuController;
pub use lrc::LrcController;
pub use lru::LruController;
pub use mode::EvictMode;
pub use mrd::MrdController;
pub use tinylfu::TinyLfuController;
