//! The configured evaluation applications and systems of the paper (§7.1).
//!
//! - [`apps`] — the six iterative applications (PR, CC, LR, KMeans, GBT,
//!   SVD++) at laptop-scale evaluation configurations (scaled ~1000x down
//!   from the paper's datasets, with per-application memory-store capacities
//!   chosen so the peak cached working set exceeds memory, as in §7.1);
//! - [`systems`] — the compared systems: MEM_ONLY/MEM+DISK Spark (LRU),
//!   Spark+Alluxio, LRC, MRD, Blaze, and the §7.3/§7.4/§7.5 variants;
//! - [`runner`] — one-call execution of (application × system) returning
//!   the engine metrics behind every figure.

#![warn(missing_docs)]

pub mod apps;
pub mod runner;
pub mod session;
pub mod systems;

pub use apps::{App, AppSpec};
pub use runner::{run_app, RunOutcome};
pub use session::{Session, SessionBuilder};
pub use systems::SystemKind;
