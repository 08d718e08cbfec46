//! The figure-regeneration harness of the Blaze reproduction.
//!
//! Every evaluation figure of the paper, and every other table committed
//! under `results/`, has one binary that prints it (see `src/bin/`); this
//! library holds what they share:
//!
//! - [`table`] — plain-text table rendering for figure output;
//! - [`paper`] — the values the paper reports, for side-by-side comparison
//!   (EXPERIMENTS.md is written from these harnesses' output);
//! - [`harness`] — run helpers collecting the metrics each figure needs;
//! - [`csv`] — optional CSV emission (`BLAZE_CSV_DIR`) for re-plotting.
//!
//! Absolute numbers are not expected to match the paper (the substrate is a
//! simulated laptop-scale cluster, not 11 EC2 nodes); the *shape* — who
//! wins, by roughly what factor, where crossovers fall — is the target.

#![warn(missing_docs)]

pub mod csv;
pub mod harness;
pub mod paper;
pub mod table;
