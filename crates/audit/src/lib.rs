//! Static plan/DAG verification and determinism linting for the Blaze
//! reproduction.
//!
//! Blaze's whole mechanism — the profiler, the `CostLineage`, and the
//! caching optimizer — treats the lineage DAG as a trustworthy static
//! artifact that is analyzed *before and between* executions (paper
//! §5.2–§5.3). This crate is the correctness-tooling layer that earns that
//! trust:
//!
//! - [`plan_audit`] (layer 1) checks the values of a plan's nodes and
//!   detects caching anti-patterns before a job runs, reporting
//!   [`Diagnostic`]s with stable codes. The engine runs it as a preflight
//!   pass on every job submission: errors abort with a typed `BlazeError`,
//!   warnings are recorded as trace events and counted in metrics. The
//!   plan's shape needs no check: `Plan::add_node` refuses every malformed
//!   node.
//! - [`lint`] (layer 2) is a line-oriented source scanner (`blaze-lint`
//!   binary) enforcing the deterministic-simulation contract across the
//!   workspace: no seeded-per-process hash containers in decision-making
//!   crates, no wall-clock reads outside the bench harness, no bare
//!   `unwrap` in the engine, no OS-seeded randomness.
//!
//! See DESIGN.md ("Static analysis & invariants") for the full catalogue
//! of diagnostic codes.

#![warn(missing_docs)]

pub mod diagnostic;
pub mod lint;
pub mod plan_audit;

pub use diagnostic::{AuditReport, DiagCode, Diagnostic, Severity};
pub use plan_audit::{
    audit_application, audit_caching, audit_degradation, audit_job, audit_recovery, audit_values,
    AuditConfig, DegradationAuditInput,
};
