//! Shared error type.
//!
//! The public APIs of the dataflow and engine crates are fallible: plan
//! construction errors (unknown RDD, type mismatch across the type-erased
//! plan boundary), execution errors and solver failures all surface as
//! [`BlazeError`] rather than panics, following the fallible-by-default
//! convention of production Rust systems code.

use std::fmt;

/// The error type shared across the Blaze reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlazeError {
    /// A referenced dataset does not exist in the lineage plan.
    UnknownRdd(String),
    /// The dynamic type of a materialized partition did not match the
    /// statically expected element type.
    TypeMismatch {
        /// Which dataset/partition the mismatch was observed on.
        context: String,
    },
    /// A plan was structurally invalid (e.g. a cycle, or a shuffle read with
    /// no registered map output).
    InvalidPlan(String),
    /// The execution engine entered an inconsistent state.
    Execution(String),
    /// A configuration value was out of range or inconsistent.
    Config(String),
    /// The LP/ILP solver could not produce a solution.
    Solver(String),
    /// The preflight auditor found an error-severity diagnostic (see
    /// `blaze-audit`); the job was aborted before execution.
    Audit {
        /// The stable diagnostic code (e.g. `BA009`).
        code: String,
        /// The diagnostic message.
        message: String,
    },
}

impl fmt::Display for BlazeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlazeError::UnknownRdd(what) => write!(f, "unknown RDD: {what}"),
            BlazeError::TypeMismatch { context } => {
                write!(f, "partition type mismatch at {context}")
            }
            BlazeError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            BlazeError::Execution(msg) => write!(f, "execution error: {msg}"),
            BlazeError::Config(msg) => write!(f, "configuration error: {msg}"),
            BlazeError::Solver(msg) => write!(f, "solver error: {msg}"),
            BlazeError::Audit { code, message } => {
                write!(f, "audit failure [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for BlazeError {}

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, BlazeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let e = BlazeError::UnknownRdd("rdd-9".into());
        assert_eq!(e.to_string(), "unknown RDD: rdd-9");
        let e = BlazeError::TypeMismatch { context: "rdd-3[1]".into() };
        assert!(e.to_string().contains("rdd-3[1]"));
        let e = BlazeError::Solver("infeasible".into());
        assert!(e.to_string().contains("infeasible"));
        let e = BlazeError::Audit { code: "BA009".into(), message: "negative ser_factor".into() };
        assert!(e.to_string().contains("BA009") && e.to_string().contains("negative ser_factor"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&BlazeError::Execution("x".into()));
    }
}
