//! LP/ILP solving for the Blaze reproduction (the Gurobi stand-in, §6).
//!
//! - [`lp`] — a dense two-phase primal simplex solver.
//! - [`ilp`] — branch-and-bound 0/1 integer programming on top of the LP
//!   relaxation under a node budget (an exhausted search with no incumbent
//!   returns its warm hint, or `Infeasible`).
//! - [`mckp`] — the one branch-and-bound search on Blaze's hot path, bounded
//!   only by its node budget (an exhausted search keeps its best selection,
//!   which dominates the greedy hull fill): with
//!   recovery costs frozen at time `t`, the paper's Eq. 5–6 reduce per
//!   executor to a multi-choice knapsack in which each candidate picks one
//!   option of its group — {out, in memory}, or {out, serialized,
//!   deserialized} with the serialized tier on — under convex-hull (Zemel)
//!   fractional bounds. Its module docs publish the search rule (increment
//!   order, branch order, child order, bound) the verifier replays.
//! - [`knapsack`] — the 0/1 names the repository benchmark pins, as
//!   adapters onto two-option groups.
//! - [`cert`] — decision-certificate formats: the branch-and-bound tree
//!   trace for [`mckp`] (also for a search its node budget cut short), and
//!   the tree trace with dual evidence for [`ilp`], both checked by
//!   `blaze-certify` without re-solving.

#![warn(missing_docs)]

pub mod cert;
pub mod ilp;
pub mod knapsack;
pub mod lp;
pub mod mckp;

pub use cert::{IlpCertificate, IlpNode, IlpNodeKind, IlpWarmEvidence, McNode, MckpCertificate};
pub use ilp::{solve_binary, solve_binary_certified, IlpOutcome, IlpProblem};
pub use knapsack::{solve_knapsack, solve_knapsack_certified, KnapsackItem};
pub use lp::{
    dual_bound, farkas_valid, solve as solve_lp, solve_with_evidence, Constraint, LinearProgram,
    LpEvidence, LpOutcome, Relation,
};
pub use mckp::{solve_mckp, solve_mckp_certified, MckpGroup, MckpOption, MckpSolution};
