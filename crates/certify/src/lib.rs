//! Independent verification of solver decision certificates.
//!
//! The solvers in `blaze-solver` can emit machine-checkable certificates of
//! *why* their answer is right (see `blaze_solver::cert`). This crate is the
//! other half of that proof-carrying design: a verifier that checks each
//! certificate against the original instance **without executing the
//! search** — it replays recorded branch-and-bound trees checking coverage
//! and bound soundness, validates LP bounds through weak duality and Farkas
//! rays, and checks that incremental invalidation over-approximated the
//! truly affected set.
//!
//! Verification failures are reported as `BA5xx` [`Diagnostic`]s through
//! the `blaze-audit` machinery:
//!
//! - `BA501` — incumbent infeasible or mispriced,
//! - `BA502` — a prune bound is not justified,
//! - `BA503` — the tree does not cover the search space,
//! - `BA505` — the dirty closure missed an affected entry.
//!
//! There is one tree replay for the state search ([`mckp`]; the tier-off
//! program is its two-option case, and a search its node budget cut short
//! is checked for dominance over the greedy hull fill) and one for the 0/1
//! ILP
//! ([`ilp`]), which no decision runs: it checks the literal Eq. 5–6
//! program that `blaze-core`'s test oracle solves, and the benchmark drill.
//!
//! The verifier is deliberately *independent*: it works from the search
//! rule `blaze_solver::mckp` publishes — re-deriving hulls and increments,
//! checking the claimed increment order against its own comparator,
//! recomputing hull bounds from its own sum tree — rebuilds lineage
//! adjacency from parent lists, and trusts certificate-recorded numbers
//! only after cross-checking them. Its cost is a fraction of the solve it
//! certifies — `O(n)` set-up and amortised `O(log n)` per replayed node
//! versus the search's `O(n log n)` set-up and `O(n)` bound scans, and one
//! `O(m·n)` dual check per ILP node versus a simplex solve per node.

#![warn(missing_docs)]

pub mod ilp;
pub mod lineage;
pub mod mckp;

pub use ilp::verify_ilp;
pub use lineage::{check_dirty_closure, LineageNodeView, LineageView};
pub use mckp::verify_mckp;

use blaze_audit::diagnostic::Diagnostic;
use blaze_common::ids::ExecutorId;
use blaze_solver::cert::{IlpCertificate, MckpCertificate};
use blaze_solver::ilp::{IlpOutcome, IlpProblem};
use blaze_solver::knapsack::{two_option_groups, KnapsackItem};
use blaze_solver::mckp::{MckpGroup, MckpSolution};

/// One per-executor solver instance together with its answer and proof, as
/// captured by the decision path at submission time.
#[derive(Debug, Clone)]
pub enum InstancePayload {
    /// A [`MultiChoice`](Self::MultiChoice) solve given as 0/1 items — the
    /// shape the repository benchmark pins; goes when that is re-pointed.
    Knapsack {
        /// The items of the instance.
        items: Vec<KnapsackItem>,
        /// The memory capacity (bytes).
        capacity: u64,
        /// The solution over the items' two-option groups.
        solution: MckpSolution,
        /// The certificate emitted alongside it.
        cert: MckpCertificate,
    },
    /// A 0/1 ILP solve ([`blaze_solver::ilp`]) — the shape the repository
    /// benchmark's drill pins; no decision emits it.
    Ilp {
        /// The 0/1 program of the instance.
        problem: IlpProblem,
        /// The outcome the solver returned.
        outcome: IlpOutcome,
        /// The branch-and-bound certificate emitted alongside it.
        cert: IlpCertificate,
    },
    /// A branch-and-bound solve of the state search
    /// ([`blaze_solver::mckp`]): one group of options per candidate — two
    /// (out, mem) with the serialized in-memory tier off, three (out, ser,
    /// mem) with it on.
    MultiChoice {
        /// The option groups of the instance (one per candidate).
        groups: Vec<MckpGroup>,
        /// The memory capacity (bytes).
        capacity: u64,
        /// The solution returned to the decision path.
        solution: MckpSolution,
        /// The certificate emitted alongside it.
        cert: MckpCertificate,
    },
}

/// A decision certificate for one per-executor solve.
#[derive(Debug, Clone)]
pub struct InstanceCertificate {
    /// The executor whose cache plan this solve decided.
    pub executor: ExecutorId,
    /// The instance, its answer, and its proof.
    pub payload: InstancePayload,
}

/// Verifies one instance certificate, returning every finding (empty =
/// certificate checks out).
pub fn verify_instance(cert: &InstanceCertificate) -> Vec<Diagnostic> {
    match &cert.payload {
        InstancePayload::Knapsack { items, capacity, solution, cert } => {
            verify_mckp(&two_option_groups(items), *capacity, solution, cert)
        }
        InstancePayload::MultiChoice { groups, capacity, solution, cert } => {
            verify_mckp(groups, *capacity, solution, cert)
        }
        InstancePayload::Ilp { problem, outcome, cert } => verify_ilp(problem, outcome, cert),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_solver::knapsack::solve_knapsack_certified;

    /// The benchmark's pinned 0/1 payload goes through the one verifier.
    #[test]
    fn knapsack_payloads_verify_as_two_option_groups() {
        let items: Vec<KnapsackItem> = [(60.0, 10), (50.0, 9), (50.0, 9), (20.0, 4)]
            .iter()
            .map(|&(value, weight)| KnapsackItem { value, weight })
            .collect();
        let (solution, cert) = solve_knapsack_certified(&items, 18, 0, None);
        let payload = InstancePayload::Knapsack { items, capacity: 18, solution, cert };
        let mut cert = InstanceCertificate { executor: ExecutorId(0), payload };
        assert!(verify_instance(&cert).is_empty());
        if let InstancePayload::Knapsack { solution, .. } = &mut cert.payload {
            solution.value += 1.0;
        }
        let codes: Vec<_> = verify_instance(&cert).iter().map(|d| d.code.as_str()).collect();
        assert_eq!(codes, ["BA501"]);
    }
}
