//! Decision-certificate formats emitted by the solvers.
//!
//! Every solve can record a machine-checkable trace of *why* its answer is
//! optimal (or best-found): the branch-and-bound tree it explored, the bound
//! that justified each prune, and the dual evidence backing each LP bound.
//! The independent verifier in `blaze-certify` replays these certificates
//! against the original instance — checking coverage, feasibility and bound
//! soundness — without ever executing the search itself. Emission is
//! append-only: recording a certificate never changes which nodes the
//! search visits or which solution it returns.

/// Certificate for a greedy (budget-1) solve: the solution is not claimed
/// optimal, but it is claimed to be within `declared_gap` of the LP
/// relaxation optimum `relaxation_bound`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GreedyCertificate {
    /// Hull bound at the root = the fractional-relaxation optimum, an
    /// upper bound on any integral solution.
    pub relaxation_bound: f64,
    /// Declared approximation gap: the greedy value is guaranteed
    /// `>= relaxation_bound - declared_gap`.
    pub declared_gap: f64,
    /// The increment order the bound was filled in; see
    /// [`MckpCertificate::order`].
    pub order: Vec<(usize, usize)>,
}

/// One node of the branch-and-bound tree, recorded in DFS preorder
/// (children in the group's canonical option order: value descending, then
/// option index ascending).
#[derive(Debug, Clone, PartialEq)]
pub enum McNode {
    /// The node branched on its group: every option that fits the remaining
    /// capacity and is not statically excluded (non-zero index with
    /// non-positive value — never better than the zero option) produces a
    /// child subtree, in canonical order.
    Branch,
    /// The subtree was cut because its hull (Dantzig/Zemel) upper bound
    /// cannot beat the incumbent: `bound <= best_at_prune + PRUNE_EPS`,
    /// which the verifier checks against the *final* value.
    Pruned {
        /// The fractional hull upper bound computed at this node.
        bound: f64,
    },
    /// The subtree was cut against the warm-start bound: `bound <= warm
    /// value - WARM_EPS`. Sound because the warm choice is feasible, so the
    /// true optimum is at least its value.
    PrunedWarm {
        /// The fractional hull upper bound computed at this node.
        bound: f64,
    },
    /// Every group was decided (or the position ran past the end).
    Leaf,
}

/// Feasibility evidence for a warm-start bound used by `PrunedWarm` cuts.
#[derive(Debug, Clone, PartialEq)]
pub struct MckpWarmEvidence {
    /// The warm per-group option choice, aligned with the current groups.
    pub choice: Vec<usize>,
    /// Total value of the warm choice (the bound warm prunes cut against).
    pub value: f64,
}

/// Certificate of one branch-and-bound solve ([`crate::mckp`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MckpCertificate {
    /// The explored tree in DFS preorder. Empty when the node budget was
    /// exhausted (the tree is then not a proof of anything).
    pub nodes: Vec<McNode>,
    /// Evidence for the warm bound, present iff warm pruning was armed.
    pub warm: Option<MckpWarmEvidence>,
    /// True iff the search ran to completion within its node budget.
    pub complete: bool,
    /// The global hull-increment order the search ran under, as `(group,
    /// hull level)` pairs (levels count from 1). It fixes the bound scan,
    /// the greedy incumbent and — by first appearance — the branch order.
    /// A claim, not an input: the verifier checks it is a permutation of
    /// the increments it derives itself, sorted under the published
    /// comparator, which costs O(n) where re-sorting costs O(n log n).
    pub order: Vec<(usize, usize)>,
}

/// How one popped branch-and-bound node of the ILP search terminated.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpNodeKind {
    /// The node's LP relaxation was infeasible.
    Infeasible {
        /// Farkas ray proving emptiness, when extraction succeeded.
        /// (`None` falls back to a single LP re-solve in the verifier.)
        farkas: Option<Vec<f64>>,
    },
    /// Cut: the relaxation bound cannot beat the incumbent
    /// (`bound >= incumbent - 1e-12`, checked against the final objective).
    Pruned {
        /// The LP relaxation optimum at this node (minimization bound).
        bound: f64,
        /// Dual multipliers certifying `bound` via weak duality.
        duals: Option<Vec<f64>>,
    },
    /// Cut against the warm-start bound (`bound > warm objective +
    /// WARM_EPS`); sound because the warm assignment is feasible.
    PrunedWarm {
        /// The LP relaxation optimum at this node.
        bound: f64,
        /// Dual multipliers certifying `bound` via weak duality.
        duals: Option<Vec<f64>>,
    },
    /// The relaxation solved integral: a candidate incumbent with this
    /// objective.
    Integral {
        /// Objective of the integral relaxation solution.
        objective: f64,
        /// Dual multipliers certifying the relaxation optimum.
        duals: Option<Vec<f64>>,
    },
    /// The node branched on variable `var` (most-fractional rule); both
    /// children must appear in the certificate.
    Branched {
        /// The variable branched on.
        var: usize,
    },
}

/// One recorded ILP branch-and-bound node: the fixed-variable pattern that
/// identifies its subproblem, and how it terminated.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpNode {
    /// Per-variable fix: `-1` free, `0` fixed false, `1` fixed true.
    pub fixed: Vec<i8>,
    /// Terminal kind of this node.
    pub kind: IlpNodeKind,
}

/// Feasibility evidence for the warm bound used by `PrunedWarm` cuts.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpWarmEvidence {
    /// The warm assignment.
    pub x: Vec<bool>,
    /// Its objective (the bound warm prunes cut against).
    pub objective: f64,
}

/// Certificate of one exact-ILP branch-and-bound solve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IlpCertificate {
    /// Every node popped from the DFS stack, in pop order. Empty when the
    /// node budget was exhausted.
    pub nodes: Vec<IlpNode>,
    /// Evidence for the warm bound, present iff warm pruning was armed.
    pub warm: Option<IlpWarmEvidence>,
    /// True iff the search ran to completion within its node budget.
    pub complete: bool,
}

impl IlpCertificate {
    /// Convenience: the root node (all variables free), if recorded.
    pub fn root(&self) -> Option<&IlpNode> {
        self.nodes.iter().find(|nd| nd.fixed.iter().all(|&f| f == -1))
    }
}

/// Re-export so certificate consumers can validate dual vectors without
/// reaching into `lp` directly.
pub use crate::lp::{dual_bound, farkas_valid};
