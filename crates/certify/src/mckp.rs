//! Verification of the state search's branch-and-bound and greedy
//! certificates.
//!
//! The decision path solves one multi-choice knapsack per executor (each
//! candidate picks one option of its group; with the serialized tier off
//! every group has two options) and its optimality proof is a DFS-preorder
//! replay of the recorded tree. The verifier works from the search rule
//! `blaze_solver::mckp` publishes, not from its code. It re-derives the
//! per-group LP-dominance frontiers, upper convex hulls and hull increments
//! from the raw groups; *checks* the increment order the certificate claims
//! — a permutation of those increments, sorted under the verifier's own
//! comparator — instead of trusting or re-sorting it; derives the branch
//! order and the child order from that; and then walks the tree with its
//! own weight/value accumulators. Every cut must be justified by a hull
//! (Zemel/Dantzig) bound it recomputes itself, every skipped child must be
//! statically excluded under the published rule, and the claimed optimum
//! must equal the best value any replayed node (or the greedy hull fill)
//! reached. Greedy answers are certified against the hull relaxation
//! optimum with an explicit gap, and [`verify_greedy_relaxation`]
//! cross-checks that optimum by actually solving the relaxation with
//! `blaze_solver::lp`.
//!
//! The replay recomputes bounds through a [`BoundOracle`]: a sum tree over
//! the increment order in which the increments of already-decided groups
//! are switched off as the replay moves, so one bound costs `O(log n)`
//! plus the switches — amortised `O(k log n)` per replayed node for `k`
//! increments per group — where the search scans `O(n)`.

use blaze_audit::diagnostic::{DiagCode, Diagnostic};
use blaze_solver::cert::{GreedyCertificate, McNode, MckpCertificate};
use blaze_solver::lp::{solve as solve_lp, Constraint, LinearProgram, LpOutcome};
use blaze_solver::mckp::{MckpGroup, MckpOption, MckpSolution, PRUNE_EPS, WARM_EPS};
use std::cmp::Ordering;

/// Scaled comparison tolerance for recomputed float quantities.
fn tol(scale: f64) -> f64 {
    1e-6 * (1.0 + scale.abs())
}

fn diag(code: DiagCode, message: String) -> Diagnostic {
    Diagnostic::new(code, None, message, "re-run the solve uncertified and compare".into())
}

/// Value and weight of a per-group choice, recomputed from the groups.
/// `None` if any index is out of range.
fn choice_totals(groups: &[MckpGroup], choice: &[usize]) -> Option<(f64, u64)> {
    let mut v = 0.0f64;
    let mut w = 0u64;
    for (g, &c) in groups.iter().zip(choice) {
        let opt = g.options.get(c)?;
        v += opt.value;
        w = w.saturating_add(opt.weight);
    }
    Some((v, w))
}

/// BA501: the claimed solution must be a real, feasible, correctly priced
/// choice.
fn check_solution(
    groups: &[MckpGroup],
    capacity: u64,
    solution: &MckpSolution,
) -> Result<(), Diagnostic> {
    let n = groups.len();
    if solution.choice.len() != n {
        return Err(diag(
            DiagCode::InfeasibleIncumbent,
            format!("solution has {} choices for {n} groups", solution.choice.len()),
        ));
    }
    let Some((value, weight)) = choice_totals(groups, &solution.choice) else {
        return Err(diag(
            DiagCode::InfeasibleIncumbent,
            "solution chooses an option index outside its group".into(),
        ));
    };
    if weight > capacity || weight != solution.weight || (value - solution.value).abs() > tol(value)
    {
        return Err(diag(
            DiagCode::InfeasibleIncumbent,
            format!(
                "choice recomputes to value {value} / weight {weight} (capacity {capacity}), \
                 certificate claims {} / {}",
                solution.value, solution.weight
            ),
        ));
    }
    Ok(())
}

/// Independent re-derivation of a group's upper convex hull over its
/// LP-dominance frontier, anchored at the zero option `(0, 0)`, written to
/// `hull` (`pts` is sort scratch; both are reused across groups).
fn hull_points(options: &[MckpOption], pts: &mut Vec<(u64, f64)>, hull: &mut Vec<(u64, f64)>) {
    pts.clear();
    pts.extend(options.iter().map(|o| (o.weight, o.value)));
    pts.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0).then(b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal))
    });
    // The (0, 0) anchor is never popped: a weight-0 option with positive
    // value becomes a `dw = 0` infinite-density increment instead of
    // shifting the hull's base value.
    hull.clear();
    hull.push((0, 0.0));
    for &(w, v) in pts.iter() {
        if v > hull[hull.len() - 1].1 {
            while hull.len() >= 2 {
                let (w1, v1) = hull[hull.len() - 1];
                let (w2, v2) = hull[hull.len() - 2];
                let keeps = (v1 - v2) * (w - w1) as f64 > (v - v1) * (w1 - w2) as f64; // audit: allow(float-cast)
                if keeps {
                    break;
                }
                hull.pop();
            }
            hull.push((w, v));
        }
    }
}

/// One hull increment (`group` moved up to hull level `level`).
#[derive(Debug, Clone, Copy)]
struct Inc {
    group: usize,
    level: usize,
    density: f64,
    dw: u64,
    dv: f64,
}

/// The published increment comparator: density descending, then group,
/// then level ascending.
fn before(a: &Inc, b: &Inc) -> bool {
    b.density.total_cmp(&a.density).then(a.group.cmp(&b.group)).then(a.level.cmp(&b.level))
        == Ordering::Less
}

/// One branch position, as derived from the checked increment order.
#[derive(Debug, Clone, Copy)]
struct Position {
    /// The group decided here.
    group: usize,
    /// Index in [`Instance::incs`] of the group's first increment (the
    /// increment count for a group without one). Every increment before it
    /// belongs to an earlier position's group, so a node's bound is a fill
    /// that starts here.
    first_inc: usize,
}

/// The instance as the verifier sees it once the claimed increment order
/// has been checked.
struct Instance<'a> {
    groups: &'a [MckpGroup],
    capacity: u64,
    /// Hull increments in the verified order.
    incs: Vec<Inc>,
    /// `slots[first_slot[g] + level - 1]` is the index in `incs` of group
    /// `g`'s increment to `level`.
    first_slot: Vec<usize>,
    slots: Vec<usize>,
    /// Branch order: groups by first appearance in `incs`, then the groups
    /// without an increment by index.
    branch: Vec<Position>,
}

impl<'a> Instance<'a> {
    /// Derives the hull increments of `groups` and checks `order` against
    /// them: every group must lead with the zero option (`BA503` — the
    /// zero-completion feasibility argument underpins the whole replay) and
    /// `order` must be the sorted permutation of the increments (`BA502` —
    /// every recorded bound would otherwise be a fill over the wrong
    /// sequence).
    fn new(
        groups: &'a [MckpGroup],
        capacity: u64,
        order: &[(usize, usize)],
    ) -> Result<Self, Diagnostic> {
        let n = groups.len();
        let unsorted = || {
            diag(
                DiagCode::UnsoundPruneBound,
                "certificate order is not the density-sorted permutation of the hull increments; \
                 every recorded bound would be computed over the wrong sequence"
                    .into(),
            )
        };
        // Own increments, by (group, level).
        let mut own: Vec<Inc> = Vec::with_capacity(order.len());
        let mut first_slot = Vec::with_capacity(n + 1);
        let (mut pts, mut hull) = (Vec::new(), Vec::new());
        for (group, g) in groups.iter().enumerate() {
            if g.options.first() != Some(&MckpOption { value: 0.0, weight: 0 }) {
                return Err(diag(
                    DiagCode::UncoveredBranchLeaf,
                    format!("group {group} does not lead with the zero option"),
                ));
            }
            first_slot.push(own.len());
            hull_points(&g.options, &mut pts, &mut hull);
            let mut density = f64::INFINITY;
            for level in 1..hull.len() {
                let (dw, dv) =
                    (hull[level].0 - hull[level - 1].0, hull[level].1 - hull[level - 1].1);
                if dw > 0 {
                    density = density.min(dv / dw as f64); // audit: allow(float-cast)
                }
                own.push(Inc { group, level, density, dw, dv });
            }
        }
        first_slot.push(own.len());
        if order.len() != own.len() {
            return Err(unsorted());
        }

        const UNSET: usize = usize::MAX;
        let mut slots = vec![UNSET; own.len()];
        let mut incs: Vec<Inc> = Vec::with_capacity(own.len());
        let mut branch = Vec::with_capacity(n);
        for (k, &(group, level)) in order.iter().enumerate() {
            let in_range =
                group < n && level >= 1 && level <= first_slot[group + 1] - first_slot[group];
            if !in_range {
                return Err(unsorted());
            }
            let slot = first_slot[group] + level - 1;
            let inc = own[slot];
            if slots[slot] != UNSET || incs.last().is_some_and(|prev| !before(prev, &inc)) {
                return Err(unsorted());
            }
            slots[slot] = k;
            if level == 1 {
                branch.push(Position { group, first_inc: k });
            }
            incs.push(inc);
        }
        let bare = (0..n).filter(|&g| first_slot[g] == first_slot[g + 1]);
        branch.extend(bare.map(|group| Position { group, first_inc: incs.len() }));
        Ok(Self { groups, capacity, incs, first_slot, slots, branch })
    }

    /// The greedy integer hull fill over the increment order (the search's
    /// initial incumbent): an increment is taken only when its group's
    /// previous level was and it fits.
    fn greedy_fill_value(&self) -> f64 {
        let mut taken = vec![0usize; self.groups.len()];
        let (mut w, mut v) = (0u64, 0.0f64);
        for inc in &self.incs {
            if taken[inc.group] + 1 == inc.level && w.saturating_add(inc.dw) <= self.capacity {
                taken[inc.group] = inc.level;
                w += inc.dw;
                v += inc.dv;
            }
        }
        v
    }
}

/// Hull-bound oracle: a sum tree over the increment order, queried as "fill
/// from increment `start` on". A position's first increments are excluded
/// by where its fill starts, so only the *later* increments of a decided
/// group — which sort among the undecided groups' — are switched off when
/// the replay decides the group and back on when it backs out. Two-option
/// groups have none: their tree is never written after it is built.
struct BoundOracle {
    /// Leaf count: a power of two above the increment count, so that leaf
    /// `leaves - 1` is always an empty sentinel a fill can stop on.
    leaves: usize,
    /// Per tree node, the total weight and value of the switched-on
    /// increments below it (node 1 is the root, leaf `i` is `leaves + i`).
    weight: Vec<u64>,
    value: Vec<f64>,
    /// Groups at branch positions below this are switched off.
    active_from: usize,
}

impl BoundOracle {
    fn new(incs: &[Inc]) -> Self {
        let leaves = (incs.len() + 1).next_power_of_two();
        let mut weight = vec![0u64; 2 * leaves];
        let mut value = vec![0.0f64; 2 * leaves];
        for (i, inc) in incs.iter().enumerate() {
            weight[leaves + i] = inc.dw;
            value[leaves + i] = inc.dv;
        }
        let mut oracle = Self { leaves, weight, value, active_from: 0 };
        for node in (1..leaves).rev() {
            oracle.resum(node);
        }
        oracle
    }

    /// Re-sums `node` from its children (so switching never accumulates
    /// float drift). A saturated weight only ever reads as "does not fit".
    fn resum(&mut self, node: usize) {
        self.weight[node] = self.weight[2 * node].saturating_add(self.weight[2 * node + 1]);
        self.value[node] = self.value[2 * node] + self.value[2 * node + 1];
    }

    /// Switches groups so that exactly those at branch positions `>= pos`
    /// are on.
    fn move_to(&mut self, instance: &Instance<'_>, pos: usize) {
        while self.active_from < pos {
            self.switch(instance, self.active_from, false);
            self.active_from += 1;
        }
        while self.active_from > pos {
            self.active_from -= 1;
            self.switch(instance, self.active_from, true);
        }
    }

    /// Switches the increments above the first of the group at branch
    /// position `pos`.
    fn switch(&mut self, instance: &Instance<'_>, pos: usize, on: bool) {
        let group = instance.branch[pos].group;
        let (first, end) = (instance.first_slot[group], instance.first_slot[group + 1]);
        for &i in &instance.slots[(first + 1).min(end)..end] {
            let inc = instance.incs[i];
            let mut node = self.leaves + i;
            (self.weight[node], self.value[node]) = if on { (inc.dw, inc.dv) } else { (0, 0.0) };
            while node > 1 {
                node /= 2;
                self.resum(node);
            }
        }
    }

    /// The hull (Zemel/Dantzig) upper bound of a node with `room` bytes
    /// left and `value` so far: the switched-on increments from `start` on
    /// are taken in order while they fit, and the first that does not
    /// contributes fractionally. Weights are non-negative, so the fill is a
    /// gallop — whole subtrees to the right of `start`, doubling — followed
    /// by a descent into the subtree that does not fit; a fill that breaks
    /// `f` increments in costs `O(log f)`.
    fn bound(&self, start: usize, room: u64, value: f64) -> f64 {
        let (mut room, mut v) = (room, value);
        let mut node = self.leaves + start;
        while self.weight[node] <= room {
            room -= self.weight[node];
            v += self.value[node];
            node += 1;
            if node.is_power_of_two() {
                return v; // Everything from `start` on fit.
            }
            if node.is_multiple_of(2) {
                node /= 2; // Same left edge, twice the span.
            }
        }
        while node < self.leaves {
            node *= 2;
            if self.weight[node] <= room {
                room -= self.weight[node];
                v += self.value[node];
                node += 1;
            }
        }
        // audit: allow(float-cast) room/weight are byte counts < 2^53
        v + self.value[node] * (room as f64) / self.weight[node] as f64
    }
}

/// State of the preorder tree replay.
struct Replay<'a> {
    nodes: &'a [McNode],
    instance: &'a Instance<'a>,
    /// Per group, its admissible options `(weight, value)` in the published
    /// child order; group `g` owns `children[first_child[g]..first_child[g + 1]]`.
    first_child: Vec<usize>,
    children: Vec<(u64, f64)>,
    oracle: BoundOracle,
    warm_value: Option<f64>,
    final_value: f64,
    cursor: usize,
    /// Best entry value any replayed node reached.
    max_entry: f64,
    findings: Vec<Diagnostic>,
}

impl<'a> Replay<'a> {
    fn new(
        nodes: &'a [McNode],
        instance: &'a Instance<'a>,
        warm_value: Option<f64>,
        final_value: f64,
    ) -> Self {
        // The child order (value descending, then option index ascending;
        // non-zero options of non-positive value can never beat the
        // always-feasible zero option and are excluded) is re-derived here
        // rather than imported, so the verifier does not trust the solver's
        // implementation of its own rule.
        let groups = instance.groups;
        let mut first_child = Vec::with_capacity(groups.len() + 1);
        let mut children = Vec::with_capacity(2 * groups.len());
        let mut by_value: Vec<usize> = Vec::new();
        for g in groups {
            first_child.push(children.len());
            by_value.clear();
            by_value.extend((0..g.options.len()).filter(|&o| o == 0 || g.options[o].value > 0.0));
            by_value.sort_unstable_by(|&a, &b| {
                let (va, vb) = (g.options[a].value, g.options[b].value);
                vb.partial_cmp(&va).unwrap_or(Ordering::Equal).then(a.cmp(&b))
            });
            children.extend(by_value.iter().map(|&o| (g.options[o].weight, g.options[o].value)));
        }
        first_child.push(children.len());
        Self {
            nodes,
            instance,
            first_child,
            children,
            oracle: BoundOracle::new(&instance.incs),
            warm_value,
            final_value,
            cursor: 0,
            max_entry: f64::NEG_INFINITY,
            findings: Vec::new(),
        }
    }

    /// Replays the preorder tree with an explicit stack (trees reach depth
    /// `n`), stopping at the first finding (one finding pinpoints the
    /// failure; a corrupt tree would otherwise cascade).
    fn walk(&mut self) {
        let mut stack = vec![(0usize, 0u64, 0.0f64)];
        while let Some((pos, weight, value)) = stack.pop() {
            if !self.findings.is_empty() {
                return;
            }
            self.step(&mut stack, pos, weight, value);
        }
    }

    fn recomputed_bound(&mut self, pos: usize, weight: u64, value: f64) -> f64 {
        self.oracle.move_to(self.instance, pos);
        let start = self.instance.branch[pos].first_inc;
        self.oracle.bound(start, self.instance.capacity - weight, value)
    }

    /// Consumes one recorded node against the replayed `(pos, weight,
    /// value)` state, pushing the children of branch nodes so the first
    /// canonical child is replayed next (DFS preorder).
    fn step(&mut self, stack: &mut Vec<(usize, u64, f64)>, pos: usize, weight: u64, value: f64) {
        let Some(node) = self.nodes.get(self.cursor) else {
            self.findings.push(diag(
                DiagCode::UncoveredBranchLeaf,
                format!("certificate tree ends early at node {}", self.cursor),
            ));
            return;
        };
        self.cursor += 1;
        // Every partial assignment is feasible (still-free groups complete
        // with their zero options), so entry values are candidate incumbents.
        self.max_entry = self.max_entry.max(value);
        let n = self.instance.groups.len();
        if pos >= n {
            if *node != McNode::Leaf {
                self.findings.push(diag(
                    DiagCode::UncoveredBranchLeaf,
                    format!("expected a leaf at exhausted position {pos}, found {node:?}"),
                ));
            }
            return;
        }
        match *node {
            McNode::Leaf => {
                self.findings.push(diag(
                    DiagCode::UncoveredBranchLeaf,
                    format!("leaf at position {pos} leaves {} groups undecided", n - pos),
                ));
            }
            McNode::Pruned { bound } | McNode::PrunedWarm { bound } => {
                let recomputed = self.recomputed_bound(pos, weight, value);
                let unsound = if (recomputed - bound).abs() > tol(bound) {
                    Some(format!(
                        "recorded prune bound {bound} != recomputed hull bound {recomputed} at \
                         position {pos}"
                    ))
                } else if matches!(node, McNode::Pruned { .. }) {
                    let slack = PRUNE_EPS + tol(self.final_value);
                    (recomputed > self.final_value + slack).then(|| {
                        format!(
                            "prune bound {recomputed} exceeds the final value {} — the cut \
                             subtree could hold a better choice",
                            self.final_value
                        )
                    })
                } else {
                    match self.warm_value {
                        Some(wv) if recomputed <= wv - WARM_EPS + tol(wv) => None,
                        Some(wv) => Some(format!(
                            "warm prune bound {recomputed} is not below the warm value {wv} by \
                             the required margin"
                        )),
                        None => Some(
                            "warm prune recorded but the certificate carries no warm evidence"
                                .into(),
                        ),
                    }
                };
                self.findings.extend(unsound.map(|m| diag(DiagCode::UnsoundPruneBound, m)));
            }
            McNode::Branch => {
                // Children are every admissible option that fits, in
                // canonical order. The zero option always fits, so a branch
                // has at least one child.
                let group = self.instance.branch[pos].group;
                let range = self.first_child[group]..self.first_child[group + 1];
                for &(w, v) in self.children[range].iter().rev() {
                    if weight.saturating_add(w) <= self.instance.capacity {
                        stack.push((pos + 1, weight + w, value + v));
                    }
                }
            }
        }
    }
}

/// Verifies a solution against its branch-and-bound certificate.
///
/// Checks, in order: group well-formedness (`BA503`) and the claimed
/// increment order (`BA502`), solution feasibility and pricing (`BA501`),
/// warm-evidence soundness (`BA502`), and — for complete searches — a full
/// preorder replay of the recorded tree: coverage of the search space
/// (`BA503`), recomputed hull-bound justification of every cut (`BA502`),
/// and agreement of the claimed optimum with the best replayed value
/// (`BA501`). Incomplete (budget-exhausted) solves carry no tree and are
/// checked for greedy dominance only.
pub fn verify_mckp(
    groups: &[MckpGroup],
    capacity: u64,
    solution: &MckpSolution,
    cert: &MckpCertificate,
) -> Vec<Diagnostic> {
    let n = groups.len();
    let instance = match Instance::new(groups, capacity, &cert.order) {
        Ok(instance) => instance,
        Err(finding) => return vec![finding],
    };
    if let Err(finding) = check_solution(groups, capacity, solution) {
        return vec![finding];
    }

    // BA502: warm evidence must itself be feasible and correctly priced,
    // and (for complete solves) dominated by the final answer.
    let mut warm_value = None;
    if let Some(w) = &cert.warm {
        let totals = if w.choice.len() == n { choice_totals(groups, &w.choice) } else { None };
        let Some((wv, ww)) = totals else {
            return vec![diag(
                DiagCode::UnsoundPruneBound,
                format!("warm evidence is not one valid option per group: {:?}", w.choice),
            )];
        };
        if ww > capacity || (wv - w.value).abs() > tol(wv) {
            return vec![diag(
                DiagCode::UnsoundPruneBound,
                format!(
                    "warm evidence recomputes to value {wv} / weight {ww} (capacity \
                     {capacity}), recorded value {}",
                    w.value
                ),
            )];
        }
        if cert.complete && solution.value < w.value - WARM_EPS - tol(w.value) {
            return vec![diag(
                DiagCode::UnsoundPruneBound,
                format!(
                    "final value {} is below the warm lower bound {} — warm prunes could \
                     have cut the optimum",
                    solution.value, w.value
                ),
            )];
        }
        warm_value = Some(w.value);
    }

    // BA503: the proven flag must match tree completeness.
    if solution.proven_optimal != cert.complete {
        return vec![diag(
            DiagCode::UncoveredBranchLeaf,
            format!(
                "proven_optimal={} disagrees with certificate complete={}",
                solution.proven_optimal, cert.complete
            ),
        )];
    }

    let greedy = instance.greedy_fill_value();
    if !cert.complete {
        // No tree to replay: the solution must still dominate greedy.
        if solution.value < greedy - tol(greedy) {
            return vec![diag(
                DiagCode::InfeasibleIncumbent,
                format!(
                    "budget-exhausted solution {} is worse than the greedy hull fill {greedy}",
                    solution.value
                ),
            )];
        }
        return Vec::new();
    }

    // Full preorder replay of the search tree.
    if cert.nodes.is_empty() {
        return vec![diag(
            DiagCode::UncoveredBranchLeaf,
            "complete certificate carries no tree nodes".into(),
        )];
    }
    let mut replay = Replay::new(&cert.nodes, &instance, warm_value, solution.value);
    replay.walk();
    if !replay.findings.is_empty() {
        return replay.findings;
    }
    if replay.cursor != cert.nodes.len() {
        return vec![diag(
            DiagCode::UncoveredBranchLeaf,
            format!(
                "certificate records {} nodes but the replay consumed {}",
                cert.nodes.len(),
                replay.cursor
            ),
        )];
    }
    // Closure of the optimality proof: the claimed value must equal the
    // best value any explored node (or the greedy incumbent) reached.
    let best_seen = replay.max_entry.max(greedy);
    if (best_seen - solution.value).abs() > tol(solution.value) {
        return vec![diag(
            DiagCode::InfeasibleIncumbent,
            format!(
                "claimed optimum {} differs from the best replayed value {best_seen}",
                solution.value
            ),
        )];
    }
    Vec::new()
}

/// Verifies a greedy solution against its hull-relaxation certificate.
///
/// Recomputes the root hull bound — the optimum of the LP relaxation of the
/// multi-choice knapsack (Zemel) — from its own hulls over the checked
/// increment order, checks the certificate's `relaxation_bound` against it
/// (`BA502`), and checks that the greedy value is within the declared gap
/// of that bound (`BA504`). Solution feasibility and pricing are checked as
/// for any incumbent (`BA501`). [`verify_greedy_relaxation`] is the slow
/// cross-check that validates the hull-equals-LP shortcut itself.
pub fn verify_mckp_greedy(
    groups: &[MckpGroup],
    capacity: u64,
    solution: &MckpSolution,
    cert: &GreedyCertificate,
) -> Vec<Diagnostic> {
    let instance = match Instance::new(groups, capacity, &cert.order) {
        Ok(instance) => instance,
        Err(finding) => return vec![finding],
    };
    if let Err(finding) = check_solution(groups, capacity, solution) {
        return vec![finding];
    }
    // Zemel's reduction: LP-dominated options take value zero in every
    // optimal LP solution, so the relaxation optimum is the root fractional
    // fill over the hull increments.
    let lp_opt = BoundOracle::new(&instance.incs).bound(0, capacity, 0.0);
    if (lp_opt - cert.relaxation_bound).abs() > tol(lp_opt) {
        return vec![diag(
            DiagCode::UnsoundPruneBound,
            format!(
                "declared relaxation bound {} differs from the recomputed hull relaxation \
                 optimum {lp_opt}",
                cert.relaxation_bound
            ),
        )];
    }
    if cert.declared_gap < -tol(cert.declared_gap) {
        return vec![diag(
            DiagCode::GreedyGapExceeded,
            format!("declared gap {} is negative", cert.declared_gap),
        )];
    }
    if solution.value < cert.relaxation_bound - cert.declared_gap - tol(cert.relaxation_bound) {
        return vec![diag(
            DiagCode::GreedyGapExceeded,
            format!(
                "greedy value {} is more than the declared gap {} below the relaxation \
                 bound {}",
                solution.value, cert.declared_gap, cert.relaxation_bound
            ),
        )];
    }
    Vec::new()
}

/// Cross-checks a greedy certificate's `relaxation_bound` by actually
/// solving the LP relaxation of the multi-choice program with
/// `blaze_solver::lp` (`BA502` on disagreement):
///
/// ```text
/// max Σ v_go·x_go   s.t.  Σ w_go·x_go ≤ capacity,  Σ_o x_go ≤ 1 per group,  x ≥ 0
/// ```
///
/// over the non-zero options (the zero option is each group row's slack).
/// [`verify_mckp_greedy`] recomputes the bound as a fill over hull
/// increments, which equals the LP optimum *by theorem*; this function
/// validates that the two independent implementations (simplex in
/// `blaze-solver`, hulls and sum tree here) agree on concrete instances. It
/// costs a full LP solve, so it backs the `blaze-certify` mutation harness
/// and the property tests rather than the per-certificate hot path.
pub fn verify_greedy_relaxation(
    groups: &[MckpGroup],
    capacity: u64,
    cert: &GreedyCertificate,
) -> Vec<Diagnostic> {
    let vars: usize = groups.iter().map(|g| g.options.len().saturating_sub(1)).sum();
    let mut objective = Vec::with_capacity(vars);
    let mut cap_row = Vec::with_capacity(vars);
    let mut constraints = Vec::with_capacity(groups.len() + 1);
    for g in groups {
        let mut row = vec![0.0; vars];
        for opt in g.options.iter().skip(1) {
            row[objective.len()] = 1.0;
            objective.push(-opt.value);
            cap_row.push(opt.weight as f64); // audit: allow(float-cast) byte counts < 2^53
        }
        constraints.push(Constraint::le(row, 1.0));
    }
    // audit: allow(float-cast) byte counts < 2^53
    constraints.push(Constraint::le(cap_row, capacity as f64));
    let lp_opt = match solve_lp(&LinearProgram { objective, constraints }) {
        Ok(LpOutcome::Optimal { objective, .. }) => -objective,
        other => {
            return vec![diag(
                DiagCode::UnsoundPruneBound,
                format!("hull relaxation failed to solve: {other:?}"),
            )];
        }
    };
    if (lp_opt - cert.relaxation_bound).abs() > tol(lp_opt) {
        return vec![diag(
            DiagCode::UnsoundPruneBound,
            format!(
                "declared relaxation bound {} differs from the LP optimum {lp_opt}",
                cert.relaxation_bound
            ),
        )];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_solver::mckp::{greedy_mckp_certificate, solve_mckp, solve_mckp_certified, MckpWarm};

    fn zero() -> MckpOption {
        MckpOption { value: 0.0, weight: 0 }
    }

    fn group(opts: &[(f64, u64)]) -> MckpGroup {
        let mut options = vec![zero()];
        options.extend(opts.iter().map(|&(value, weight)| MckpOption { value, weight }));
        MckpGroup { options }
    }

    /// 0/1 items as two-option groups.
    fn binary(items: &[(f64, u64)]) -> Vec<MckpGroup> {
        items.iter().map(|&item| group(&[item])).collect()
    }

    fn tiers() -> Vec<MckpGroup> {
        vec![
            group(&[(8.0, 6), (10.0, 10)]),
            group(&[(5.0, 6), (9.0, 10)]),
            group(&[(2.0, 3), (3.0, 5)]),
            group(&[(-4.0, 2), (7.0, 4)]),
        ]
    }

    /// The instances most tests run over: the three-option tiers and a 0/1
    /// set with a free item and a worthless one, each with a capacity tight
    /// enough to force prunes.
    fn shapes() -> Vec<(Vec<MckpGroup>, u64)> {
        let items = [(60.0, 10), (50.0, 9), (50.0, 9), (20.0, 4), (-3.0, 5), (7.0, 0)];
        vec![(tiers(), 12), (binary(&items), 18)]
    }

    fn fires(findings: &[Diagnostic], code: DiagCode) -> bool {
        findings.iter().any(|d| d.code == code)
    }

    #[test]
    fn clean_certificates_verify() {
        for (groups, cap) in shapes() {
            for cap in [cap, 16, 50] {
                let (sol, cert) = solve_mckp_certified(&groups, cap, 0, None);
                assert!(sol.proven_optimal);
                let findings = verify_mckp(&groups, cap, &sol, &cert);
                assert!(findings.is_empty(), "{findings:?}");
            }
        }
    }

    #[test]
    fn warm_certificates_verify() {
        for (groups, cap) in shapes() {
            let cold = solve_mckp(&groups, cap, 0);
            let warm = MckpWarm { choice: cold.choice.clone() };
            let (sol, cert) = solve_mckp_certified(&groups, cap, 0, Some(&warm));
            assert_eq!(sol.choice, cold.choice);
            assert!(cert.warm.is_some());
            let findings = verify_mckp(&groups, cap, &sol, &cert);
            assert!(findings.is_empty(), "{findings:?}");
        }
    }

    #[test]
    fn corrupted_value_fires_ba501() {
        for (groups, cap) in shapes() {
            let (mut sol, cert) = solve_mckp_certified(&groups, cap, 0, None);
            sol.value += 5.0;
            let findings = verify_mckp(&groups, cap, &sol, &cert);
            assert!(fires(&findings, DiagCode::InfeasibleIncumbent), "{findings:?}");
        }
    }

    #[test]
    fn corrupted_prune_bound_fires_ba502() {
        for (groups, cap) in shapes() {
            let (sol, mut cert) = solve_mckp_certified(&groups, cap, 0, None);
            let pruned = cert.nodes.iter_mut().find_map(|n| match n {
                McNode::Pruned { bound } => Some(bound),
                _ => None,
            });
            *pruned.expect("instance produces at least one prune") += 100.0;
            let findings = verify_mckp(&groups, cap, &sol, &cert);
            assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
        }
    }

    #[test]
    fn corrupted_increment_order_fires_ba502() {
        for (groups, cap) in shapes() {
            let (sol, cert) = solve_mckp_certified(&groups, cap, 0, None);
            let mut swapped = cert.clone();
            swapped.order.swap(0, 1);
            let mut short = cert.clone();
            short.order.pop();
            let mut doubled = cert.clone();
            doubled.order[1] = doubled.order[0];
            let mut foreign = cert.clone();
            foreign.order[0] = (groups.len(), 1);
            for bad in [swapped, short, doubled, foreign] {
                let findings = verify_mckp(&groups, cap, &sol, &bad);
                assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
            }
        }
    }

    #[test]
    fn truncated_tree_fires_ba503() {
        for (groups, cap) in shapes() {
            let (sol, mut cert) = solve_mckp_certified(&groups, cap, 0, None);
            cert.nodes.pop();
            let findings = verify_mckp(&groups, cap, &sol, &cert);
            assert!(fires(&findings, DiagCode::UncoveredBranchLeaf), "{findings:?}");
        }
    }

    #[test]
    fn malformed_group_fires_ba503() {
        let mut groups = tiers();
        let (sol, cert) = solve_mckp_certified(&groups, 16, 0, None);
        groups[1].options[0] = MckpOption { value: 1.0, weight: 1 };
        let findings = verify_mckp(&groups, 16, &sol, &cert);
        assert!(fires(&findings, DiagCode::UncoveredBranchLeaf), "{findings:?}");
    }

    #[test]
    fn budget_exhausted_solutions_check_greedy_dominance_only() {
        let tiers: Vec<MckpGroup> = (0..30)
            .map(|i: u64| {
                group(&[
                    (((i * 37) % 97) as f64 * 0.6 + 1.0, ((i * 53) % 41) / 2 + 1),
                    (((i * 37) % 97) as f64 + 1.0, ((i * 53) % 41) + 2),
                ])
            })
            .collect();
        let items: Vec<(f64, u64)> =
            (0..40).map(|i: u64| (((i * 37) % 97) as f64 + 1.0, (i * 53) % 41 + 1)).collect();
        for (groups, divisor, budget) in [(tiers, 5, 40), (binary(&items), 2, 50)] {
            let cap: u64 =
                groups.iter().flat_map(|g| g.options.iter().map(|o| o.weight)).sum::<u64>()
                    / divisor;
            let (mut sol, cert) = solve_mckp_certified(&groups, cap, budget, None);
            assert!(!sol.proven_optimal && !cert.complete && cert.nodes.is_empty());
            let findings = verify_mckp(&groups, cap, &sol, &cert);
            assert!(findings.is_empty(), "{findings:?}");
            // Anything below the greedy fill is not an answer the search
            // can have returned.
            sol.choice.fill(0);
            (sol.value, sol.weight) = (0.0, 0);
            let findings = verify_mckp(&groups, cap, &sol, &cert);
            assert!(fires(&findings, DiagCode::InfeasibleIncumbent), "{findings:?}");
        }
    }

    #[test]
    fn greedy_certificates_verify_and_mutations_fire() {
        for (groups, cap) in
            [(tiers(), 13), (binary(&[(60.0, 10), (50.0, 9), (50.0, 9), (3.0, 1)]), 18)]
        {
            let sol = solve_mckp(&groups, cap, 1); // Budget 1 = greedy only.
            assert!(!sol.proven_optimal);
            let cert = greedy_mckp_certificate(&groups, cap, &sol);
            let findings = verify_mckp_greedy(&groups, cap, &sol, &cert);
            assert!(findings.is_empty(), "{findings:?}");

            // Understating the gap must fire BA504.
            let mut bad = cert.clone();
            bad.declared_gap = 0.0;
            let findings = verify_mckp_greedy(&groups, cap, &sol, &bad);
            assert!(fires(&findings, DiagCode::GreedyGapExceeded), "{findings:?}");
            bad.declared_gap = -1.0;
            let findings = verify_mckp_greedy(&groups, cap, &sol, &bad);
            assert!(fires(&findings, DiagCode::GreedyGapExceeded), "{findings:?}");
            // Corrupting the bound or its increment order must fire BA502.
            let mut bad = cert.clone();
            bad.relaxation_bound += 50.0;
            let findings = verify_mckp_greedy(&groups, cap, &sol, &bad);
            assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
            let mut bad = cert.clone();
            bad.order.reverse();
            let findings = verify_mckp_greedy(&groups, cap, &sol, &bad);
            assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
        }
    }

    #[test]
    fn lp_cross_check_agrees_with_the_hull_shortcut() {
        // verify_mckp_greedy trusts hull fill == LP optimum; this exercises
        // the slow path that proves the two implementations agree — on the
        // tiers, and on 0/1 items with a free and a worthless one.
        let items = [(60.0, 10), (50.0, 9), (50.0, 9), (3.0, 1), (7.0, 0), (-2.0, 4)];
        for (groups, cap) in [(tiers(), 13), (binary(&items), 18)] {
            let sol = solve_mckp(&groups, cap, 1);
            let cert = greedy_mckp_certificate(&groups, cap, &sol);
            let findings = verify_greedy_relaxation(&groups, cap, &cert);
            assert!(findings.is_empty(), "{findings:?}");

            let mut bad = cert.clone();
            bad.relaxation_bound += 50.0;
            let findings = verify_greedy_relaxation(&groups, cap, &bad);
            assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
        }
    }

    #[test]
    fn oracle_matches_a_linear_scan_at_every_position() {
        // The sum tree with decided groups switched off must equal the
        // published bound — a scan over the undecided groups' increments —
        // whichever way the replay moves between positions.
        let (groups, cap) = (tiers(), 16);
        let (_, cert) = solve_mckp_certified(&groups, cap, 0, None);
        let instance = Instance::new(&groups, cap, &cert.order).expect("clean order");
        let n = groups.len();
        let pos_of = |group| instance.branch.iter().position(|p| p.group == group).unwrap();
        let scan = |pos: usize, weight: u64, value: f64| {
            let (mut w, mut v) = (weight, value);
            for inc in instance.incs.iter().filter(|inc| pos_of(inc.group) >= pos) {
                if w + inc.dw <= cap {
                    w += inc.dw;
                    v += inc.dv;
                } else {
                    return v + inc.dv * (cap - w) as f64 / inc.dw as f64;
                }
            }
            v
        };
        let mut oracle = BoundOracle::new(&instance.incs);
        for pos in (0..=n).chain((0..n).rev()).chain([n, 0, 2, 1, 3]) {
            for weight in [0u64, 5, 11, 16] {
                oracle.move_to(&instance, pos);
                let start = instance.branch.get(pos).map_or(instance.incs.len(), |p| p.first_inc);
                let got = oracle.bound(start, cap - weight, 1.5);
                assert!((got - scan(pos, weight, 1.5)).abs() < 1e-9, "pos {pos}, weight {weight}");
            }
        }
    }

    #[test]
    fn random_instances_roundtrip_through_the_verifier() {
        let mut seed = 0xC0FF_EE11_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _case in 0..25 {
            let groups: Vec<MckpGroup> = (0..5)
                .map(|_| {
                    let full_w = next() % 40 + 2;
                    let full_v = (next() % 90) as f64 + 1.0;
                    let ser_w = full_w * (next() % 60 + 20) / 100;
                    let ser_v = full_v * ((next() % 80 + 10) as f64) / 100.0;
                    group(&[(ser_v, ser_w), (full_v, full_w)])
                })
                .collect();
            let cap: u64 =
                groups.iter().flat_map(|g| g.options.iter().map(|o| o.weight)).sum::<u64>() / 4;
            let (sol, cert) = solve_mckp_certified(&groups, cap, 0, None);
            let findings = verify_mckp(&groups, cap, &sol, &cert);
            assert!(findings.is_empty(), "{findings:?}");
        }
    }
}
