//! The per-executor state search: exact multi-choice knapsack by branch and
//! bound with convex-hull fractional bounds.
//!
//! Every candidate partition picks exactly one option from its group
//! subject to one capacity constraint. With the serialized in-memory tier
//! the options are out of memory (weight 0), serialized (footprint-scaled
//! weight) and deserialized (full weight); without it each group is
//! `[zero, (value, weight)]` and the program is the classic 0/1 knapsack —
//! the same search, node for node.
//!
//! # The published search rule
//!
//! The certificate verifier in `blaze-certify` replays the search from this
//! description with its own comparators; nothing below is private
//! knowledge.
//!
//! 1. **Hull increments.** Per group, LP-dominated options are removed and
//!    the upper convex hull anchored at `(0, 0)` is split into increments
//!    `(dw, dv)`, `dv > 0`. An increment's *density* is `dv / dw` (`+inf`
//!    for `dw = 0`), clamped to the density of the level below it so that a
//!    group's increments never sort out of level order.
//! 2. **Increment order.** All increments are sorted by density descending,
//!    then group index ascending, then hull level ascending — a strict
//!    total order.
//! 3. **Branch order.** Groups are branched in the order their *first*
//!    increment appears in that list; groups without an increment (no
//!    option beats the zero option) come last, by group index.
//! 4. **Children.** At a node the group's options are tried by value
//!    descending, then option index ascending, skipping options that do not
//!    fit and non-zero options of non-positive value.
//! 5. **Bound.** The Zemel/Dantzig bound of a node is its value plus a
//!    greedy fill of the remaining capacity with the increments of the
//!    still-undecided groups in increment order, the first increment that
//!    does not fit contributing fractionally. A node is cut when the bound
//!    is within [`PRUNE_EPS`] of the incumbent.
//! 6. **Incumbent.** The search starts from the integer greedy fill over
//!    the increment order (an increment is taken when the level below it
//!    was and it fits); any node's partial assignment is feasible, because
//!    undecided groups complete with their zero options.
//!
//! Branching in density order is what keeps the bound tight: the groups
//! decided first are the ones the fractional fill takes whole, so the scan
//! of rule 5 can start at the branch position's own first increment and
//! usually stops after a handful of entries.

use crate::cert::{McNode, MckpCertificate};
use std::cmp::Ordering;

/// Margin the incumbent prune uses (`ub <= best + PRUNE_EPS`). Public for
/// the certificate verifier.
pub const PRUNE_EPS: f64 = 1e-12;

/// Node budget a `node_budget` of 0 stands for.
const DEFAULT_NODE_BUDGET: usize = 200_000;

/// One option of a group (one state the candidate partition could take).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MckpOption {
    /// Value gained if this option is chosen (saved recovery cost, seconds).
    pub value: f64,
    /// Weight charged against the shared capacity (bytes in the memory
    /// store; zero for options that do not occupy memory).
    pub weight: u64,
}

/// One group: the mutually exclusive options of one candidate. Exactly one
/// option is chosen per group. Option 0 must be the zero option
/// `(value 0, weight 0)` — "keep nothing in memory" — which guarantees
/// every instance is feasible.
#[derive(Debug, Clone, PartialEq)]
pub struct MckpGroup {
    /// The candidate's options; index 0 is the zero option.
    pub options: Vec<MckpOption>,
}

/// The result of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MckpSolution {
    /// Chosen option index per group, aligned with the input groups.
    pub choice: Vec<usize>,
    /// Total value of the choice.
    pub value: f64,
    /// Total weight of the choice.
    pub weight: u64,
    /// True if the solution is provably optimal.
    pub proven_optimal: bool,
}

/// One point of a group's hull: weight, value, and the option realising it.
type HullPoint = (u64, f64, usize);

/// The upper convex hull of `options` over their LP-dominance frontier,
/// written to `hull` (`pts` is sort scratch; both are reused across groups).
fn hull_of(options: &[MckpOption], pts: &mut Vec<HullPoint>, hull: &mut Vec<HullPoint>) {
    pts.clear();
    pts.extend(options.iter().enumerate().map(|(i, o)| (o.weight, o.value, i)));
    pts.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0).then(b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal)).then(a.2.cmp(&b.2))
    });
    // The hull is anchored at (0, 0) — the zero option — and the anchor is
    // never popped: a weight-0 option with positive value becomes a
    // `dw = 0` increment of infinite density (always taken), so its free
    // value flows through the increment accounting instead of silently
    // shifting the hull's base.
    hull.clear();
    hull.push((0, 0.0, 0));
    for &(w, v, option) in pts.iter() {
        // Dominance: in (weight asc, value desc) order only a strictly
        // better value is worth more weight (a NaN value never is).
        if v > hull[hull.len() - 1].1 {
            // Convexity: incremental densities must strictly decrease.
            while hull.len() >= 2 {
                let (w1, v1, _) = hull[hull.len() - 1];
                let (w2, v2, _) = hull[hull.len() - 2];
                let lhs = (v1 - v2) * (w - w1) as f64; // audit: allow(float-cast)
                let rhs = (v - v1) * (w1 - w2) as f64; // audit: allow(float-cast)
                if lhs > rhs {
                    break;
                }
                hull.pop();
            }
            hull.push((w, v, option));
        }
    }
}

/// One hull increment: moving `group` from hull level `level - 1` to
/// `level` (reaching `option`) costs `dw` weight and gains `dv` value.
#[derive(Debug, Clone, Copy)]
struct Inc {
    density: f64,
    group: usize,
    level: usize,
    option: usize,
    dw: u64,
    dv: f64,
}

/// Every group's hull increments in the published increment order (rules 1
/// and 2 of the module docs).
fn global_increments(groups: &[MckpGroup]) -> Vec<Inc> {
    let mut incs = Vec::with_capacity(groups.len());
    let (mut pts, mut hull) = (Vec::new(), Vec::new());
    for (group, g) in groups.iter().enumerate() {
        hull_of(&g.options, &mut pts, &mut hull);
        let mut density = f64::INFINITY;
        for level in 1..hull.len() {
            let ((w0, v0, _), (w1, v1, option)) = (hull[level - 1], hull[level]);
            let (dw, dv) = (w1 - w0, v1 - v0);
            if dw > 0 {
                density = density.min(dv / dw as f64); // audit: allow(float-cast)
            }
            incs.push(Inc { density, group, level, option, dw, dv });
        }
    }
    // Densities are positive and never NaN (a NaN value fails the dominance
    // test above), so `total_cmp` is the numeric order.
    incs.sort_unstable_by(|a, b| {
        b.density.total_cmp(&a.density).then(a.group.cmp(&b.group)).then(a.level.cmp(&b.level))
    });
    incs
}

/// Solves the multi-choice knapsack over `groups` with the given
/// `capacity`. `node_budget` bounds the branch-and-bound search (0 =
/// default 200 000); exhausting it returns the best solution found (at
/// least as good as greedy), flagged `proven_optimal = false`.
///
/// # Examples
///
/// ```
/// use blaze_solver::mckp::{solve_mckp, MckpGroup, MckpOption};
///
/// let zero = MckpOption { value: 0.0, weight: 0 };
/// let groups = [
///     MckpGroup { options: vec![zero, MckpOption { value: 6.0, weight: 6 },
///                               MckpOption { value: 10.0, weight: 10 }] },
///     MckpGroup { options: vec![zero, MckpOption { value: 9.0, weight: 10 }] },
/// ];
/// let s = solve_mckp(&groups, 16, 0);
/// assert_eq!(s.choice, vec![1, 1]);
/// assert_eq!(s.value, 15.0);
/// ```
pub fn solve_mckp(groups: &[MckpGroup], capacity: u64, node_budget: usize) -> MckpSolution {
    solve_mckp_inner(groups, capacity, node_budget, false).0
}

/// [`solve_mckp`], additionally recording a [`MckpCertificate`] of the
/// explored tree. The solution is byte-identical to the uncertified solve —
/// recording only appends to a side vector and never influences which nodes
/// the search visits.
///
/// `_pinned` takes only `None`: it keeps the four-argument signature the
/// repository benchmark calls, and ROADMAP item 1 removes it.
pub fn solve_mckp_certified(
    groups: &[MckpGroup],
    capacity: u64,
    node_budget: usize,
    _pinned: Option<std::convert::Infallible>,
) -> (MckpSolution, MckpCertificate) {
    let (sol, cert) = solve_mckp_inner(groups, capacity, node_budget, true);
    (sol, cert.unwrap_or_default())
}

/// The increment order as certificates carry it: `(group, hull level)` pairs.
fn order_of(incs: &[Inc]) -> Vec<(usize, usize)> {
    incs.iter().map(|inc| (inc.group, inc.level)).collect()
}

/// What the search knows about one branch position. `positions[n]` is a
/// sentinel closing the last position's child range.
#[derive(Debug, Clone, Copy)]
struct Position {
    /// The group decided here.
    group: usize,
    /// Where the bound scan starts: the group's first increment. Every
    /// increment before it belongs to an already-decided group.
    first_inc: usize,
    /// Start of the group's children in [`Search::children`].
    first_child: usize,
}

/// The part of an [`Inc`] the bound scan reads, with the group replaced by
/// its branch position.
#[derive(Debug, Clone, Copy)]
struct ScanInc {
    pos: usize,
    dw: u64,
    dv: f64,
}

/// Rule 5: the value of a node at branch position `pos` plus a greedy
/// fractional fill of its remaining capacity over the increments of the
/// still-undecided groups. `scan` starts at the position's first increment.
///
/// Kept out of line: inlined into the recursive [`Search::dfs`] it costs
/// 512-group three-option searches a third more time (measured; the scan's
/// registers are then live across every recursive call).
#[inline(never)]
fn hull_bound(scan: &[ScanInc], pos: usize, capacity: u64, weight: u64, value: f64) -> f64 {
    let (mut w, mut v) = (weight, value);
    for inc in scan {
        if inc.pos < pos {
            continue;
        }
        if w + inc.dw <= capacity {
            w += inc.dw;
            v += inc.dv;
        } else {
            let room = (capacity - w) as f64; // audit: allow(float-cast)
            v += inc.dv * room / inc.dw as f64; // audit: allow(float-cast)
            break;
        }
    }
    v
}

/// One admissible option of a group, in exploration order.
#[derive(Debug, Clone, Copy)]
struct Child {
    option: usize,
    weight: u64,
    value: f64,
}

struct Search<'a> {
    positions: &'a [Position],
    scan: &'a [ScanInc],
    children: &'a [Child],
    capacity: u64,
    best_value: f64,
    best_choice: Vec<usize>,
    nodes: usize,
    budget: usize,
    exhausted: bool,
    /// DFS-preorder certificate recording (`None` = off). Append-only:
    /// never consulted by the search itself.
    rec: Option<Vec<McNode>>,
}

impl Search<'_> {
    /// Overwrites the certificate slot pushed for the current node.
    fn set_node(&mut self, slot: Option<usize>, kind: McNode) {
        if let (Some(rec), Some(s)) = (self.rec.as_mut(), slot) {
            rec[s] = kind;
        }
    }

    fn dfs(&mut self, pos: usize, weight: u64, value: f64, choice: &mut [usize]) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.exhausted = true;
            return;
        }
        // Preorder slot; overwritten with the node's terminal kind below.
        let slot = self.rec.as_mut().map(|r| {
            r.push(McNode::Leaf);
            r.len() - 1
        });
        if value > self.best_value {
            self.best_value = value;
            self.best_choice.copy_from_slice(choice);
        }
        if pos + 1 >= self.positions.len() {
            return; // Every group is decided; the slot stays `Leaf`.
        }
        let scan = &self.scan[self.positions[pos].first_inc..];
        let ub = hull_bound(scan, pos, self.capacity, weight, value);
        if ub <= self.best_value + PRUNE_EPS {
            self.set_node(slot, McNode::Pruned { bound: ub });
            return;
        }
        self.set_node(slot, McNode::Branch);
        let Position { group, first_child, .. } = self.positions[pos];
        for c in first_child..self.positions[pos + 1].first_child {
            let child = self.children[c];
            if weight + child.weight > self.capacity {
                continue;
            }
            choice[group] = child.option;
            self.dfs(pos + 1, weight + child.weight, value + child.value, choice);
            choice[group] = 0;
            if self.exhausted {
                return;
            }
        }
    }
}

fn solve_mckp_inner(
    groups: &[MckpGroup],
    capacity: u64,
    node_budget: usize,
    record: bool,
) -> (MckpSolution, Option<MckpCertificate>) {
    let n = groups.len();
    debug_assert!(
        groups.iter().all(|g| g.options.first() == Some(&MckpOption { value: 0.0, weight: 0 })),
        "every group must lead with the zero option"
    );
    let incs = global_increments(groups);

    // Rule 3, and the per-position tables of the search. First increments
    // appear in branch order, so one pass over `incs` assigns positions.
    const UNPLACED: usize = usize::MAX;
    let mut pos_of = vec![UNPLACED; n];
    let mut positions = Vec::with_capacity(n + 1);
    let mut scan = Vec::with_capacity(incs.len());
    for (i, inc) in incs.iter().enumerate() {
        if inc.level == 1 {
            pos_of[inc.group] = positions.len();
            positions.push(Position { group: inc.group, first_inc: i, first_child: 0 });
        }
        scan.push(ScanInc { pos: pos_of[inc.group], dw: inc.dw, dv: inc.dv });
    }
    for (group, pos) in pos_of.iter().enumerate() {
        if *pos == UNPLACED {
            positions.push(Position { group, first_inc: incs.len(), first_child: 0 });
        }
    }
    positions.push(Position { group: UNPLACED, first_inc: incs.len(), first_child: 0 });

    // Rule 4: each position's admissible options in exploration order.
    let mut children = Vec::with_capacity(2 * n);
    let mut by_value: Vec<usize> = Vec::new();
    for position in &mut positions[..n] {
        position.first_child = children.len();
        let options = &groups[position.group].options;
        by_value.clear();
        by_value.extend((0..options.len()).filter(|&o| o == 0 || options[o].value > 0.0));
        by_value.sort_unstable_by(|&a, &b| {
            options[b]
                .value
                .partial_cmp(&options[a].value)
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        children.extend(by_value.iter().map(|&option| Child {
            option,
            weight: options[option].weight,
            value: options[option].value,
        }));
    }
    positions[n].first_child = children.len();

    // Rule 6: the greedy incumbent.
    let mut greedy_level = vec![0usize; n];
    let mut greedy_choice = vec![0usize; n];
    let (mut gw, mut gv) = (0u64, 0.0f64);
    for inc in &incs {
        if greedy_level[inc.group] + 1 == inc.level && gw + inc.dw <= capacity {
            greedy_level[inc.group] = inc.level;
            greedy_choice[inc.group] = inc.option;
            gw += inc.dw;
            gv += inc.dv;
        }
    }

    let mut search = Search {
        positions: &positions,
        scan: &scan,
        children: &children,
        capacity,
        best_value: gv,
        best_choice: greedy_choice,
        nodes: 0,
        budget: if node_budget == 0 { DEFAULT_NODE_BUDGET } else { node_budget },
        exhausted: false,
        rec: record.then(Vec::new),
    };
    search.dfs(0, 0, 0.0, &mut vec![0usize; n]);

    let cert = search.rec.take().map(|nodes| MckpCertificate {
        // An exhausted tree proves nothing — drop it rather than let the
        // verifier chase a truncated replay.
        nodes: if search.exhausted { vec![] } else { nodes },
        complete: !search.exhausted,
        order: order_of(&incs),
    });
    let choice = search.best_choice;
    let weight = choice.iter().zip(groups).map(|(&c, g)| g.options[c].weight).sum();
    let sol = MckpSolution {
        value: search.best_value,
        weight,
        choice,
        proven_optimal: !search.exhausted,
    };
    (sol, cert)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn brute_force(groups: &[MckpGroup], capacity: u64) -> f64 {
        fn rec(groups: &[MckpGroup], g: usize, w: u64, v: f64, cap: u64, best: &mut f64) {
            if g == groups.len() {
                *best = best.max(v);
                return;
            }
            for opt in &groups[g].options {
                if w + opt.weight <= cap {
                    rec(groups, g + 1, w + opt.weight, v + opt.value, cap, best);
                }
            }
        }
        let mut best = 0.0f64;
        rec(groups, 0, 0, 0.0, capacity, &mut best);
        best
    }

    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    fn hull(options: &[MckpOption]) -> Vec<(u64, f64)> {
        let (mut pts, mut hull) = (Vec::new(), Vec::new());
        hull_of(options, &mut pts, &mut hull);
        hull.into_iter().map(|(w, v, _)| (w, v)).collect()
    }

    #[test]
    fn solves_three_tier_instance() {
        // Each group models one candidate's {out, ser, mem} options.
        let groups = [
            group(&[(8.0, 6), (10.0, 10)]),
            group(&[(5.0, 6), (9.0, 10)]),
            group(&[(2.0, 3), (3.0, 5)]),
        ];
        let s = solve_mckp(&groups, 16, 0);
        assert!(s.proven_optimal);
        assert!((s.value - brute_force(&groups, 16)).abs() < 1e-9);
        assert!(s.weight <= 16);
        // One option chosen per group, indices valid.
        assert_eq!(s.choice.len(), 3);
        for (c, g) in s.choice.iter().zip(&groups) {
            assert!(*c < g.options.len());
        }
    }

    #[test]
    fn solves_classic_binary_instance() {
        // values 60,100,120; weights 10,20,30; cap 50 => {1,2} = 220.
        let s = solve_mckp(&binary(&[(60.0, 10), (100.0, 20), (120.0, 30)]), 50, 0);
        assert!(s.proven_optimal);
        assert_eq!(s.choice, vec![0, 1, 1]);
        assert!((s.value - 220.0).abs() < 1e-9);
        assert_eq!(s.weight, 50);
    }

    #[test]
    fn greedy_is_not_enough_but_bb_is() {
        // Greedy by density picks item 0 (density 6.0), after which neither
        // 9-weight item fits (value 60); optimal is {1, 2} = 100.
        let groups = binary(&[(60.0, 10), (50.0, 9), (50.0, 9)]);
        let greedy = solve_mckp(&groups, 18, 1);
        assert_eq!((greedy.choice, greedy.value), (vec![1, 0, 0], 60.0));
        let s = solve_mckp(&groups, 18, 0);
        assert!((s.value - 100.0).abs() < 1e-9);
        assert_eq!(s.choice, vec![0, 1, 1]);
    }

    #[test]
    fn serialized_option_wins_under_tight_capacity() {
        // Memory is worth 10 at weight 10; serialized is worth 8 at
        // weight 6. With capacity for only one full-weight block, taking
        // two serialized copies beats one deserialized one.
        let groups = [group(&[(8.0, 6), (10.0, 10)]), group(&[(8.0, 6), (10.0, 10)])];
        let s = solve_mckp(&groups, 12, 0);
        assert_eq!(s.choice, vec![1, 1]);
        assert!((s.value - 16.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_keeps_everything_out() {
        let groups = [group(&[(8.0, 6)]), group(&[(5.0, 3)])];
        let s = solve_mckp(&groups, 0, 0);
        assert_eq!(s.choice, vec![0, 0]);
        assert_eq!(s.value, 0.0);
        assert_eq!(s.weight, 0);
    }

    #[test]
    fn zero_weight_options_are_free_value() {
        let s = solve_mckp(&binary(&[(5.0, 0), (1.0, 10)]), 10, 0);
        assert_eq!(s.choice, vec![1, 1]);
        assert!((s.value - 6.0).abs() < 1e-9);
    }

    #[test]
    fn negative_value_options_are_never_chosen() {
        let mut g = group(&[(-5.0, 1)]);
        g.options.push(MckpOption { value: 3.0, weight: 2 });
        let s = solve_mckp(&[g], 10, 0);
        assert_eq!(s.choice, vec![2]);
        assert!((s.value - 3.0).abs() < 1e-9);
        let s = solve_mckp(&binary(&[(-5.0, 1), (3.0, 1)]), 10, 0);
        assert_eq!(s.choice, vec![0, 1]);
    }

    #[test]
    fn empty_instance_is_trivially_optimal() {
        let (s, cert) = solve_mckp_certified(&[], 100, 0, None);
        assert!(s.proven_optimal);
        assert_eq!(s.value, 0.0);
        assert_eq!((cert.nodes, cert.complete), (vec![McNode::Leaf], true));
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut next = xorshift(0xFEED_F00D);
        for _case in 0..40 {
            let groups: Vec<MckpGroup> = (0..6)
                .map(|_| {
                    let full_w = next() % 40 + 2;
                    let full_v = (next() % 90) as f64 + 1.0;
                    // A serialized option: smaller weight, smaller value.
                    let ser_w = full_w * (next() % 60 + 20) / 100;
                    let ser_v = full_v * ((next() % 80 + 10) as f64) / 100.0;
                    group(&[(ser_v, ser_w), (full_v, full_w)])
                })
                .collect();
            let cap: u64 =
                groups.iter().flat_map(|g| g.options.iter().map(|o| o.weight)).sum::<u64>() / 4;
            let s = solve_mckp(&groups, cap, 0);
            assert!(s.proven_optimal);
            let best = brute_force(&groups, cap);
            assert!((s.value - best).abs() < 1e-9, "got {}, brute force {best}", s.value);
        }
        // The two-option shape.
        let mut next = xorshift(0xDEAD_BEEF);
        for _case in 0..30 {
            let items: Vec<(f64, u64)> =
                (0..10).map(|_| ((next() % 100) as f64, next() % 50 + 1)).collect();
            let groups = binary(&items);
            let cap = items.iter().map(|i| i.1).sum::<u64>() / 3;
            let s = solve_mckp(&groups, cap, 0);
            assert!(s.proven_optimal);
            let best = brute_force(&groups, cap);
            assert!((s.value - best).abs() < 1e-9, "got {}, brute force {best}", s.value);
        }
    }

    #[test]
    fn budget_exhaustion_still_beats_or_matches_greedy() {
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
            let greedy = solve_mckp(&groups, cap, 1);
            let tight = solve_mckp(&groups, cap, budget);
            let full = solve_mckp(&groups, cap, 0);
            assert!(!tight.proven_optimal && full.proven_optimal);
            assert!(tight.value <= full.value + 1e-9);
            assert!(tight.value >= greedy.value && greedy.value > 0.0);
        }
    }

    #[test]
    fn zero_weight_positive_option_keeps_value_and_choice_consistent() {
        // Regression: a weight-0 option with positive value used to pop the
        // (0, 0) hull anchor, shifting the hull base so the greedy fill's
        // value missed the free value while its mapped choice included it —
        // `solution.value` then disagreed with re-pricing `solution.choice`.
        let groups = [
            group(&[(11.73, 0), (17.0, 3)]),
            group(&[(56.58, 6), (82.0, 16)]),
            group(&[(7.37, 6), (67.0, 8)]),
        ];
        for cap in [0u64, 3, 11, 27] {
            let s = solve_mckp(&groups, cap, 0);
            let repriced: f64 =
                s.choice.iter().zip(&groups).map(|(&c, g)| g.options[c].value).sum();
            assert!((repriced - s.value).abs() < 1e-9, "cap {cap}: {} vs {repriced}", s.value);
            assert!((s.value - brute_force(&groups, cap)).abs() < 1e-9);
        }
        // The free option is always worth taking, even at zero capacity.
        let s = solve_mckp(&groups, 0, 0);
        assert_eq!(s.choice, vec![1, 0, 0]);
        assert!((s.value - 11.73).abs() < 1e-9);
    }

    #[test]
    fn hull_keeps_the_anchor_under_zero_weight_options() {
        let hull = hull(&[
            zero(),
            MckpOption { value: 11.73, weight: 0 },
            MckpOption { value: 17.0, weight: 3 },
        ]);
        assert_eq!(hull, vec![(0, 0.0), (0, 11.73), (3, 17.0)]);
    }

    #[test]
    fn hull_removes_lp_dominated_options() {
        // Option (5.0, 9) is LP-dominated by mixing (0,0) and (10.0, 10).
        let dominated = hull(&[
            zero(),
            MckpOption { value: 5.0, weight: 9 },
            MckpOption { value: 10.0, weight: 10 },
        ]);
        assert_eq!(dominated, vec![(0, 0.0), (10, 10.0)]);
        // A genuinely useful middle option survives.
        let useful = hull(&[
            zero(),
            MckpOption { value: 8.0, weight: 6 },
            MckpOption { value: 10.0, weight: 10 },
        ]);
        assert_eq!(useful, vec![(0, 0.0), (6, 8.0), (10, 10.0)]);
    }

    #[test]
    fn groups_branch_in_first_increment_density_order() {
        // Densities of the first hull increments: 0.5, 4/3, 1.0, and none
        // (no option beats zero) — so the branch order is 1, 2, 0, 3. Group
        // 1's second increment ties with group 0's first at 0.5 and sorts
        // after it by group index.
        let groups = [
            group(&[(3.0, 6)]),
            group(&[(8.0, 6), (10.0, 10)]),
            group(&[(5.0, 5)]),
            group(&[(-1.0, 2)]),
        ];
        let (_, cert) = solve_mckp_certified(&groups, 16, 0, None);
        assert_eq!(cert.order, vec![(1, 1), (2, 1), (0, 1), (1, 2)]);
    }

    /// The benchmark drill's instances: block-sized weights, values weakly
    /// correlated with them, options `[zero, (0.8v, 0.6w), (v, w)]`,
    /// capacity three quarters of Σw.
    fn drill_groups(n: usize, seed: u64) -> (Vec<MckpGroup>, u64) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let groups: Vec<MckpGroup> = (0..n)
            .map(|_| {
                let weight = 1024 * (16 + next() % 113);
                let value = weight as f64 * (0.5 + (next() % 1000) as f64 / 1000.0) / 1e6;
                group(&[(value * 0.8, weight * 6 / 10), (value, weight)])
            })
            .collect();
        let capacity = groups.iter().map(|g| g.options[2].weight).sum::<u64>() * 3 / 4;
        (groups, capacity)
    }

    /// Regression for branching in candidate (group-index) order: the hull
    /// bound then stays loose until the last groups are decided, and seeds
    /// 43, 44, 46 and 47 ran out of the default budget at n = 512 — three of
    /// them returning a worse-than-optimal answer.
    #[test]
    fn drill_instances_are_proven_within_the_default_budget() {
        for seed in 42..=48 {
            let (groups, capacity) = drill_groups(512, seed);
            let default = solve_mckp(&groups, capacity, 0);
            assert!(default.proven_optimal, "seed {seed}: default budget exhausted");
            let unbounded = solve_mckp(&groups, capacity, usize::MAX);
            assert_eq!(default, unbounded, "seed {seed}");

            let (groups, capacity) = drill_groups(64, seed);
            let s = solve_mckp(&groups, capacity, 0);
            assert!(s.proven_optimal, "seed {seed}, n = 64");
            // Against brute force: a 12-group prefix at its own capacity.
            let prefix = &groups[..12];
            let capacity = prefix.iter().map(|g| g.options[2].weight).sum::<u64>() * 3 / 4;
            let s = solve_mckp(prefix, capacity, 0);
            assert!(s.proven_optimal);
            let best = brute_force(prefix, capacity);
            assert!((s.value - best).abs() < 1e-12, "seed {seed}: {} vs {best}", s.value);
        }
    }
}
