//! Property-based tests on the LP/ILP solver stack.

use blaze::solver::ilp::{solve_binary, IlpOutcome, IlpProblem};
use blaze::solver::lp::{solve as solve_lp, Constraint, LinearProgram, LpOutcome};
use blaze::solver::mckp::{
    greedy_mckp_certificate, solve_mckp, solve_mckp_warm, MckpGroup, MckpOption, MckpWarm,
};
use proptest::prelude::*;

/// Builds groups from raw `(value, weight)` rows, prepending the mandatory
/// zero option to each group.
fn mckp_groups(raw: &[Vec<(f64, u64)>]) -> Vec<MckpGroup> {
    raw.iter()
        .map(|opts| {
            let mut options = vec![MckpOption { value: 0.0, weight: 0 }];
            options.extend(opts.iter().map(|&(value, weight)| MckpOption { value, weight }));
            MckpGroup { options }
        })
        .collect()
}

/// 0/1 items as two-option groups: choice 1 selects the item.
fn knapsack_groups(values: &[f64], weights: &[u64]) -> Vec<MckpGroup> {
    let rows: Vec<_> = values.iter().zip(weights).map(|(&v, &w)| vec![(v, w)]).collect();
    mckp_groups(&rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The LP relaxation bounds the ILP: relax(knapsack) >= exact(knapsack).
    #[test]
    fn lp_relaxation_bounds_the_integer_optimum(
        values in prop::collection::vec(0.1f64..50.0, 1..8),
        weights in prop::collection::vec(1u64..40, 1..8),
    ) {
        let n = values.len().min(weights.len());
        let values = &values[..n];
        let weights = &weights[..n];
        let cap: u64 = weights.iter().sum::<u64>() / 2 + 1;

        let exact = solve_mckp(&knapsack_groups(values, weights), cap, 0);
        prop_assert!(exact.proven_optimal);

        // LP relaxation (boxed 0..1 variables).
        let mut constraints =
            vec![Constraint::le(weights.iter().map(|&w| w as f64).collect(), cap as f64)];
        for i in 0..n {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            constraints.push(Constraint::le(row, 1.0));
        }
        let lp = LinearProgram {
            objective: values.iter().map(|v| -v).collect(),
            constraints,
        };
        if let LpOutcome::Optimal { objective, .. } = solve_lp(&lp).unwrap() {
            prop_assert!(-objective >= exact.value - 1e-6,
                "LP bound {} below ILP value {}", -objective, exact.value);
        } else {
            prop_assert!(false, "boxed knapsack LP must be feasible and bounded");
        }
    }

    /// The general binary ILP agrees with the specialized knapsack solver.
    #[test]
    fn binary_ilp_matches_knapsack(
        values in prop::collection::vec(0.1f64..30.0, 1..7),
        weights in prop::collection::vec(1u64..25, 1..7),
    ) {
        let n = values.len().min(weights.len());
        let values = &values[..n];
        let weights = &weights[..n];
        let cap: u64 = weights.iter().sum::<u64>() / 2 + 1;

        let ks = solve_mckp(&knapsack_groups(values, weights), cap, 0);

        let problem = IlpProblem {
            objective: values.iter().map(|v| -v).collect(),
            constraints: vec![Constraint::le(
                weights.iter().map(|&w| w as f64).collect(),
                cap as f64,
            )],
            node_budget: 0,
            warm: None,
        };
        match solve_binary(&problem).unwrap() {
            IlpOutcome::Solved { objective, proven_optimal, .. } => {
                prop_assert!(proven_optimal);
                prop_assert!((-objective - ks.value).abs() < 1e-6,
                    "ILP {} vs knapsack {}", -objective, ks.value);
            }
            IlpOutcome::Infeasible => prop_assert!(false, "knapsack is always feasible"),
        }
    }

    /// Knapsack solutions respect capacity and never pick negative value.
    #[test]
    fn knapsack_solutions_are_feasible(
        items in prop::collection::vec((-10.0f64..50.0, 0u64..40), 0..12),
        cap in 0u64..200,
    ) {
        let (values, weights): (Vec<f64>, Vec<u64>) = items.into_iter().unzip();
        let s = solve_mckp(&knapsack_groups(&values, &weights), cap, 0);
        let selected = || s.choice.iter().zip(values.iter().zip(&weights)).filter(|(&c, _)| c == 1);
        let weight: u64 = selected().map(|(_, (_, &w))| w).sum();
        prop_assert!(weight <= cap);
        prop_assert_eq!(weight, s.weight);
        prop_assert!(selected().all(|(_, (&v, _))| v >= 0.0), "selected a negative-value item");
    }
}

// ---------------------------------------------------------------------------
// More than two options per group (the serialized-tier shape).
// ---------------------------------------------------------------------------

/// Exhaustive enumeration of every per-group choice (small instances only).
fn mckp_brute_force(groups: &[MckpGroup], capacity: u64) -> f64 {
    fn rec(groups: &[MckpGroup], g: usize, w: u64, v: f64, cap: u64, best: &mut f64) {
        if g == groups.len() {
            if v > *best {
                *best = v;
            }
            return;
        }
        for opt in &groups[g].options {
            if w + opt.weight <= cap {
                rec(groups, g + 1, w + opt.weight, v + opt.value, cap, best);
            }
        }
    }
    let mut best = 0.0;
    rec(groups, 0, 0, 0.0, capacity, &mut best);
    best
}

fn mckp_capacity(raw: &[Vec<(f64, u64)>]) -> u64 {
    raw.iter().map(|opts| opts.iter().map(|&(_, w)| w).max().unwrap_or(0)).sum::<u64>() / 2 + 1
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Full-budget branch-and-bound is exact: it matches brute-force
    /// enumeration on every small instance, and its reported value/weight
    /// are consistent with the returned choice.
    #[test]
    fn mckp_branch_and_bound_matches_brute_force(
        raw in prop::collection::vec(
            prop::collection::vec((0.1f64..20.0, 0u64..25), 1..4), 1..6),
    ) {
        let groups = mckp_groups(&raw);
        let cap = mckp_capacity(&raw);
        let sol = solve_mckp(&groups, cap, 0);
        prop_assert!(sol.proven_optimal, "small instances must be solved to optimality");
        prop_assert_eq!(sol.choice.len(), groups.len());
        let (mut w, mut v) = (0u64, 0.0f64);
        for (g, &c) in groups.iter().zip(&sol.choice) {
            prop_assert!(c < g.options.len());
            w += g.options[c].weight;
            v += g.options[c].value;
        }
        prop_assert!(w <= cap, "choice overflows the capacity");
        prop_assert_eq!(w, sol.weight);
        prop_assert!((v - sol.value).abs() < 1e-9, "reported value disagrees with choice");
        let best = mckp_brute_force(&groups, cap);
        prop_assert!((sol.value - best).abs() < 1e-9,
            "B&B value {} != brute force {}", sol.value, best);
    }

    /// The greedy rung (node budget 1) never beats the optimum, and its
    /// certificate brackets it: `relaxation_bound` upper-bounds the optimum
    /// and `relaxation_bound - declared_gap` lower-bounds the greedy value.
    #[test]
    fn mckp_greedy_is_bracketed_by_its_certificate(
        raw in prop::collection::vec(
            prop::collection::vec((0.1f64..20.0, 0u64..25), 1..4), 1..6),
    ) {
        let groups = mckp_groups(&raw);
        let cap = mckp_capacity(&raw);
        let greedy = solve_mckp(&groups, cap, 1);
        prop_assert!(greedy.weight <= cap);
        let best = mckp_brute_force(&groups, cap);
        prop_assert!(greedy.value <= best + 1e-9,
            "greedy {} beats the optimum {}", greedy.value, best);
        let cert = greedy_mckp_certificate(&groups, cap, &greedy);
        prop_assert!(cert.relaxation_bound >= best - 1e-9,
            "hull bound {} below the optimum {}", cert.relaxation_bound, best);
        prop_assert!(greedy.value >= cert.relaxation_bound - cert.declared_gap - 1e-9,
            "greedy {} below its declared floor {}",
            greedy.value, cert.relaxation_bound - cert.declared_gap);
    }

    /// The exact-ILP encoding (one binary per option, one equality row per
    /// group, a shared capacity row) reaches the same optimum as the
    /// dedicated multi-choice solver.
    #[test]
    fn mckp_agrees_with_the_binary_ilp_encoding(
        raw in prop::collection::vec(
            prop::collection::vec((0.1f64..20.0, 0u64..25), 1..3), 1..4),
    ) {
        let groups = mckp_groups(&raw);
        let cap = mckp_capacity(&raw);
        let n: usize = groups.iter().map(|g| g.options.len()).sum();
        let mut objective = vec![0.0; n];
        let mut cap_row = vec![0.0; n];
        let mut constraints = Vec::new();
        let mut col = 0usize;
        for g in &groups {
            let mut eq_row = vec![0.0; n];
            for opt in &g.options {
                objective[col] = -opt.value;
                cap_row[col] = opt.weight as f64;
                eq_row[col] = 1.0;
                col += 1;
            }
            constraints.push(Constraint::eq(eq_row, 1.0));
        }
        constraints.push(Constraint::le(cap_row, cap as f64));
        let problem =
            IlpProblem { objective, constraints, node_budget: 0, warm: None };
        let mc = solve_mckp(&groups, cap, 0);
        match solve_binary(&problem).unwrap() {
            IlpOutcome::Solved { objective, proven_optimal, .. } => {
                prop_assert!(proven_optimal);
                prop_assert!((-objective - mc.value).abs() < 1e-6,
                    "ILP optimum {} != MCKP optimum {}", -objective, mc.value);
            }
            IlpOutcome::Infeasible => prop_assert!(false, "eq-row MCKP is always feasible"),
        }
    }

    /// A warm-start hint — valid or stale — never changes the decision:
    /// the warm solve returns the exact choice of the cold solve.
    #[test]
    fn mckp_warm_start_is_decision_identical(
        raw in prop::collection::vec(
            prop::collection::vec((0.1f64..20.0, 0u64..25), 1..4), 1..6),
        picks in prop::collection::vec(0usize..4, 1..6),
    ) {
        let groups = mckp_groups(&raw);
        let cap = mckp_capacity(&raw);
        let cold = solve_mckp(&groups, cap, 0);
        // Clamp the random hint into each group's option range; also try a
        // length-mismatched (stale) hint, which must be ignored.
        let choice: Vec<usize> = groups
            .iter()
            .enumerate()
            .map(|(i, g)| picks.get(i).copied().unwrap_or(0).min(g.options.len() - 1))
            .collect();
        for warm in [
            MckpWarm { choice: choice.clone() },
            MckpWarm { choice: cold.choice.clone() },
            MckpWarm { choice: vec![0; groups.len() + 1] },
        ] {
            let warmed = solve_mckp_warm(&groups, cap, 0, Some(&warm));
            prop_assert_eq!(&warmed.choice, &cold.choice, "warm hint changed the decision");
            prop_assert!((warmed.value - cold.value).abs() < 1e-12);
        }
    }
}
