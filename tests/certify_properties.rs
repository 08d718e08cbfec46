//! Property and mutation tests on decision certificates (`blaze-certify`).
//!
//! Two directions, both required for the certificates to mean anything:
//!
//! - **Soundness of honest solvers**: randomly generated knapsack/ILP
//!   instances — cold and warm-started — must always produce certificates
//!   the independent verifier accepts, and certification must never change
//!   the solution (the decision-identity contract).
//! - **Teeth**: seeded corruptions of otherwise-valid certificates must
//!   each trip exactly the matching BA5xx diagnostic. A verifier that
//!   accepts everything would pass the first half trivially.

use blaze::audit::diagnostic::{DiagCode, Diagnostic};
use blaze::certify::{
    check_dirty_closure, verify_greedy, verify_greedy_relaxation, verify_ilp, verify_knapsack,
    LineageNodeView, LineageView,
};
use blaze::common::ids::{BlockId, RddId};
use blaze::core::{BlazeConfig, SolveStrategy};
use blaze::solver::cert::{IlpNodeKind, KnapNode};
use blaze::solver::ilp::{solve_binary, solve_binary_certified, IlpOutcome, IlpProblem};
use blaze::solver::knapsack::{
    greedy_certificate, solve_knapsack, solve_knapsack_certified, KnapsackItem, WarmStart,
};
use blaze::solver::lp::Constraint;
use blaze::workloads::{App, AppSpec, Session};
use proptest::prelude::*;

fn items_from(values: &[f64], weights: &[u64]) -> Vec<KnapsackItem> {
    values.iter().zip(weights).map(|(&value, &weight)| KnapsackItem { value, weight }).collect()
}

fn knapsack_as_ilp(items: &[KnapsackItem], capacity: u64) -> IlpProblem {
    IlpProblem {
        objective: items.iter().map(|i| -i.value).collect(),
        constraints: vec![Constraint::le(
            items.iter().map(|i| i.weight as f64).collect(),
            capacity as f64,
        )],
        node_budget: 0,
        warm: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Cold branch-and-bound: the certificate always verifies, and the
    /// certified solve returns byte-identical selections to the plain one.
    #[test]
    fn cold_knapsack_certificates_verify(
        values in prop::collection::vec(0.1f64..50.0, 1..14),
        weights in prop::collection::vec(1u64..40, 1..14),
    ) {
        let n = values.len().min(weights.len());
        let items = items_from(&values[..n], &weights[..n]);
        let cap: u64 = weights[..n].iter().sum::<u64>() / 2 + 1;

        let plain = solve_knapsack(&items, cap, 0);
        let (sol, cert) = solve_knapsack_certified(&items, cap, 0, None);
        prop_assert_eq!(&plain.selected, &sol.selected, "certification changed the decision");
        let findings = verify_knapsack(&items, cap, &sol, &cert);
        prop_assert!(findings.is_empty(), "{:?}", findings);
    }

    /// Warm-started solves stay decision-identical to cold ones and their
    /// certificates (which carry warm evidence justifying WARM_EPS prunes)
    /// still verify.
    #[test]
    fn warm_knapsack_certificates_verify(
        values in prop::collection::vec(0.1f64..50.0, 2..12),
        weights in prop::collection::vec(1u64..40, 2..12),
        bump in 0.0f64..10.0,
    ) {
        let n = values.len().min(weights.len());
        let mut items = items_from(&values[..n], &weights[..n]);
        let cap: u64 = weights[..n].iter().sum::<u64>() / 2 + 1;

        // Previous epoch: solve the unperturbed instance for a warm hint.
        let (prev, _) = solve_knapsack_certified(&items, cap, 0, None);
        let warm = WarmStart { order: prev.order.clone(), selection: prev.selected.clone() };

        // Current epoch: one value drifted; warm must not change the answer.
        items[0].value += bump;
        let (cold, _) = solve_knapsack_certified(&items, cap, 0, None);
        let (sol, cert) = solve_knapsack_certified(&items, cap, 0, Some(&warm));
        prop_assert_eq!(&cold.selected, &sol.selected, "warm start changed the decision");
        let findings = verify_knapsack(&items, cap, &sol, &cert);
        prop_assert!(findings.is_empty(), "{:?}", findings);
    }

    /// Greedy certificates verify through the fast Dantzig recompute AND
    /// the independent LP solve (the cross-implementation check).
    #[test]
    fn greedy_certificates_verify_against_the_relaxation(
        values in prop::collection::vec(0.1f64..50.0, 1..14),
        weights in prop::collection::vec(1u64..40, 1..14),
    ) {
        let n = values.len().min(weights.len());
        let items = items_from(&values[..n], &weights[..n]);
        let cap: u64 = weights[..n].iter().sum::<u64>() / 2 + 1;

        let sol = solve_knapsack(&items, cap, 1);
        let cert = greedy_certificate(&items, cap, &sol);
        let findings = verify_greedy(&items, cap, &sol, &cert);
        prop_assert!(findings.is_empty(), "{:?}", findings);
        let findings = verify_greedy_relaxation(&items, cap, &cert);
        prop_assert!(findings.is_empty(), "lp cross-check: {:?}", findings);
    }

    /// Cold and warm exact-ILP tree certificates verify, and certification
    /// never changes the outcome.
    #[test]
    fn ilp_certificates_verify(
        values in prop::collection::vec(0.1f64..30.0, 1..8),
        weights in prop::collection::vec(1u64..25, 1..8),
    ) {
        let n = values.len().min(weights.len());
        let items = items_from(&values[..n], &weights[..n]);
        let cap: u64 = weights[..n].iter().sum::<u64>() / 2 + 1;

        let problem = knapsack_as_ilp(&items, cap);
        let plain = solve_binary(&problem).unwrap();
        let (outcome, cert) = solve_binary_certified(&problem).unwrap();
        prop_assert_eq!(
            format!("{:?}", plain), format!("{:?}", outcome),
            "certification changed the ILP outcome"
        );
        let findings = verify_ilp(&problem, &outcome, &cert);
        prop_assert!(findings.is_empty(), "{:?}", findings);

        // Warm epoch: feed the solution back as a warm hint.
        if let IlpOutcome::Solved { x, .. } = &outcome {
            let warm_problem = IlpProblem { warm: Some(x.clone()), ..problem.clone() };
            let warm_plain = solve_binary(&warm_problem).unwrap();
            let (warm_outcome, warm_cert) = solve_binary_certified(&warm_problem).unwrap();
            prop_assert_eq!(
                format!("{:?}", warm_plain), format!("{:?}", warm_outcome),
                "certification changed the warm ILP outcome"
            );
            let findings = verify_ilp(&warm_problem, &warm_outcome, &warm_cert);
            prop_assert!(findings.is_empty(), "warm: {:?}", findings);
        }
    }
}

/// Fixed instance with enough structure that its trees contain prunes (so
/// every mutation below has something to corrupt). Mirrors `blaze-certify
/// --mutate`.
fn mutation_instance() -> (Vec<KnapsackItem>, u64) {
    let mut state = 0x9e37_79b9u64;
    let items: Vec<KnapsackItem> = (0..24)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let weight = 20 + (state >> 33) % 80;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let value = 1.0 + ((state >> 33) % 100) as f64;
            KnapsackItem { value, weight }
        })
        .collect();
    let capacity = items.iter().map(|i| i.weight).sum::<u64>() / 3;
    (items, capacity)
}

fn fires(findings: &[Diagnostic], code: DiagCode) -> bool {
    findings.iter().any(|d| d.code == code)
}

#[test]
fn ba501_fires_on_a_mispriced_incumbent() {
    let (items, cap) = mutation_instance();
    let (mut sol, cert) = solve_knapsack_certified(&items, cap, 0, None);
    assert!(verify_knapsack(&items, cap, &sol, &cert).is_empty(), "baseline must verify");
    sol.value += 1.0;
    let findings = verify_knapsack(&items, cap, &sol, &cert);
    assert!(fires(&findings, DiagCode::InfeasibleIncumbent), "{findings:?}");
}

#[test]
fn ba502_fires_on_an_inflated_knapsack_prune_bound() {
    let (items, cap) = mutation_instance();
    let (sol, mut cert) = solve_knapsack_certified(&items, cap, 0, None);
    let bound = cert
        .nodes
        .iter_mut()
        .find_map(|n| if let KnapNode::Pruned { bound } = n { Some(bound) } else { None })
        .expect("instance must produce at least one pruned node");
    *bound += 100.0;
    let findings = verify_knapsack(&items, cap, &sol, &cert);
    assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
}

#[test]
fn ba502_fires_on_an_inflated_ilp_prune_bound() {
    let (items, cap) = mutation_instance();
    let problem = knapsack_as_ilp(&items, cap);
    let (outcome, mut cert) = solve_binary_certified(&problem).unwrap();
    assert!(verify_ilp(&problem, &outcome, &cert).is_empty(), "baseline must verify");
    let node = cert
        .nodes
        .iter_mut()
        .find(|n| matches!(n.kind, IlpNodeKind::Pruned { .. }))
        .expect("instance must produce at least one pruned ILP node");
    if let IlpNodeKind::Pruned { bound, .. } = &mut node.kind {
        *bound += 100.0;
    }
    let findings = verify_ilp(&problem, &outcome, &cert);
    assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
}

#[test]
fn ba502_fires_on_an_inflated_relaxation_bound() {
    let (items, cap) = mutation_instance();
    let sol = solve_knapsack(&items, cap, 1);
    let mut cert = greedy_certificate(&items, cap, &sol);
    cert.relaxation_bound += 100.0;
    let findings = verify_greedy(&items, cap, &sol, &cert);
    assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
    let findings = verify_greedy_relaxation(&items, cap, &cert);
    assert!(fires(&findings, DiagCode::UnsoundPruneBound), "lp cross-check: {findings:?}");
}

#[test]
fn ba503_fires_on_a_truncated_tree() {
    let (items, cap) = mutation_instance();
    let (sol, mut cert) = solve_knapsack_certified(&items, cap, 0, None);
    cert.nodes.pop();
    let findings = verify_knapsack(&items, cap, &sol, &cert);
    assert!(fires(&findings, DiagCode::UncoveredBranchLeaf), "{findings:?}");
}

#[test]
fn ba504_fires_on_an_understated_greedy_gap() {
    let (items, cap) = mutation_instance();
    let sol = solve_knapsack(&items, cap, 1);
    let mut cert = greedy_certificate(&items, cap, &sol);
    assert!(cert.declared_gap > 0.0, "instance must have a fractional break item");
    cert.declared_gap = 0.0;
    let findings = verify_greedy(&items, cap, &sol, &cert);
    assert!(fires(&findings, DiagCode::GreedyGapExceeded), "{findings:?}");
}

#[test]
fn ba505_fires_on_a_retained_stale_memo_entry() {
    // a -> b -> c, all narrow: dirtying a[0] forward-dirties c[0], so a memo
    // entry for c[0] claimed as retained is stale.
    let view = LineageView {
        nodes: vec![
            LineageNodeView { rdd: RddId(0), parents: vec![], is_shuffle: false },
            LineageNodeView { rdd: RddId(1), parents: vec![RddId(0)], is_shuffle: false },
            LineageNodeView { rdd: RddId(2), parents: vec![RddId(1)], is_shuffle: false },
        ],
    };
    let dirty = [BlockId::new(RddId(0), 0)];
    let clean_retained = [BlockId::new(RddId(0), 1)];
    assert!(check_dirty_closure(&view, &dirty, &clean_retained).is_empty());
    let stale_retained = [BlockId::new(RddId(2), 0)];
    let findings = check_dirty_closure(&view, &dirty, &stale_retained);
    assert!(fires(&findings, DiagCode::UnderApproximatedDirtyClosure), "{findings:?}");
}

/// End-to-end: `BlazeConfig::certify` verifies every decision inline
/// (panicking on any finding) across all strategies on a real workload run.
#[test]
fn inline_certify_mode_accepts_every_strategy() {
    let spec = AppSpec::evaluation(App::PageRank).scaled(0.2);
    for strategy in [SolveStrategy::Knapsack, SolveStrategy::ExactIlp, SolveStrategy::Greedy] {
        let mut cfg = BlazeConfig { certify: true, ..BlazeConfig::full() };
        cfg.optimizer.strategy = strategy;
        Session::builder()
            .app(spec)
            .blaze(cfg)
            .run()
            .unwrap_or_else(|e| panic!("{strategy:?}: {e:?}"));
    }
}
