//! Property and mutation tests on decision certificates (`blaze-certify`).
//!
//! Two directions, both required for the certificates to mean anything:
//!
//! - **Soundness of honest solvers**: randomly generated knapsack/ILP
//!   instances — two- and three-option groups — must always produce
//!   certificates the independent verifier accepts, and certification must
//!   never change the solution (the decision-identity contract).
//! - **Teeth**: seeded corruptions of otherwise-valid certificates must
//!   each trip exactly the matching BA5xx diagnostic. A verifier that
//!   accepts everything would pass the first half trivially.

use blaze::audit::diagnostic::{DiagCode, Diagnostic};
use blaze::certify::{check_dirty_closure, verify_ilp, verify_mckp, LineageNodeView, LineageView};
use blaze::common::ids::{BlockId, RddId};
use blaze::core::BlazeConfig;
use blaze::solver::cert::{IlpNodeKind, McNode};
use blaze::solver::ilp::{solve_binary, solve_binary_certified, IlpOutcome, IlpProblem};
use blaze::solver::lp::Constraint;
use blaze::solver::mckp::{solve_mckp, solve_mckp_certified, MckpGroup, MckpOption};
use blaze::workloads::{App, AppSpec, Session};
use proptest::prelude::*;

const ZERO: MckpOption = MckpOption { value: 0.0, weight: 0 };

/// One group per `(value, weight)` item: `[zero, item]`, or — where `ser`
/// has a factor for the item — `[zero, (ser·value, 0.6·weight), item]`, so
/// the generated instances mix the 0/1 and the m/s/u shape.
fn groups_from(values: &[f64], weights: &[u64], ser: &[f64]) -> Vec<MckpGroup> {
    values
        .iter()
        .zip(weights)
        .enumerate()
        .map(|(i, (&value, &weight))| {
            let mut options = vec![ZERO];
            if let Some(factor) = ser.get(i) {
                options.push(MckpOption { value: value * factor, weight: weight * 6 / 10 });
            }
            options.push(MckpOption { value, weight });
            MckpGroup { options }
        })
        .collect()
}

fn knapsack_as_ilp(values: &[f64], weights: &[u64], capacity: u64) -> IlpProblem {
    IlpProblem {
        objective: values.iter().map(|v| -v).collect(),
        constraints: vec![Constraint::le(
            weights.iter().map(|&w| w as f64).collect(),
            capacity as f64,
        )],
        node_budget: 0,
        warm: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Branch-and-bound: the certificate always verifies, and the
    /// certified solve returns byte-identical selections to the plain one.
    #[test]
    fn cold_knapsack_certificates_verify(
        values in prop::collection::vec(0.1f64..50.0, 1..14),
        weights in prop::collection::vec(1u64..40, 1..14),
        ser in prop::collection::vec(0.3f64..1.1, 0..14),
    ) {
        let n = values.len().min(weights.len());
        let groups = groups_from(&values[..n], &weights[..n], &ser);
        let cap: u64 = weights[..n].iter().sum::<u64>() / 2 + 1;

        let plain = solve_mckp(&groups, cap, 0);
        let (sol, cert) = solve_mckp_certified(&groups, cap, 0, None);
        prop_assert_eq!(&plain, &sol, "certification changed the decision");
        let findings = verify_mckp(&groups, cap, &sol, &cert);
        prop_assert!(findings.is_empty(), "{:?}", findings);
    }

    /// Cold and warm exact-ILP tree certificates verify, and certification
    /// never changes the outcome.
    #[test]
    fn ilp_certificates_verify(
        values in prop::collection::vec(0.1f64..30.0, 1..8),
        weights in prop::collection::vec(1u64..25, 1..8),
    ) {
        let n = values.len().min(weights.len());
        let cap: u64 = weights[..n].iter().sum::<u64>() / 2 + 1;

        let problem = knapsack_as_ilp(&values[..n], &weights[..n], cap);
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

/// Fixed 0/1 instance with enough structure that its trees contain prunes
/// (so every mutation below has something to corrupt). `blaze-certify
/// --mutate` runs the same corruptions over a four-option instance.
fn mutation_instance() -> (Vec<f64>, Vec<u64>, u64) {
    let mut state = 0x9e37_79b9u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let (weights, values): (Vec<u64>, Vec<f64>) =
        (0..24).map(|_| (20 + next() % 80, 1.0 + (next() % 100) as f64)).unzip();
    let capacity = weights.iter().sum::<u64>() / 3;
    (values, weights, capacity)
}

fn mutation_groups() -> (Vec<MckpGroup>, u64) {
    let (values, weights, cap) = mutation_instance();
    (groups_from(&values, &weights, &[]), cap)
}

fn fires(findings: &[Diagnostic], code: DiagCode) -> bool {
    findings.iter().any(|d| d.code == code)
}

#[test]
fn ba501_fires_on_a_mispriced_incumbent() {
    let (groups, cap) = mutation_groups();
    let (mut sol, cert) = solve_mckp_certified(&groups, cap, 0, None);
    assert!(verify_mckp(&groups, cap, &sol, &cert).is_empty(), "baseline must verify");
    sol.value += 1.0;
    let findings = verify_mckp(&groups, cap, &sol, &cert);
    assert!(fires(&findings, DiagCode::InfeasibleIncumbent), "{findings:?}");
}

#[test]
fn ba502_fires_on_an_inflated_knapsack_prune_bound() {
    let (groups, cap) = mutation_groups();
    let (sol, mut cert) = solve_mckp_certified(&groups, cap, 0, None);
    let bound = cert
        .nodes
        .iter_mut()
        .find_map(|n| if let McNode::Pruned { bound } = n { Some(bound) } else { None })
        .expect("instance must produce at least one pruned node");
    *bound += 100.0;
    let findings = verify_mckp(&groups, cap, &sol, &cert);
    assert!(fires(&findings, DiagCode::UnsoundPruneBound), "{findings:?}");
}

#[test]
fn ba502_fires_on_an_inflated_ilp_prune_bound() {
    let (values, weights, cap) = mutation_instance();
    let problem = knapsack_as_ilp(&values, &weights, cap);
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
fn ba503_fires_on_a_truncated_tree() {
    let (groups, cap) = mutation_groups();
    let (sol, mut cert) = solve_mckp_certified(&groups, cap, 0, None);
    cert.nodes.pop();
    let findings = verify_mckp(&groups, cap, &sol, &cert);
    assert!(fires(&findings, DiagCode::UncoveredBranchLeaf), "{findings:?}");
}

#[test]
fn ba505_fires_on_a_retained_stale_memo_entry() {
    // a -> b -> c, all narrow, all memoized: dirtying a[0] forward-dirties
    // c[0] through b[0], so a memo entry for c[0] claimed as retained is
    // stale.
    let view = LineageView {
        nodes: vec![
            LineageNodeView { rdd: RddId(0), parents: vec![], is_shuffle: false },
            LineageNodeView { rdd: RddId(1), parents: vec![RddId(0)], is_shuffle: false },
            LineageNodeView { rdd: RddId(2), parents: vec![RddId(1)], is_shuffle: false },
        ],
    };
    let dirty = [BlockId::new(RddId(0), 0)];
    let memoized: Vec<BlockId> =
        (0..3).flat_map(|r| (0..2).map(move |p| BlockId::new(RddId(r), p))).collect();
    let clean_retained = [BlockId::new(RddId(0), 1)];
    assert!(check_dirty_closure(&view, &dirty, &memoized, &clean_retained).is_empty());
    let stale_retained = [BlockId::new(RddId(2), 0)];
    let findings = check_dirty_closure(&view, &dirty, &memoized, &stale_retained);
    assert!(fires(&findings, DiagCode::UnderApproximatedDirtyClosure), "{findings:?}");
}

/// End-to-end: `BlazeConfig::certify` verifies every decision inline
/// (panicking on any finding) on a real workload run.
#[test]
fn inline_certify_mode_accepts_a_full_run() {
    let spec = AppSpec::evaluation(App::PageRank).scaled(0.2);
    let cfg = BlazeConfig { certify: true, ..BlazeConfig::full() };
    Session::builder(spec).blaze(cfg).run().unwrap();
}
