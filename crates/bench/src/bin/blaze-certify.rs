//! `blaze-certify`: the offline decision-certificate checker.
//!
//! Two modes, combinable:
//!
//! - `--all` (default): runs every evaluation workload under full Blaze with
//!   `BlazeConfig::certify` on, under both [`SolveStrategy`] variants,
//!   plus a serialized-tier leg (the high-`ser_factor` workloads under tightened memory with
//!   `ser_tier` on, so multi-choice certificates with real s-state picks
//!   are emitted and verified). Certify mode makes every
//!   per-executor solve emit a machine-checkable certificate and verifies it
//!   inline (BA501–BA505), panicking on any finding — so a clean exit *is*
//!   the proof that every decision taken across the sweep verified. Use
//!   `--quick` to rescale the workloads for CI.
//! - `--mutate`: the negative control. Seeded corruptions of otherwise-valid
//!   certificates (mispriced incumbent, inflated prune bound, shuffled
//!   increment order, truncated search tree, understated greedy gap,
//!   under-approximated dirty closure) must each trigger exactly the
//!   matching diagnostic code — once for the one tree certificate, once for
//!   the one greedy certificate, once for the ILP's. A verifier that
//!   accepts everything would pass `--all` trivially; this mode proves the
//!   checks have teeth.

use blaze_bench::harness::{DecisionProbe, ProbeReadout};
use blaze_certify::{
    check_dirty_closure, verify_greedy_relaxation, verify_ilp, verify_mckp, verify_mckp_greedy,
    LineageNodeView, LineageView,
};
use blaze_common::ids::{BlockId, RddId};
use blaze_core::{BlazeConfig, SolveStrategy};
use blaze_solver::cert::McNode;
use blaze_solver::ilp::{solve_binary_certified, IlpProblem};
use blaze_solver::mckp::{greedy_mckp_certificate, solve_mckp_certified, MckpGroup, MckpOption};
use blaze_workloads::{App, AppSpec, Session};
use std::sync::{Arc, Mutex};

fn strategy_label(s: SolveStrategy) -> &'static str {
    match s {
        SolveStrategy::Knapsack => "knapsack",
        SolveStrategy::Greedy => "greedy",
    }
}

/// Runs the full sweep; any certificate failure panics inside the run.
fn check_all(scale: f64) {
    let strategies = [SolveStrategy::Knapsack, SolveStrategy::Greedy];
    let mut total = 0u64;
    for app in App::all() {
        let spec = AppSpec::evaluation(app).scaled(scale);
        for strategy in strategies {
            let mut cfg = BlazeConfig { certify: true, ..BlazeConfig::full() };
            cfg.optimizer.strategy = strategy;
            let readout = Arc::new(Mutex::new(ProbeReadout::default()));
            let mirror = Arc::clone(&readout);
            let out = Session::builder()
                .app(spec)
                .blaze(cfg)
                .instrument(move |inner| Box::new(DecisionProbe::new(inner, false, mirror)))
                .run()
                .expect("certified workload run failed")
                .into_outcome();
            let n = readout.lock().expect("the probe panicked").stats.certified;
            total += n;
            eprintln!(
                "{:7} strategy={:9} jobs={:3} certificates={n}",
                app.label(),
                strategy_label(strategy),
                out.metrics.jobs,
            );
            assert!(n > 0, "{app:?}/{strategy:?}: no certificates were emitted");
        }
    }
    // Serialized-tier leg: the high-ser_factor workloads under tightened
    // memory, so the multi-choice certificates actually contain s-state
    // picks (not just degenerate three-option groups).
    for app in [App::Svdpp, App::LogisticRegression] {
        let mut spec = AppSpec::evaluation(app).scaled(scale);
        spec.memory_capacity =
            spec.memory_capacity.scale(if app == App::Svdpp { 0.55 } else { 0.4 });
        for strategy in strategies {
            let mut cfg = BlazeConfig { certify: true, ..BlazeConfig::full_ser_tier() };
            cfg.optimizer.strategy = strategy;
            let readout = Arc::new(Mutex::new(ProbeReadout::default()));
            let mirror = Arc::clone(&readout);
            let out = Session::builder()
                .app(spec)
                .blaze(cfg)
                .instrument(move |inner| Box::new(DecisionProbe::new(inner, false, mirror)))
                .run()
                .expect("certified ser-tier run failed")
                .into_outcome();
            let n = readout.lock().expect("the probe panicked").stats.certified;
            total += n;
            eprintln!(
                "{:7} strategy={:9} jobs={:3} certificates={n} [ser-tier]",
                app.label(),
                strategy_label(strategy),
                out.metrics.jobs,
            );
            assert!(n > 0, "{app:?}/{strategy:?} [ser-tier]: no certificates were emitted");
        }
    }
    println!("blaze-certify: {total} certificates emitted and verified clean across the sweep");
}

/// A deterministic instance (zero option + three sized options per group,
/// hull-shaped values) with enough structure that its branch-and-bound
/// trees contain prunes (so corrupting a bound has something to corrupt).
fn mutation_groups() -> Vec<MckpGroup> {
    let mut state = 0x5e12_ca5eu64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..10)
        .map(|_| {
            let full_w = 40 + next() % 60;
            // audit: allow(float-cast) value in [1, 101), exactly representable
            let full_v = 1.0 + (next() % 100) as f64;
            // The serialized option: ~60% of the footprint for ~70% of the
            // value, mirroring the cost-model shape of the s-state.
            let ser_w = full_w * 3 / 5;
            let ser_v = full_v * 0.7;
            let disk_v = full_v * 0.3;
            MckpGroup {
                options: vec![
                    MckpOption { value: 0.0, weight: 0 },
                    MckpOption { value: disk_v, weight: 0 },
                    MckpOption { value: ser_v, weight: ser_w },
                    MckpOption { value: full_v, weight: full_w },
                ],
            }
        })
        .collect()
}

fn assert_fires(findings: &[blaze_audit::diagnostic::Diagnostic], code: &str, what: &str) {
    assert!(
        findings.iter().any(|d| d.code.as_str() == code),
        "{what}: expected {code} to fire, got {findings:?}"
    );
    println!("blaze-certify: {code} fires on {what}");
}

/// Seeded corruptions: each BA5xx code must fire on its matching mutation.
fn check_mutations() {
    let groups = mutation_groups();
    // The odd offset keeps the capacity off every hull-increment boundary
    // so the greedy fill ends on a fractional break item (declared_gap > 0).
    let capacity: u64 =
        groups.iter().map(|g| g.options.iter().map(|o| o.weight).max().unwrap_or(0)).sum::<u64>()
            / 3
            + 7;
    let solve = || solve_mckp_certified(&groups, capacity, 0, None);

    // BA501 — mispriced incumbent.
    let (mut sol, cert) = solve();
    assert!(verify_mckp(&groups, capacity, &sol, &cert).is_empty(), "baseline must verify");
    sol.value += 1.0;
    assert_fires(&verify_mckp(&groups, capacity, &sol, &cert), "BA501", "a mispriced incumbent");

    // BA502 — inflated prune bound (claims to dominate more than it does).
    let (sol, mut cert) = solve();
    let pruned = cert
        .nodes
        .iter_mut()
        .find_map(|n| if let McNode::Pruned { bound } = n { Some(bound) } else { None })
        .expect("instance must produce at least one pruned node");
    *pruned += 100.0;
    assert_fires(&verify_mckp(&groups, capacity, &sol, &cert), "BA502", "an inflated bound");

    // BA502 — the claimed increment order is not the published one.
    let (sol, mut cert) = solve();
    cert.order.swap(0, 1);
    assert_fires(
        &verify_mckp(&groups, capacity, &sol, &cert),
        "BA502",
        "an out-of-order increment list",
    );

    // BA503 — truncated search tree (a subtree silently dropped).
    let (sol, mut cert) = solve();
    cert.nodes.pop();
    assert_fires(&verify_mckp(&groups, capacity, &sol, &cert), "BA503", "a truncated tree");

    // BA504 — understated greedy approximation gap.
    let (gsol, _) = solve_mckp_certified(&groups, capacity, 1, None);
    let mut gcert = greedy_mckp_certificate(&groups, capacity, &gsol);
    assert!(
        verify_mckp_greedy(&groups, capacity, &gsol, &gcert).is_empty(),
        "greedy baseline must verify"
    );
    assert!(
        verify_greedy_relaxation(&groups, capacity, &gcert).is_empty(),
        "LP cross-check must agree with the hull relaxation bound"
    );
    assert!(gcert.declared_gap > 0.0, "instance must have a fractional hull break");
    gcert.declared_gap = 0.0;
    assert_fires(
        &verify_mckp_greedy(&groups, capacity, &gsol, &gcert),
        "BA504",
        "an understated gap",
    );

    // BA502 (greedy flavour) — an inflated relaxation bound must be caught
    // by the independent LP solve as well as the fast hull recompute.
    let mut lcert = greedy_mckp_certificate(&groups, capacity, &gsol);
    lcert.relaxation_bound += 100.0;
    assert_fires(
        &verify_mckp_greedy(&groups, capacity, &gsol, &lcert),
        "BA502",
        "an inflated relaxation bound",
    );
    assert_fires(
        &verify_greedy_relaxation(&groups, capacity, &lcert),
        "BA502",
        "an inflated relaxation bound (LP cross-check)",
    );

    // BA502 (ILP flavour) — certified exact solve, then inflate a bound so
    // the recorded dual evidence no longer supports it.
    let problem = groups_as_ilp(&groups, capacity);
    let (outcome, mut icert) = solve_binary_certified(&problem).expect("ilp solve");
    assert!(verify_ilp(&problem, &outcome, &icert).is_empty(), "ILP baseline must verify");
    let bound = icert
        .nodes
        .iter_mut()
        .find_map(|node| match &mut node.kind {
            blaze_solver::cert::IlpNodeKind::Pruned { bound, .. } => Some(bound),
            _ => None,
        })
        .expect("instance must produce at least one pruned ILP node");
    *bound += 100.0;
    assert_fires(&verify_ilp(&problem, &outcome, &icert), "BA502", "an inflated ILP bound");

    // BA505 — memo entry retained inside the dirty closure.
    let view = LineageView {
        nodes: vec![
            LineageNodeView { rdd: RddId(0), parents: vec![], is_shuffle: false },
            LineageNodeView { rdd: RddId(1), parents: vec![RddId(0)], is_shuffle: false },
            LineageNodeView { rdd: RddId(2), parents: vec![RddId(1)], is_shuffle: false },
        ],
    };
    let dirty = [BlockId::new(RddId(0), 0)];
    let memoized: Vec<BlockId> = (0..3).map(|r| BlockId::new(RddId(r), 0)).collect();
    let retained = [BlockId::new(RddId(2), 0)];
    assert_fires(
        &check_dirty_closure(&view, &dirty, &memoized, &retained),
        "BA505",
        "a retained stale memo entry",
    );

    println!("blaze-certify: every corruption was caught");
}

/// The instance as a 0/1 program: one binary per non-zero option, at most
/// one per group, minimize the negated value under the weight row.
fn groups_as_ilp(groups: &[MckpGroup], capacity: u64) -> IlpProblem {
    use blaze_solver::lp::Constraint;
    let options = || groups.iter().flat_map(|g| g.options.iter().skip(1));
    let vars = options().count();
    // audit: allow(float-cast) weights are small integers, exactly representable
    let mut constraints =
        vec![Constraint::le(options().map(|o| o.weight as f64).collect(), capacity as f64)];
    let mut first = 0;
    for g in groups {
        let mut row = vec![0.0; vars];
        row[first..first + g.options.len() - 1].fill(1.0);
        first += g.options.len() - 1;
        constraints.push(Constraint::le(row, 1.0));
    }
    IlpProblem {
        objective: options().map(|o| -o.value).collect(),
        constraints,
        node_budget: 0,
        warm: None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mutate = args.iter().any(|a| a == "--mutate");
    let all = args.iter().any(|a| a == "--all") || !mutate;

    if mutate {
        check_mutations();
    }
    if all {
        check_all(if quick { 0.3 } else { 1.0 });
    }
}
