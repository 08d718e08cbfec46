//! `blaze-certify`: the offline decision-certificate checker.
//!
//! Two modes, combinable:
//!
//! - `--all` (default): runs every evaluation workload under full Blaze with
//!   `BlazeConfig::certify` on, plus a serialized-tier leg (the
//!   high-`ser_factor` workloads under tightened memory with `ser_tier` on,
//!   so multi-choice certificates with real s-state picks are emitted and
//!   verified). Certify mode makes every per-executor solve emit a
//!   machine-checkable certificate and verifies it inline (the BA5xx codes),
//!   panicking on any finding — so a clean exit *is* the proof that every
//!   decision taken across the sweep verified. Each run must certify every
//!   solve it made, and make at least one. Use `--quick` to rescale the
//!   workloads for CI.
//! - `--mutate`: the negative control. Seeded corruptions of otherwise-valid
//!   certificates (mispriced incumbent, inflated prune bound, shuffled
//!   increment order, truncated search tree, under-approximated dirty
//!   closure) must each trigger the matching diagnostic code — for the one
//!   tree certificate and for the ILP's. The codes the mutations trip must
//!   be every `BA5xx` code there is, so a code no mutation reaches fails
//!   the run. A verifier that accepts everything would pass `--all`
//!   trivially; this mode proves the checks have teeth.

use blaze_audit::diagnostic::{DiagCode, Diagnostic};
use blaze_bench::harness::{DecisionProbe, ProbeReadout};
use blaze_certify::{check_dirty_closure, verify_ilp, verify_mckp, LineageNodeView, LineageView};
use blaze_common::ids::{BlockId, RddId};
use blaze_core::BlazeConfig;
use blaze_solver::cert::McNode;
use blaze_solver::ilp::{solve_binary_certified, IlpProblem};
use blaze_solver::mckp::{solve_mckp_certified, MckpGroup, MckpOption};
use blaze_workloads::{App, AppSpec, Session};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Runs one workload in certify mode and returns how many certificates it
/// verified: every solve of the run, and at least one.
fn certified_run(app: App, spec: AppSpec, cfg: BlazeConfig, leg: &str) -> u64 {
    let readout = Arc::new(Mutex::new(ProbeReadout::default()));
    let mirror = Arc::clone(&readout);
    let out = Session::builder(spec)
        .blaze(BlazeConfig { certify: true, ..cfg })
        .instrument(move |inner| Box::new(DecisionProbe::new(inner, false, mirror)))
        .run()
        .expect("certified workload run failed");
    let stats = readout.lock().expect("the probe panicked").stats;
    eprintln!(
        "{:7} jobs={:3} solves={} certificates={}{leg}",
        app.label(),
        out.metrics.jobs,
        stats.solves,
        stats.certified,
    );
    assert!(
        stats.solves > 0 && stats.certified == stats.solves,
        "{app:?}{leg}: {} of {} solves certified",
        stats.certified,
        stats.solves
    );
    stats.certified
}

/// Runs the full sweep; any certificate failure panics inside the run.
fn check_all(scale: f64) {
    let mut total = 0u64;
    for app in App::all() {
        let spec = AppSpec::evaluation(app).scaled(scale);
        total += certified_run(app, spec, BlazeConfig::full(), "");
    }
    // Serialized-tier leg: the high-ser_factor workloads under tightened
    // memory, so the multi-choice certificates actually contain s-state
    // picks (not just degenerate three-option groups).
    for app in [App::Svdpp, App::LogisticRegression] {
        let mut spec = AppSpec::evaluation(app).scaled(scale);
        spec.memory_capacity =
            spec.memory_capacity.scale(if app == App::Svdpp { 0.55 } else { 0.4 });
        total += certified_run(app, spec, BlazeConfig::full_ser_tier(), " [ser-tier]");
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

/// Asserts that `code` is among `findings` and records it as tripped.
fn assert_fires(tripped: &mut BTreeSet<DiagCode>, findings: &[Diagnostic], code: &str, what: &str) {
    let hit = findings.iter().find(|d| d.code.as_str() == code);
    let Some(d) = hit else { panic!("{what}: expected {code} to fire, got {findings:?}") };
    tripped.insert(d.code);
    println!("blaze-certify: {code} fires on {what}");
}

/// Seeded corruptions: each BA5xx code must fire on its matching mutation,
/// and every BA5xx code must have one.
fn check_mutations() {
    let mut tripped = BTreeSet::new();
    let groups = mutation_groups();
    // A third of the heaviest options' total weight, plus 7: tight enough
    // that the search prunes, which the inflated-bound mutation needs.
    let capacity: u64 =
        groups.iter().map(|g| g.options.iter().map(|o| o.weight).max().unwrap_or(0)).sum::<u64>()
            / 3
            + 7;
    let solve = || solve_mckp_certified(&groups, capacity, 0, None);

    // BA501 — mispriced incumbent.
    let (mut sol, cert) = solve();
    assert!(verify_mckp(&groups, capacity, &sol, &cert).is_empty(), "baseline must verify");
    sol.value += 1.0;
    assert_fires(
        &mut tripped,
        &verify_mckp(&groups, capacity, &sol, &cert),
        "BA501",
        "a mispriced incumbent",
    );

    // BA502 — inflated prune bound (claims to dominate more than it does).
    let (sol, mut cert) = solve();
    let pruned = cert
        .nodes
        .iter_mut()
        .find_map(|n| if let McNode::Pruned { bound } = n { Some(bound) } else { None })
        .expect("instance must produce at least one pruned node");
    *pruned += 100.0;
    assert_fires(
        &mut tripped,
        &verify_mckp(&groups, capacity, &sol, &cert),
        "BA502",
        "an inflated bound",
    );

    // BA502 — the claimed increment order is not the published one.
    let (sol, mut cert) = solve();
    cert.order.swap(0, 1);
    assert_fires(
        &mut tripped,
        &verify_mckp(&groups, capacity, &sol, &cert),
        "BA502",
        "an out-of-order increment list",
    );

    // BA503 — truncated search tree (a subtree silently dropped).
    let (sol, mut cert) = solve();
    cert.nodes.pop();
    assert_fires(
        &mut tripped,
        &verify_mckp(&groups, capacity, &sol, &cert),
        "BA503",
        "a truncated tree",
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
    assert_fires(
        &mut tripped,
        &verify_ilp(&problem, &outcome, &icert),
        "BA502",
        "an inflated ILP bound",
    );

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
        &mut tripped,
        &check_dirty_closure(&view, &dirty, &memoized, &retained),
        "BA505",
        "a retained stale memo entry",
    );

    let certificate_codes: BTreeSet<DiagCode> =
        DiagCode::ALL.into_iter().filter(|c| c.as_str().starts_with("BA5")).collect();
    assert_eq!(tripped, certificate_codes, "every BA5xx code needs a mutation that trips it");
    println!("blaze-certify: every corruption was caught, covering every BA5xx code");
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
