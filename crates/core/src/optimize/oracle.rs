//! The literal Eq. 5–6 program, kept as the test oracle of the knapsack
//! reduction.
//!
//! The paper states §5.5 as a 0/1 program over `(m, d, u)` binaries per
//! partition and solves it with Gurobi; [`super::solve_instance`] answers it
//! as a multi-choice knapsack instead. This module builds the program as
//! stated — `(m, d, u)` per candidate with the serialized tier off,
//! `(m, s, d, u)` with it on — solves it with the solver crate's certified
//! ILP branch and bound (the certificate must verify), and checks on seeded
//! random instances that the knapsack finds the same optimum under both
//! tier settings.

use super::*;
use blaze_certify::verify_ilp;
use blaze_common::ids::RddId;
use blaze_solver::ilp::{solve_binary_certified, IlpOutcome, IlpProblem};
use blaze_solver::lp::Constraint;

/// The literal Eq. 5–6 program over `[m_0, (s_0,) d_0, u_0, m_1, ...]`
/// binaries, with the s column only when `ser_tier` is on: per-access costs
/// scale with the window reference count, every state pays its transition
/// from the current one, and the s column occupies only the footprint-scaled
/// size in the capacity row.
fn eq56_problem(candidates: &[Candidate], capacity: ByteSize, ser_tier: bool) -> IlpProblem {
    let vars = if ser_tier { 4 } else { 3 };
    let nv = vars * candidates.len();
    let mut objective = vec![0.0; nv];
    let mut constraints = Vec::with_capacity(candidates.len() + 1);
    let mut cap_row = vec![0.0; nv];
    for (i, c) in candidates.iter().enumerate() {
        let accesses = f64::from(c.window_refs);
        let (m, d, u) = (vars * i, vars * i + vars - 2, vars * i + vars - 1);
        objective[m] = c.trans_to_m.as_secs_f64();
        objective[d] = accesses * c.cost_d.as_secs_f64() + c.trans_to_d.as_secs_f64();
        objective[u] = accesses * c.cost_r.as_secs_f64();
        cap_row[m] = c.size.as_bytes() as f64;
        if ser_tier {
            objective[m + 1] = accesses * c.deser_access.as_secs_f64() + c.trans_to_s.as_secs_f64();
            cap_row[m + 1] = c.ser_size.as_bytes() as f64;
        }
        // m_i + (s_i +) d_i + u_i = 1 (Eq. 1).
        let mut row = vec![0.0; nv];
        row[m..m + vars].fill(1.0);
        constraints.push(Constraint::eq(row, 1.0));
    }
    constraints.push(Constraint::le(cap_row, capacity.as_bytes() as f64));
    IlpProblem { objective, constraints, node_budget: 200_000, warm: None }
}

/// Solves [`eq56_problem`] and returns one pick per candidate (d and u are
/// both [`Pick::Unpersist`]: the oracle compares what stays in memory) with
/// the program's proven optimum. The solve's certificate must verify.
fn solve_exact(candidates: &[Candidate], capacity: ByteSize, ser_tier: bool) -> (Vec<Pick>, f64) {
    if candidates.is_empty() {
        return (Vec::new(), 0.0);
    }
    let vars = if ser_tier { 4 } else { 3 };
    let problem = eq56_problem(candidates, capacity, ser_tier);
    let (outcome, cert) = solve_binary_certified(&problem).expect("a well-formed program");
    let findings = verify_ilp(&problem, &outcome, &cert);
    assert!(findings.is_empty(), "ILP certificate: {findings:?}");
    let IlpOutcome::Solved { x, objective, proven_optimal: true } = outcome else {
        panic!("u_i = 1 for every i is feasible and n <= 6 fits the node budget: {outcome:?}");
    };
    let picks = (0..candidates.len())
        .map(|i| {
            if x[vars * i] {
                Pick::Mem
            } else if ser_tier && x[vars * i + 1] {
                Pick::Ser
            } else {
                Pick::Unpersist
            }
        })
        .collect();
    (picks, objective)
}

/// The value of the decision path's knapsack answer under the pricing it
/// solved, checked against the capacity.
fn knapsack_optimum(candidates: &[Candidate], capacity: ByteSize, tiers: Tiers) -> f64 {
    let picks =
        solve_instance(candidates, capacity, SolveStrategy::Knapsack, tiers, None, false).picks;
    let groups = groups(candidates, tiers);
    let chosen: Vec<MckpOption> = choice_of_picks(&picks, layout(tiers))
        .iter()
        .zip(&groups)
        .map(|(&o, g)| g.options[o])
        .collect();
    assert!(chosen.iter().map(|o| o.weight).sum::<u64>() <= capacity.as_bytes());
    chosen.iter().map(|o| o.value).sum()
}

/// `Σ out_best`: the program's objective with every candidate out of memory
/// in its cheapest out-of-memory state — the constant the knapsack's saved
/// value is measured from.
fn all_out(candidates: &[Candidate]) -> f64 {
    candidates
        .iter()
        .map(|c| {
            let accesses = f64::from(c.window_refs);
            let obj_d = accesses * c.cost_d.as_secs_f64() + c.trans_to_d.as_secs_f64();
            obj_d.min(accesses * c.cost_r.as_secs_f64())
        })
        .sum()
}

/// A seeded instance of zero to six candidates on one executor: sizes up to
/// 200 KiB, costs up to 300 ms, 0–3 window references, states m/s/d, and
/// transition rows and deserialization charges of 1–40 ms.
fn instance(seed: u64) -> Vec<Candidate> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let e = ExecutorId(0);
    let states =
        [PartitionState::Memory(e), PartitionState::SerializedMemory(e), PartitionState::Disk(e)];
    let n = next(7) as u32;
    (0..n)
        .map(|rdd| {
            let size_kib = 1 + next(200);
            let window_refs = next(4) as u32;
            let [cost_d, cost_r] = [next(300), next(300)].map(SimDuration::from_millis);
            let [trans_to_m, trans_to_s, trans_to_d, deser_access] =
                [(); 4].map(|()| SimDuration::from_millis(1 + next(40)));
            Candidate {
                id: BlockId::new(RddId(rdd), 0),
                size: ByteSize::from_kib(size_kib),
                cost_d,
                cost_r,
                trans_to_m,
                trans_to_s,
                trans_to_d,
                deser_access,
                ser_size: ByteSize::from_kib(1 + next(size_kib)),
                window_refs,
                state: states[next(3) as usize],
            }
        })
        .collect()
}

/// The knapsack's optimum is `Σ out_best` minus the Eq. 5–6 optimum, on 64
/// seeded instances × 5 capacities, with the serialized tier off and on.
#[test]
fn the_knapsack_optimum_is_the_eq56_optimum() {
    for seed in 0..64 {
        let candidates = instance(seed);
        let total: u64 = candidates.iter().map(|c| c.size.as_bytes()).sum();
        for cap in [0, total / 4, total / 2, total * 3 / 4, total] {
            let capacity = ByteSize::from_bytes(cap);
            for ser in [false, true] {
                let (_, ilp) = solve_exact(&candidates, capacity, ser);
                let saved = knapsack_optimum(&candidates, capacity, Tiers { ser, disk: true });
                let out = all_out(&candidates);
                assert!(
                    (out - saved - ilp).abs() < 1e-9,
                    "seed {seed} capacity {cap} ser_tier={ser}: Σ out_best {out} - \
                     knapsack {saved} != Eq. 5–6 optimum {ilp}"
                );
            }
        }
    }
}

/// Capacity fits one of two 100 KiB memory residents. A is unreferenced and
/// spills in 30 ms; B is referenced with `cost_d` 10 ms, `cost_r` 20 ms and a
/// 5 ms spill. A pricing that credited A's avoided spill to keeping it would
/// keep A; Eq. 5–6 charges the spill only to `d`, drops A for free (`u`) and
/// keeps B, whose cheapest way out costs 15 ms (10 ms read + 5 ms spill), at
/// objective 0. Both tier settings keep what Eq. 5–6 keeps.
#[test]
fn both_tier_settings_keep_what_eq56_keeps_when_leaving_is_free() {
    let resident = |rdd, window_refs, cost_d, cost_r, spill| Candidate {
        id: BlockId::new(RddId(rdd), 0),
        size: ByteSize::from_kib(100),
        cost_d: SimDuration::from_millis(cost_d),
        cost_r: SimDuration::from_millis(cost_r),
        trans_to_m: SimDuration::ZERO,
        trans_to_s: SimDuration::ZERO,
        trans_to_d: SimDuration::from_millis(spill),
        deser_access: SimDuration::from_millis(1),
        ser_size: ByteSize::from_kib(60),
        window_refs,
        state: PartitionState::Memory(ExecutorId(0)),
    };
    let candidates = [resident(1, 0, 0, 0, 30), resident(2, 1, 10, 20, 5)];
    let capacity = ByteSize::from_kib(100);
    for ser in [false, true] {
        let (exact, optimum) = solve_exact(&candidates, capacity, ser);
        assert_eq!(exact, [Pick::Unpersist, Pick::Mem], "ser_tier={ser}");
        assert_eq!(optimum, 0.0);
        let tiers = Tiers { ser, disk: true };
        let knapsack =
            solve_instance(&candidates, capacity, SolveStrategy::Knapsack, tiers, None, false);
        // A leaves through u: nothing reads it, so the spill buys nothing.
        assert_eq!(knapsack.picks, [Pick::Unpersist, Pick::Mem], "ser_tier={ser}");
    }
}
