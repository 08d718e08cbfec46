//! The literal Eq. 5–6 program, kept as the test oracle of the knapsack
//! reduction.
//!
//! The paper states §5.5 as a 0/1 program over `(m, d, u)` binaries per
//! partition and solves it with Gurobi; [`super::solve_instance`] answers it
//! as a multi-choice knapsack instead. This module builds the program as
//! stated — `(m, d, u)` per candidate with the serialized tier off,
//! `(m, s, d, u)` with it on — solves it with the solver crate's certified
//! ILP branch and bound (the certificate must verify), and checks on seeded
//! random instances that the knapsack finds the same optimum, and where it
//! does not.

use super::*;
use blaze_certify::verify_ilp;
use blaze_common::ids::RddId;
use blaze_solver::ilp::{solve_binary_certified, IlpOutcome, IlpProblem};
use blaze_solver::lp::Constraint;

/// The literal Eq. 5–6 program over `[m_0, d_0, u_0, m_1, ...]` binaries.
fn eq56_problem(candidates: &[Candidate], capacity: ByteSize) -> IlpProblem {
    let nv = 3 * candidates.len();
    let mut objective = vec![0.0; nv];
    let mut constraints = Vec::with_capacity(candidates.len() + 1);
    let mut cap_row = vec![0.0; nv];
    for (i, c) in candidates.iter().enumerate() {
        if c.referenced {
            objective[3 * i + 1] = c.cost_d.as_secs_f64();
            objective[3 * i + 2] = c.cost_r.as_secs_f64();
        }
        match c.state {
            // Leaving memory for disk pays the spill; dropping is free.
            PartitionState::Memory(_) | PartitionState::SerializedMemory(_) => {
                objective[3 * i + 1] += c.transition.as_secs_f64();
            }
            // Promotion pays a disk read.
            PartitionState::Disk(_) => objective[3 * i] += c.transition.as_secs_f64(),
            PartitionState::None => {}
        }
        // m_i + d_i + u_i = 1 (Eq. 1).
        let mut row = vec![0.0; nv];
        row[3 * i..3 * i + 3].fill(1.0);
        constraints.push(Constraint::eq(row, 1.0));
        cap_row[3 * i] = c.size.as_bytes() as f64;
    }
    constraints.push(Constraint::le(cap_row, capacity.as_bytes() as f64));
    IlpProblem { objective, constraints, node_budget: 200_000, warm: None }
}

/// The Eq. 5–6 program enlarged to the m/s/d/u space, over
/// `[m_0, s_0, d_0, u_0, m_1, ...]` binaries: per-access costs scale with
/// the window reference count, the s column pays the windowed
/// deserialization charge plus its transition, and it occupies only the
/// footprint-scaled size in the capacity row.
fn eq56_problem_mc(candidates: &[Candidate], capacity: ByteSize) -> IlpProblem {
    let nv = 4 * candidates.len();
    let mut objective = vec![0.0; nv];
    let mut constraints = Vec::with_capacity(candidates.len() + 1);
    let mut cap_row = vec![0.0; nv];
    for (i, c) in candidates.iter().enumerate() {
        let accesses = f64::from(c.window_refs);
        objective[4 * i] = c.trans_to_m.as_secs_f64();
        objective[4 * i + 1] = accesses * c.deser_access.as_secs_f64() + c.trans_to_s.as_secs_f64();
        objective[4 * i + 2] = accesses * c.cost_d.as_secs_f64() + c.trans_to_d.as_secs_f64();
        objective[4 * i + 3] = accesses * c.cost_r.as_secs_f64();
        // m_i + s_i + d_i + u_i = 1.
        let mut row = vec![0.0; nv];
        row[4 * i..4 * i + 4].fill(1.0);
        constraints.push(Constraint::eq(row, 1.0));
        cap_row[4 * i] = c.size.as_bytes() as f64;
        cap_row[4 * i + 1] = c.ser_size.as_bytes() as f64;
    }
    constraints.push(Constraint::le(cap_row, capacity.as_bytes() as f64));
    IlpProblem { objective, constraints, node_budget: 200_000, warm: None }
}

/// Solves either encoding (`vars` binaries per candidate: 3 for
/// [`eq56_problem`]'s m/d/u, 4 for [`eq56_problem_mc`]'s m/s/d/u) and
/// returns one pick per candidate (d and u are both [`Pick::Out`]) with the
/// program's proven optimum. The solve's certificate must verify.
fn solve_exact(problem: &IlpProblem, vars: usize) -> (Vec<Pick>, f64) {
    let n = problem.objective.len() / vars;
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let (outcome, cert) = solve_binary_certified(problem).expect("a well-formed program");
    let findings = verify_ilp(problem, &outcome, &cert);
    assert!(findings.is_empty(), "ILP certificate: {findings:?}");
    let IlpOutcome::Solved { x, objective, proven_optimal: true } = outcome else {
        panic!("u_i = 1 for every i is feasible and n <= 6 fits the node budget: {outcome:?}");
    };
    let picks = (0..n)
        .map(|i| {
            if x[vars * i] {
                Pick::Mem
            } else if vars == 4 && x[vars * i + 1] {
                Pick::Ser
            } else {
                Pick::Out
            }
        })
        .collect();
    (picks, objective)
}

/// The value of the decision path's knapsack answer under the pricing it
/// solved, checked against the capacity.
fn knapsack_optimum(candidates: &[Candidate], capacity: ByteSize, ser_tier: bool) -> f64 {
    let picks =
        solve_instance(candidates, capacity, SolveStrategy::Knapsack, ser_tier, None, false).picks;
    let (groups, layout) = if ser_tier {
        (tier_groups(candidates), TIER_LAYOUT)
    } else {
        (binary_groups(candidates), BINARY_LAYOUT)
    };
    let chosen: Vec<MckpOption> =
        choice_of_picks(&picks, layout).iter().zip(&groups).map(|(&o, g)| g.options[o]).collect();
    assert!(chosen.iter().map(|o| o.weight).sum::<u64>() <= capacity.as_bytes());
    chosen.iter().map(|o| o.value).sum()
}

/// `Σ out_best`: the program's objective with every candidate out of memory
/// in its cheapest out-of-memory state — the constant the knapsack's saved
/// value is measured from. With the tier off this is the 0/1 pricing's
/// `ref · min(cost_d, cost_r)`, which leaves memory residents' spill
/// transitions out.
fn all_out(candidates: &[Candidate], ser_tier: bool) -> f64 {
    candidates
        .iter()
        .map(|c| {
            if ser_tier {
                let accesses = f64::from(c.window_refs);
                let obj_d = accesses * c.cost_d.as_secs_f64() + c.trans_to_d.as_secs_f64();
                obj_d.min(accesses * c.cost_r.as_secs_f64())
            } else if c.referenced {
                c.cost_d.min(c.cost_r).as_secs_f64()
            } else {
                0.0
            }
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
            let [transition, trans_to_m, trans_to_s, trans_to_d, deser_access] =
                [(); 5].map(|()| SimDuration::from_millis(1 + next(40)));
            Candidate {
                id: BlockId::new(RddId(rdd), 0),
                size: ByteSize::from_kib(size_kib),
                cost_d,
                cost_r,
                transition,
                trans_to_m,
                trans_to_s,
                trans_to_d,
                deser_access,
                ser_size: ByteSize::from_kib(1 + next(size_kib)),
                referenced: window_refs > 0,
                window_refs,
                state: states[next(3) as usize],
            }
        })
        .collect()
}

/// The knapsack's optimum is `Σ out_best` minus the Eq. 5–6 optimum, on 64
/// seeded instances × 5 capacities. With the serialized tier on, on every
/// instance. With it off, once no memory
/// resident carries a spill transition (disk residents keep their promotion
/// read, which both encodings price alike).
#[test]
fn the_knapsack_optimum_is_the_eq56_optimum() {
    for seed in 0..64 {
        let candidates = instance(seed);
        let spill_free: Vec<Candidate> = candidates
            .iter()
            .map(|&c| match c.state {
                PartitionState::Disk(_) => c,
                _ => Candidate { transition: SimDuration::ZERO, ..c },
            })
            .collect();
        let total: u64 = candidates.iter().map(|c| c.size.as_bytes()).sum();
        for cap in [0, total / 4, total / 2, total * 3 / 4, total] {
            let capacity = ByteSize::from_bytes(cap);
            for (ser_tier, candidates) in [(true, &candidates), (false, &spill_free)] {
                let (_, ilp) = if ser_tier {
                    solve_exact(&eq56_problem_mc(candidates, capacity), 4)
                } else {
                    solve_exact(&eq56_problem(candidates, capacity), 3)
                };
                let saved = knapsack_optimum(candidates, capacity, ser_tier);
                let out = all_out(candidates, ser_tier);
                assert!(
                    (out - saved - ilp).abs() < 1e-9,
                    "seed {seed} capacity {cap} ser_tier={ser_tier}: Σ out_best {out} - \
                     knapsack {saved} != Eq. 5–6 optimum {ilp}"
                );
            }
        }
    }
}

/// Where the 0/1 pricing and Eq. 5–6 part: capacity fits one of two 100 KiB
/// memory residents. A is unreferenced and spills in 30 ms; B is referenced
/// with `cost_d` 10 ms, `cost_r` 20 ms and a 5 ms spill.
#[test]
fn zero_one_pricing_credits_a_spill_that_eq56_leaves_free() {
    let resident = |rdd, referenced, cost_d, cost_r, spill| Candidate {
        id: BlockId::new(RddId(rdd), 0),
        size: ByteSize::from_kib(100),
        cost_d: SimDuration::from_millis(cost_d),
        cost_r: SimDuration::from_millis(cost_r),
        transition: SimDuration::from_millis(spill),
        trans_to_m: SimDuration::ZERO,
        trans_to_s: SimDuration::ZERO,
        trans_to_d: SimDuration::from_millis(spill),
        deser_access: SimDuration::from_millis(1),
        ser_size: ByteSize::from_kib(60),
        referenced,
        window_refs: u32::from(referenced),
        state: PartitionState::Memory(ExecutorId(0)),
    };
    let candidates = [resident(1, false, 0, 0, 30), resident(2, true, 10, 20, 5)];
    let capacity = ByteSize::from_kib(100);
    // The 0/1 pricing values staying as the avoided spill plus the saved
    // recovery: A 30 ms, B 5 + 10 ms. It keeps A.
    let knapsack =
        solve_instance(&candidates, capacity, SolveStrategy::Knapsack, false, None, false).picks;
    assert_eq!(knapsack, [Pick::Mem, Pick::Out]);
    // Eq. 5–6 drops A for free (u) and keeps B, whose cheapest way out costs
    // 15 ms (d: 10 ms read + 5 ms spill), at objective 0.
    let (exact, optimum) = solve_exact(&eq56_problem(&candidates, capacity), 3);
    assert_eq!(exact, [Pick::Out, Pick::Mem]);
    assert_eq!(optimum, 0.0);
    // The tier pricing agrees with Eq. 5–6 on the same instance: A saves
    // nothing in memory, B saves its 15 ms way out deserialized and 14 ms
    // packed (one 1 ms deserialization).
    let tier =
        solve_instance(&candidates, capacity, SolveStrategy::Knapsack, true, None, false).picks;
    assert_eq!(tier, [Pick::Out, Pick::Mem]);
}
