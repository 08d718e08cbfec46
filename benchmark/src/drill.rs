//! Solver and certificate drill: direct calls to the per-executor state
//! solvers and the certificate verifier on seeded instances, away from any
//! workload. It gives `solver.*` and `certify.verify_over_solve`, the
//! numbers a change to `blaze-solver` or `blaze-certify` moves first.

use crate::stats::median;
use blaze_certify::{verify_instance, InstanceCertificate, InstancePayload};
use blaze_common::ids::ExecutorId;
use blaze_solver::ilp::{solve_binary, solve_binary_certified, IlpProblem};
use blaze_solver::knapsack::{solve_knapsack, solve_knapsack_certified, KnapsackItem};
use blaze_solver::lp::Constraint;
use blaze_solver::mckp::{solve_mckp, solve_mckp_certified, MckpGroup, MckpOption};
use std::hint::black_box;
use std::time::Instant;

/// Items per executor instance for the knapsack and multi-choice solvers.
pub const SIZES: [usize; 2] = [64, 512];
/// Variables per instance for the exact ILP: its LP-relaxation branch and
/// bound is orders of magnitude slower per item, and the decision layer only
/// uses it on small instances.
pub const ILP_SIZES: [usize; 2] = [16, 32];
/// Seeded instances per size; the reported time is the median over them.
const INSTANCES: u64 = 7;

/// Median microseconds per solve, by size, and the verification ratio.
#[derive(Debug, Clone, Copy, Default)]
pub struct Drill {
    pub knapsack_us: [f64; 2],
    pub mckp_us: [f64; 2],
    pub ilp_us: [f64; 2],
    /// Time to verify every certificate ÷ time to produce it with its solve.
    pub verify_over_solve: f64,
    /// Certificates checked and certificates with a finding.
    pub certificates: u64,
    pub rejected: u64,
}

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// Block-sized weights (16–128 KiB) and values weakly correlated with them,
/// the shape cost-per-byte candidates have: uncorrelated values make branch
/// and bound trivially easy.
fn items(n: usize, seed: u64) -> Vec<KnapsackItem> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            let weight = 1024 * (16 + next(&mut state) % 113);
            let density = 0.5 + (next(&mut state) % 1000) as f64 / 1000.0;
            KnapsackItem { value: weight as f64 * density / 1e6, weight }
        })
        .collect()
}

/// Three quarters of the items fit.
fn capacity(items: &[KnapsackItem]) -> u64 {
    items.iter().map(|i| i.weight).sum::<u64>() * 3 / 4
}

/// Each item as an m/s/u group: nothing, serialized (0.6 of the bytes for
/// 0.8 of the value) or deserialized in memory.
fn groups(items: &[KnapsackItem]) -> Vec<MckpGroup> {
    items
        .iter()
        .map(|i| MckpGroup {
            options: vec![
                MckpOption { value: 0.0, weight: 0 },
                MckpOption { value: i.value * 0.8, weight: i.weight * 6 / 10 },
                MckpOption { value: i.value, weight: i.weight },
            ],
        })
        .collect()
}

/// The knapsack as a 0/1 minimisation program with one weight row.
fn ilp(items: &[KnapsackItem]) -> IlpProblem {
    IlpProblem {
        objective: items.iter().map(|i| -i.value).collect(),
        constraints: vec![Constraint::le(
            items.iter().map(|i| i.weight as f64).collect(),
            capacity(items) as f64,
        )],
        node_budget: 0,
        warm: None,
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Runs the drill on instances derived from `seed`.
pub fn run(seed: u64) -> Drill {
    let mut drill = Drill::default();
    let (mut solve_s, mut verify_s) = (0.0, 0.0);
    let mut check = |payload: InstancePayload, certified_s: f64, drill: &mut Drill| {
        let cert = InstanceCertificate { executor: ExecutorId(0), payload };
        let (findings, s) = timed(|| verify_instance(&cert));
        solve_s += certified_s;
        verify_s += s;
        drill.certificates += 1;
        drill.rejected += u64::from(!findings.is_empty());
    };

    for (slot, &n) in SIZES.iter().enumerate() {
        let (mut knap, mut mckp) = (Vec::new(), Vec::new());
        for i in 0..INSTANCES {
            let items = items(n, seed.wrapping_add(i));
            let cap = capacity(&items);
            knap.push(timed(|| solve_knapsack(black_box(&items), cap, 0)).1 * 1e6);
            let ((solution, cert), s) = timed(|| solve_knapsack_certified(&items, cap, 0, None));
            let payload =
                InstancePayload::Knapsack { items: items.clone(), capacity: cap, solution, cert };
            check(payload, s, &mut drill);

            let groups = groups(&items);
            mckp.push(timed(|| solve_mckp(black_box(&groups), cap, 0)).1 * 1e6);
            let ((solution, cert), s) = timed(|| solve_mckp_certified(&groups, cap, 0, None));
            let payload = InstancePayload::MultiChoice { groups, capacity: cap, solution, cert };
            check(payload, s, &mut drill);
        }
        drill.knapsack_us[slot] = median(&knap);
        drill.mckp_us[slot] = median(&mckp);
    }

    for (slot, &n) in ILP_SIZES.iter().enumerate() {
        let mut times = Vec::new();
        for i in 0..INSTANCES {
            let problem = ilp(&items(n, seed.wrapping_add(100 + i)));
            times.push(timed(|| solve_binary(black_box(&problem))).1 * 1e6);
            let (certified, s) = timed(|| solve_binary_certified(&problem));
            match certified {
                Ok((outcome, cert)) => {
                    check(InstancePayload::Ilp { problem, outcome, cert }, s, &mut drill);
                }
                Err(_) => {
                    drill.certificates += 1;
                    drill.rejected += 1;
                }
            }
        }
        drill.ilp_us[slot] = median(&times);
    }

    drill.verify_over_solve = if solve_s > 0.0 { verify_s / solve_s } else { 0.0 };
    drill
}
