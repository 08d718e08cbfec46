//! Solver microbenches: the knapsack search, the LP core and the
//! branch-and-bound ILP at the instance sizes Blaze produces per executor.
//!
//! The paper bounds ILP latency at 5 s on cluster-sized instances (§5.5);
//! our per-executor instances (tens to hundreds of partitions) must solve
//! in microseconds-to-milliseconds for the job-submission trigger to hide.

use blaze_solver::ilp::{solve_binary, IlpProblem};
use blaze_solver::lp::{solve as solve_lp, Constraint, LinearProgram};
use blaze_solver::mckp::{solve_mckp, MckpGroup, MckpOption};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn pseudo(n: u64, salt: u64) -> f64 {
    let mut x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ((x >> 11) % 10_000) as f64 / 100.0
}

/// One `[zero, (value, weight)]` group per item: the 0/1 program.
fn knapsack_groups(n: usize) -> Vec<MckpGroup> {
    let zero = MckpOption { value: 0.0, weight: 0 };
    (0..n)
        .map(|i| {
            let item = MckpOption {
                value: pseudo(i as u64, 1) + 1.0,
                weight: pseudo(i as u64, 2) as u64 * 1024 + 1,
            };
            MckpGroup { options: vec![zero, item] }
        })
        .collect()
}

fn bench_knapsack(c: &mut Criterion) {
    let mut g = c.benchmark_group("knapsack");
    for n in [16usize, 64, 256, 1024] {
        let groups = knapsack_groups(n);
        let cap: u64 = groups.iter().map(|g| g.options[1].weight).sum::<u64>() / 3;
        g.bench_with_input(BenchmarkId::new("exact", n), &groups, |b, groups| {
            b.iter(|| solve_mckp(std::hint::black_box(groups), cap, 0))
        });
        g.bench_with_input(BenchmarkId::new("greedy", n), &groups, |b, groups| {
            b.iter(|| solve_mckp(std::hint::black_box(groups), cap, 1))
        });
    }
    g.finish();
}

fn bench_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex");
    for n in [8usize, 32, 128] {
        // A box-constrained fractional knapsack with n variables.
        let objective: Vec<f64> = (0..n).map(|i| -(pseudo(i as u64, 3) + 1.0)).collect();
        let mut constraints =
            vec![Constraint::le((0..n).map(|i| pseudo(i as u64, 4) + 1.0).collect(), n as f64)];
        for i in 0..n {
            let mut row = vec![0.0; n];
            row[i] = 1.0;
            constraints.push(Constraint::le(row, 1.0));
        }
        let lp = LinearProgram { objective, constraints };
        g.bench_with_input(BenchmarkId::from_parameter(n), &lp, |b, lp| {
            b.iter(|| solve_lp(std::hint::black_box(lp)).unwrap())
        });
    }
    g.finish();
}

fn bench_ilp(c: &mut Criterion) {
    let mut g = c.benchmark_group("branch_and_bound_ilp");
    g.sample_size(20);
    for n in [6usize, 10, 14] {
        // The literal Eq. 5-6 encoding: 3 binaries per partition.
        let nv = 3 * n;
        let mut objective = vec![0.0; nv];
        let mut constraints = Vec::new();
        let mut cap = vec![0.0; nv];
        for i in 0..n {
            objective[3 * i + 1] = pseudo(i as u64, 5) + 0.5;
            objective[3 * i + 2] = pseudo(i as u64, 6) + 0.5;
            let mut row = vec![0.0; nv];
            row[3 * i] = 1.0;
            row[3 * i + 1] = 1.0;
            row[3 * i + 2] = 1.0;
            constraints.push(Constraint::eq(row, 1.0));
            cap[3 * i] = pseudo(i as u64, 7) + 1.0;
        }
        constraints.push(Constraint::le(cap, n as f64));
        let problem = IlpProblem { objective, constraints, node_budget: 0, warm: None };
        g.bench_with_input(BenchmarkId::from_parameter(n), &problem, |b, p| {
            b.iter(|| solve_binary(std::hint::black_box(p)).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_knapsack, bench_lp, bench_ilp);
criterion_main!(benches);
