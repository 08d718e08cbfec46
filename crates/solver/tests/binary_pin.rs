//! Pins the 0/1 answers of the branch-and-bound search across the merge of
//! the knapsack solver into the multi-choice one.
//!
//! The answers were first pinned at the last commit that still had the
//! dedicated 0/1 search, over every case both cold and with a warm-start
//! hint; that search and the multi-choice one with a warm hint reproduced
//! them bit for bit. The warm hint has since been removed, and the digests
//! below are the cold half of those cases, computed at the last commit that
//! still had the hint (where warm and cold agreed on every case, budget
//! exhaustion included). Only [`solve`] — the few lines that reach the
//! solver — differs between the commits. The digests cover `(selected,
//! value bits, weight, proven_optimal)` of every case, so the two-option
//! instance of the one search must visit the same nodes in the same order
//! with the same float sums: a budget-exhausted case returns whatever
//! incumbent the search held when it stopped.

use blaze_solver::knapsack::{two_option_groups, KnapsackItem};
use blaze_solver::mckp::solve_mckp;

/// One solve: `(selected, value, weight, proven_optimal)`.
fn solve(items: &[KnapsackItem], capacity: u64, budget: usize) -> (Vec<bool>, f64, u64, bool) {
    let s = solve_mckp(&two_option_groups(items), capacity, budget);
    (s.choice.iter().map(|&c| c == 1).collect(), s.value, s.weight, s.proven_optimal)
}

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

const SHAPES: [&str; 5] = ["mixed", "identical", "blocks", "zero-heavy", "correlated"];

/// The items of instance `k` of `shape` (n ≤ 60).
fn instance(shape: &str, k: u64) -> Vec<KnapsackItem> {
    let mut s = (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ shape.len() as u64;
    let n = (next(&mut s) % 61) as usize;
    let item = |value: f64, weight: u64| KnapsackItem { value, weight };
    match shape {
        // Fractional values from -5 to 51 (one in eleven non-positive, exact
        // zeros included), weights 0..=40.
        "mixed" => (0..n)
            .map(|_| item((next(&mut s) % 5600) as f64 / 100.0 - 5.0, next(&mut s) % 41))
            .collect(),
        // Every comparison the search makes is a tie.
        "identical" => {
            let (v, w) = (1.0 + (next(&mut s) % 20) as f64, 1 + next(&mut s) % 15);
            (0..n.max(1)).map(|_| item(v, w)).collect()
        }
        // The benchmark drill's shape: block-sized weights, values weakly
        // correlated with them.
        "blocks" => (0..n)
            .map(|_| {
                let weight = 1024 * (16 + next(&mut s) % 113);
                let density = 0.5 + (next(&mut s) % 1000) as f64 / 1000.0;
                item(weight as f64 * density / 1e6, weight)
            })
            .collect(),
        // A third of the weights are zero, half of the values non-positive.
        "zero-heavy" => (0..n)
            .map(|_| {
                let weight = if next(&mut s).is_multiple_of(3) { 0 } else { next(&mut s) % 30 };
                item((next(&mut s) % 21) as f64 - 10.0, weight)
            })
            .collect(),
        // Value within a few units of weight: the Dantzig bound is nearly
        // flat, so small budgets run out mid-search.
        "correlated" => (0..n.min(40))
            .map(|_| {
                let weight = 10 + next(&mut s) % 90;
                item(weight as f64 + (next(&mut s) % 7) as f64, weight)
            })
            .collect(),
        other => unreachable!("unknown shape {other}"),
    }
}

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest and case count of one shape: 20 instances × capacities 0–100 % of
/// Σw × budgets {default, 1, 37, 500}.
fn digest_of(shape: &str) -> (u64, usize, usize) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut cases, mut unproven) = (0, 0);
    for k in 0..20 {
        let items = instance(shape, k);
        let total: u64 = items.iter().map(|i| i.weight).sum();
        for percent in [0u64, 10, 33, 50, 75, 100] {
            let capacity = total * percent / 100;
            for budget in [0usize, 1, 37, 500] {
                let (selected, value, weight, proven) = solve(&items, capacity, budget);
                assert_eq!(selected.len(), items.len());
                let flags: Vec<u8> = selected.iter().map(|&s| u8::from(s)).collect();
                fnv(&mut digest, &flags);
                fnv(&mut digest, &value.to_bits().to_le_bytes());
                fnv(&mut digest, &weight.to_le_bytes());
                fnv(&mut digest, &[u8::from(proven)]);
                cases += 1;
                unproven += usize::from(!proven);
            }
        }
    }
    (digest, cases, unproven)
}

#[test]
fn two_option_groups_reproduce_the_pinned_binary_answers() {
    // (digest, cases, cases that ran out of budget) per shape.
    let pinned: [(u64, usize, usize); 5] = [
        (0x1133_272d_defb_fff1, 480, 122),
        (0xfa5a_e17a_2a14_4862, 480, 185),
        (0x2ac2_770f_9eea_226d, 480, 152),
        (0x0733_2dfc_a701_53fc, 480, 74),
        (0x3105_54f2_9674_ece7, 480, 167),
    ];
    let got: Vec<_> = SHAPES.iter().map(|shape| digest_of(shape)).collect();
    for (shape, (digest, cases, unproven)) in SHAPES.iter().zip(&got) {
        println!("{shape}: ({digest:#018x}, {cases}, {unproven}),");
    }
    assert_eq!(got, pinned, "the 0/1 answers moved");
    assert_eq!(got.iter().map(|g| g.1).sum::<usize>(), 2400);
}
