//! 0/1 knapsack as the two-option case of [`crate::mckp`]: the names the
//! repository benchmark pins, kept as adapters until it is re-pointed at
//! the one search. Nothing else calls them.

use crate::cert::MckpCertificate;
use crate::mckp::{
    solve_mckp, solve_mckp_certified, MckpGroup, MckpOption, MckpSolution, MckpWarm,
};

/// One candidate item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnapsackItem {
    /// Value gained if the item is selected (saved recovery cost, seconds).
    pub value: f64,
    /// Weight (partition size in bytes).
    pub weight: u64,
}

/// Each item as the group `[zero, (value, weight)]`: choice 1 selects it.
pub fn two_option_groups(items: &[KnapsackItem]) -> Vec<MckpGroup> {
    let zero = MckpOption { value: 0.0, weight: 0 };
    items
        .iter()
        .map(|i| MckpGroup { options: vec![zero, MckpOption { value: i.value, weight: i.weight }] })
        .collect()
}

/// [`solve_mckp`] over [`two_option_groups`].
pub fn solve_knapsack(items: &[KnapsackItem], capacity: u64, node_budget: usize) -> MckpSolution {
    solve_mckp(&two_option_groups(items), capacity, node_budget)
}

/// [`solve_mckp_certified`] over [`two_option_groups`].
pub fn solve_knapsack_certified(
    items: &[KnapsackItem],
    capacity: u64,
    node_budget: usize,
    warm: Option<&MckpWarm>,
) -> (MckpSolution, MckpCertificate) {
    solve_mckp_certified(&two_option_groups(items), capacity, node_budget, warm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapters_reach_the_one_search() {
        // values 60,100,120; weights 10,20,30; cap 50 => {1,2} = 220.
        let items = [(60.0, 10), (100.0, 20), (120.0, 30)]
            .map(|(value, weight)| KnapsackItem { value, weight });
        let plain = solve_knapsack(&items, 50, 0);
        assert_eq!((plain.choice.as_slice(), plain.value), ([0, 1, 1].as_slice(), 220.0));
        let (certified, cert) = solve_knapsack_certified(&items, 50, 0, None);
        assert_eq!(certified, plain);
        assert!(cert.complete && !cert.nodes.is_empty());
    }
}
