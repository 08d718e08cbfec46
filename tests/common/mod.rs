//! Shared generators and fixtures of the integration tests: the one
//! random-pipeline generator ([`Step`] / [`step_strategy`] / [`source`] /
//! [`apply`]) and the two-executor fixture of the hand-written pipelines
//! ([`small_cluster`], [`reference`]).
//!
//! Every test binary compiles this module for itself and uses a subset.
#![allow(dead_code)]

use blaze::common::error::Result;
use blaze::common::ByteSize;
use blaze::dataflow::{runner::LocalRunner, Context, CostSpec, Dataset};
use blaze::engine::{ClusterConfig, FaultPlan};
use proptest::prelude::*;

/// One step of a random pipeline.
#[derive(Debug, Clone)]
pub enum Step {
    MapAdd(u64),
    FilterMod(u64),
    ReduceByKey,
    GroupCount,
    /// The reuse + memory-pressure dimension: caches the *un-reduced* data
    /// (so the block is as big as the input, where a cached reduction holds
    /// one record per key), `cost` times as expensive to recompute and `ser`
    /// times as expensive to (de)serialize as a plain map, and comes back to
    /// every such dataset once more after the pipeline (cross-job reuse).
    Hot {
        cost: u32,
        ser: u32,
    },
    /// The user-unpersist dimension: `unpersist()`s the most recently cached
    /// dataset still cached, then counts it again (through lineage).
    Unpersist,
}

pub fn step_strategy() -> impl Strategy<Value = Step> {
    let hot = || (1u32..2_000, 1u32..7).prop_map(|(cost, ser)| Step::Hot { cost, ser });
    // `Hot` is drawn twice as often as each other step: it alone makes
    // cached datasets compete for the store.
    prop_oneof![
        (1u64..100).prop_map(Step::MapAdd),
        (2u64..7).prop_map(Step::FilterMod),
        Just(Step::ReduceByKey),
        Just(Step::GroupCount),
        hot(),
        hot(),
        Just(Step::Unpersist),
    ]
}

/// The pipeline input: `elems` records over `keys` keys in `parts`
/// partitions, annotated for caching.
pub fn source(ctx: &Context, elems: u64, keys: u64, parts: usize) -> Dataset<(u64, u64)> {
    let data = ctx.parallelize((0..elems).map(|i| (i % keys, i)).collect::<Vec<_>>(), parts);
    data.cache();
    data
}

/// Applies the pipeline to `input`, caching after every shuffle (iterative
/// style), and returns the sorted result.
pub fn apply(input: Dataset<(u64, u64)>, parts: usize, steps: &[Step]) -> Result<Vec<(u64, u64)>> {
    let mut cached = vec![input.clone()];
    let mut hot: Vec<Dataset<(u64, u64)>> = Vec::new();
    let mut data = input;
    for step in steps {
        data = match *step {
            Step::MapAdd(k) => data.map_values(move |v| v.wrapping_add(k)),
            Step::FilterMod(m) => data.filter(move |(_, v)| v % m != 0),
            Step::ReduceByKey => {
                let d = data.reduce_by_key(parts, |a, b| a.wrapping_add(*b));
                d.cache();
                d.count()?;
                cached.push(d.clone());
                d
            }
            Step::GroupCount => {
                let d = data.group_by_key(parts).map_values(|vs| vs.len() as u64);
                d.cache();
                d.count()?;
                cached.push(d.clone());
                d
            }
            Step::Hot { cost, ser } => {
                let d = data
                    .map_values(|v| v.wrapping_mul(2_654_435_761))
                    .with_cost(CostSpec::NARROW.scaled(f64::from(cost)))
                    .with_ser_factor(f64::from(ser));
                d.cache();
                // Every earlier hot dataset is live again beside the new one.
                for earlier in &hot {
                    earlier.count()?;
                }
                d.count()?;
                cached.push(d.clone());
                hot.push(d.clone());
                d
            }
            Step::Unpersist => {
                if let Some(d) = cached.pop() {
                    d.unpersist();
                    d.count()?;
                }
                data
            }
        };
    }
    let mut out = data.collect()?;
    for d in &hot {
        d.count()?;
    }
    out.sort();
    Ok(out)
}

/// The two-executor, two-slot cluster the hand-written pipelines run on.
pub fn small_cluster(memory_kib: u64, fault: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        executors: 2,
        slots_per_executor: 2,
        memory_capacity: ByteSize::from_kib(memory_kib),
        fault,
        ..Default::default()
    }
}

/// The failure-free reference answer of `pipeline`, from the cache-less
/// local runner.
pub fn reference(pipeline: impl FnOnce(&Context) -> Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pipeline(&Context::new(LocalRunner::new()))
}
