//! KMeans clustering (Lloyd's algorithm), MLlib-style.
//!
//! The paper's KMeans workload (§7.1, HiBench uniform data): the input is
//! cached and reused every iteration; each iteration shuffles per-cluster
//! sums to compute new centroids (one job per iteration). Because HiBench's
//! data is uniform, partitions are evenly sized — the paper notes this is
//! why auto-caching alone helps KMeans the least (§7.3).
//!
//! An iteration is MLlib's: one pass over each partition finds every point's
//! closest center (`findClosest`) and adds the point into that center's
//! running sum in place, emitting one `(cluster, (sum, count, wcss))` record
//! per cluster present in the partition; `reduce_by_key` then merges the
//! partitions' records. The pass performs the float additions the per-point
//! records' map-side combine would, in the same order, so its sums are bit
//! for bit those of the per-point formulation.
//!
//! `points_with_norms` carries MLlib's precomputed norm, but nothing reads
//! it: MLlib's `fastSquaredDistance` bound would change which float
//! operations run, and so the results.

use crate::datagen::{cluster_partition, ClusterGenConfig};
use crate::types::squared_distance;
use blaze_common::error::Result;
use blaze_dataflow::{Context, Dataset};
use std::sync::Arc;

/// KMeans configuration.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// The input data.
    pub data: ClusterGenConfig,
    /// Number of centroids to fit (defaults to the planted cluster count).
    pub k: usize,
    /// Lloyd iterations.
    pub iterations: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        let data = ClusterGenConfig::default();
        Self { data, k: data.clusters, iterations: 10 }
    }
}

/// KMeans output.
#[derive(Debug)]
pub struct KMeansResult {
    /// Final centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Within-cluster sum of squares per iteration.
    pub wcss_per_iteration: Vec<f64>,
}

fn nearest(centroids: &[Vec<f64>], p: &[f64]) -> (usize, f64) {
    let mut best = (0, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = squared_distance(c, p);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// A cluster's running `(sum-vector, count, wcss)`.
type Sums = (Vec<f64>, u64, f64);

/// Merges two clusters' sums: `cluster_stats`'s reduce function.
fn merge_sums(a: &Sums, b: &Sums) -> Sums {
    let sum: Vec<f64> = a.0.iter().zip(&b.0).map(|(x, y)| x + y).collect();
    (sum, a.1 + b.1, a.2 + b.2)
}

/// One partition's pass (MLlib's `findClosest` + in-place sum): a record per
/// cluster present, in the order of each cluster's first point.
///
/// A cluster's first point seeds its sum, and later points add into it
/// element-wise: exactly the float operations, in the same order, that
/// folding one `(cluster, (point, 1, d))` record per point with
/// [`merge_sums`] performs.
fn partition_sums(centroids: &[Vec<f64>], points: &[(Vec<f64>, f64)]) -> Vec<(u32, Sums)> {
    let mut slot = vec![usize::MAX; centroids.len()];
    let mut out: Vec<(u32, Sums)> = Vec::new();
    for (p, _norm) in points {
        let (c, d) = nearest(centroids, p);
        if slot[c] == usize::MAX {
            slot[c] = out.len();
            out.push((c as u32, (p.clone(), 1, d)));
        } else {
            let (sum, count, wcss) = &mut out[slot[c]].1;
            for (s, x) in sum.iter_mut().zip(p) {
                *s += x;
            }
            *count += 1;
            *wcss += d;
        }
    }
    out
}

/// Runs KMeans; one job per iteration (the centroid-update action).
pub fn run(ctx: &Context, cfg: &KMeansConfig) -> Result<KMeansResult> {
    lloyd(ctx, cfg, |data, cents| data.map_partitions(move |points| partition_sums(&cents, points)))
}

/// The Lloyd iterations around `assign`, the operator that turns the points
/// and the current centroids into per-cluster sums.
fn lloyd(
    ctx: &Context,
    cfg: &KMeansConfig,
    assign: impl Fn(&Dataset<(Vec<f64>, f64)>, Arc<Vec<Vec<f64>>>) -> Dataset<(u32, Sums)>,
) -> Result<KMeansResult> {
    let gen_cfg = cfg.data;
    let dim = gen_cfg.dim;

    let points: Dataset<Vec<f64>> = ctx
        .generate(gen_cfg.partitions, move |p| cluster_partition(&gen_cfg, p))
        .named("gen_points")
        // Re-reading + parsing the (synthetic stand-in for) HiBench text
        // input is expensive; recomputing lost partitions means re-parsing.
        .with_cost(blaze_dataflow::CostSpec::SOURCE.scaled(24.0));
    // The user-annotated raw input (MLlib asks callers to cache it)...
    let raw = points.map(|p| p.clone()).named("training_points");
    raw.cache();
    // ...but MLlib internally zips the data with precomputed norms and
    // iterates over *that* — so the raw cache has no further use after this
    // step (the unnecessary-caching pattern of §3.1).
    let data = raw
        .map(|p| {
            let norm = p.iter().map(|v| v * v).sum::<f64>().sqrt();
            (p.clone(), norm)
        })
        .named("points_with_norms");
    data.cache();

    // Deterministic farthest-first initialization over partition 0 (a
    // kmeans++-style seeding that avoids collapsing onto one cluster).
    let seed_pool = cluster_partition(&gen_cfg, 0);
    let mut centroids: Vec<Vec<f64>> = vec![seed_pool[0].clone()];
    while centroids.len() < cfg.k {
        let farthest = seed_pool
            .iter()
            .max_by(|a, b| {
                let da =
                    centroids.iter().map(|c| squared_distance(c, a)).fold(f64::INFINITY, f64::min);
                let db =
                    centroids.iter().map(|c| squared_distance(c, b)).fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty seed pool");
        centroids.push(farthest.clone());
    }
    let mut wcss_per_iteration = Vec::with_capacity(cfg.iterations);

    for _ in 0..cfg.iterations {
        // Per-cluster (sum-vector, count, wcss) records, reduced per cluster.
        let assigned = assign(&data, Arc::new(centroids.clone()))
            .named("assignments")
            // Distance evaluation against k centroids dominates per-point
            // compute (the paper's KMeans is computation-heavy, Fig. 4).
            .with_cost(blaze_dataflow::CostSpec::NARROW.scaled(12.0));
        let stats = assigned.reduce_by_key(gen_cfg.partitions, merge_sums).named("cluster_stats");
        // The iteration's action.
        let collected = stats.collect()?;
        let mut wcss = 0.0;
        for (c, (sum, count, d)) in collected {
            wcss += d;
            if count > 0 {
                centroids[c as usize] = sum.iter().map(|v| v / count as f64).collect::<Vec<f64>>();
            }
            debug_assert_eq!(sum.len(), dim);
        }
        wcss_per_iteration.push(wcss);
    }

    Ok(KMeansResult { centroids, wcss_per_iteration })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::planted_centers;
    use blaze_dataflow::runner::LocalRunner;

    fn small_cfg() -> KMeansConfig {
        let data = ClusterGenConfig {
            points: 3_000,
            dim: 4,
            clusters: 4,
            spread: 0.3,
            partitions: 4,
            ..Default::default()
        };
        KMeansConfig { data, k: 4, iterations: 8 }
    }

    #[test]
    fn recovers_planted_centers() {
        let cfg = small_cfg();
        let ctx = Context::new(LocalRunner::new());
        let result = run(&ctx, &cfg).unwrap();
        let planted = planted_centers(&cfg.data);
        // Every planted center has a fitted centroid nearby.
        for truth in &planted {
            let nearest = result
                .centroids
                .iter()
                .map(|c| squared_distance(c, truth))
                .fold(f64::INFINITY, f64::min);
            assert!(nearest < 0.5, "planted center unmatched, d^2 = {nearest}");
        }
    }

    #[test]
    fn wcss_is_monotonically_non_increasing() {
        let cfg = small_cfg();
        let ctx = Context::new(LocalRunner::new());
        let result = run(&ctx, &cfg).unwrap();
        for w in result.wcss_per_iteration.windows(2) {
            assert!(w[1] <= w[0] * 1.0001, "WCSS increased: {w:?}");
        }
    }

    /// The formulation `run` replaced: one `(cluster, (point, 1, d))` record
    /// per point, folded by `reduce_by_key`'s map-side combine.
    fn run_per_point(ctx: &Context, cfg: &KMeansConfig) -> Result<KMeansResult> {
        lloyd(ctx, cfg, |data, cents| {
            data.map(move |(p, _norm)| {
                let (c, d) = nearest(&cents, p);
                (c as u32, (p.clone(), 1u64, d))
            })
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_matches_per_point(cfg: &KMeansConfig) {
        let ours = run(&Context::new(LocalRunner::new()), cfg).unwrap();
        let oracle = run_per_point(&Context::new(LocalRunner::new()), cfg).unwrap();
        assert_eq!(bits(&ours.wcss_per_iteration), bits(&oracle.wcss_per_iteration));
        assert_eq!(ours.centroids.len(), oracle.centroids.len());
        for (a, b) in ours.centroids.iter().zip(&oracle.centroids) {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn partition_pass_matches_per_point_records_bit_for_bit() {
        assert_matches_per_point(&small_cfg());
        // More centroids than planted clusters over ten-point partitions.
        let data = ClusterGenConfig {
            points: 90,
            dim: 3,
            clusters: 3,
            spread: 0.5,
            partitions: 9,
            seed: 5,
        };
        let cfg = KMeansConfig { data, k: 6, iterations: 5 };
        let fitted = run(&Context::new(LocalRunner::new()), &cfg).unwrap().centroids;
        let some_partition_misses_a_cluster = (0..data.partitions).any(|p| {
            let points: Vec<(Vec<f64>, f64)> =
                cluster_partition(&data, p).into_iter().map(|x| (x, 0.0)).collect();
            partition_sums(&fitted, &points).len() < cfg.k
        });
        assert!(some_partition_misses_a_cluster);
        assert_matches_per_point(&cfg);
    }

    #[test]
    fn partition_sums_fold_per_point_records_in_first_occurrence_order() {
        let centroids = vec![vec![0.0, 0.0], vec![10.0, 10.0], vec![-10.0, 5.0]];
        let points: Vec<(Vec<f64>, f64)> = [
            [9.0, 11.0],
            [0.1, 0.1],
            [0.2, 0.2],
            [10.5, 9.75],
            // The only point of cluster 2: a sum seeded with zeros would
            // read +0.0 here (0.0 + -0.0 == +0.0).
            [-10.0, -0.0],
            [0.3, 0.3],
        ]
        .iter()
        .map(|p| (p.to_vec(), 0.0))
        .collect();

        // Reference: the per-point records, folded the way `reduce_by_key`'s
        // map side folds them.
        let mut expected: Vec<(u32, Sums)> = Vec::new();
        for (p, _) in &points {
            let (c, d) = nearest(&centroids, p);
            let record = (p.clone(), 1, d);
            match expected.iter_mut().find(|(k, _)| *k == c as u32) {
                Some((_, acc)) => *acc = merge_sums(acc, &record),
                None => expected.push((c as u32, record)),
            }
        }

        let got = partition_sums(&centroids, &points);
        assert_eq!(got.iter().map(|(c, _)| *c).collect::<Vec<_>>(), vec![1, 0, 2]);
        assert_eq!(got.len(), expected.len());
        for ((c, (sum, count, wcss)), (ec, (esum, ecount, ewcss))) in got.iter().zip(&expected) {
            assert_eq!((c, count), (ec, ecount));
            assert_eq!(bits(sum), bits(esum), "cluster {c}");
            assert_eq!(wcss.to_bits(), ewcss.to_bits(), "cluster {c}");
        }
        assert!(got[2].1 .0[1].is_sign_negative());
        assert!(partition_sums(&centroids, &[]).is_empty());
    }

    #[test]
    fn one_job_per_iteration() {
        let cfg = small_cfg();
        let ctx = Context::new(LocalRunner::new());
        let _ = run(&ctx, &cfg).unwrap();
        assert_eq!(ctx.jobs_submitted() as usize, cfg.iterations);
    }
}
