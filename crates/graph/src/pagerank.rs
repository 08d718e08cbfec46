//! PageRank, in the classic Spark formulation the paper's Fig. 1 shows.
//!
//! Each iteration submits one job: contributions flow along edges
//! (`links.join(ranks).flat_map`), are summed per destination
//! (`reduce_by_key`) and damped. Like the GraphX/Spark reference code, the
//! adjacency dataset is cached once and each iteration's rank dataset is
//! cached, with the *previous* iteration's ranks unpersisted after the new
//! ones materialize (Fig. 1 lines 4 and 9).

use crate::datagen::{edges, GraphGenConfig};
use crate::types::VertexId;
use blaze_common::error::Result;
use blaze_dataflow::{Context, Dataset};

/// PageRank configuration.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// The input graph.
    pub graph: GraphGenConfig,
    /// Number of iterations (the paper uses 10, Fig. 5).
    pub iterations: usize,
    /// Damping factor (0.85 in the reference implementation).
    pub damping: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self { graph: GraphGenConfig::default(), iterations: 10, damping: 0.85 }
    }
}

/// PageRank output.
#[derive(Debug)]
pub struct PageRankResult {
    /// Final (vertex, rank) pairs.
    pub ranks: Vec<(VertexId, f64)>,
}

/// Serialization factor of adjacency-bearing datasets (nested vectors are
/// expensive to serialize in the JVM; cf. §7.2).
const GRAPH_SER: f64 = 2.5;

/// Per-vertex adjacency joined with the current rank (GraphX's `rankGraph`
/// of triplets).
type RankGraph = Dataset<(VertexId, (Vec<VertexId>, f64))>;

/// Runs PageRank on the given context (one job per iteration).
///
/// Mirrors the GraphX structure the paper evaluates: each iteration caches
/// both the small rank vector and the *graph-sized* `rank_graph` (adjacency
/// joined with ranks — GraphX's cached `rankGraph` of triplets), and
/// unpersists the previous iteration's datasets after the new ones
/// materialize (Fig. 1 lines 4 and 9). The bulky per-iteration rank graph is
/// what makes PageRank the paper's most disk-bound workload.
pub fn run(ctx: &Context, cfg: &PageRankConfig) -> Result<PageRankResult> {
    let parts = cfg.graph.partitions;
    let damping = cfg.damping;

    // Adjacency lists, hash-partitioned and cached (Fig. 1 line 4).
    let links: Dataset<(VertexId, Vec<VertexId>)> = edges(ctx, &cfg.graph)
        .map(|e| e.by_src())
        .group_by_key(parts)
        .named("links")
        .with_ser_factor(GRAPH_SER);
    links.cache();
    // The pre-processing job (Fig. 1's Job 0): materialize the graph before
    // the iterations start, like GraphX's eager graph construction.
    links.count()?;

    let mut ranks: Dataset<(VertexId, f64)> = links.map_values(|_| 1.0).named("init_ranks");
    // The graph-with-ranks state chained across iterations (GraphX's
    // `rankGraph`): adjacency + current rank per vertex.
    let mut rank_graph: RankGraph = links
        .map_values(|dests| (dests.clone(), 1.0))
        .named("rank_graph_0")
        .with_ser_factor(GRAPH_SER);
    rank_graph.cache();
    let mut prev: Option<(Dataset<(VertexId, f64)>, RankGraph)> = None;

    for _ in 0..cfg.iterations {
        // One pass per partition into a pre-sized vector: a `flat_map`
        // closure cannot borrow from its argument, so it would allocate a
        // vector per vertex.
        let contribs = rank_graph
            .map_partitions(|part| {
                let edges = part.iter().map(|(_, (dests, _))| dests.len()).sum();
                let mut out = Vec::with_capacity(edges);
                for (_, (dests, rank)) in part {
                    let share = *rank / dests.len() as f64;
                    out.extend(dests.iter().map(|&d| (d, share)));
                }
                out
            })
            .named("contribs");
        let msgs = contribs.reduce_by_key(parts, |a, b| a + b).named("msg_sums");
        // The vertex update is a *narrow* join on the previous ranks (both
        // co-partitioned), like GraphX's joinVertices — which is why the
        // recomputation lineage grows across iterations (paper Fig. 5).
        let new_ranks = ranks
            .left_outer_join(&msgs, parts)
            .map_values(move |(_, s)| (1.0 - damping) + damping * s.unwrap_or(0.0))
            .named("ranks");
        new_ranks.cache();
        // The next iteration's rank graph (graph-sized, cached, reused once).
        let new_rank_graph =
            links.join(&new_ranks, parts).named("rank_graph").with_ser_factor(GRAPH_SER);
        new_rank_graph.cache();
        // The per-iteration action: triggers one job (Fig. 1's structure).
        new_rank_graph.count()?;
        // Unpersist the now-stale previous iteration (L9).
        if let Some((old_ranks, old_graph)) = prev.take() {
            old_ranks.unpersist();
            old_graph.unpersist();
        }
        prev = Some((ranks, rank_graph));
        ranks = new_ranks;
        rank_graph = new_rank_graph;
    }

    Ok(PageRankResult { ranks: ranks.collect()? })
}

/// A driver-side reference PageRank with identical semantics to [`run`]:
/// ranks are defined over the vertices with out-edges; a vertex receiving no
/// contributions gets `1 - damping`. Used by tests and result verification.
pub fn reference(
    edges: &[(VertexId, VertexId)],
    iterations: usize,
    damping: f64,
) -> Vec<(VertexId, f64)> {
    use blaze_common::fxhash::FxHashMap;
    let mut adj: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
    for &(s, d) in edges {
        adj.entry(s).or_default().push(d);
    }
    let mut ranks: FxHashMap<VertexId, f64> = adj.keys().map(|&v| (v, 1.0)).collect();
    for _ in 0..iterations {
        // Contributions flow from the (adjacency, rank) graph state.
        let mut contribs: FxHashMap<VertexId, f64> = FxHashMap::default();
        for (v, dests) in &adj {
            if let Some(r) = ranks.get(v) {
                let share = r / dests.len() as f64;
                for d in dests {
                    *contribs.entry(*d).or_insert(0.0) += share;
                }
            }
        }
        // Narrow vertex update over the previous rank keys.
        for (v, r) in ranks.iter_mut() {
            *r = (1.0 - damping) + damping * contribs.get(v).copied().unwrap_or(0.0);
        }
    }
    let mut out: Vec<(VertexId, f64)> = ranks.into_iter().collect();
    out.sort_by_key(|(v, _)| *v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::partition_edges;
    use blaze_dataflow::runner::LocalRunner;

    fn small_cfg() -> PageRankConfig {
        PageRankConfig {
            graph: GraphGenConfig {
                vertices: 200,
                avg_degree: 4,
                partitions: 4,
                ..Default::default()
            },
            iterations: 5,
            damping: 0.85,
        }
    }

    #[test]
    fn matches_reference_implementation() {
        let cfg = small_cfg();
        let ctx = Context::new(LocalRunner::new());
        let mut got = run(&ctx, &cfg).unwrap().ranks;
        got.sort_by_key(|(v, _)| *v);

        let all_edges: Vec<(VertexId, VertexId)> = (0..cfg.graph.partitions)
            .flat_map(|p| partition_edges(&cfg.graph, p))
            .map(|e| e.by_src())
            .collect();
        let want = reference(&all_edges, cfg.iterations, cfg.damping);
        assert_eq!(got.len(), want.len());
        for ((gv, gr), (wv, wr)) in got.iter().zip(&want) {
            assert_eq!(gv, wv);
            assert!((gr - wr).abs() < 1e-9, "rank mismatch at {gv}: {gr} vs {wr}");
        }
    }

    #[test]
    fn rank_mass_is_conserved_approximately() {
        // With every vertex on the ring (in-degree >= 1), total rank stays
        // near the vertex count.
        let cfg = small_cfg();
        let ctx = Context::new(LocalRunner::new());
        let ranks = run(&ctx, &cfg).unwrap().ranks;
        let total: f64 = ranks.iter().map(|(_, r)| r).sum();
        let n = cfg.graph.vertices as f64;
        assert!((total - n).abs() / n < 0.05, "total rank {total} vs n {n}");
    }

    #[test]
    fn high_in_degree_vertices_rank_higher() {
        let cfg = small_cfg();
        let ctx = Context::new(LocalRunner::new());
        let ranks = run(&ctx, &cfg).unwrap().ranks;
        let rank_of = |v: VertexId| ranks.iter().find(|(x, _)| *x == v).map(|(_, r)| *r);
        // Vertex 0 attracts skewed edges; a high-id vertex does not.
        let head = rank_of(0).unwrap();
        let tail = rank_of(cfg.graph.vertices - 2).unwrap_or(1.0);
        assert!(head > tail, "head {head} should outrank tail {tail}");
    }

    #[test]
    fn preprocessing_plus_one_job_per_iteration_plus_final_collect() {
        let cfg = small_cfg();
        let ctx = Context::new(LocalRunner::new());
        let _ = run(&ctx, &cfg).unwrap();
        // Job 0 materializes the graph (Fig. 1's pre-processing), then one
        // job per iteration, then the final collect.
        assert_eq!(ctx.jobs_submitted() as usize, 1 + cfg.iterations + 1);
    }
}
