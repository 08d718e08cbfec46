//! Workload correctness *on the simulated cluster* (not just the reference
//! runner): algorithm outputs must be identical regardless of the cache
//! controller, eviction pressure, or recomputation along the way.

use blaze::common::ByteSize;
use blaze::dataflow::{runner::LocalRunner, Context};
use blaze::engine::{Cluster, ClusterConfig};
use blaze::graph::cc::{self, CcConfig};
use blaze::graph::datagen::GraphGenConfig;
use blaze::graph::pagerank::{self, PageRankConfig};
use blaze::ml::datagen::ClusterGenConfig;
use blaze::ml::kmeans::{self, KMeansConfig};
use blaze::workloads::SystemKind;

fn starved_cluster(system: SystemKind) -> Context {
    let cluster = Cluster::new(
        ClusterConfig {
            executors: 2,
            slots_per_executor: 2,
            memory_capacity: ByteSize::from_kib(48),
            ..Default::default()
        },
        system.make_controller(None),
    )
    .unwrap();
    Context::new(cluster)
}

#[test]
fn pagerank_is_correct_under_eviction_pressure() {
    let cfg = PageRankConfig {
        graph: GraphGenConfig { vertices: 500, avg_degree: 3, partitions: 4, ..Default::default() },
        iterations: 5,
        damping: 0.85,
    };
    let mut want = pagerank::run(&Context::new(LocalRunner::new()), &cfg).unwrap().ranks;
    want.sort_by_key(|(v, _)| *v);
    for system in [
        SystemKind::SparkMemOnly,
        SystemKind::SparkMemDisk,
        SystemKind::BlazeNoProfile,
        SystemKind::TinyLfu,
    ] {
        let mut got = pagerank::run(&starved_cluster(system), &cfg).unwrap().ranks;
        got.sort_by_key(|(v, _)| *v);
        assert_eq!(got.len(), want.len(), "{system:?}");
        for ((gv, gr), (wv, wr)) in got.iter().zip(&want) {
            assert_eq!(gv, wv, "{system:?}");
            assert!((gr - wr).abs() < 1e-9, "{system:?}: rank {gv}: {gr} vs {wr}");
        }
    }
}

#[test]
fn connected_components_is_correct_under_eviction_pressure() {
    let cfg = CcConfig {
        graph: GraphGenConfig {
            vertices: 300,
            avg_degree: 1,
            skew: 0,
            partitions: 4,
            ..Default::default()
        },
        max_supersteps: 40,
    };
    let want = cc::run(&Context::new(LocalRunner::new()), &cfg).unwrap();
    for system in [SystemKind::SparkMemOnly, SystemKind::Lrc] {
        let got = cc::run(&starved_cluster(system), &cfg).unwrap();
        assert_eq!(got.num_components(), want.num_components(), "{system:?}");
        let mut g = got.labels;
        let mut w = want.labels.clone();
        g.sort();
        w.sort();
        assert_eq!(g, w, "{system:?}");
    }
}

#[test]
fn kmeans_is_correct_under_eviction_pressure() {
    let cfg = KMeansConfig {
        data: ClusterGenConfig {
            points: 2_000,
            dim: 4,
            clusters: 3,
            spread: 0.3,
            partitions: 4,
            ..Default::default()
        },
        k: 3,
        iterations: 5,
    };
    let want = kmeans::run(&Context::new(LocalRunner::new()), &cfg).unwrap();
    for system in [SystemKind::SparkMemDisk, SystemKind::Mrd, SystemKind::BlazeNoProfile] {
        let got = kmeans::run(&starved_cluster(system), &cfg).unwrap();
        for (gc, wc) in got.centroids.iter().zip(&want.centroids) {
            for (a, b) in gc.iter().zip(wc) {
                assert!((a - b).abs() < 1e-9, "{system:?}: centroid drift {a} vs {b}");
            }
        }
        assert_eq!(got.wcss_per_iteration.len(), want.wcss_per_iteration.len());
    }
}
