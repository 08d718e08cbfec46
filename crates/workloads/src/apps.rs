//! The six evaluation applications at laptop scale.
//!
//! Each [`AppSpec`] bundles: the full-scale driver, the sample-scale driver
//! for the dependency-extraction phase (§5.1 ①), and a cluster
//! configuration whose memory-store capacity the cached working set
//! *exceeds* (the regime the whole paper studies, §7.1). Scales are roughly
//! 1000x below the paper's datasets; capacities are set per application
//! because the scaled working sets differ (the paper instead fixes 170 GB
//! and sizes datasets accordingly).

use blaze_common::error::Result;
use blaze_common::ByteSize;
use blaze_dataflow::Context;
use blaze_engine::ClusterConfig;
use blaze_graph::cc::{self, CcConfig};
use blaze_graph::datagen::GraphGenConfig;
use blaze_graph::pagerank::{self, PageRankConfig};
use blaze_graph::svdpp::{self, SvdppConfig};
use blaze_ml::datagen::{ClassificationGenConfig, ClusterGenConfig, RegressionGenConfig};
use blaze_ml::gbt::{self, GbtConfig};
use blaze_ml::kmeans::{self, KMeansConfig};
use blaze_ml::logreg::{self, LogRegConfig};

/// The six applications of the paper's evaluation, in figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// PageRank (graph processing).
    PageRank,
    /// ConnectedComponents (graph processing).
    ConnectedComponents,
    /// Logistic regression.
    LogisticRegression,
    /// KMeans clustering.
    KMeans,
    /// Gradient boosted trees.
    Gbt,
    /// SVD++ matrix factorization.
    Svdpp,
}

impl App {
    /// All applications in the paper's figure order.
    pub fn all() -> [App; 6] {
        [
            App::PageRank,
            App::ConnectedComponents,
            App::LogisticRegression,
            App::KMeans,
            App::Gbt,
            App::Svdpp,
        ]
    }

    /// The short label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            App::PageRank => "PR",
            App::ConnectedComponents => "CC",
            App::LogisticRegression => "LR",
            App::KMeans => "KMeans",
            App::Gbt => "GBT",
            App::Svdpp => "SVD++",
        }
    }

    /// The command-line names of the application, canonical first: the
    /// canonical name is what tools print and put into file names, the rest
    /// are accepted aliases. The one table every binary parses apps with.
    pub fn names(&self) -> &'static [&'static str] {
        match self {
            App::PageRank => &["pagerank", "pr"],
            App::ConnectedComponents => &["cc", "connectedcomponents"],
            App::LogisticRegression => &["lr", "logreg", "logisticregression"],
            App::KMeans => &["kmeans", "km"],
            App::Gbt => &["gbt"],
            App::Svdpp => &["svdpp", "svd"],
        }
    }

    /// The canonical command-line name (the first of [`App::names`]).
    pub fn key(&self) -> &'static str {
        self.names()[0]
    }

    /// The application one of [`App::names`] denotes (ASCII
    /// case-insensitive), if any.
    pub fn from_name(name: &str) -> Option<App> {
        Self::all().into_iter().find(|a| a.names().iter().any(|n| n.eq_ignore_ascii_case(name)))
    }
}

/// A fully configured application: drivers plus cluster sizing.
#[derive(Debug, Clone, Copy)]
pub struct AppSpec {
    /// Which application.
    pub app: App,
    /// Per-executor memory-store capacity for the evaluation runs.
    pub memory_capacity: ByteSize,
    /// Number of executors.
    pub executors: usize,
    /// Task slots per executor.
    pub slots: usize,
    /// Worker threads for parallel stage execution (`None` = engine default,
    /// i.e. host parallelism). Does not affect simulated time or metrics.
    pub worker_threads: Option<usize>,
    pr: PageRankConfig,
    cc: CcConfig,
    lr: LogRegConfig,
    km: KMeansConfig,
    gbt: GbtConfig,
    svd: SvdppConfig,
}

impl AppSpec {
    /// The evaluation-scale specification of an application.
    pub fn evaluation(app: App) -> Self {
        let executors = 4;
        let slots = 2;
        let graph =
            GraphGenConfig { vertices: 30_000, avg_degree: 4, skew: 2, partitions: 10, seed: 42 };
        let (memory_capacity, pr, cc, lr, km, gbt, svd) = match app {
            // PR: large adjacency + per-iteration ranks; heavily
            // memory-overcommitted (the paper's most disk-bound workload).
            App::PageRank => (
                ByteSize::from_kib(1792),
                PageRankConfig { graph, iterations: 14, damping: 0.85 },
                CcConfig::default(),
                LogRegConfig::default(),
                KMeansConfig::default(),
                GbtConfig::default(),
                SvdppConfig::default(),
            ),
            // CC: same graph, similar pressure.
            App::ConnectedComponents => (
                ByteSize::from_kib(1536),
                PageRankConfig::default(),
                // CC runs on a sparser, milder graph: larger diameter means
                // label propagation needs many supersteps (deep recompute
                // chains, like the paper's 25M-vertex runs to convergence).
                CcConfig {
                    graph: GraphGenConfig { avg_degree: 1, skew: 0, ..graph },
                    max_supersteps: 16,
                },
                LogRegConfig::default(),
                KMeansConfig::default(),
                GbtConfig::default(),
                SvdppConfig::default(),
            ),
            // LR: the reusable working set (instances) fits in memory if
            // nothing else is cached — the §7.2 LR scenario.
            App::LogisticRegression => (
                ByteSize::from_kib(950),
                PageRankConfig::default(),
                CcConfig::default(),
                LogRegConfig {
                    data: ClassificationGenConfig {
                        points: 24_000,
                        dim: 16,
                        partitions: 8,
                        seed: 11,
                    },
                    iterations: 10,
                    learning_rate: 2.0,
                },
                KMeansConfig::default(),
                GbtConfig::default(),
                SvdppConfig::default(),
            ),
            // KMeans: uniform data, moderate pressure.
            App::KMeans => (
                ByteSize::from_kib(1440),
                PageRankConfig::default(),
                CcConfig::default(),
                LogRegConfig::default(),
                KMeansConfig {
                    data: ClusterGenConfig {
                        points: 32_000,
                        dim: 16,
                        clusters: 5,
                        spread: 0.4,
                        partitions: 8,
                        seed: 13,
                    },
                    k: 5,
                    iterations: 10,
                },
                GbtConfig::default(),
                SvdppConfig::default(),
            ),
            // GBT: residuals re-cached every round.
            App::Gbt => (
                ByteSize::from_kib(1536),
                PageRankConfig::default(),
                CcConfig::default(),
                LogRegConfig::default(),
                KMeansConfig::default(),
                GbtConfig {
                    data: RegressionGenConfig { points: 48_000, dim: 8, partitions: 8, seed: 17 },
                    rounds: 8,
                    depth: 2,
                    shrinkage: 0.5,
                },
                SvdppConfig::default(),
            ),
            // SVD++: smaller volumes but heavy serialization factors.
            App::Svdpp => (
                ByteSize::from_kib(3584),
                PageRankConfig::default(),
                CcConfig::default(),
                LogRegConfig::default(),
                KMeansConfig::default(),
                GbtConfig::default(),
                SvdppConfig {
                    users: 4_000,
                    items: 160,
                    ratings_per_user: 10,
                    rank: 8,
                    iterations: 8,
                    learning_rate: 0.12,
                    lambda: 0.02,
                    partitions: 8,
                    seed: 77,
                },
            ),
        };
        Self {
            app,
            memory_capacity,
            executors,
            slots,
            worker_threads: None,
            pr,
            cc,
            lr,
            km,
            gbt,
            svd,
        }
    }

    /// Returns a copy pinned to `threads` execution worker threads.
    #[must_use]
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads.max(1));
        self
    }

    /// Returns a proportionally rescaled copy: data volumes and the
    /// memory-store capacity are multiplied by `factor` together, which
    /// preserves the working-set-to-memory ratio that defines the caching
    /// regime (`blaze-certify --quick` runs its sweep on such copies).
    pub fn scaled(&self, factor: f64) -> Self {
        let factor = factor.clamp(0.1, 10.0);
        let mut s = *self;
        s.memory_capacity = s.memory_capacity.scale(factor);
        s.pr.graph.vertices = ((s.pr.graph.vertices as f64 * factor) as u64).max(64);
        s.cc.graph.vertices = ((s.cc.graph.vertices as f64 * factor) as u64).max(64);
        s.lr.data.points = ((s.lr.data.points as f64 * factor) as u64).max(64);
        s.km.data.points = ((s.km.data.points as f64 * factor) as u64).max(64);
        s.gbt.data.points = ((s.gbt.data.points as f64 * factor) as u64).max(64);
        s.svd.users = ((s.svd.users as f64 * factor) as u32).max(32);
        s
    }

    /// The cluster configuration for the evaluation run.
    pub fn cluster_config(&self) -> ClusterConfig {
        let defaults = ClusterConfig::default();
        ClusterConfig {
            executors: self.executors,
            slots_per_executor: self.slots,
            memory_capacity: self.memory_capacity,
            worker_threads: self.worker_threads.unwrap_or(defaults.worker_threads),
            ..defaults
        }
    }

    /// Runs the application at evaluation scale.
    pub fn drive(&self, ctx: &Context) -> Result<()> {
        match self.app {
            App::PageRank => pagerank::run(ctx, &self.pr).map(|_| ()),
            App::ConnectedComponents => cc::run(ctx, &self.cc).map(|_| ()),
            App::LogisticRegression => logreg::run(ctx, &self.lr).map(|_| ()),
            App::KMeans => kmeans::run(ctx, &self.km).map(|_| ()),
            App::Gbt => gbt::run(ctx, &self.gbt).map(|_| ()),
            App::Svdpp => svdpp::run(ctx, &self.svd).map(|_| ()),
        }
    }

    /// Runs the application at the tiny sample scale used by the
    /// dependency-extraction phase (< 1 MB of input, §5.1 ①). The code path
    /// (and therefore the RDD id sequence) is identical to [`AppSpec::drive`].
    pub fn drive_sample(&self, ctx: &Context) -> Result<()> {
        self.sample_scale().drive(ctx)
    }

    /// This spec with every workload's input cut to the sample scale.
    fn sample_scale(&self) -> Self {
        let mut s = *self;
        s.pr.graph = blaze_graph::datagen::sample_config(&s.pr.graph);
        s.cc.graph = blaze_graph::datagen::sample_config(&s.cc.graph);
        s.lr.data.points = s.lr.data.points.clamp(1, 512);
        s.km.data.points = s.km.data.points.clamp(1, 512);
        s.gbt.data.points = s.gbt.data.points.clamp(1, 512);
        s.svd.users = s.svd.users.clamp(1, 256);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_dataflow::runner::LocalRunner;

    #[test]
    fn labels_and_order_match_the_paper() {
        let labels: Vec<&str> = App::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["PR", "CC", "LR", "KMeans", "GBT", "SVD++"]);
    }

    #[test]
    fn sample_drivers_run_quickly_and_match_code_paths() {
        for app in App::all() {
            let spec = AppSpec::evaluation(app);
            let ctx = Context::new(LocalRunner::new());
            spec.drive_sample(&ctx).unwrap_or_else(|e| panic!("{app:?} sample failed: {e}"));
            assert!(ctx.jobs_submitted() > 0, "{app:?} submitted no jobs");
        }
    }

    #[test]
    fn scaled_specs_preserve_the_regime() {
        let spec = AppSpec::evaluation(App::PageRank);
        let half = spec.scaled(0.5);
        let double = spec.scaled(2.0);
        assert!(half.memory_capacity < spec.memory_capacity);
        assert!(double.memory_capacity > spec.memory_capacity);
        assert_eq!(half.pr.graph.vertices, spec.pr.graph.vertices / 2);
        assert_eq!(double.pr.graph.vertices, spec.pr.graph.vertices * 2);
        // Out-of-range factors clamp instead of producing degenerate specs.
        let tiny = spec.scaled(0.0);
        assert!(tiny.memory_capacity > blaze_common::ByteSize::ZERO);
        tiny.cluster_config().validate().unwrap();
    }

    #[test]
    fn cluster_configs_are_valid() {
        for app in App::all() {
            AppSpec::evaluation(app).cluster_config().validate().unwrap();
        }
    }

    #[test]
    fn worker_threads_knob_reaches_the_cluster_config() {
        let spec = AppSpec::evaluation(App::KMeans);
        assert!(spec.cluster_config().worker_threads >= 1);
        let pinned = spec.with_worker_threads(3);
        assert_eq!(pinned.cluster_config().worker_threads, 3);
        // Zero clamps to one instead of producing an invalid config.
        assert_eq!(spec.with_worker_threads(0).cluster_config().worker_threads, 1);
    }
}
