//! One-call execution of (application × system) pairs.
//!
//! [`run_app`] is shorthand for the unified [`Session`] builder, which
//! everything else should use directly.

use crate::apps::{App, AppSpec};
use crate::session::Session;
use crate::systems::SystemKind;
use blaze_common::error::Result;
use blaze_common::SimDuration;
use blaze_engine::{Metrics, TraceLog};

/// The outcome of one evaluation run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Which application ran.
    pub app: App,
    /// Which system ran it.
    pub system: SystemKind,
    /// Full engine metrics.
    pub metrics: Metrics,
    /// The structured event trace, when the run was traced; `None`
    /// otherwise.
    pub trace: Option<TraceLog>,
}

impl RunOutcome {
    /// The application completion time (the paper's ACT, Fig. 9).
    pub fn act(&self) -> SimDuration {
        SimDuration::from_nanos(self.metrics.completion_time.as_nanos())
    }
}

/// Runs `app` under `system` at evaluation scale and returns the metrics.
///
/// For profiled systems this performs the dependency-extraction phase first
/// (on sample-scale inputs, like the paper's < 1 MB runs); its cost is not
/// part of the simulated ACT but is bounded by the profiling job budget and
/// reported by the Fig. 13 harness separately.
pub fn run_app(app: App, system: SystemKind) -> Result<RunOutcome> {
    let spec = AppSpec::evaluation(app);
    Session::builder(spec).system(system).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_runs_under_every_headline_system() {
        let mut acts = Vec::new();
        for system in SystemKind::headline() {
            let out = run_app(App::KMeans, system).unwrap();
            assert!(out.metrics.jobs >= 10, "{system:?} ran {} jobs", out.metrics.jobs);
            acts.push((system, out.act()));
        }
        // Every system must actually take time.
        assert!(acts.iter().all(|(_, t)| t.as_secs_f64() > 0.0));
    }

    #[test]
    fn blaze_profiling_does_not_change_results() {
        // Functional equivalence: same job count under Blaze and Spark.
        let a = run_app(App::KMeans, SystemKind::SparkMemOnly).unwrap();
        let b = run_app(App::KMeans, SystemKind::Blaze).unwrap();
        assert_eq!(a.metrics.jobs, b.metrics.jobs);
    }
}
