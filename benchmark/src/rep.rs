//! One repetition: set up a fresh application run (dependency extraction,
//! controller, cluster), then drive the workload on it.

use crate::host::{self, Interval};
use crate::spans::{span, SharedTracer, SpanRunner, TimedController};
use crate::workloads::{Outcome, Workload};
use blaze_common::error::Result;
use blaze_core::{extract_dependencies, BlazeConfig, BlazeController, DecisionStats};
use blaze_dataflow::Context;
use blaze_engine::{CacheController, Cluster, Metrics};
use blaze_policies::{EvictMode, LruController};

/// The system a repetition runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Full Blaze, profiled (`SystemKind::Blaze` of `blaze-workloads`).
    Blaze,
    /// Full Blaze with inline certificate verification on.
    BlazeCertify,
    /// LRU with spill on eviction (`SystemKind::SparkMemDisk`): the baseline
    /// that bypasses `core` and `solver`.
    MemDisk,
}

/// How one repetition is observed. The default observes nothing.
#[derive(Clone, Default)]
pub struct Observe {
    /// Record benchmark-side spans into this tracer.
    pub tracer: Option<SharedTracer>,
    /// Turn the engine's own event trace (`ClusterConfig::tracing`) on.
    pub engine_tracing: bool,
    /// Count allocations during the drive phase.
    pub count_allocations: bool,
    /// Execute on two engine worker threads (capped at `nproc`) instead of
    /// one.
    pub two_threads: bool,
}

/// What one repetition measured.
pub struct Rep {
    /// Everything before the first job: dependency extraction on the
    /// sample-scale driver, controller construction and `Cluster::new`.
    pub setup: Interval,
    /// The drive phase: first `run_job` to last result.
    pub drive: Interval,
    /// Kernel CPU seconds and minor faults of the drive phase.
    pub sys_s: f64,
    pub minor_faults: u64,
    /// Allocations `(count, bytes)` of the drive phase when counted.
    pub allocations: (u64, u64),
    pub outcome: Outcome,
    pub metrics: Metrics,
    /// Jobs the driver submitted.
    pub jobs: u32,
    /// Datasets in the lineage plan after the run.
    pub rdds: usize,
    /// Events in the engine's trace (0 with engine tracing off).
    pub engine_events: usize,
}

/// Boxes `inner`, inside a [`TimedController`] when spans are recorded.
fn boxed<C: CacheController + 'static>(
    inner: C,
    tracer: Option<&SharedTracer>,
    stats_of: Option<fn(&C) -> DecisionStats>,
) -> Box<dyn CacheController> {
    match tracer {
        Some(t) => Box::new(TimedController { inner, tracer: t.clone(), stats_of }),
        None => Box::new(inner),
    }
}

fn controller(
    system: System,
    workload: &Workload,
    seed: u64,
    tracer: Option<&SharedTracer>,
) -> Result<Box<dyn CacheController>> {
    if system == System::MemDisk {
        return Ok(boxed(LruController::new(EvictMode::MemDisk), tracer, None));
    }
    let w = *workload;
    let profile = span(tracer, "core.extract_dependencies", || {
        extract_dependencies(move |ctx| w.drive_sample(ctx, seed), 0)
    })?;
    let cfg = BlazeConfig { certify: system == System::BlazeCertify, ..BlazeConfig::full() };
    let blaze = BlazeController::new(cfg, Some(profile));
    Ok(boxed(blaze, tracer, Some(BlazeController::decision_stats)))
}

/// Runs one repetition of `workload` under `system`.
pub fn run(workload: &Workload, seed: u64, system: System, observe: &Observe) -> Result<Rep> {
    let tracer = observe.tracer.as_ref();
    span(tracer, "rep", || {
        let (built, setup) = Interval::measure(|| {
            span(tracer, "setup", || -> Result<(Cluster, Context)> {
                let controller = controller(system, workload, seed, tracer)?;
                let threads = if observe.two_threads { 2.min(host::nproc()) } else { 1 };
                let config = workload.cluster_config(threads, observe.engine_tracing);
                let cluster =
                    span(tracer, "engine.cluster_new", || Cluster::new(config, controller))?;
                let ctx = match tracer {
                    Some(t) => {
                        Context::new(SpanRunner { inner: cluster.clone(), tracer: t.clone() })
                    }
                    None => Context::new(cluster.clone()),
                };
                Ok((cluster, ctx))
            })
        });
        let (cluster, ctx) = built?;

        let stat_before = host::proc_stat();
        host::count_allocations(observe.count_allocations);
        let (outcome, drive) =
            Interval::measure(|| span(tracer, "drive", || workload.drive(&ctx, seed)));
        let allocations = host::allocations();
        host::count_allocations(false);
        let stat_after = host::proc_stat();

        let rdds = ctx.plan().read().len();
        Ok(Rep {
            setup,
            drive,
            sys_s: stat_after.sys_s - stat_before.sys_s,
            minor_faults: stat_after.minor_faults - stat_before.minor_faults,
            allocations: if observe.count_allocations { allocations } else { (0, 0) },
            outcome: outcome?,
            metrics: cluster.metrics(),
            jobs: ctx.jobs_submitted(),
            rdds,
            engine_events: cluster.trace().map_or(0, |t| t.events().len()),
        })
    })
}
