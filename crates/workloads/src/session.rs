//! The unified run API: N applications, one shared holistic cache.
//!
//! [`Session`] is the one builder every run goes through. A session admits
//! one or more [`AppSpec`]s, audits the admission (BA01x diagnostics), folds their
//! cluster requirements into a single shared [`ClusterConfig`], and runs the
//! drivers through the engine's deterministic [`Turnstile`] scheduler:
//!
//! - **N = 1** degenerates to the legacy serial path exactly — same job
//!   order, same metrics, byte-identical traces (this is differential-tested
//!   against [`crate::runner::run_spec_serial`]).
//! - **N ≥ 2** co-runs the drivers on scoped threads over one shared
//!   [`Plan`] and one shared block store, interleaved by the configured
//!   [`SchedulerConfig`] policy. Cross-app cache hits, evictions and
//!   unpersists are attributed per-app in the metrics and trace.
//!
//! Profiling (dependency extraction) runs only for single-app sessions;
//! co-running apps start unprofiled and rely on the controller's per-app
//! online pattern learning, exactly like `Blaze w/o Profiling` (Fig. 13).

use crate::apps::{App, AppSpec};
use crate::runner::RunOutcome;
use crate::systems::SystemKind;
use blaze_audit::{AuditReport, DiagCode, Diagnostic};
use blaze_common::error::{BlazeError, Result};
use blaze_common::ids::AppId;
use blaze_common::SimDuration;
use blaze_core::{extract_dependencies, BlazeConfig, BlazeController};
use blaze_dataflow::{Context, Plan};
use blaze_engine::{
    AppSession, CacheController, Cluster, ClusterConfig, FaultPlan, Metrics, SchedulerConfig,
    TraceLog, Turnstile,
};
use parking_lot::RwLock;
use std::sync::Arc;

/// Run-wide knobs shared by every admitted application.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Deterministic fault-injection schedule (default: disabled).
    pub fault: FaultPlan,
    /// Structured event tracing (never changes simulated behaviour).
    pub tracing: bool,
    /// Multi-app interleaving policy and seed.
    pub scheduler: SchedulerConfig,
    /// Promote admission warnings (BA011/BA012) to errors.
    pub strict_audit: bool,
}

type WrapFn = Box<dyn FnOnce(BlazeController) -> Box<dyn CacheController>>;

/// Builder for a [`Session`]. Obtain via [`Session::builder`].
#[must_use]
pub struct SessionBuilder {
    specs: Vec<AppSpec>,
    system: SystemKind,
    options: RunOptions,
    blaze: Option<BlazeConfig>,
    wrap: Option<WrapFn>,
}

impl SessionBuilder {
    /// Admits one application. Call repeatedly to co-run several.
    pub fn app(mut self, spec: AppSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Admits a batch of applications.
    pub fn apps(mut self, specs: impl IntoIterator<Item = AppSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Selects the system under test (default: [`SystemKind::Blaze`]).
    pub fn system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self
    }

    /// Replaces the full option set at once.
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Installs a deterministic fault-injection schedule.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.options.fault = fault;
        self
    }

    /// Enables structured event tracing.
    pub fn tracing(mut self, tracing: bool) -> Self {
        self.options.tracing = tracing;
        self
    }

    /// Sets the multi-app interleaving policy and seed.
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.options.scheduler = scheduler;
        self
    }

    /// Promotes admission warnings to errors.
    pub fn strict_audit(mut self, strict: bool) -> Self {
        self.options.strict_audit = strict;
        self
    }

    /// Runs Blaze with a custom configuration (the ablation harness path).
    /// Overrides [`SessionBuilder::system`].
    pub fn blaze(mut self, cfg: BlazeConfig) -> Self {
        self.blaze = Some(cfg);
        self
    }

    /// Wraps the Blaze controller in an instrumentation shim before it is
    /// installed. The wrapper must
    /// delegate faithfully: instrumentation never changes simulated
    /// behaviour. Implies a Blaze run (with [`SessionBuilder::blaze`]'s
    /// config if given, else [`BlazeConfig::full`]).
    pub fn instrument(
        mut self,
        wrap: impl FnOnce(BlazeController) -> Box<dyn CacheController> + 'static,
    ) -> Self {
        self.wrap = Some(Box::new(wrap));
        self
    }

    /// Audits the admission, builds the shared cluster and runs every
    /// admitted driver to completion under the turnstile scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`BlazeError::Audit`] with a BA01x code when admission fails
    /// (no apps; or, under strict audit, duplicate specs / oversubscribed
    /// slots), plus any error surfaced by the drivers themselves.
    pub fn run(self) -> Result<SessionOutcome> {
        Session::launch(self)
    }
}

/// A completed multi-app run. See [`Session::builder`].
pub struct Session;

impl Session {
    /// Starts building a session (see the module docs for the full model).
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            specs: Vec::new(),
            system: SystemKind::Blaze,
            options: RunOptions::default(),
            blaze: None,
            wrap: None,
        }
    }

    /// Audits admission of `specs` against `config` without running
    /// anything. Exposed so harnesses can preflight co-run plans.
    pub fn admission_report(specs: &[AppSpec], config: &ClusterConfig) -> AuditReport {
        let mut diags = Vec::new();
        if specs.is_empty() {
            diags.push(Diagnostic::new(
                DiagCode::NoAppsAdmitted,
                None,
                "the session admits zero applications".into(),
                "add at least one AppSpec with SessionBuilder::app".into(),
            ));
        }
        for (i, a) in specs.iter().enumerate() {
            if specs[..i].iter().any(|b| b.app == a.app) {
                diags.push(Diagnostic::new(
                    DiagCode::DuplicateAppSpec,
                    None,
                    format!("application {:?} is admitted more than once", a.app),
                    "co-running identical apps shares every block; scale or rename one".into(),
                ));
            }
        }
        let slots = config.executors * config.slots_per_executor;
        if specs.len() > slots {
            diags.push(Diagnostic::new(
                DiagCode::AppsExceedSlots,
                None,
                format!("{} applications admitted against {slots} task slots", specs.len()),
                "add executors or slots_per_executor, or admit fewer apps".into(),
            ));
        }
        AuditReport::new(diags)
    }

    /// Folds per-app cluster requirements into the one shared config: the
    /// co-run cluster is the max of every dimension, so no admitted app gets
    /// less than it would have run with alone.
    fn fold_config(specs: &[AppSpec], options: &RunOptions) -> ClusterConfig {
        let mut config = specs[0].cluster_config();
        for spec in &specs[1..] {
            let c = spec.cluster_config();
            config.executors = config.executors.max(c.executors);
            config.slots_per_executor = config.slots_per_executor.max(c.slots_per_executor);
            config.memory_capacity = config.memory_capacity.max(c.memory_capacity);
            config.worker_threads = config.worker_threads.max(c.worker_threads);
        }
        config.fault = options.fault.clone();
        config.tracing = options.tracing;
        config.scheduler = options.scheduler;
        config.strict_audit = options.strict_audit;
        config
    }

    fn launch(builder: SessionBuilder) -> Result<SessionOutcome> {
        let SessionBuilder { specs, system, options, blaze, wrap } = builder;
        if specs.is_empty() {
            let report = Self::admission_report(&specs, &ClusterConfig::default());
            return Err(audit_error(&report).expect("empty admission always errors"));
        }
        let config = Self::fold_config(&specs, &options);
        let report = Self::admission_report(&specs, &config);
        let blocking = report.errors().next().or_else(|| {
            if options.strict_audit {
                report.warnings().next()
            } else {
                None
            }
        });
        if let Some(d) = blocking {
            return Err(BlazeError::Audit {
                code: d.code.as_str().into(),
                message: d.message.clone(),
            });
        }

        let n = specs.len();
        // Dependency extraction is a per-app offline phase; it only exists
        // for single-app sessions. Co-running apps start unprofiled and the
        // controller learns each app's pattern online (per-app detection).
        let profile_for = |spec: &AppSpec| {
            let s = *spec;
            extract_dependencies(move |ctx| s.drive_sample(ctx), 0)
        };
        let (system, controller): (SystemKind, Box<dyn CacheController>) = if blaze.is_some()
            || wrap.is_some()
        {
            let cfg = blaze.unwrap_or_else(BlazeConfig::full);
            cfg.validate()?;
            let profile = if n == 1 { Some(profile_for(&specs[0])?) } else { None };
            let ctl = BlazeController::new(cfg, profile);
            let boxed = match wrap {
                Some(w) => w(ctl),
                None => Box::new(ctl),
            };
            (SystemKind::Blaze, boxed)
        } else {
            let profile =
                if n == 1 && system.needs_profile() { Some(profile_for(&specs[0])?) } else { None };
            (system, system.make_controller_scaled(profile, n as u32))
        };

        let cluster = Cluster::new(config, controller)?;
        let turnstile = Turnstile::new(options.scheduler, n);
        let plan = Arc::new(RwLock::new(Plan::new()));

        if n == 1 {
            // Single app: drive on the calling thread. The turnstile has one
            // live app, so every yield returns immediately — this is the
            // legacy serial path exactly.
            let session = turnstile.session(AppId(0), cluster.clone());
            session.start();
            let guard = FinishGuard(session.clone());
            let ctx = Context::with_plan(Arc::clone(&plan), session);
            let result = specs[0].drive(&ctx);
            drop(guard);
            result?;
        } else {
            Self::co_run(&specs, &turnstile, &cluster, &plan)?;
        }

        Ok(SessionOutcome {
            apps: specs.iter().map(|s| s.app).collect(),
            system,
            metrics: cluster.metrics(),
            trace: cluster.trace(),
        })
    }

    /// Runs every driver on its own scoped thread through the turnstile.
    /// Host thread scheduling never reaches the engine: only the turn
    /// holder executes, so the interleaving is the scheduler's alone.
    fn co_run(
        specs: &[AppSpec],
        turnstile: &Arc<Turnstile>,
        cluster: &Cluster,
        plan: &Arc<RwLock<Plan>>,
    ) -> Result<()> {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, spec) in specs.iter().enumerate() {
                let spec = *spec;
                let session = turnstile.session(AppId(i as u32), cluster.clone());
                let plan = Arc::clone(plan);
                handles.push(scope.spawn(move || {
                    session.start();
                    // The guard finishes the app on every exit path: an app
                    // that errors (or panics) leaves the rotation instead of
                    // deadlocking its peers.
                    let _guard = FinishGuard(session.clone());
                    let ctx = Context::with_plan(plan, session);
                    spec.drive(&ctx)
                }));
            }
            let mut first_err = None;
            for handle in handles {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => first_err = first_err.or(Some(e)),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            first_err.map_or(Ok(()), Err)
        })
    }
}

/// Retires the app from the turnstile rotation on drop (panic-safe).
struct FinishGuard(AppSession);

impl Drop for FinishGuard {
    fn drop(&mut self) {
        self.0.finish();
    }
}

fn audit_error(report: &AuditReport) -> Option<BlazeError> {
    report
        .errors()
        .next()
        .map(|d| BlazeError::Audit { code: d.code.as_str().into(), message: d.message.clone() })
}

/// The outcome of a session: one shared cluster's metrics and trace, plus
/// the admitted apps in admission order (`AppId(i)` = `apps[i]`).
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The admitted applications, in admission order.
    pub apps: Vec<App>,
    /// The system that ran them.
    pub system: SystemKind,
    /// Full engine metrics (per-app splits under `metrics.per_app`).
    pub metrics: Metrics,
    /// The structured event trace when tracing was enabled.
    pub trace: Option<TraceLog>,
}

impl SessionOutcome {
    /// The session completion time (for a single app, the paper's ACT).
    pub fn act(&self) -> SimDuration {
        SimDuration::from_nanos(self.metrics.completion_time.as_nanos())
    }

    /// Converts a single-app outcome to the legacy [`RunOutcome`] shape.
    ///
    /// # Panics
    ///
    /// Panics when the session admitted more than one application — a
    /// multi-app run has no single "the app".
    pub fn into_outcome(self) -> RunOutcome {
        assert!(
            self.apps.len() == 1,
            "into_outcome is for single-app sessions; read .metrics.per_app instead"
        );
        RunOutcome {
            app: self.apps[0],
            system: self.system,
            metrics: self.metrics,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaze_engine::SchedPolicy;

    #[test]
    fn zero_apps_is_refused_with_ba010() {
        let err = Session::builder().run().unwrap_err();
        match err {
            BlazeError::Audit { code, .. } => assert_eq!(code, "BA010"),
            other => panic!("expected BA010 audit error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_specs_warn_and_strict_mode_refuses() {
        let spec = AppSpec::evaluation(App::KMeans);
        let config = Session::fold_config(&[spec, spec], &RunOptions::default());
        let report = Session::admission_report(&[spec, spec], &config);
        assert!(report.warnings().any(|d| d.code == DiagCode::DuplicateAppSpec));
        // Non-strict: runs anyway (shared blocks are the point of the test).
        let err = Session::builder()
            .app(spec)
            .app(spec)
            .system(SystemKind::SparkMemDisk)
            .strict_audit(true)
            .run()
            .unwrap_err();
        match err {
            BlazeError::Audit { code, .. } => assert_eq!(code, "BA011"),
            other => panic!("expected BA011 audit error, got {other:?}"),
        }
    }

    #[test]
    fn a_custom_blaze_config_is_validated() {
        let spec = AppSpec::evaluation(App::PageRank).scaled(0.2);
        let mut cfg = BlazeConfig::full();
        cfg.optimizer.horizon_jobs = 0;
        let err = Session::builder().app(spec).blaze(cfg).run().unwrap_err();
        assert!(matches!(err, BlazeError::Config(_)), "{err:?}");
    }

    #[test]
    fn oversubscription_warns_with_ba012() {
        let mut spec = AppSpec::evaluation(App::KMeans);
        spec.executors = 1;
        spec.slots = 1;
        let specs = vec![spec, spec];
        let config = Session::fold_config(&specs, &RunOptions::default());
        let report = Session::admission_report(&specs, &config);
        assert!(report.warnings().any(|d| d.code == DiagCode::AppsExceedSlots));
    }

    #[test]
    fn single_app_session_matches_the_legacy_serial_path() {
        let spec = AppSpec::evaluation(App::KMeans);
        let legacy = crate::runner::run_spec_serial(
            &spec,
            SystemKind::SparkMemDisk,
            FaultPlan::default(),
            false,
        )
        .unwrap();
        let session = Session::builder().app(spec).system(SystemKind::SparkMemDisk).run().unwrap();
        assert_eq!(session.metrics, legacy.metrics);
    }

    #[test]
    fn co_run_attributes_metrics_per_app() {
        let out = Session::builder()
            .app(AppSpec::evaluation(App::KMeans))
            .app(AppSpec::evaluation(App::PageRank))
            .system(SystemKind::SparkMemDisk)
            .run()
            .unwrap();
        assert_eq!(out.apps, vec![App::KMeans, App::PageRank]);
        let per_app = out.metrics.per_app_sorted();
        assert_eq!(per_app.len(), 2, "both apps must appear in the per-app split");
        assert!(out.metrics.jobs > 0);
    }

    #[test]
    fn fair_share_and_round_robin_both_complete() {
        for policy in [SchedPolicy::RoundRobin, SchedPolicy::FairShare] {
            let out = Session::builder()
                .app(AppSpec::evaluation(App::KMeans))
                .app(AppSpec::evaluation(App::PageRank))
                .system(SystemKind::Blaze)
                .scheduler(SchedulerConfig { policy, seed: 11 })
                .run()
                .unwrap();
            assert!(out.metrics.jobs > 0, "{policy:?} must run jobs");
        }
    }
}
