//! The unified run API: one application on one simulated cluster.
//!
//! [`Session`] is the one builder every run goes through. A session takes
//! exactly one [`AppSpec`] (BA010 otherwise), builds the system's
//! controller — after the dependency-extraction run when the system needs a
//! profile — and the cluster the spec asks for, and drives the application
//! on a [`Context`] over that cluster.

use crate::apps::AppSpec;
use crate::runner::RunOutcome;
use crate::systems::SystemKind;
use blaze_audit::DiagCode;
use blaze_common::error::{BlazeError, Result};
use blaze_core::{extract_dependencies, BlazeConfig, BlazeController};
use blaze_dataflow::Context;
use blaze_engine::{CacheController, Cluster, FaultPlan};

/// Run-wide knobs.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Deterministic fault-injection schedule (default: disabled).
    pub fault: FaultPlan,
    /// Structured event tracing (never changes simulated behaviour).
    pub tracing: bool,
    /// Promote preflight audit warnings to errors
    /// ([`blaze_engine::ClusterConfig::strict_audit`]).
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
    /// Sets the application to run. Call exactly once: a session with zero
    /// or several applications is refused with BA010.
    pub fn app(mut self, spec: AppSpec) -> Self {
        self.specs.push(spec);
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

    /// Promotes preflight audit warnings to errors.
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

    /// Builds the cluster and runs the application's driver to completion.
    ///
    /// # Errors
    ///
    /// Returns [`BlazeError::Audit`] with code BA010 unless exactly one
    /// application was given, plus any error surfaced by the driver itself.
    pub fn run(self) -> Result<RunOutcome> {
        Session::launch(self)
    }
}

/// One application run. See [`Session::builder`].
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

    fn launch(builder: SessionBuilder) -> Result<RunOutcome> {
        let SessionBuilder { specs, system, options, blaze, wrap } = builder;
        let &[spec] = specs.as_slice() else {
            return Err(BlazeError::Audit {
                code: DiagCode::NotExactlyOneApp.as_str().into(),
                message: format!(
                    "a session runs exactly one application; {} were given",
                    specs.len()
                ),
            });
        };
        let profile = || extract_dependencies(move |ctx| spec.drive_sample(ctx), 0);
        let (system, controller): (SystemKind, Box<dyn CacheController>) =
            if blaze.is_some() || wrap.is_some() {
                let cfg = blaze.unwrap_or_else(BlazeConfig::full);
                cfg.validate()?;
                let ctl = BlazeController::new(cfg, Some(profile()?));
                let boxed = match wrap {
                    Some(w) => w(ctl),
                    None => Box::new(ctl),
                };
                (SystemKind::Blaze, boxed)
            } else {
                let profile = if system.needs_profile() { Some(profile()?) } else { None };
                (system, system.make_controller(profile))
            };

        let mut config = spec.cluster_config();
        config.fault = options.fault;
        config.tracing = options.tracing;
        config.strict_audit = options.strict_audit;
        let cluster = Cluster::new(config, controller)?;
        spec.drive(&Context::new(cluster.clone()))?;
        Ok(RunOutcome { app: spec.app, system, metrics: cluster.metrics(), trace: cluster.trace() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::App;

    fn assert_ba010(err: BlazeError) {
        match err {
            BlazeError::Audit { code, .. } => assert_eq!(code, "BA010"),
            other => panic!("expected BA010 audit error, got {other:?}"),
        }
    }

    #[test]
    fn zero_apps_is_refused_with_ba010() {
        assert_ba010(Session::builder().run().unwrap_err());
    }

    #[test]
    fn two_apps_are_refused_with_ba010() {
        let err = Session::builder()
            .app(AppSpec::evaluation(App::KMeans))
            .app(AppSpec::evaluation(App::PageRank))
            .system(SystemKind::SparkMemDisk)
            .run()
            .unwrap_err();
        assert_ba010(err);
    }

    #[test]
    fn a_custom_blaze_config_is_validated() {
        let spec = AppSpec::evaluation(App::PageRank).scaled(0.2);
        let mut cfg = BlazeConfig::full();
        cfg.optimizer.horizon_jobs = 0;
        let err = Session::builder().app(spec).blaze(cfg).run().unwrap_err();
        assert!(matches!(err, BlazeError::Config(_)), "{err:?}");
    }
}
