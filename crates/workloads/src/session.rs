//! The unified run API: one application on one simulated cluster.
//!
//! [`Session`] is the one builder every run goes through.
//! [`Session::builder`] takes the one [`AppSpec`] to run; the builder
//! builds the system's controller — after the dependency-extraction run when
//! the system needs a profile — and the cluster the spec asks for, and
//! drives the application on a [`Context`] over that cluster.

use crate::apps::AppSpec;
use crate::runner::RunOutcome;
use crate::systems::SystemKind;
use blaze_common::error::Result;
use blaze_core::{extract_dependencies, BlazeConfig, BlazeController};
use blaze_dataflow::Context;
use blaze_engine::{CacheController, Cluster, FaultPlan};

type WrapFn = Box<dyn FnOnce(BlazeController) -> Box<dyn CacheController>>;

/// Builder for a [`Session`]. Obtain via [`Session::builder`].
#[must_use]
pub struct SessionBuilder {
    spec: AppSpec,
    system: SystemKind,
    fault: FaultPlan,
    tracing: bool,
    blaze: Option<BlazeConfig>,
    wrap: Option<WrapFn>,
}

impl SessionBuilder {
    /// Selects the system under test (default: [`SystemKind::Blaze`]).
    pub fn system(mut self, system: SystemKind) -> Self {
        self.system = system;
        self
    }

    /// Installs a deterministic fault-injection schedule.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Enables structured event tracing (never changes simulated behaviour).
    pub fn tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
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
    /// Returns a configuration error for an invalid [`BlazeConfig`], plus
    /// any error surfaced by the driver itself.
    pub fn run(self) -> Result<RunOutcome> {
        Session::launch(self)
    }
}

/// One application run. See [`Session::builder`].
pub struct Session;

impl Session {
    /// Starts building a session of `spec` (see the module docs for the full
    /// model).
    pub fn builder(spec: AppSpec) -> SessionBuilder {
        SessionBuilder {
            spec,
            system: SystemKind::Blaze,
            fault: FaultPlan::default(),
            tracing: false,
            blaze: None,
            wrap: None,
        }
    }

    fn launch(builder: SessionBuilder) -> Result<RunOutcome> {
        let SessionBuilder { spec, system, fault, tracing, blaze, wrap } = builder;
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
        config.fault = fault;
        config.tracing = tracing;
        let cluster = Cluster::new(config, controller)?;
        spec.drive(&Context::new(cluster.clone()))?;
        Ok(RunOutcome { app: spec.app, system, metrics: cluster.metrics(), trace: cluster.trace() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::App;
    use blaze_common::error::BlazeError;

    #[test]
    fn a_custom_blaze_config_is_validated() {
        let spec = AppSpec::evaluation(App::PageRank).scaled(0.2);
        let mut cfg = BlazeConfig::full();
        cfg.optimizer.horizon_jobs = 0;
        let err = Session::builder(spec).blaze(cfg).run().unwrap_err();
        assert!(matches!(err, BlazeError::Config(_)), "{err:?}");
    }
}
