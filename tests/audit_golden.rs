//! Golden audit runs: the repository's own evaluation workloads and
//! API-built random pipelines must come out of the static auditor clean.
//!
//! This is the auditor's false-positive guard. The per-code unit tests in
//! `audit_static.rs` prove each diagnostic *can* fire; these tests prove
//! none of them fires on well-formed programs — the paper's applications
//! (which cache exactly their reused iteration state) and arbitrary
//! pipelines assembled through the `Dataset` API.

use blaze::audit::plan_audit::{audit_application, AuditConfig};
use blaze::common::{RddId, Result};
use blaze::dataflow::block::Block;
use blaze::dataflow::plan::Plan;
use blaze::dataflow::runner::{JobRunner, LocalRunner};
use blaze::dataflow::{Context, Dataset};
use blaze::workloads::{App, AppSpec};
use parking_lot::{Mutex, RwLock};
use proptest::prelude::*;
use std::sync::Arc;

/// A pass-through runner that records every job target, so the audit can be
/// replayed over the final plan with the actual action set.
struct Recorder {
    inner: LocalRunner,
    targets: Arc<Mutex<Vec<RddId>>>,
}

impl JobRunner for Recorder {
    fn run_job(&self, plan: &Arc<RwLock<Plan>>, target: RddId) -> Result<Vec<Block>> {
        let mut t = self.targets.lock();
        if !t.contains(&target) {
            t.push(target);
        }
        drop(t);
        self.inner.run_job(plan, target)
    }

    fn on_unpersist(&self, rdd: RddId) {
        self.inner.on_unpersist(rdd);
    }
}

fn recording_context() -> (Context, Arc<Mutex<Vec<RddId>>>) {
    let targets = Arc::new(Mutex::new(Vec::new()));
    let runner = Recorder { inner: LocalRunner::new(), targets: Arc::clone(&targets) };
    (Context::new(runner), targets)
}

fn assert_audits_clean(ctx: &Context, targets: &Mutex<Vec<RddId>>, label: &str) {
    let plan = ctx.plan().read();
    let targets = targets.lock().clone();
    let report = audit_application(&plan, &targets, &AuditConfig::default());
    assert!(
        report.is_clean(),
        "{label}: expected a clean audit over {} nodes / {} jobs, got {:#?}",
        plan.iter().count(),
        targets.len(),
        report.diagnostics
    );
}

/// The four most plan-shape-diverse evaluation apps (Pregel iteration,
/// label propagation, clustering, latent factors) audit clean at sample
/// scale. `drive_sample` builds the identical plan topology to the full
/// evaluation run, only with smaller inputs.
#[test]
fn evaluation_workloads_audit_clean() {
    for app in [App::PageRank, App::KMeans, App::ConnectedComponents, App::Svdpp] {
        let (ctx, targets) = recording_context();
        AppSpec::evaluation(app).drive_sample(&ctx).expect("workload runs");
        assert_audits_clean(&ctx, &targets, &format!("{app:?}"));
    }
}

#[test]
fn remaining_workloads_audit_clean() {
    for app in [App::LogisticRegression, App::Gbt] {
        let (ctx, targets) = recording_context();
        AppSpec::evaluation(app).drive_sample(&ctx).expect("workload runs");
        assert_audits_clean(&ctx, &targets, &format!("{app:?}"));
    }
}

// ---- Random API-built pipelines -------------------------------------------

#[derive(Debug, Clone)]
enum Step {
    MapAdd(u64),
    FilterMod(u64),
    ReduceByKey,
    GroupCount,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u64..100).prop_map(Step::MapAdd),
        (2u64..7).prop_map(Step::FilterMod),
        Just(Step::ReduceByKey),
        Just(Step::GroupCount),
    ]
}

/// The `tests/common` pipeline shape without its `Hot` and `Unpersist`
/// steps: shuffles are cached and counted (iterative style), narrow chains
/// run uncached.
fn apply(ctx: &Context, elems: u64, keys: u64, parts: usize, steps: &[Step]) {
    let mut data: Dataset<(u64, u64)> =
        ctx.parallelize((0..elems).map(|i| (i % keys, i)).collect::<Vec<_>>(), parts);
    for step in steps {
        data = match step {
            Step::MapAdd(k) => {
                let k = *k;
                data.map_values(move |v| v.wrapping_add(k))
            }
            Step::FilterMod(m) => {
                let m = *m;
                data.filter(move |(_, v)| v % m != 0)
            }
            Step::ReduceByKey => {
                let d = data.reduce_by_key(parts, |a, b| a.wrapping_add(*b));
                d.cache();
                d.count().unwrap();
                d
            }
            Step::GroupCount => {
                let d = data.group_by_key(parts).map_values(|vs| vs.len() as u64);
                d.cache();
                d.count().unwrap();
                d
            }
        };
    }
    data.collect().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any program expressible through the public API is structurally valid:
    /// random pipelines never produce an error-severity diagnostic, and the
    /// iterative cache-after-shuffle discipline also avoids every warning.
    #[test]
    fn api_built_pipelines_never_error(
        elems in 20u64..200,
        keys in 1u64..16,
        parts in 1usize..5,
        steps in prop::collection::vec(step_strategy(), 1..7),
    ) {
        let (ctx, targets) = recording_context();
        apply(&ctx, elems, keys, parts, &steps);
        let plan = ctx.plan().read();
        let targets = targets.lock().clone();
        let report = audit_application(&plan, &targets, &AuditConfig::default());
        prop_assert!(report.passes(), "errors on an API-built plan: {:#?}", report.errors().collect::<Vec<_>>());
        prop_assert!(report.is_clean(), "warnings on a cache-disciplined plan: {:#?}", report.diagnostics);
    }
}
