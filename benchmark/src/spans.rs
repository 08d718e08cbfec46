//! Host-time spans recorded from outside the program.
//!
//! Spans wrap calls into public functions only: a [`SpanRunner`] around the
//! engine's `JobRunner` entry points and a [`TimedController`] around every
//! deciding method of a `CacheController`. Nothing inside the crates under
//! test is instrumented. Spans stay in memory and are written out as Chrome
//! trace-event JSON when the run ends.
//!
//! The engine calls the controller only from its serial plan and commit
//! phases, on the thread that called `run_job`, so every callback nests
//! inside the open engine span and one stack of open spans is enough.

use blaze_audit::Diagnostic;
use blaze_common::error::Result;
use blaze_common::ids::{BlockId, ExecutorId, JobId, RddId};
use blaze_common::ByteSize;
use blaze_core::DecisionStats;
use blaze_dataflow::runner::JobRunner;
use blaze_dataflow::{Block, JobPlan, Plan};
use blaze_engine::{
    Admission, BlockInfo, CacheController, Cluster, CtrlCtx, DegradationNote, PartitionEvent,
    StateCommand, StoreTier, VictimAction,
};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Instant;

/// Controller callbacks on the per-block task path. They fire thousands of
/// times per job, so each kind is recorded as one aggregated child span per
/// engine call instead of one span per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPathKind {
    ShouldCache,
    Admit,
    ChooseVictims,
    OnAdmissionFailure,
    ReadmitAfterDiskRead,
    OnAccess,
    OnInserted,
    OnEvicted,
    OnPartitionComputed,
}

impl TaskPathKind {
    const ALL: [TaskPathKind; 9] = [
        TaskPathKind::ShouldCache,
        TaskPathKind::Admit,
        TaskPathKind::ChooseVictims,
        TaskPathKind::OnAdmissionFailure,
        TaskPathKind::ReadmitAfterDiskRead,
        TaskPathKind::OnAccess,
        TaskPathKind::OnInserted,
        TaskPathKind::OnEvicted,
        TaskPathKind::OnPartitionComputed,
    ];

    /// The span name of this kind's aggregate.
    pub fn span_name(self) -> &'static str {
        match self {
            TaskPathKind::ShouldCache => "core.should_cache",
            TaskPathKind::Admit => "core.admit",
            TaskPathKind::ChooseVictims => "core.choose_victims",
            TaskPathKind::OnAdmissionFailure => "core.on_admission_failure",
            TaskPathKind::ReadmitAfterDiskRead => "core.readmit_after_disk_read",
            TaskPathKind::OnAccess => "core.on_access",
            TaskPathKind::OnInserted => "core.on_inserted",
            TaskPathKind::OnEvicted => "core.on_evicted",
            TaskPathKind::OnPartitionComputed => "core.on_partition_computed",
        }
    }
}

/// True for the span names of [`TaskPathKind`] aggregates.
pub fn is_task_path(name: &str) -> bool {
    TaskPathKind::ALL.iter().any(|k| k.span_name() == name)
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The repetition the span belongs to.
    pub rep: u32,
    /// Calls folded into the span: 1 for a real span, the call count for a
    /// task-path aggregate (whose start is its parent's and whose length is
    /// the summed time of those calls).
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store shared by the wrappers of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
    pending: [(u64, u64); TaskPathKind::ALL.len()],
    /// Decision counters of the last wrapped controller that has any, as of
    /// its last decision.
    pub decision: DecisionStats,
}

/// A tracer handle the runner wrapper, the controller wrapper and the
/// harness all hold.
pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Tracer {
    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            pending: [(0, 0); TaskPathKind::ALL.len()],
            decision: DecisionStats::default(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Labels the spans recorded from here on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "span closed out of order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes the engine-call span `id`, first turning the task-path time
    /// accumulated since the last engine call into its children. The
    /// controller is only ever called from inside an engine call, so all of
    /// that time was spent within this span.
    pub fn end_engine_call(&mut self, id: usize) {
        let start = self.spans[id].start_ns;
        for (kind, slot) in TaskPathKind::ALL.iter().zip(self.pending.iter_mut()) {
            let (ns, calls) = std::mem::take(slot);
            if calls > 0 {
                self.spans.push(Span {
                    name: kind.span_name(),
                    start_ns: start,
                    end_ns: start + ns,
                    parent: Some(id),
                    rep: self.rep,
                    calls,
                });
            }
        }
        self.end(id);
    }

    fn add_task_path(&mut self, kind: TaskPathKind, ns: u64) {
        let slot = &mut self.pending[kind as usize];
        slot.0 += ns;
        slot.1 += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span named `name`. The lock is released while `f`
/// runs, so `f` may record spans of its own.
pub fn span<T>(tracer: Option<&SharedTracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(tracer) = tracer else { return f() };
    let id = tracer.lock().begin(name);
    let out = f();
    tracer.lock().end(id);
    out
}

/// Self time of every span: its duration minus its children's durations
/// (clamped at zero). Children of one parent never overlap here — real
/// children run one after another on one thread and aggregates are sums of
/// such calls — so the sum of durations is the part of the interval they
/// cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.dur_ns();
        }
    }
    spans.iter().zip(&children).map(|(s, &c)| s.dur_ns().saturating_sub(c)).collect()
}

/// Renders `spans` as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). One process per repetition; real spans on thread 1, task-path
/// aggregates on thread 2, since an aggregate's position is synthetic.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let tid = if is_task_path(s.name) { 2 } else { 1 };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{tid},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"calls\":{}}}}}{}\n",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.rep,
            s.calls,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// The engine behind a `Context`, with a span around each entry point.
pub struct SpanRunner {
    pub inner: Cluster,
    pub tracer: SharedTracer,
}

impl SpanRunner {
    fn engine_call<T>(&self, name: &'static str, f: impl FnOnce(&Cluster) -> T) -> T {
        let id = self.tracer.lock().begin(name);
        let out = f(&self.inner);
        self.tracer.lock().end_engine_call(id);
        out
    }
}

impl JobRunner for SpanRunner {
    fn run_job(&self, plan: &Arc<RwLock<Plan>>, target: RddId) -> Result<Vec<Block>> {
        self.engine_call("engine.run_job", |c| c.run_job(plan, target))
    }

    fn on_unpersist(&self, rdd: RddId) {
        self.engine_call("engine.on_unpersist", |c| c.on_unpersist(rdd));
    }
}

/// Times every deciding method of the wrapped controller. Each method
/// delegates unchanged, so simulated behaviour is that of the bare
/// controller (the harness checks the sim ACT against untraced runs).
///
/// A `CacheController` method added later with a default body must be
/// forwarded here too, or the wrapped controller silently loses it.
pub struct TimedController<C> {
    pub inner: C,
    pub tracer: SharedTracer,
    /// Reads the controller's decision counters; `None` for policies without
    /// a decision layer.
    pub stats_of: Option<fn(&C) -> DecisionStats>,
}

impl<C: CacheController> TimedController<C> {
    fn task_path<T>(&mut self, kind: TaskPathKind, f: impl FnOnce(&mut C) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        self.tracer.lock().add_task_path(kind, ns);
        out
    }

    fn decision<T>(&mut self, name: &'static str, f: impl FnOnce(&mut C) -> T) -> T {
        let id = self.tracer.lock().begin(name);
        let out = f(&mut self.inner);
        let stats = self.stats_of.map(|read| read(&self.inner));
        let mut tracer = self.tracer.lock();
        tracer.end(id);
        if let Some(stats) = stats {
            tracer.decision = stats;
        }
        out
    }
}

impl<C: CacheController> CacheController for TimedController<C> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn should_cache(&mut self, ctx: &CtrlCtx, block: &BlockInfo, annotated: bool) -> bool {
        self.task_path(TaskPathKind::ShouldCache, |c| c.should_cache(ctx, block, annotated))
    }

    fn admit(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        self.task_path(TaskPathKind::Admit, |c| c.admit(ctx, block))
    }

    fn choose_victims(
        &mut self,
        ctx: &CtrlCtx,
        exec: ExecutorId,
        needed: ByteSize,
        incoming: &BlockInfo,
        resident: &[BlockInfo],
    ) -> Vec<(BlockId, VictimAction)> {
        self.task_path(TaskPathKind::ChooseVictims, |c| {
            c.choose_victims(ctx, exec, needed, incoming, resident)
        })
    }

    fn on_admission_failure(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        self.task_path(TaskPathKind::OnAdmissionFailure, |c| c.on_admission_failure(ctx, block))
    }

    fn readmit_after_disk_read(&mut self, ctx: &CtrlCtx, block: &BlockInfo) -> Admission {
        self.task_path(TaskPathKind::ReadmitAfterDiskRead, |c| {
            c.readmit_after_disk_read(ctx, block)
        })
    }

    fn serialized_in_memory(&self) -> bool {
        self.inner.serialized_in_memory()
    }

    fn memory_footprint_factor(&self) -> f64 {
        self.inner.memory_footprint_factor()
    }

    fn on_access(&mut self, ctx: &CtrlCtx, id: BlockId) {
        self.task_path(TaskPathKind::OnAccess, |c| c.on_access(ctx, id));
    }

    fn explain_block(&self, id: BlockId) -> Option<String> {
        self.inner.explain_block(id)
    }

    fn on_inserted(&mut self, ctx: &CtrlCtx, info: &BlockInfo, tier: StoreTier) {
        self.task_path(TaskPathKind::OnInserted, |c| c.on_inserted(ctx, info, tier));
    }

    fn on_evicted(&mut self, ctx: &CtrlCtx, id: BlockId) {
        self.task_path(TaskPathKind::OnEvicted, |c| c.on_evicted(ctx, id));
    }

    fn on_partition_computed(&mut self, ctx: &CtrlCtx, event: &PartitionEvent) {
        self.task_path(TaskPathKind::OnPartitionComputed, |c| c.on_partition_computed(ctx, event));
    }

    fn on_job_submit(
        &mut self,
        ctx: &CtrlCtx,
        job: JobId,
        job_plan: &JobPlan,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        self.decision("core.on_job_submit", |c| c.on_job_submit(ctx, job, job_plan, plan))
    }

    fn on_stage_complete(
        &mut self,
        ctx: &CtrlCtx,
        stage_output: RddId,
        job: JobId,
        plan: &Plan,
    ) -> Vec<StateCommand> {
        self.decision("core.on_stage_complete", |c| {
            c.on_stage_complete(ctx, stage_output, job, plan)
        })
    }

    fn take_degradation(&mut self) -> Option<DegradationNote> {
        self.inner.take_degradation()
    }

    fn preflight_diagnostics(&self) -> Vec<Diagnostic> {
        self.inner.preflight_diagnostics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, rep: 0, calls: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // rep[0..100] > setup[0..30] > profile[5..25]; rep > drive[30..100]
        // > job[40..90] > {submit[41..51], aggregate of 20 ns}.
        let spans = vec![
            sp("rep", 0, 100, None),
            sp("setup", 0, 30, Some(0)),
            sp("core.extract_dependencies", 5, 25, Some(1)),
            sp("drive", 30, 100, Some(0)),
            sp("engine.run_job", 40, 90, Some(3)),
            sp("core.on_job_submit", 41, 51, Some(4)),
            Span { calls: 7, ..sp("core.admit", 40, 60, Some(4)) },
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![0, 10, 20, 20, 20, 10, 20]);
        // Self times of a tree always sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
    }

    #[test]
    fn self_time_clamps_when_children_exceed_the_parent() {
        let spans = vec![sp("a", 0, 10, None), sp("b", 0, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 15]);
    }

    #[test]
    fn tracer_nests_spans_and_folds_task_path_calls_into_the_open_span() {
        let t = Tracer::shared();
        let outer = t.lock().begin("engine.run_job");
        t.lock().add_task_path(TaskPathKind::Admit, 5);
        t.lock().add_task_path(TaskPathKind::Admit, 7);
        let inner = t.lock().begin("core.on_job_submit");
        t.lock().end(inner);
        t.lock().add_task_path(TaskPathKind::OnEvicted, 3);
        t.lock().end_engine_call(outer);

        let tracer = t.lock();
        let spans = tracer.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        // Closing the decision span in between takes none of the pending
        // task-path time: all of it becomes children of the engine call.
        let admit = spans.iter().find(|s| s.name == "core.admit").expect("admit aggregate");
        assert_eq!((admit.calls, admit.dur_ns(), admit.parent), (2, 12, Some(outer)));
        let evicted = spans.iter().find(|s| s.name == "core.on_evicted").expect("evict aggregate");
        assert_eq!((evicted.calls, evicted.parent), (1, Some(outer)));
        assert_eq!(spans.len(), 4);
        assert!(is_task_path("core.admit") && !is_task_path("core.on_job_submit"));
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let spans = vec![sp("rep", 0, 2_000, None), sp("core.admit", 0, 500, Some(0))];
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"core.admit\",\"ph\":\"X\",\"ts\":0.000,\"dur\":0.500"));
        assert!(json.contains("\"tid\":2"));
    }
}
