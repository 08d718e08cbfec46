//! The engine's accounting: the one owner of the run's [`Metrics`] and of
//! its retained [`TraceLog`].
//!
//! [`Accounting::emit`] is the only way to change either: it folds one
//! [`TraceEvent`] into the metrics and, when tracing is on, appends the
//! same event to the log. Both fields are private to this module and the
//! accessors hand out shared borrows only, so no other engine module can
//! write a metric beside an event; "the metrics are the fold of the events"
//! is a fact of the types, not something an audit has to re-check.

use crate::metrics::Metrics;
use crate::tracing::{CacheDecision, CacheRecord, TraceEvent, TraceLog};
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::{ByteSize, SimTime};

/// The run's metrics and, when tracing is on, the event log they fold.
pub(crate) struct Accounting {
    metrics: Metrics,
    trace: Option<TraceLog>,
}

impl Accounting {
    /// Empty metrics; a log only when `tracing` is on.
    pub(crate) fn new(tracing: bool) -> Self {
        Self { metrics: Metrics::new(), trace: tracing.then(TraceLog::new) }
    }

    /// The engine's one accounting statement: folds `ev` into the metrics
    /// and, when tracing is on, retains it in the log. Only called from the
    /// serial engine phases, so both are identical across `worker_threads`.
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        self.metrics.apply(&ev);
        if let Some(tr) = self.trace.as_mut() {
            tr.record(ev);
        }
    }

    /// Emits one cache decision.
    pub(crate) fn emit_cache(
        &mut self,
        at: SimTime,
        executor: ExecutorId,
        id: BlockId,
        bytes: ByteSize,
        decision: CacheDecision,
        rationale: Option<String>,
    ) {
        let record = CacheRecord { at, executor, id, bytes, decision, rationale };
        self.emit(TraceEvent::Cache(record));
    }

    /// The fold of every event emitted so far.
    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The retained events, or `None` when tracing is off.
    pub(crate) fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }
}
