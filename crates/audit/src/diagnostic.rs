//! Structured diagnostics emitted by the static analyses.
//!
//! Every check in this crate (and the cost-lineage consistency check in
//! `blaze-core`) reports findings as [`Diagnostic`] values with a stable
//! [`DiagCode`], so callers can assert on exact codes, metrics can count
//! warnings, and every code carries one default severity.

use blaze_common::ids::RddId;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never blocks execution.
    Info,
    /// A hazard (e.g. a caching anti-pattern). Recorded and counted; never
    /// blocks execution.
    Warning,
    /// An invalid plan or a broken invariant. Execution must not proceed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.pad("info"),
            Severity::Warning => f.pad("warning"),
            Severity::Error => f.pad("error"),
        }
    }
}

/// Stable identifier of one auditor check.
///
/// `BA00x` codes are invalid plan values (errors), `BA1xx` codes are
/// caching anti-patterns (warnings), `BA2xx` codes are cross-structure
/// consistency checks (emitted by `blaze-core`), `BA3xx` codes are
/// recoverability checks against a configured fault plan, and `BA4xx` codes
/// are event-trace validation invariants (emitted by `blaze-engine`'s trace
/// validator). The numbering is part of the public contract: tests and
/// `// audit: allow(..)` annotations refer to codes by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// BA005: a dataset's declared partitioner disagrees with its partition
    /// count (co-partitioning claims would be wrong at shuffle boundaries).
    PartitionerMismatch,
    /// BA006: a cost spec contains a negative or non-finite component.
    InvalidCostSpec,
    /// BA008: a keyed dataset asserted via `assume_partitioned` holds a key
    /// in a partition its claimed hash partitioner would not have placed it
    /// in (detected by the debug-build verification wrapper at runtime).
    PartitionerHoldViolation,
    /// BA009: a dataset declares a negative or non-finite serialization
    /// factor. Serialization times scale linearly with the factor, so a
    /// negative value would produce negative (de)serialization costs and an
    /// s-state footprint below zero; clamping it silently would hide the bug.
    NegativeSerFactor,
    /// BA101: a dataset is consumed by two or more downstream stages but is
    /// not cache-annotated — every consuming stage recomputes its lineage
    /// (the "recompute bomb" of LRC-style reference-count analysis).
    RecomputeBomb,
    /// BA102: a dataset is cache-annotated but nothing consumes it and it
    /// is not a job target — the cache entry can never be read back.
    UnreachableCache,
    /// BA103: the estimated bytes of all cache-annotated datasets exceed
    /// the total memory-store capacity; admissions will thrash.
    CacheOvercommit,
    /// BA201: a CostLineage node disagrees with the logical plan it is
    /// supposed to mirror (parents or partition counts diverged).
    LineageMismatch,
    /// BA301: under the configured fault plan, some dataset's uncached
    /// lineage is deeper than bounded task retries can replay — a single
    /// injected failure could make the job unrecoverable.
    UnrecoverableLineage,
    /// BA302: the fault plan injects stragglers with a large slowdown but
    /// speculative execution is disabled — tail latency grows linearly with
    /// the slowdown and nothing in the schedule can claw it back.
    StragglerBudgetExceeded,
    /// BA303: the fault plan injects spill corruption but the disk tier has
    /// zero capacity — no block can ever be spilled, so the corruption
    /// (and the quarantine path it exercises) cannot occur.
    CorruptionWithoutDiskTier,
    /// BA401: the event trace violates span nesting — a task span with
    /// `end < start`, overlapping spans on one executor slot, or a task
    /// committed outside an open job span.
    TraceSpanNesting,
    /// BA403: a cache event is unpaired — an eviction, spill or unpersist
    /// of a block with no earlier admission, or a double admission without
    /// an intervening removal.
    TraceUnpairedCacheEvent,
    /// BA404: a controller command (auto-unpersist or a solver's m/d -> u)
    /// dropped a cached block that a later task then had to recompute — a
    /// reference misprediction the trace records but no aggregate shows.
    PrematureUnpersist,
    /// BA501: a decision certificate's incumbent is infeasible or its
    /// recorded objective does not match the claimed solution value.
    InfeasibleIncumbent,
    /// BA502: a branch-and-bound prune in a decision certificate is not
    /// justified — the recorded bound is wrong, its dual evidence does not
    /// support it, or it does not dominate the final answer.
    UnsoundPruneBound,
    /// BA503: the branch-and-bound tree in a decision certificate does not
    /// cover the search space — a branched child is missing, a node is
    /// unreachable from the root, or a take-branch was skipped without
    /// static justification.
    UncoveredBranchLeaf,
    /// BA505: the incremental optimizer's dirty closure under-approximates
    /// the set of cost entries actually affected by a change — a stale memo
    /// entry survived invalidation.
    UnderApproximatedDirtyClosure,
}

impl DiagCode {
    /// Every diagnostic code, in code order. This is the single registry the
    /// `blaze-audit` CLI lists and explains from; adding a variant without
    /// extending it fails the registry unit test.
    pub const ALL: [DiagCode; 18] = [
        DiagCode::PartitionerMismatch,
        DiagCode::InvalidCostSpec,
        DiagCode::PartitionerHoldViolation,
        DiagCode::NegativeSerFactor,
        DiagCode::RecomputeBomb,
        DiagCode::UnreachableCache,
        DiagCode::CacheOvercommit,
        DiagCode::LineageMismatch,
        DiagCode::UnrecoverableLineage,
        DiagCode::StragglerBudgetExceeded,
        DiagCode::CorruptionWithoutDiskTier,
        DiagCode::TraceSpanNesting,
        DiagCode::TraceUnpairedCacheEvent,
        DiagCode::PrematureUnpersist,
        DiagCode::InfeasibleIncumbent,
        DiagCode::UnsoundPruneBound,
        DiagCode::UncoveredBranchLeaf,
        DiagCode::UnderApproximatedDirtyClosure,
    ];

    /// The stable short code (`BA005`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::PartitionerMismatch => "BA005",
            DiagCode::InvalidCostSpec => "BA006",
            DiagCode::PartitionerHoldViolation => "BA008",
            DiagCode::NegativeSerFactor => "BA009",
            DiagCode::RecomputeBomb => "BA101",
            DiagCode::UnreachableCache => "BA102",
            DiagCode::CacheOvercommit => "BA103",
            DiagCode::LineageMismatch => "BA201",
            DiagCode::UnrecoverableLineage => "BA301",
            DiagCode::StragglerBudgetExceeded => "BA302",
            DiagCode::CorruptionWithoutDiskTier => "BA303",
            DiagCode::TraceSpanNesting => "BA401",
            DiagCode::TraceUnpairedCacheEvent => "BA403",
            DiagCode::PrematureUnpersist => "BA404",
            DiagCode::InfeasibleIncumbent => "BA501",
            DiagCode::UnsoundPruneBound => "BA502",
            DiagCode::UncoveredBranchLeaf => "BA503",
            DiagCode::UnderApproximatedDirtyClosure => "BA505",
        }
    }

    /// Parses a short code string (`"BA502"`) back to its variant.
    pub fn parse(s: &str) -> Option<DiagCode> {
        DiagCode::ALL.into_iter().find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// A one-line title for CLI listings.
    pub fn title(self) -> &'static str {
        match self {
            DiagCode::PartitionerMismatch => "partitioner disagrees with partition count",
            DiagCode::InvalidCostSpec => "negative or non-finite cost component",
            DiagCode::PartitionerHoldViolation => "assumed partitioner does not hold for the data",
            DiagCode::NegativeSerFactor => "negative or non-finite serialization factor",
            DiagCode::RecomputeBomb => "multi-consumer dataset not cache-annotated",
            DiagCode::UnreachableCache => "cache-annotated dataset is never read back",
            DiagCode::CacheOvercommit => "annotated bytes exceed memory capacity",
            DiagCode::LineageMismatch => "cost lineage diverged from the logical plan",
            DiagCode::UnrecoverableLineage => "lineage too deep for bounded retries",
            DiagCode::StragglerBudgetExceeded => "large straggler slowdown without speculation",
            DiagCode::CorruptionWithoutDiskTier => "spill corruption injected with no disk tier",
            DiagCode::TraceSpanNesting => "event-trace span nesting violation",
            DiagCode::TraceUnpairedCacheEvent => "unpaired cache admit/evict event",
            DiagCode::PrematureUnpersist => "premature-unpersist: dropped, then recomputed",
            DiagCode::InfeasibleIncumbent => "certificate incumbent infeasible or mispriced",
            DiagCode::UnsoundPruneBound => "certificate prune bound not justified",
            DiagCode::UncoveredBranchLeaf => "certificate tree misses part of the search space",
            DiagCode::UnderApproximatedDirtyClosure => "dirty closure missed an affected entry",
        }
    }

    /// A paragraph-length explanation for `blaze-audit --explain`.
    pub fn explain(self) -> &'static str {
        match self {
            DiagCode::PartitionerMismatch => {
                "A dataset's declared partitioner disagrees with its partition count, so \
                 co-partitioning claims at shuffle boundaries would be wrong."
            }
            DiagCode::InvalidCostSpec => {
                "A cost spec contains a negative or non-finite component. The optimizer's \
                 objective would be meaningless over such costs."
            }
            DiagCode::PartitionerHoldViolation => {
                "A keyed dataset asserted via assume_partitioned holds a key in a partition \
                 its claimed hash partitioner would not have placed it in. Every downstream \
                 co-partitioned join or aggregation would silently drop or misgroup that \
                 key; the debug-build verification wrapper fails the task instead."
            }
            DiagCode::NegativeSerFactor => {
                "A dataset declares a negative or non-finite serialization factor. Every \
                 (de)serialization time scales linearly with this factor, so a negative \
                 value would make spill and recovery costs negative and the optimizer \
                 would happily spill everything; the engine used to clamp it silently, \
                 which only hid the broken plan."
            }
            DiagCode::RecomputeBomb => {
                "A dataset is consumed by two or more downstream stages but is not \
                 cache-annotated, so every consuming stage recomputes its whole lineage — \
                 the classic recompute bomb LRC-style reference counting exists to prevent."
            }
            DiagCode::UnreachableCache => {
                "A dataset is cache-annotated but nothing consumes it and it is not a job \
                 target, so the cache entry can never be read back and only wastes capacity."
            }
            DiagCode::CacheOvercommit => {
                "The estimated bytes of all cache-annotated datasets exceed the memory-store \
                 capacity, so admissions will thrash instead of helping."
            }
            DiagCode::LineageMismatch => {
                "A CostLineage node disagrees with the logical plan it mirrors (parents or \
                 partition counts diverged) — decisions would be made against a stale graph."
            }
            DiagCode::UnrecoverableLineage => {
                "Under the configured fault plan, some dataset's uncached lineage is deeper \
                 than bounded task retries can replay, so one injected failure could make \
                 the job unrecoverable."
            }
            DiagCode::StragglerBudgetExceeded => {
                "The fault plan injects stragglers with a slowdown beyond the speculation \
                 budget while speculative execution is disabled. Tail latency grows \
                 linearly with the slowdown and nothing in the schedule can claw it back; \
                 enable speculation or lower the slowdown."
            }
            DiagCode::CorruptionWithoutDiskTier => {
                "The fault plan injects spill corruption but the disk tier has zero \
                 capacity, so no block can ever be spilled and the corruption (and the \
                 quarantine path it is meant to exercise) cannot occur. The knob is dead \
                 configuration."
            }
            DiagCode::TraceSpanNesting => {
                "The event trace violates span nesting: a task span ends before it starts, \
                 spans overlap on one executor slot, or a task commits outside an open job."
            }
            DiagCode::TraceUnpairedCacheEvent => {
                "A cache event is unpaired: an eviction, spill or unpersist of a block with \
                 no earlier admission, or a double admission without an intervening removal."
            }
            DiagCode::PrematureUnpersist => {
                "A cache controller's own command (an auto-unpersist at a stage boundary or a \
                 solver decision to drop a block) removed a cached block, and a later task \
                 looked that block up, found nothing and recomputed it. The controller's \
                 reference count said nobody would read the block again and the run proved \
                 it wrong: either an access is not being counted (for example the job's own \
                 read of its target) or the profile the references came from has diverged \
                 from the real run. The user's own unpersist() calls are not reported."
            }
            DiagCode::InfeasibleIncumbent => {
                "The solution a decision certificate claims to prove violates its own \
                 constraints (capacity, fixed variables) or its recorded objective does not \
                 match the value recomputed from the instance. The decision cannot be \
                 trusted regardless of how the search ran."
            }
            DiagCode::UnsoundPruneBound => {
                "A branch-and-bound prune recorded in a decision certificate is not \
                 justified: the recorded relaxation bound is not dominated by the final \
                 answer, its dual evidence fails weak-duality validation, or an ILP \
                 warm-start prune's evidence does not actually bound the optimum. An unsound \
                 prune could have cut the true optimum."
            }
            DiagCode::UncoveredBranchLeaf => {
                "The branch-and-bound tree in a decision certificate does not cover the \
                 search space: a branched node is missing a child, a recorded node is \
                 unreachable from the root, a take-branch was skipped without static \
                 justification, or the proven-optimal flag disagrees with tree \
                 completeness. The claimed optimum might live in the uncovered region."
            }
            DiagCode::UnderApproximatedDirtyClosure => {
                "The incremental optimizer retained a memoized cost entry that is reachable \
                 from a dirty lineage node, i.e. the dirty closure under-approximated the \
                 truly affected set. Stale costs would silently steer future decisions."
            }
        }
    }

    /// The default severity of this check.
    pub fn default_severity(self) -> Severity {
        match self {
            DiagCode::PartitionerMismatch
            | DiagCode::InvalidCostSpec
            | DiagCode::PartitionerHoldViolation
            | DiagCode::NegativeSerFactor
            | DiagCode::LineageMismatch
            | DiagCode::UnrecoverableLineage
            | DiagCode::TraceSpanNesting
            | DiagCode::TraceUnpairedCacheEvent
            | DiagCode::InfeasibleIncumbent
            | DiagCode::UnsoundPruneBound
            | DiagCode::UncoveredBranchLeaf
            | DiagCode::UnderApproximatedDirtyClosure => Severity::Error,
            DiagCode::RecomputeBomb
            | DiagCode::UnreachableCache
            | DiagCode::CacheOvercommit
            | DiagCode::StragglerBudgetExceeded
            | DiagCode::CorruptionWithoutDiskTier
            | DiagCode::PrematureUnpersist => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of a static analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: DiagCode,
    /// Effective severity (the code's default, except BA103, which reports
    /// as info while the disk tier can absorb the overcommit).
    pub severity: Severity,
    /// The dataset the finding is about, when attributable to one.
    pub rdd: Option<RddId>,
    /// Human-readable description of the violation.
    pub message: String,
    /// A short suggestion for resolving the finding.
    pub fix_hint: String,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: DiagCode, rdd: Option<RddId>, message: String, fix_hint: String) -> Self {
        Self { code, severity: code.default_severity(), rdd, message, fix_hint }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.severity, self.code)?;
        if let Some(rdd) = self.rdd {
            write!(f, " [{rdd}]")?;
        }
        write!(f, ": {} (hint: {})", self.message, self.fix_hint)
    }
}

/// The outcome of an audit pass: diagnostics in deterministic order
/// (severity descending, then dataset id, then code).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// All findings, sorted deterministically.
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// Builds a report, sorting the findings into the canonical order.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.rdd.cmp(&b.rdd))
                .then(a.code.cmp(&b.code))
                .then(a.message.cmp(&b.message))
        });
        Self { diagnostics }
    }

    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Findings at [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// True when no finding of any severity was produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when no error-severity finding was produced.
    pub fn passes(&self) -> bool {
        self.errors().next().is_none()
    }

    /// True when the given check fired at least once.
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut codes: Vec<&str> = DiagCode::ALL.iter().map(|c| c.as_str()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), DiagCode::ALL.len(), "duplicate diagnostic code strings");
    }

    #[test]
    fn registry_roundtrips_and_documents_every_code() {
        for code in DiagCode::ALL {
            assert_eq!(DiagCode::parse(code.as_str()), Some(code));
            assert!(!code.title().is_empty());
            assert!(code.explain().len() > 40, "{code} explanation too short");
        }
        assert_eq!(DiagCode::parse("ba505"), Some(DiagCode::UnderApproximatedDirtyClosure));
        assert_eq!(DiagCode::parse("BA999"), None);
    }

    #[test]
    fn certificate_codes_are_errors() {
        for code in [
            DiagCode::InfeasibleIncumbent,
            DiagCode::UnsoundPruneBound,
            DiagCode::UncoveredBranchLeaf,
            DiagCode::UnderApproximatedDirtyClosure,
        ] {
            assert_eq!(code.default_severity(), Severity::Error);
        }
    }

    #[test]
    fn report_sorts_errors_first() {
        let warn = Diagnostic::new(DiagCode::RecomputeBomb, Some(RddId(9)), "w".into(), "h".into());
        let err =
            Diagnostic::new(DiagCode::NegativeSerFactor, Some(RddId(1)), "e".into(), "h".into());
        let report = AuditReport::new(vec![warn.clone(), err.clone()]);
        assert_eq!(report.diagnostics[0], err);
        assert!(!report.is_clean());
        assert!(!report.passes());
        assert_eq!(report.warnings().count(), 1);
    }

    #[test]
    fn severity_honours_the_width_of_a_listing_column() {
        assert_eq!(format!("{:<8}|", Severity::Error), "error   |");
        assert_eq!(format!("{:<8}|", Severity::Warning), "warning |");
        assert_eq!(Severity::Info.to_string(), "info");
    }

    #[test]
    fn display_includes_code_and_hint() {
        let d = Diagnostic::new(
            DiagCode::PartitionerMismatch,
            Some(RddId(3)),
            "wrong partitioner".into(),
            "repartition".into(),
        );
        let s = d.to_string();
        assert!(s.contains("BA005") && s.contains("rdd-3") && s.contains("repartition"));
    }
}
