//! The optimal-partition-state solver (paper §5.5, Eq. 5–6).
//!
//! At each job submission, Blaze restates the cached partitions of every
//! executor: minimize the total potential recovery cost of the partitions
//! referenced within the upcoming-jobs horizon `J` (default: current job and
//! its successor), subject to the per-executor memory capacity:
//!
//! ```text
//! min  Σ_{p_j ∈ J} (d_j · cost_d(p_j, t) + u_j · cost_r(p_j, t))
//! s.t. Σ_i size(p_i) · m_i ≤ capacity_mem ,   m_i + d_i + u_i = 1
//! ```
//!
//! The paper hands this program to Gurobi. Here it is reduced: with costs
//! frozen at time `t`, an out-of-memory partition independently takes its
//! cheapest out-of-memory state, so choosing what stays in memory is a
//! multi-choice knapsack over saved recovery cost, solved by
//! [`blaze_solver::mckp`]'s branch and bound. Two strategies run it:
//!
//! - [`SolveStrategy::Knapsack`] — the exact search (the default);
//! - [`SolveStrategy::Greedy`] — the same search cut off at its root (a
//!   time-budget fallback).
//!
//! One function prices every state of a candidate ([`objectives`]): `m`,
//! `s` with the serialized tier on, `d` with the disk allowed, and `u`.
//! The knapsack groups are built from it (`[out, ser, mem]` with the tier
//! on, `[out, mem]` with it off), and so is every out-of-memory pick: `d`
//! when its objective is strictly below `u`'s, `u` otherwise. Where the
//! reduction equals Eq. 5–6 is checked, not asserted: the test-only
//! `oracle` module builds the literal program over `(m, d, u)` /
//! `(m, s, d, u)` binaries, solves it with the solver crate's 0/1 ILP
//! branch and bound, and compares optima on seeded instances for both tier
//! settings.
//!
//! This module holds the pieces of one decision: the degradation ladder,
//! candidate gathering, the pricing, the single [`solve_instance`] entry
//! into the solver crate, and command emission. The loop that runs them per
//! executor at each job submission is [`crate::incremental`].

use crate::cost::CostModel;
use crate::costlineage::{CostLineage, PartitionState};
use crate::refs::JobRefs;
use blaze_certify::InstancePayload;
// audit: allow(decision-hash) keyed buckets only; callers sort executor ids before draining
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::{ByteSize, SimDuration};
use blaze_engine::{HardwareModel, StateCommand};
use blaze_solver::mckp::{
    greedy_mckp_certificate, solve_mckp_certified, solve_mckp_warm, MckpGroup, MckpOption,
    MckpSolution, MckpWarm,
};

#[cfg(test)]
mod oracle;

/// How the per-executor state program is solved — also the rungs of the
/// degradation ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveStrategy {
    /// Exact knapsack branch and bound over saved recovery costs (default).
    #[default]
    Knapsack,
    /// Greedy density heuristic (no optimality guarantee).
    Greedy,
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Jobs ahead (including the submitted one) whose references count into
    /// the objective — the paper's `J` window (§5.5 uses 2).
    pub horizon_jobs: usize,
    /// Solve strategy.
    pub strategy: SolveStrategy,
    /// Simulated-time budget for one job's decision solve (all per-executor
    /// instances together). When the modeled cost of the requested strategy
    /// would blow the remaining budget, the ladder steps down
    /// `Knapsack -> Greedy -> LRU passthrough` per instance.
    /// `None` (the default) never degrades.
    pub solve_deadline: Option<SimDuration>,
    /// Enables the serialized in-memory tier as a first-class decision
    /// state: each candidate's option group is `[out, ser, mem]` instead of
    /// `[out, mem]`. Off by default; the two settings price `m`, `d` and `u`
    /// alike.
    pub ser_tier: bool,
    /// Whether the disk state `d` is allowed at all (false = the Fig. 12
    /// memory-only configuration): without it the only way out of memory
    /// is `u`.
    pub use_disk: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            horizon_jobs: 2,
            strategy: SolveStrategy::Knapsack,
            solve_deadline: None,
            ser_tier: false,
            use_disk: true,
        }
    }
}

/// The states a decision may choose besides `m` and `u`: serialized in
/// memory, and disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tiers {
    pub(crate) ser: bool,
    pub(crate) disk: bool,
}

/// One rung of the solver degradation ladder, ordered from least to most
/// degraded. `Passthrough` means the instance was not solved at all: the
/// executor keeps its current state and the engine's recency eviction acts
/// as the fallback policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SolveRung {
    /// The knapsack search ran.
    Knapsack,
    /// The greedy density heuristic ran.
    Greedy,
    /// Nothing ran; LRU passthrough.
    Passthrough,
}

impl SolveRung {
    /// Short label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            SolveRung::Knapsack => "knapsack",
            SolveRung::Greedy => "greedy",
            SolveRung::Passthrough => "lru-passthrough",
        }
    }

    fn of(strategy: SolveStrategy) -> Self {
        match strategy {
            SolveStrategy::Knapsack => SolveRung::Knapsack,
            SolveStrategy::Greedy => SolveRung::Greedy,
        }
    }
}

/// What the degradation ladder did across one job's per-executor solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LadderReport {
    /// Instances solved on a lower rung than the requested strategy.
    pub degraded: u64,
    /// Instances skipped entirely (LRU passthrough).
    pub passthrough: u64,
    /// Most degraded rung observed, `None` when no instance was solved.
    pub lowest: Option<SolveRung>,
}

impl LadderReport {
    /// True when at least one instance was stepped down or skipped.
    pub fn any(&self) -> bool {
        self.degraded + self.passthrough > 0
    }
}

/// Modeled solve cost of one instance, in deadline nanoseconds. Integer-only
/// coefficients fitted to the relative order of the two rungs (the knapsack
/// is a branch and bound whose every node scans an `O(n)` bound; greedy is a
/// sort). The absolute scale only matters relative to
/// [`OptimizerConfig::solve_deadline`], which is expressed in the same units.
pub fn estimate_solve_ns(strategy: SolveStrategy, n: usize) -> u64 {
    let n = n as u64;
    match strategy {
        SolveStrategy::Knapsack => 10_000 + 1_000 * n * n,
        SolveStrategy::Greedy => 2_000 + 200 * n,
    }
}

/// Cheapest possible modeled cost of any non-passthrough rung (a one-item
/// greedy solve). Deadlines below this cannot run anything — the BA304
/// preflight warns about them.
pub fn min_ladder_cost_ns() -> u64 {
    estimate_solve_ns(SolveStrategy::Greedy, 1)
}

/// The per-job degradation ladder: tracks the remaining deadline budget
/// across an ascending-executor sequence of solves and picks, for each
/// instance, the highest rung whose modeled cost still fits.
///
/// Estimates are deducted unconditionally — independently of whether the
/// driver later reuses a previous solution — so the rungs picked for given
/// inputs never depend on retained state (the warm-vs-cold invariant).
pub(crate) struct SolveLadder {
    requested: SolveStrategy,
    /// Remaining budget in estimate units; `None` = no deadline.
    remaining: Option<u64>,
    report: LadderReport,
}

impl SolveLadder {
    pub(crate) fn new(config: &OptimizerConfig) -> Self {
        Self {
            requested: config.strategy,
            remaining: config.solve_deadline.map(|d| d.as_nanos()),
            report: LadderReport::default(),
        }
    }

    /// Picks the strategy for an instance of `n` candidates and deducts its
    /// modeled cost. `None` means LRU passthrough: skip the solve entirely.
    pub(crate) fn pick(&mut self, n: usize) -> Option<SolveStrategy> {
        let note = |report: &mut LadderReport, rung: SolveRung| {
            report.lowest = Some(report.lowest.map_or(rung, |l| l.max(rung)));
        };
        let Some(remaining) = &mut self.remaining else {
            note(&mut self.report, SolveRung::of(self.requested));
            return Some(self.requested);
        };
        let rungs: &[SolveStrategy] = match self.requested {
            SolveStrategy::Knapsack => &[SolveStrategy::Knapsack, SolveStrategy::Greedy],
            SolveStrategy::Greedy => &[SolveStrategy::Greedy],
        };
        for (step, &strategy) in rungs.iter().enumerate() {
            let cost = estimate_solve_ns(strategy, n);
            if cost <= *remaining {
                *remaining -= cost;
                if step > 0 {
                    self.report.degraded += 1;
                }
                note(&mut self.report, SolveRung::of(strategy));
                return Some(strategy);
            }
        }
        self.report.passthrough += 1;
        note(&mut self.report, SolveRung::Passthrough);
        None
    }

    pub(crate) fn report(&self) -> LadderReport {
        self.report
    }
}

/// One candidate partition of one executor's optimization instance.
///
/// `PartialEq` matters: the driver ([`crate::incremental`]) reuses the
/// previous solution outright when an executor's candidate vector is
/// unchanged — the solvers are deterministic functions of this data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    pub(crate) id: BlockId,
    pub(crate) size: ByteSize,
    pub(crate) cost_d: SimDuration,
    pub(crate) cost_r: SimDuration,
    /// The m/s/d transition row from the current state (`trans_to_<x>` is
    /// the one-off cost of moving there now: a spill for a memory resident
    /// going to disk, a disk read for a disk resident promoted). Pricing
    /// transitions keeps the solution *stable*: without them the solver
    /// oscillates between equal-value subsets, paying real I/O every job
    /// (§4.3's chain reactions, in miniature). Deterministic functions of
    /// the fields above plus the hardware model, so `PartialEq`-based
    /// incremental reuse stays sound.
    pub(crate) trans_to_m: SimDuration,
    pub(crate) trans_to_s: SimDuration,
    pub(crate) trans_to_d: SimDuration,
    /// Per-access deserialization charge the s state pays on every read
    /// within the window ([`CostModel::cost_s`]).
    pub(crate) deser_access: SimDuration,
    /// Footprint-scaled stored size the s state charges against memory.
    pub(crate) ser_size: ByteSize,
    /// Number of references to this block within the decision window, the
    /// weight [`objectives`] multiplies per-access costs (deser for s,
    /// recovery for d/u) by — what makes the s state's pay-per-read
    /// trade-off visible at all. A block with no reference in the window
    /// but one later counts as one reference: leaving it costs its next
    /// read.
    pub(crate) window_refs: u32,
    pub(crate) state: PartitionState,
}

/// Gathers each executor's optimization instance: every currently cached
/// block, priced through `model`. Per-executor vectors are sorted by id.
///
/// The caller picks the cost model: the driver seeds it with its maintained
/// memo (empty after a reset).
pub(crate) fn gather_candidates(
    lineage: &CostLineage,
    refs: &JobRefs,
    hardware: &HardwareModel,
    current_job: usize,
    config: &OptimizerConfig,
    model: &mut CostModel<'_>,
    // audit: allow(decision-hash) per-executor buckets, drained in sorted key order
) -> FxHashMap<ExecutorId, Vec<Candidate>> {
    // audit: allow(decision-hash) entry/remove by key; bucket contents sorted before use
    let mut per_exec: FxHashMap<ExecutorId, Vec<Candidate>> = FxHashMap::default();
    let cached: Vec<(BlockId, PartitionState)> = lineage
        .blocks_in_memory()
        .into_iter()
        .map(|(id, _)| (id, lineage.state(id)))
        .chain(lineage.blocks_on_disk().into_iter().map(|(id, _)| (id, lineage.state(id))))
        .collect();
    for (id, state) in cached {
        let Some(exec) = state.executor() else { continue };
        let window_refs = match refs.refs_in_window(id.rdd, current_job, config.horizon_jobs) {
            0 => u32::from(refs.future_refs(id.rdd, current_job) > 0),
            n => n,
        };
        let size = model.size(id);
        let ser = 1.0f64.max(lineage.node(id.rdd).map(|n| n.ser_factor).unwrap_or(1.0));
        // Transition row from the current state. m->s and s->m convert in
        // place; s<->d moves already-serialized bytes, so those legs skip
        // the (de)serialization half of spill/fetch.
        let (trans_to_m, trans_to_s, trans_to_d) = match state {
            PartitionState::Memory(_) => {
                (SimDuration::ZERO, hardware.ser_time(size, ser), hardware.spill_time(size, ser))
            }
            PartitionState::SerializedMemory(_) => {
                (hardware.deser_time(size, ser), SimDuration::ZERO, hardware.disk_write_time(size))
            }
            PartitionState::Disk(_) => (
                hardware.fetch_from_disk_time(size, ser),
                hardware.disk_read_time(size),
                SimDuration::ZERO,
            ),
            PartitionState::None => (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO),
        };
        let candidate = Candidate {
            id,
            size,
            cost_d: model.cost_d(id),
            cost_r: model.cost_r(id),
            trans_to_m,
            trans_to_s,
            trans_to_d,
            deser_access: model.cost_s(id),
            ser_size: size.scale(hardware.ser_footprint),
            window_refs,
            state,
        };
        per_exec.entry(exec).or_default().push(candidate);
    }
    for candidates in per_exec.values_mut() {
        candidates.sort_by_key(|c| c.id);
    }
    per_exec
}

/// The decision for one candidate: deserialized in memory (m), serialized
/// in memory (s), on disk (d) or unpersisted (u).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pick {
    /// Keep (or promote) deserialized in memory.
    Mem,
    /// Keep (or move) serialized in memory.
    Ser,
    /// Out of memory onto disk: spill, or stay on disk.
    Disk,
    /// Out of memory and off disk.
    Unpersist,
}

/// The Eq. 5–6 objective of each state one candidate may take, in seconds
/// over the decision window; `None` for a state the tiers do not allow.
#[derive(Debug, Clone, Copy)]
struct Objectives {
    m: f64,
    s: Option<f64>,
    d: Option<f64>,
    u: f64,
}

impl Objectives {
    /// The cheapest way out of memory: `d` only when strictly cheaper than
    /// `u`, so a block with nothing ahead of it leaves through `u`.
    fn out(&self) -> (Pick, f64) {
        match self.d {
            Some(d) if d < self.u => (Pick::Disk, d),
            _ => (Pick::Unpersist, self.u),
        }
    }
}

/// The one pricing of a candidate: per-access costs (recovery for d and u,
/// deserialization for s) weighted by the window's reference count, plus
/// the one-off transition from the current state.
fn objectives(c: &Candidate, tiers: Tiers) -> Objectives {
    // Per-access costs are paid on every read in the window: without the
    // multiplier, the s state's recurring deser charge would tie with the
    // one-off s -> m deserialization and a packed block could never
    // profitably be unpacked again.
    let per_access = |cost: SimDuration| f64::from(c.window_refs) * cost.as_secs_f64();
    Objectives {
        m: c.trans_to_m.as_secs_f64(),
        s: tiers.ser.then(|| per_access(c.deser_access) + c.trans_to_s.as_secs_f64()),
        d: tiers.disk.then(|| per_access(c.cost_d) + c.trans_to_d.as_secs_f64()),
        u: per_access(c.cost_r),
    }
}

/// Translates per-executor picks into state commands.
///
/// `solved` must be in ascending executor order, each candidate vector
/// sorted by id with `picks` aligned. Commands free space (spills,
/// unpersists, and in-place serializations) before promotions consume it.
pub(crate) fn emit_commands(
    solved: &[(ExecutorId, Vec<Candidate>, Vec<Pick>)],
) -> Vec<StateCommand> {
    let mut commands = Vec::new();
    let mut promotions = Vec::new();
    for (_exec, candidates, picks) in solved {
        // Commands go out in descending disk-benefit order. The engine runs
        // them in this order and records each one, so the order is part of
        // the trace: it must stay a fixed function of the candidates.
        let mut spill_order: Vec<usize> = (0..candidates.len()).collect();
        spill_order.sort_by(|&a, &b| {
            let ba = candidates[a].cost_r.saturating_sub(candidates[a].cost_d);
            let bb = candidates[b].cost_r.saturating_sub(candidates[b].cost_d);
            bb.cmp(&ba).then(candidates[a].id.cmp(&candidates[b].id))
        });
        for i in spill_order {
            let (c, pick) = (&candidates[i], picks[i]);
            match (c.state, pick) {
                (PartitionState::Memory(_), Pick::Mem)
                | (PartitionState::SerializedMemory(_), Pick::Ser)
                | (PartitionState::Disk(_), Pick::Disk)
                | (PartitionState::None, _) => {}
                (PartitionState::Memory(_), Pick::Ser) => {
                    // m -> s in place: shrinks the stored footprint without
                    // disk I/O, so it goes with the space-freeing commands.
                    commands.push(StateCommand::SerializeInMemory(c.id));
                }
                (PartitionState::Memory(_) | PartitionState::SerializedMemory(_), Pick::Disk) => {
                    commands.push(StateCommand::SpillToDisk(c.id));
                }
                (_, Pick::Unpersist) => commands.push(StateCommand::UnpersistBlock(c.id)),
                (PartitionState::SerializedMemory(_), Pick::Mem) => {
                    // s -> m grows the stored footprint; run it with the
                    // space-consuming promotions.
                    promotions.push(StateCommand::DeserializeInMemory(c.id));
                }
                (PartitionState::Disk(_), Pick::Mem) => {
                    promotions.push(StateCommand::PromoteToMemory(c.id));
                }
                (PartitionState::Disk(_), Pick::Ser) => {
                    promotions.push(StateCommand::PromoteToSerializedMemory(c.id));
                }
            }
        }
    }
    commands.extend(promotions);
    commands
}

const ZERO_OPTION: MckpOption = MckpOption { value: 0.0, weight: 0 };

/// The in-memory pick of each option of [`groups`]' layout; option 0 is
/// out of memory.
fn layout(tiers: Tiers) -> &'static [Option<Pick>] {
    if tiers.ser {
        &[None, Some(Pick::Ser), Some(Pick::Mem)]
    } else {
        &[None, Some(Pick::Mem)]
    }
}

/// One executor's instance as knapsack groups, one per candidate:
/// `[out, ser, mem]` with the serialized tier on, `[out, mem]` with it off
/// ([`layout`]). Option 0 — out of memory — is the feasibility anchor; every
/// other option is valued at what it saves against the cheapest way out,
/// `out_best - obj`, and weighs what it occupies in memory (the s option
/// its footprint-scaled size). Maximizing summed savings under the memory
/// capacity is then exactly the Eq. 5–6 minimization: the knapsack optimum
/// is `Σ out_best` minus the program's optimum, which the test oracle
/// checks on seeded random instances.
fn groups(candidates: &[Candidate], tiers: Tiers) -> Vec<MckpGroup> {
    candidates
        .iter()
        .map(|c| {
            let obj = objectives(c, tiers);
            let (_, out_best) = obj.out();
            let mut options = vec![ZERO_OPTION];
            if let Some(s) = obj.s {
                options.push(MckpOption { value: out_best - s, weight: c.ser_size.as_bytes() });
            }
            options.push(MckpOption { value: out_best - obj.m, weight: c.size.as_bytes() });
            MckpGroup { options }
        })
        .collect()
}

/// Ties between keeping and leaving go to the current state. The search
/// never takes an option of value zero, so a resident whose current state
/// saves exactly nothing over its cheapest way out would leave even with
/// room to spare; this puts it back, in candidate order, while it fits.
/// Only zero-valued options are added, so the solution's value — and with
/// it every certificate — is unchanged.
fn keep_ties(
    candidates: &[Candidate],
    groups: &[MckpGroup],
    layout: &[Option<Pick>],
    capacity: u64,
    solution: &mut MckpSolution,
) {
    for (i, c) in candidates.iter().enumerate() {
        let current = match c.state {
            PartitionState::Memory(_) => Pick::Mem,
            PartitionState::SerializedMemory(_) => Pick::Ser,
            PartitionState::Disk(_) | PartitionState::None => continue,
        };
        let Some(o) = layout.iter().position(|&l| l == Some(current)) else { continue };
        let option = groups[i].options[o];
        if solution.choice[i] == 0
            && option.value == 0.0
            && solution.weight + option.weight <= capacity
        {
            solution.choice[i] = o;
            solution.weight += option.weight;
        }
    }
}

/// The inverse of the option-to-pick mapping, used to re-price a previous
/// solve as a warm bound. A pick the layout has no option for (out of
/// memory, or a previous s state after the tier was switched off) is
/// option 0.
fn choice_of_picks(picks: &[Pick], layout: &[Option<Pick>]) -> Vec<usize> {
    picks.iter().map(|&p| layout.iter().position(|&l| l == Some(p)).unwrap_or(0)).collect()
}

/// The answer to one executor's instance.
#[derive(Debug)]
pub(crate) struct Solved {
    /// One pick per candidate, aligned with the input.
    pub(crate) picks: Vec<Pick>,
    /// The instance/answer/proof bundle `blaze_certify::verify_instance`
    /// checks; `Some` exactly when certification was requested on a
    /// non-empty instance.
    pub(crate) payload: Option<InstancePayload>,
}

/// Solves one executor's instance — the only place `core` calls a solver.
///
/// `tiers` picks the groups and the out-of-memory states, and `certify`
/// switches to the certificate-emitting solver entry points, which only
/// append to side vectors: the picks are a function of `(candidates,
/// capacity, strategy, tiers)` alone. Every candidate the knapsack leaves
/// out of memory takes the cheaper of `d` and `u` under the same
/// [`objectives`] that priced its group.
///
/// `warm` is the previous solve of the same executor re-aligned to the
/// current candidate slots (vanished blocks drop out, new blocks default to
/// [`Pick::Unpersist`] — a feasible completion, so the bound stays valid).
/// The search uses it as a *pruning-only* hint — never installed as an
/// incumbent — so the returned picks, tie-breaks included, are the ones a
/// cold solve finds (see `MckpWarm`).
pub(crate) fn solve_instance(
    candidates: &[Candidate],
    capacity: ByteSize,
    strategy: SolveStrategy,
    tiers: Tiers,
    warm: Option<&[Pick]>,
    certify: bool,
) -> Solved {
    let groups = groups(candidates, tiers);
    let layout = layout(tiers);
    let cap = capacity.as_bytes();
    let greedy = strategy == SolveStrategy::Greedy;
    // The greedy rung is the branch-and-bound search cut off at its root.
    let budget = usize::from(greedy);
    let warm = warm.map(|picks| MckpWarm { choice: choice_of_picks(picks, layout) });
    let (mut solution, cert) = if certify && !greedy {
        let (s, c) = solve_mckp_certified(&groups, cap, budget, warm.as_ref());
        (s, Some(c))
    } else {
        (solve_mckp_warm(&groups, cap, budget, warm.as_ref()), None)
    };
    keep_ties(candidates, &groups, layout, cap, &mut solution);
    let picks = solution
        .choice
        .iter()
        .zip(candidates)
        .map(|(&o, c)| layout[o].unwrap_or_else(|| objectives(c, tiers).out().0))
        .collect();
    let payload = certify.then(|| match cert {
        Some(cert) => InstancePayload::MultiChoice { groups, capacity: cap, solution, cert },
        None => {
            let cert = greedy_mckp_certificate(&groups, cap, &solution);
            InstancePayload::Greedy { groups, capacity: cap, solution, cert }
        }
    });
    Solved { picks, payload }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costlineage::CostLineage;
    use crate::incremental::IncrementalOptimizer;
    use blaze_common::ids::RddId;

    /// The tiers with the disk allowed: serialized tier off and on.
    const OFF: Tiers = Tiers { ser: false, disk: true };
    const ON: Tiers = Tiers { ser: true, disk: true };

    /// A cold, uncertified solve's picks.
    fn picks(
        candidates: &[Candidate],
        capacity: ByteSize,
        strategy: SolveStrategy,
        tiers: Tiers,
    ) -> Vec<Pick> {
        solve_instance(candidates, capacity, strategy, tiers, None, false).picks
    }

    /// One submission through a driver with nothing retained.
    fn decide(
        lineage: &mut CostLineage,
        refs: &JobRefs,
        capacity: ByteSize,
        current_job: usize,
        config: &OptimizerConfig,
    ) -> (Vec<StateCommand>, LadderReport) {
        let mut driver = IncrementalOptimizer::new();
        let hw = HardwareModel::default();
        let cmds = driver.optimize(lineage, refs, None, &hw, capacity, current_job, config);
        (cmds, driver.last_ladder_report())
    }

    fn cand(
        rdd: u32,
        exec: u32,
        size_kib: u64,
        cost_d_ms: u64,
        cost_r_ms: u64,
        referenced: bool,
        in_memory: bool,
    ) -> Candidate {
        Candidate {
            id: BlockId::new(RddId(rdd), 0),
            size: ByteSize::from_kib(size_kib),
            cost_d: SimDuration::from_millis(cost_d_ms),
            cost_r: SimDuration::from_millis(cost_r_ms),
            trans_to_m: SimDuration::ZERO,
            trans_to_s: SimDuration::ZERO,
            trans_to_d: SimDuration::ZERO,
            deser_access: SimDuration::ZERO,
            ser_size: ByteSize::from_kib(size_kib).scale(0.6),
            window_refs: u32::from(referenced),
            state: if in_memory {
                PartitionState::Memory(ExecutorId(exec))
            } else {
                PartitionState::Disk(ExecutorId(exec))
            },
        }
    }

    /// An mc-space candidate with explicit s-state pricing.
    #[allow(clippy::too_many_arguments)]
    fn cand_mc(
        rdd: u32,
        size_kib: u64,
        ser_kib: u64,
        cost_d_ms: u64,
        cost_r_ms: u64,
        deser_ms: u64,
        state: PartitionState,
    ) -> Candidate {
        Candidate {
            id: BlockId::new(RddId(rdd), 0),
            size: ByteSize::from_kib(size_kib),
            cost_d: SimDuration::from_millis(cost_d_ms),
            cost_r: SimDuration::from_millis(cost_r_ms),
            trans_to_m: SimDuration::ZERO,
            trans_to_s: SimDuration::ZERO,
            trans_to_d: SimDuration::ZERO,
            deser_access: SimDuration::from_millis(deser_ms),
            ser_size: ByteSize::from_kib(ser_kib),
            window_refs: 1,
            state,
        }
    }

    #[test]
    fn mc_picks_serialized_when_only_the_packed_form_fits() {
        // Full size 100 KiB, packed 50 KiB, capacity 60 KiB: m does not fit,
        // and the deser charge (5 ms) is far below recompute (500 ms) and
        // disk (400 ms), so s wins over out.
        let candidates =
            vec![cand_mc(1, 100, 50, 400, 500, 5, PartitionState::Memory(ExecutorId(0)))];
        for strategy in [SolveStrategy::Knapsack, SolveStrategy::Greedy] {
            let chosen = picks(&candidates, ByteSize::from_kib(60), strategy, ON);
            assert_eq!(chosen, vec![Pick::Ser], "{strategy:?} must choose the s state");
        }
    }

    /// Warm hints and certification never change the answer: for every
    /// strategy × tier, every (warm, certify) combination returns the cold
    /// uncertified picks, and every emitted certificate verifies.
    #[test]
    fn solve_instance_is_identical_warm_or_cold_certified_or_not() {
        let e = ExecutorId(0);
        let m = PartitionState::Memory(e);
        let binary = vec![
            cand(1, 0, 100, 50, 200, true, true),
            cand(2, 0, 80, 300, 100, true, true),
            cand(3, 0, 60, 20, 10, true, false),
            cand(4, 0, 50, 0, 0, false, true),
        ];
        let multi = vec![
            cand_mc(1, 100, 60, 50, 200, 5, m),
            cand_mc(2, 80, 30, 300, 100, 40, m),
            cand_mc(3, 60, 50, 20, 10, 1, PartitionState::SerializedMemory(e)),
            cand_mc(4, 50, 20, 400, 500, 2, PartitionState::Disk(e)),
        ];
        for (tiers, candidates) in [(OFF, &binary), (ON, &multi)] {
            let n = candidates.len();
            for strategy in [SolveStrategy::Knapsack, SolveStrategy::Greedy] {
                for cap_kib in [60u64, 120, 300] {
                    let cap = ByteSize::from_kib(cap_kib);
                    let cold = solve_instance(candidates, cap, strategy, tiers, None, false);
                    assert!(cold.payload.is_none());
                    let hints = [
                        None,
                        Some(vec![Pick::Unpersist; n]),
                        Some(vec![Pick::Ser; n]),
                        // Infeasible at the small capacities: must be ignored.
                        Some(vec![Pick::Mem; n]),
                        Some(cold.picks.clone()),
                    ];
                    for (h, warm) in hints.iter().enumerate() {
                        for certify in [false, true] {
                            let case = format!(
                                "{strategy:?} {tiers:?} cap={cap_kib} hint={h} certify={certify}"
                            );
                            let got = solve_instance(
                                candidates,
                                cap,
                                strategy,
                                tiers,
                                warm.as_deref(),
                                certify,
                            );
                            assert_eq!(got.picks, cold.picks, "{case}: picks moved");
                            assert_eq!(got.payload.is_some(), certify, "{case}");
                            if let Some(payload) = got.payload {
                                let cert =
                                    blaze_certify::InstanceCertificate { executor: e, payload };
                                let findings = blaze_certify::verify_instance(&cert);
                                assert!(findings.is_empty(), "{case}: {findings:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn emit_commands_maps_mc_picks_to_tier_transitions() {
        let e = ExecutorId(0);
        let candidates = vec![
            cand_mc(1, 10, 6, 10, 500, 1, PartitionState::Memory(e)),
            cand_mc(2, 10, 6, 10, 500, 1, PartitionState::SerializedMemory(e)),
            cand_mc(3, 10, 6, 10, 500, 1, PartitionState::Disk(e)),
            cand_mc(4, 10, 6, 10, 500, 1, PartitionState::SerializedMemory(e)),
        ];
        let picks = vec![Pick::Ser, Pick::Mem, Pick::Ser, Pick::Ser];
        let cmds = emit_commands(&[(e, candidates.clone(), picks)]);
        let a = candidates[0].id;
        let b = candidates[1].id;
        let c = candidates[2].id;
        assert!(cmds.contains(&StateCommand::SerializeInMemory(a)), "m->s missing: {cmds:?}");
        assert!(cmds.contains(&StateCommand::DeserializeInMemory(b)), "s->m missing: {cmds:?}");
        assert!(
            cmds.contains(&StateCommand::PromoteToSerializedMemory(c)),
            "d->s missing: {cmds:?}"
        );
        // s->s is a no-op; 3 commands total, space-freeing before promotions.
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[0], StateCommand::SerializeInMemory(a));
    }

    #[test]
    fn unreferenced_partitions_are_never_kept_over_referenced() {
        let candidates =
            vec![cand(1, 0, 100, 500, 900, true, true), cand(2, 0, 100, 0, 0, false, true)];
        let keep = picks(&candidates, ByteSize::from_kib(100), SolveStrategy::Knapsack, OFF);
        assert_eq!(keep, vec![Pick::Mem, Pick::Unpersist]);
    }

    /// A memory resident that saves nothing by staying — an empty block
    /// reads back from disk for free — ties keeping with leaving, and the
    /// tie goes to its current state: with room to spare it gets no
    /// command, under both tier settings and in memory-only mode, and the
    /// certificate of the answer verifies.
    #[test]
    fn an_empty_memory_resident_with_room_to_spare_gets_no_command() {
        let e = ExecutorId(0);
        let empty = cand(1, 0, 0, 0, 5, true, true);
        for tiers in [OFF, ON, Tiers { ser: false, disk: false }] {
            for strategy in [SolveStrategy::Knapsack, SolveStrategy::Greedy] {
                let cap = ByteSize::from_mib(64);
                let solved = solve_instance(&[empty], cap, strategy, tiers, None, true);
                let payload = solved.payload.expect("certified");
                let cert = blaze_certify::InstanceCertificate { executor: e, payload };
                assert!(blaze_certify::verify_instance(&cert).is_empty(), "{tiers:?}");
                let cmds = emit_commands(&[(e, vec![empty], solved.picks)]);
                assert!(cmds.is_empty(), "{tiers:?} {strategy:?}: {cmds:?}");
            }
        }
    }

    /// Every out-of-memory pick is the cheaper of d and u under the same
    /// objective that priced the knapsack: d only when strictly cheaper.
    #[test]
    fn out_of_memory_picks_are_the_cheaper_of_disk_and_unpersist() {
        let spilling = |spill_ms, referenced| Candidate {
            trans_to_d: SimDuration::from_millis(spill_ms),
            ..cand(1, 0, 100, 10, 20, referenced, true)
        };
        let out = |c: Candidate, tiers| picks(&[c], ByteSize::ZERO, SolveStrategy::Knapsack, tiers);
        // 10 ms read + 5 ms spill < 20 ms recompute.
        assert_eq!(out(spilling(5, true), OFF), [Pick::Disk]);
        assert_eq!(out(spilling(5, true), ON), [Pick::Disk]);
        // 10 ms read + 10 ms spill ties the recompute: u.
        assert_eq!(out(spilling(10, true), OFF), [Pick::Unpersist]);
        // Nothing ahead: leaving through d would pay the spill for nothing.
        assert_eq!(out(spilling(5, false), OFF), [Pick::Unpersist]);
        // Without the disk the only way out is u.
        assert_eq!(out(spilling(5, true), Tiers { ser: false, disk: false }), [Pick::Unpersist]);
        // A disk resident stays where it is while a read beats a recompute.
        assert_eq!(out(cand(1, 0, 100, 10, 20, true, false), OFF), [Pick::Disk]);
        assert_eq!(out(cand(1, 0, 100, 20, 10, true, false), OFF), [Pick::Unpersist]);
        assert_eq!(out(cand(1, 0, 100, 10, 20, false, false), OFF), [Pick::Unpersist]);
    }

    /// Builds a two-dataset lineage (a -> b, both single-partition), marks
    /// both cached in memory on executor 0, and makes only `a` referenced
    /// by the upcoming window.
    fn small_world() -> (crate::costlineage::CostLineage, crate::refs::JobRefs, BlockId, BlockId) {
        use blaze_dataflow::{runner::LocalRunner, Context};
        let ctx = Context::new(LocalRunner::new());
        let a = ctx.parallelize(vec![0u64; 64], 1);
        let b = a.map(|x| x + 1);
        let c = a.map(|x| x + 2); // Future job's consumer of `a`.
        let mut cl = crate::costlineage::CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        cl.seed_job_targets(vec![b.id(), c.id()]);
        let refs = crate::refs::JobRefs::build(&ctx.plan().read(), &[b.id(), c.id()]);
        for rdd in [a.id(), b.id()] {
            cl.record_metrics(
                BlockId::new(rdd, 0),
                ByteSize::from_kib(64),
                SimDuration::from_millis(50),
            );
            cl.set_state(BlockId::new(rdd, 0), PartitionState::Memory(ExecutorId(0)));
        }
        (cl, refs, BlockId::new(a.id(), 0), BlockId::new(b.id(), 0))
    }

    #[test]
    fn driver_evicts_the_unreferenced_block_under_pressure() {
        let (mut cl, refs, a_block, b_block) = small_world();
        // Capacity fits exactly one 64 KiB block: `b` (never referenced
        // after job 0; the window starts at job 1) must go.
        let (cmds, _) =
            decide(&mut cl, &refs, ByteSize::from_kib(64), 1, &OptimizerConfig::default());
        assert!(
            cmds.iter().any(|c| matches!(c,
                StateCommand::UnpersistBlock(id) | StateCommand::SpillToDisk(id) if *id == b_block)),
            "expected b to be moved out, got {cmds:?}"
        );
        // `a` (referenced by job 1) stays in memory: no command touches it.
        assert!(!cmds.iter().any(|c| matches!(c,
            StateCommand::UnpersistBlock(id) | StateCommand::SpillToDisk(id) if *id == a_block)));
    }

    #[test]
    fn driver_is_a_noop_when_everything_fits() {
        let (mut cl, refs, _a, _b) = small_world();
        let (cmds, _) =
            decide(&mut cl, &refs, ByteSize::from_mib(10), 1, &OptimizerConfig::default());
        assert!(cmds.is_empty(), "no pressure, no commands: {cmds:?}");
    }

    #[test]
    fn ladder_without_deadline_never_degrades() {
        let mut ladder = SolveLadder::new(&OptimizerConfig::default());
        for _ in 0..100 {
            assert_eq!(ladder.pick(50), Some(SolveStrategy::Knapsack));
        }
        let report = ladder.report();
        assert!(!report.any());
        assert_eq!(report.lowest, Some(SolveRung::Knapsack));
    }

    #[test]
    fn ladder_steps_down_and_then_passes_through() {
        // Budget fits exactly one knapsack solve of 4 candidates and then
        // one greedy solve.
        let budget = estimate_solve_ns(SolveStrategy::Knapsack, 4)
            + estimate_solve_ns(SolveStrategy::Greedy, 4);
        let cfg = OptimizerConfig {
            solve_deadline: Some(SimDuration::from_nanos(budget)),
            ..Default::default()
        };
        let mut ladder = SolveLadder::new(&cfg);
        assert_eq!(ladder.pick(4), Some(SolveStrategy::Knapsack));
        assert_eq!(ladder.pick(4), Some(SolveStrategy::Greedy));
        // Budget drained: not even greedy fits now.
        assert_eq!(ladder.pick(4), None);
        let report = ladder.report();
        assert_eq!(report.degraded, 1);
        assert_eq!(report.passthrough, 1);
        assert_eq!(report.lowest, Some(SolveRung::Passthrough));
    }

    #[test]
    fn estimate_orders_the_rungs() {
        for n in [1usize, 4, 16, 64] {
            assert!(
                estimate_solve_ns(SolveStrategy::Knapsack, n)
                    > estimate_solve_ns(SolveStrategy::Greedy, n)
            );
        }
        assert_eq!(min_ladder_cost_ns(), estimate_solve_ns(SolveStrategy::Greedy, 1));
    }

    #[test]
    fn zero_deadline_emits_no_commands() {
        let (mut cl, refs, _a, _b) = small_world();
        let cfg = OptimizerConfig { solve_deadline: Some(SimDuration::ZERO), ..Default::default() };
        let (cmds, report) = decide(&mut cl, &refs, ByteSize::from_kib(64), 1, &cfg);
        assert!(cmds.is_empty(), "passthrough must not emit commands: {cmds:?}");
        assert_eq!(report.passthrough, 1);
        assert_eq!(report.lowest, Some(SolveRung::Passthrough));
    }
}
