//! The ILP-based optimal-partition-state solver (paper §5.5, Eq. 5–6).
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
//! Three interchangeable strategies solve the program (the ablation bench
//! compares them):
//!
//! - [`SolveStrategy::ExactIlp`] — the literal Eq. 5–6 encoding over
//!   `(m_i, d_i, u_i)` binaries, solved by [`blaze_solver::ilp`];
//! - [`SolveStrategy::Knapsack`] — the provably equivalent reduction: with
//!   costs frozen at time `t`, out-of-memory partitions independently take
//!   `min(cost_d, cost_r)`, so choosing `M` is a knapsack maximizing saved
//!   recovery cost, solved by [`blaze_solver::mckp`]'s branch and bound
//!   (the default; exact and much faster);
//! - [`SolveStrategy::Greedy`] — the same search cut off at its root (a
//!   time-budget fallback).
//!
//! This module holds the pieces of one decision: the degradation ladder,
//! candidate gathering, the two pricings of the program as option groups
//! (`[out, mem]`, and `[out, ser, mem]` with the serialized tier on), the
//! single [`solve_instance`] entry into the solver crate, and command
//! emission. The loop that runs them per executor at each job submission is
//! [`crate::incremental`].

use crate::cost::CostModel;
use crate::costlineage::{CostLineage, PartitionState};
use crate::refs::JobRefs;
use blaze_certify::InstancePayload;
// audit: allow(decision-hash) keyed buckets only; callers sort executor ids before draining
use blaze_common::fxhash::FxHashMap;
use blaze_common::ids::{BlockId, ExecutorId};
use blaze_common::{ByteSize, SimDuration};
use blaze_engine::{HardwareModel, StateCommand};
use blaze_solver::ilp::{solve_binary, solve_binary_certified, IlpOutcome, IlpProblem};
use blaze_solver::lp::Constraint;
use blaze_solver::mckp::{
    greedy_mckp_certificate, solve_mckp_certified, solve_mckp_warm, MckpGroup, MckpOption, MckpWarm,
};

/// How the per-executor state program is solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveStrategy {
    /// Exact knapsack branch and bound over saved recovery costs (default).
    #[default]
    Knapsack,
    /// The literal Eq. 5–6 ILP over `(m, d, u)` binaries.
    ExactIlp,
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
    /// Per-executor disk budget for the Eq. 6 extension
    /// (`Σ size·d ≤ capacity_disk`). `None` = abundant disk (the paper's
    /// default setup).
    pub disk_capacity: Option<ByteSize>,
    /// Simulated-time budget for one job's decision solve (all per-executor
    /// instances together). When the modeled cost of the requested strategy
    /// would blow the remaining budget, the ladder steps down
    /// `ExactIlp -> Knapsack -> Greedy -> LRU passthrough` per instance.
    /// `None` (the default) never degrades.
    pub solve_deadline: Option<SimDuration>,
    /// Enables the serialized in-memory tier as a first-class decision
    /// state: each candidate's option group is `[out, ser, mem]` (or the
    /// Eq. 5–6 ILP has four binaries per candidate) instead of the
    /// keep-in-memory reduction's `[out, mem]`. With the flag off (the
    /// default) decisions are byte-identical to the pre-s-tier solver's.
    pub ser_tier: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            horizon_jobs: 2,
            strategy: SolveStrategy::Knapsack,
            disk_capacity: None,
            solve_deadline: None,
            ser_tier: false,
        }
    }
}

/// One rung of the solver degradation ladder, ordered from least to most
/// degraded. `Passthrough` means the instance was not solved at all: the
/// executor keeps its current state and the engine's recency eviction acts
/// as the fallback policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SolveRung {
    /// The literal Eq. 5–6 ILP ran.
    ExactIlp,
    /// The knapsack reduction ran.
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
            SolveRung::ExactIlp => "exact",
            SolveRung::Knapsack => "knapsack",
            SolveRung::Greedy => "greedy",
            SolveRung::Passthrough => "lru-passthrough",
        }
    }

    fn of(strategy: SolveStrategy) -> Self {
        match strategy {
            SolveStrategy::ExactIlp => SolveRung::ExactIlp,
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
/// coefficients fitted to the relative orders of the three rungs (the ILP
/// branches over `3n` binaries with an LP per node; the knapsack is a
/// branch and bound whose every node scans an `O(n)` bound; greedy is a
/// sort). The absolute scale only matters relative to
/// [`OptimizerConfig::solve_deadline`], which is expressed in the same units.
pub fn estimate_solve_ns(strategy: SolveStrategy, n: usize) -> u64 {
    let n = n as u64;
    match strategy {
        SolveStrategy::ExactIlp => 40_000 + 30_000 * n * n,
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
            SolveStrategy::ExactIlp => {
                &[SolveStrategy::ExactIlp, SolveStrategy::Knapsack, SolveStrategy::Greedy]
            }
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
    /// Cost of moving this block out of / into memory from its current
    /// state (a spill for memory residents, a disk read for disk residents).
    /// Including it in the objective keeps the solution *stable*: without
    /// transition costs the solver oscillates between equal-value subsets,
    /// paying real I/O every job (§4.3's chain reactions, in miniature).
    pub(crate) transition: SimDuration,
    /// Full m/s/d transition row from the current state (`trans_to_<x>` is
    /// the one-off cost of moving there now). Deterministic functions of
    /// the fields above plus the hardware model, so `PartialEq`-based
    /// incremental reuse stays sound; only consulted when
    /// [`OptimizerConfig::ser_tier`] is on.
    pub(crate) trans_to_m: SimDuration,
    pub(crate) trans_to_s: SimDuration,
    pub(crate) trans_to_d: SimDuration,
    /// Per-access deserialization charge the s state pays on every read
    /// within the window ([`CostModel::cost_s`]).
    pub(crate) deser_access: SimDuration,
    /// Footprint-scaled stored size the s state charges against memory.
    pub(crate) ser_size: ByteSize,
    pub(crate) referenced: bool,
    /// Number of references to this block within the decision window.
    /// The multi-choice pricing multiplies per-access costs (deser for s,
    /// recovery for d/u) by this count — what makes the s state's
    /// pay-per-read trade-off visible at all. The legacy 0/1 path keeps
    /// its historical binary `referenced` weighting.
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
        let window_refs = refs.refs_in_window(id.rdd, current_job, config.horizon_jobs);
        let referenced = window_refs > 0;
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
        // The legacy scalar keeps its historical form (the 0/1 path must
        // stay byte-identical): leaving memory pays the spill, leaving disk
        // pays the promotion read. SerializedMemory cannot occur with the
        // s tier off; its scalar is the deserialization leg.
        let transition = match state {
            PartitionState::Memory(_) => trans_to_d,
            PartitionState::SerializedMemory(_) | PartitionState::Disk(_) => trans_to_m,
            PartitionState::None => SimDuration::ZERO,
        };
        let candidate = Candidate {
            id,
            size,
            cost_d: model.cost_d(id),
            cost_r: model.cost_r(id),
            transition,
            trans_to_m,
            trans_to_s,
            trans_to_d,
            deser_access: model.cost_s(id),
            ser_size: size.scale(hardware.ser_footprint),
            referenced,
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

/// The solver's verdict for one candidate: deserialized in memory (m),
/// serialized in memory (s), or out of memory (d/u — [`emit_commands`]
/// picks between disk and unpersist per §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pick {
    /// Keep (or promote) deserialized in memory.
    Mem,
    /// Keep (or move) serialized in memory.
    Ser,
    /// Out of memory: spill, leave on disk, or unpersist.
    Out,
}

/// Translates per-executor picks into state commands.
///
/// `solved` must be in ascending executor order, each candidate vector
/// sorted by id with `picks` aligned. Commands free space (spills,
/// unpersists, and in-place serializations) before promotions consume it.
pub(crate) fn emit_commands(
    solved: &[(ExecutorId, Vec<Candidate>, Vec<Pick>)],
    refs: &JobRefs,
    current_job: usize,
    config: &OptimizerConfig,
) -> Vec<StateCommand> {
    let mut commands = Vec::new();
    let mut promotions = Vec::new();
    for (_exec, candidates, picks) in solved {
        // Eq. 6 extension: track the executor's disk budget while emitting
        // spills; once exhausted, further m->d transitions degrade to m->u
        // (the cheapest-saving spills are dropped first via ordering below).
        let mut disk_budget = config.disk_capacity.map(|cap| {
            let already: ByteSize =
                candidates.iter().filter(|c| c.state.on_disk()).map(|c| c.size).sum();
            cap.saturating_sub(already)
        });
        // Emit spills in descending disk-benefit order so the budget goes to
        // the partitions that gain the most from disk recovery.
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
                | (PartitionState::None, _) => {}
                (PartitionState::Memory(_), Pick::Ser) => {
                    // m -> s in place: shrinks the stored footprint without
                    // disk I/O, so it goes with the space-freeing commands.
                    commands.push(StateCommand::SerializeInMemory(c.id));
                }
                (PartitionState::Memory(_) | PartitionState::SerializedMemory(_), Pick::Out) => {
                    // m/s -> d or -> u: pick the cheaper recovery (§4.2),
                    // considering any reference later in the application.
                    let used_later = refs.future_refs(c.id.rdd, current_job) > 0;
                    let fits_disk = match &mut disk_budget {
                        None => true,
                        Some(budget) => {
                            if *budget >= c.size {
                                *budget -= c.size;
                                true
                            } else {
                                false
                            }
                        }
                    };
                    if used_later && c.cost_d < c.cost_r && fits_disk {
                        commands.push(StateCommand::SpillToDisk(c.id));
                    } else {
                        commands.push(StateCommand::UnpersistBlock(c.id));
                    }
                }
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
                (PartitionState::Disk(_), Pick::Out) => {
                    // d -> u when recomputing beats re-reading, or when the
                    // data has no references in the window and none later.
                    if !c.referenced && refs.future_refs(c.id.rdd, current_job) == 0 {
                        commands.push(StateCommand::UnpersistBlock(c.id));
                    }
                }
            }
        }
    }
    commands.extend(promotions);
    commands
}

/// The option layout of [`binary_groups`]: out of memory, or in it.
const BINARY_LAYOUT: &[Pick] = &[Pick::Out, Pick::Mem];
/// The option layout of [`tier_groups`].
const TIER_LAYOUT: &[Pick] = &[Pick::Out, Pick::Ser, Pick::Mem];

const ZERO_OPTION: MckpOption = MckpOption { value: 0.0, weight: 0 };

/// The keep-in-memory pricing of one executor's instance: each candidate
/// becomes the group `[zero, mem]` ([`BINARY_LAYOUT`]) with saved recovery
/// cost as value and partition size as weight — a 0/1 knapsack.
fn binary_groups(candidates: &[Candidate]) -> Vec<MckpGroup> {
    candidates
        .iter()
        .map(|c| {
            // Saved recovery cost if kept in memory (Eq. 2); only
            // referenced partitions contribute to the Eq. 5 window.
            let mut value = if c.referenced { c.cost_d.min(c.cost_r).as_secs_f64() } else { 0.0 };
            // Transition costs: a memory resident avoids a spill by
            // staying; a disk resident pays a read to be promoted.
            match c.state {
                // SerializedMemory is unreachable with the s tier off (the
                // only mode this pricing runs in); like a memory resident,
                // staying in memory avoids its exit transition.
                PartitionState::Memory(_) | PartitionState::SerializedMemory(_) => {
                    value += c.transition.as_secs_f64()
                }
                PartitionState::Disk(_) => value -= c.transition.as_secs_f64(),
                PartitionState::None => {}
            }
            let mem = MckpOption { value: value.max(0.0), weight: c.size.as_bytes() };
            MckpGroup { options: vec![ZERO_OPTION, mem] }
        })
        .collect()
}

/// The pricing of one executor's instance with the s tier enabled. Each
/// candidate becomes one group `[zero, ser, mem]` ([`TIER_LAYOUT`]):
///
/// - option 0 (zero) — out of memory, the feasibility anchor;
/// - option 1 (ser) — serialized in memory at footprint-scaled weight,
///   valued at `out_best - (ref·deser_access + trans_to_s)`;
/// - option 2 (mem) — deserialized in memory at full weight, valued at
///   `out_best - trans_to_m`;
///
/// where `out_best = min(ref·cost_d + trans_to_d, ref·cost_r)` is the
/// cheapest out-of-memory objective. Maximizing summed savings under the
/// memory capacity is then exactly the Eq. 5–6 minimization enlarged to
/// m/s/d/u (see [`eq56_problem_mc`] — the two encodings differ by the
/// constant `Σ out_best`), so all three strategies price states
/// identically.
fn tier_groups(candidates: &[Candidate]) -> Vec<MckpGroup> {
    candidates
        .iter()
        .map(|c| {
            // Per-access costs are paid on every read in the window:
            // without the multiplier, the s state's recurring deser charge
            // would tie with the one-off s -> m deserialization and a
            // packed block could never profitably be unpacked again.
            let per_access = |cost: SimDuration| f64::from(c.window_refs) * cost.as_secs_f64();
            let obj_m = c.trans_to_m.as_secs_f64();
            let obj_s = per_access(c.deser_access) + c.trans_to_s.as_secs_f64();
            let obj_d = per_access(c.cost_d) + c.trans_to_d.as_secs_f64();
            let obj_u = per_access(c.cost_r);
            let out_best = obj_d.min(obj_u);
            MckpGroup {
                options: vec![
                    ZERO_OPTION,
                    MckpOption { value: out_best - obj_s, weight: c.ser_size.as_bytes() },
                    MckpOption { value: out_best - obj_m, weight: c.size.as_bytes() },
                ],
            }
        })
        .collect()
}

/// Maps a per-group option choice to picks under the groups' `layout`.
fn picks_of_choice(choice: &[usize], layout: &[Pick]) -> Vec<Pick> {
    choice.iter().map(|&c| layout[c]).collect()
}

/// The inverse of [`picks_of_choice`], used to re-price a previous solve as
/// a warm bound. A pick the layout has no option for (a previous s state
/// after the tier was switched off) is out of memory.
fn choice_of_picks(picks: &[Pick], layout: &[Pick]) -> Vec<usize> {
    picks.iter().map(|p| layout.iter().position(|l| l == p).unwrap_or(0)).collect()
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
/// `ser_tier` picks the pricing (keep-in-memory vs one of m/s/d/u per
/// candidate) and `certify` switches to the certificate-emitting solver
/// entry points, which only append to side vectors: the picks are a
/// function of `(candidates, capacity, strategy, ser_tier)` alone.
///
/// `warm` is the previous solve of the same executor re-aligned to the
/// current candidate slots (vanished blocks drop out, new blocks default to
/// [`Pick::Out`] — a feasible completion, so the bound stays valid). Every
/// solver uses it as a *pruning-only* hint — never installed as an
/// incumbent — so the returned picks, tie-breaks included, are the ones a
/// cold solve finds (see `MckpWarm` / `IlpProblem::warm`).
pub(crate) fn solve_instance(
    candidates: &[Candidate],
    capacity: ByteSize,
    strategy: SolveStrategy,
    ser_tier: bool,
    warm: Option<&[Pick]>,
    certify: bool,
) -> Solved {
    if strategy == SolveStrategy::ExactIlp {
        let (problem, vars) = if ser_tier {
            (eq56_problem_mc(candidates, capacity, warm), 4)
        } else {
            (eq56_problem(candidates, capacity, warm), 3)
        };
        let (picks, payload) = solve_exact(problem, vars, certify);
        return Solved { picks, payload };
    }
    let (groups, layout) = if ser_tier {
        (tier_groups(candidates), TIER_LAYOUT)
    } else {
        (binary_groups(candidates), BINARY_LAYOUT)
    };
    let cap = capacity.as_bytes();
    let greedy = strategy == SolveStrategy::Greedy;
    // The greedy rung is the branch-and-bound search cut off at its root.
    let budget = usize::from(greedy);
    let warm = warm.map(|picks| MckpWarm { choice: choice_of_picks(picks, layout) });
    let (solution, cert) = if certify && !greedy {
        let (s, c) = solve_mckp_certified(&groups, cap, budget, warm.as_ref());
        (s, Some(c))
    } else {
        (solve_mckp_warm(&groups, cap, budget, warm.as_ref()), None)
    };
    let picks = picks_of_choice(&solution.choice, layout);
    let payload = certify.then(|| match cert {
        Some(cert) => InstancePayload::MultiChoice { groups, capacity: cap, solution, cert },
        None => {
            let cert = greedy_mckp_certificate(&groups, cap, &solution);
            InstancePayload::Greedy { groups, capacity: cap, solution, cert }
        }
    });
    Solved { picks, payload }
}

/// The literal Eq. 5–6 program over `[m_0, d_0, u_0, m_1, ...]` binaries.
fn eq56_problem(
    candidates: &[Candidate],
    capacity: ByteSize,
    warm_picks: Option<&[Pick]>,
) -> IlpProblem {
    let n = candidates.len();
    let nv = 3 * n;
    let mut objective = vec![0.0; nv];
    let mut constraints = Vec::with_capacity(n + 1);
    let mut cap_row = vec![0.0; nv];
    for (i, c) in candidates.iter().enumerate() {
        if c.referenced {
            objective[3 * i + 1] = c.cost_d.as_secs_f64();
            objective[3 * i + 2] = c.cost_r.as_secs_f64();
        }
        // Transition costs keep the solution stable (see `Candidate`).
        match c.state {
            PartitionState::Memory(_) => {
                // Leaving memory for disk pays the spill; dropping is free.
                objective[3 * i + 1] += c.transition.as_secs_f64();
            }
            PartitionState::SerializedMemory(_) => {
                // Unreachable with the s tier off — the only mode this
                // 3-state encoding runs in; priced like a memory resident
                // for totality.
                objective[3 * i + 1] += c.transition.as_secs_f64();
            }
            PartitionState::Disk(_) => {
                // Promotion pays a disk read.
                objective[3 * i] += c.transition.as_secs_f64();
            }
            PartitionState::None => {}
        }
        // m_i + d_i + u_i = 1 (Eq. 1).
        let mut row = vec![0.0; nv];
        row[3 * i] = 1.0;
        row[3 * i + 1] = 1.0;
        row[3 * i + 2] = 1.0;
        constraints.push(Constraint::eq(row, 1.0));
        // audit: allow(float-cast) byte sizes are < 2^53 and exactly representable
        cap_row[3 * i] = c.size.as_bytes() as f64;
    }
    // audit: allow(float-cast) byte sizes are < 2^53 and exactly representable
    constraints.push(Constraint::le(cap_row, capacity.as_bytes() as f64));
    // Expand previous picks to (m, d, u): kept partitions take m; the
    // rest take whichever of d/u has the lower objective coefficient (a
    // feasible completion — the bound only has to be valid, not optimal).
    let warm = warm_picks.filter(|w| w.len() == n).map(|w| {
        let mut x = vec![false; nv];
        for (i, &pick) in w.iter().enumerate() {
            if pick == Pick::Mem {
                x[3 * i] = true;
            } else if objective[3 * i + 1] <= objective[3 * i + 2] {
                x[3 * i + 1] = true;
            } else {
                x[3 * i + 2] = true;
            }
        }
        x
    });
    IlpProblem { objective, constraints, node_budget: 200_000, warm }
}

/// The Eq. 5–6 program enlarged to the m/s/d/u space, over
/// `[m_0, s_0, d_0, u_0, m_1, ...]` binaries: the s column pays the
/// windowed deserialization charge plus its transition, and occupies only
/// the footprint-scaled size in the capacity row.
fn eq56_problem_mc(
    candidates: &[Candidate],
    capacity: ByteSize,
    warm_picks: Option<&[Pick]>,
) -> IlpProblem {
    let n = candidates.len();
    let nv = 4 * n;
    let mut objective = vec![0.0; nv];
    let mut constraints = Vec::with_capacity(n + 1);
    let mut cap_row = vec![0.0; nv];
    for (i, c) in candidates.iter().enumerate() {
        // Per-access costs scale with the window reference count, exactly
        // as in [`tier_groups`] (the two encodings must price identically
        // for the exact and B&B strategies to agree).
        let accesses = f64::from(c.window_refs);
        objective[4 * i] = c.trans_to_m.as_secs_f64();
        objective[4 * i + 1] = accesses * c.deser_access.as_secs_f64() + c.trans_to_s.as_secs_f64();
        objective[4 * i + 2] = accesses * c.cost_d.as_secs_f64() + c.trans_to_d.as_secs_f64();
        objective[4 * i + 3] = accesses * c.cost_r.as_secs_f64();
        // m_i + s_i + d_i + u_i = 1.
        let mut row = vec![0.0; nv];
        for k in 0..4 {
            row[4 * i + k] = 1.0;
        }
        constraints.push(Constraint::eq(row, 1.0));
        // audit: allow(float-cast) byte sizes are < 2^53 and exactly representable
        cap_row[4 * i] = c.size.as_bytes() as f64;
        // audit: allow(float-cast) byte sizes are < 2^53 and exactly representable
        cap_row[4 * i + 1] = c.ser_size.as_bytes() as f64;
    }
    // audit: allow(float-cast) byte sizes are < 2^53 and exactly representable
    constraints.push(Constraint::le(cap_row, capacity.as_bytes() as f64));
    // Expand previous picks to (m, s, d, u): in-memory picks take their
    // column; out picks take whichever of d/u has the lower objective
    // coefficient (a feasible completion — the bound only has to be valid).
    let warm = warm_picks.filter(|w| w.len() == n).map(|w| {
        let mut x = vec![false; nv];
        for (i, &pick) in w.iter().enumerate() {
            match pick {
                Pick::Mem => x[4 * i] = true,
                Pick::Ser => x[4 * i + 1] = true,
                Pick::Out => {
                    if objective[4 * i + 2] <= objective[4 * i + 3] {
                        x[4 * i + 2] = true;
                    } else {
                        x[4 * i + 3] = true;
                    }
                }
            }
        }
        x
    });
    IlpProblem { objective, constraints, node_budget: 200_000, warm }
}

/// Solves either Eq. 5–6 encoding (`vars` binaries per candidate: 3 for
/// [`eq56_problem`]'s m/d/u, 4 for [`eq56_problem_mc`]'s m/s/d/u); returns
/// one pick per candidate plus, under `certify`, the program/outcome/proof
/// payload.
fn solve_exact(
    problem: IlpProblem,
    vars: usize,
    certify: bool,
) -> (Vec<Pick>, Option<InstancePayload>) {
    let n = problem.objective.len() / vars;
    if n == 0 {
        return (Vec::new(), None);
    }
    // Infeasibility cannot happen (u_i = 1 for all i is feasible) and the
    // programs are well-formed, but degrade to "evict everything" rather
    // than panic; under certify the empty certificate then fails to verify.
    let (outcome, cert) = if certify {
        let (outcome, cert) = solve_binary_certified(&problem)
            .unwrap_or_else(|_| (IlpOutcome::Infeasible, Default::default()));
        (outcome, Some(cert))
    } else {
        (solve_binary(&problem).unwrap_or(IlpOutcome::Infeasible), None)
    };
    let picks = match &outcome {
        IlpOutcome::Solved { x, .. } => (0..n)
            .map(|i| {
                if x[vars * i] {
                    Pick::Mem
                } else if vars == 4 && x[vars * i + 1] {
                    Pick::Ser
                } else {
                    Pick::Out
                }
            })
            .collect(),
        IlpOutcome::Infeasible => vec![Pick::Out; n],
    };
    (picks, cert.map(|cert| InstancePayload::Ilp { problem, outcome, cert }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costlineage::CostLineage;
    use crate::incremental::IncrementalOptimizer;
    use blaze_common::ids::RddId;

    /// A cold, uncertified solve's picks.
    fn picks(
        candidates: &[Candidate],
        capacity: ByteSize,
        strategy: SolveStrategy,
        ser_tier: bool,
    ) -> Vec<Pick> {
        solve_instance(candidates, capacity, strategy, ser_tier, None, false).picks
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
            transition: SimDuration::ZERO,
            trans_to_m: SimDuration::ZERO,
            trans_to_s: SimDuration::ZERO,
            trans_to_d: SimDuration::ZERO,
            deser_access: SimDuration::ZERO,
            ser_size: ByteSize::from_kib(size_kib).scale(0.6),
            referenced,
            window_refs: u32::from(referenced),
            state: if in_memory {
                PartitionState::Memory(ExecutorId(exec))
            } else {
                PartitionState::Disk(ExecutorId(exec))
            },
        }
    }

    #[test]
    fn knapsack_and_exact_ilp_agree() {
        let candidates = vec![
            cand(1, 0, 100, 50, 200, true, true),
            cand(2, 0, 80, 300, 100, true, true),
            cand(3, 0, 60, 20, 10, true, true),
            cand(4, 0, 50, 0, 0, false, true),
        ];
        for cap_kib in [60u64, 120, 180, 300] {
            let cap = ByteSize::from_kib(cap_kib);
            let k = picks(&candidates, cap, SolveStrategy::Knapsack, false);
            let e = picks(&candidates, cap, SolveStrategy::ExactIlp, false);
            let value = |sel: &[Pick]| -> f64 {
                sel.iter()
                    .zip(&candidates)
                    .filter(|(s, _)| **s == Pick::Mem)
                    .map(
                        |(_, c)| {
                            if c.referenced {
                                c.cost_d.min(c.cost_r).as_secs_f64()
                            } else {
                                0.0
                            }
                        },
                    )
                    .sum()
            };
            assert!(
                (value(&k) - value(&e)).abs() < 1e-9,
                "strategies disagree at cap {cap_kib}: knapsack {k:?} vs exact {e:?}"
            );
            // Both must respect capacity.
            for sel in [&k, &e] {
                let w: u64 = sel
                    .iter()
                    .zip(&candidates)
                    .filter(|(s, _)| **s == Pick::Mem)
                    .map(|(_, c)| c.size.as_bytes())
                    .sum();
                assert!(w <= cap.as_bytes());
            }
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
            transition: SimDuration::ZERO,
            trans_to_m: SimDuration::ZERO,
            trans_to_s: SimDuration::ZERO,
            trans_to_d: SimDuration::ZERO,
            deser_access: SimDuration::from_millis(deser_ms),
            ser_size: ByteSize::from_kib(ser_kib),
            referenced: true,
            window_refs: 1,
            state,
        }
    }

    /// The options a pick vector chooses under the mc group pricing.
    fn mc_options(candidates: &[Candidate], picks: &[Pick]) -> Vec<MckpOption> {
        let choice = choice_of_picks(picks, TIER_LAYOUT);
        tier_groups(candidates).iter().zip(choice).map(|(g, c)| g.options[c]).collect()
    }

    /// Objective value of a pick vector under the mc group pricing.
    fn mc_value(candidates: &[Candidate], picks: &[Pick]) -> f64 {
        mc_options(candidates, picks).iter().map(|o| o.value).sum()
    }

    fn mc_weight(candidates: &[Candidate], picks: &[Pick]) -> u64 {
        mc_options(candidates, picks).iter().map(|o| o.weight).sum()
    }

    #[test]
    fn mc_knapsack_and_exact_ilp_agree() {
        let m = PartitionState::Memory(ExecutorId(0));
        let candidates = vec![
            cand_mc(1, 100, 60, 50, 200, 5, m),
            cand_mc(2, 80, 30, 300, 100, 40, m),
            cand_mc(3, 60, 50, 20, 10, 1, m),
            cand_mc(4, 50, 20, 400, 500, 2, PartitionState::Disk(ExecutorId(0))),
        ];
        for cap_kib in [40u64, 90, 150, 300] {
            let cap = ByteSize::from_kib(cap_kib);
            let k = picks(&candidates, cap, SolveStrategy::Knapsack, true);
            let e = picks(&candidates, cap, SolveStrategy::ExactIlp, true);
            assert!(
                (mc_value(&candidates, &k) - mc_value(&candidates, &e)).abs() < 1e-9,
                "mc strategies disagree at cap {cap_kib}: knapsack {k:?} vs exact {e:?}"
            );
            for picks in [&k, &e] {
                assert!(mc_weight(&candidates, picks) <= cap.as_bytes());
            }
        }
    }

    #[test]
    fn mc_picks_serialized_when_only_the_packed_form_fits() {
        // Full size 100 KiB, packed 50 KiB, capacity 60 KiB: m does not fit,
        // and the deser charge (5 ms) is far below recompute (500 ms) and
        // disk (400 ms), so s wins over out.
        let candidates =
            vec![cand_mc(1, 100, 50, 400, 500, 5, PartitionState::Memory(ExecutorId(0)))];
        for strategy in [SolveStrategy::Knapsack, SolveStrategy::ExactIlp, SolveStrategy::Greedy] {
            let chosen = picks(&candidates, ByteSize::from_kib(60), strategy, true);
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
        for (ser_tier, candidates) in [(false, &binary), (true, &multi)] {
            let n = candidates.len();
            for strategy in
                [SolveStrategy::Knapsack, SolveStrategy::ExactIlp, SolveStrategy::Greedy]
            {
                for cap_kib in [60u64, 120, 300] {
                    let cap = ByteSize::from_kib(cap_kib);
                    let cold = solve_instance(candidates, cap, strategy, ser_tier, None, false);
                    assert!(cold.payload.is_none());
                    let hints = [
                        None,
                        Some(vec![Pick::Out; n]),
                        Some(vec![Pick::Ser; n]),
                        // Infeasible at the small capacities: must be ignored.
                        Some(vec![Pick::Mem; n]),
                        Some(cold.picks.clone()),
                    ];
                    for (h, warm) in hints.iter().enumerate() {
                        for certify in [false, true] {
                            let case = format!(
                                "{strategy:?} ser_tier={ser_tier} cap={cap_kib} hint={h} \
                                 certify={certify}"
                            );
                            let got = solve_instance(
                                candidates,
                                cap,
                                strategy,
                                ser_tier,
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
        let solved = vec![(e, candidates.clone(), picks)];
        // References are irrelevant for these arms; an empty plan yields
        // zero refs everywhere.
        let ctx = blaze_dataflow::Context::new(blaze_dataflow::runner::LocalRunner::new());
        let refs = crate::refs::JobRefs::build(&ctx.plan().read(), &[]);
        let cmds = emit_commands(&solved, &refs, 0, &OptimizerConfig::default());
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
        let keep = picks(&candidates, ByteSize::from_kib(100), SolveStrategy::Knapsack, false);
        assert_eq!(keep, vec![Pick::Mem, Pick::Out]);
    }

    #[test]
    fn exact_ilp_empty_instance() {
        for ser_tier in [false, true] {
            assert!(picks(&[], ByteSize::from_kib(1), SolveStrategy::ExactIlp, ser_tier).is_empty());
        }
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
        let cfg = OptimizerConfig { strategy: SolveStrategy::ExactIlp, ..Default::default() };
        let mut ladder = SolveLadder::new(&cfg);
        for _ in 0..100 {
            assert_eq!(ladder.pick(50), Some(SolveStrategy::ExactIlp));
        }
        let report = ladder.report();
        assert!(!report.any());
        assert_eq!(report.lowest, Some(SolveRung::ExactIlp));
    }

    #[test]
    fn ladder_steps_down_and_then_passes_through() {
        // Budget fits exactly one knapsack solve of 4 candidates; the exact
        // ILP is over budget from the start.
        let budget = estimate_solve_ns(SolveStrategy::Knapsack, 4);
        let cfg = OptimizerConfig {
            strategy: SolveStrategy::ExactIlp,
            solve_deadline: Some(SimDuration::from_nanos(budget)),
            ..Default::default()
        };
        let mut ladder = SolveLadder::new(&cfg);
        assert_eq!(ladder.pick(4), Some(SolveStrategy::Knapsack));
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
                estimate_solve_ns(SolveStrategy::ExactIlp, n)
                    > estimate_solve_ns(SolveStrategy::Knapsack, n)
            );
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

    #[test]
    fn disk_capacity_extension_degrades_spills_to_unpersists() {
        let (mut cl, refs, _a, b_block) = small_world();
        // Make the evicted block strongly prefer disk: enormous compute.
        cl.record_metrics(b_block, ByteSize::from_kib(64), SimDuration::from_secs(100));
        // Give b a future reference so the spill path is even considered:
        // reuse refs where only `a` is referenced — so instead check the
        // constrained case directly against the unconstrained one.
        let (unconstrained, _) =
            decide(&mut cl, &refs, ByteSize::from_kib(64), 0, &OptimizerConfig::default());
        let (constrained, _) = decide(
            &mut cl,
            &refs,
            ByteSize::from_kib(64),
            0,
            &OptimizerConfig { disk_capacity: Some(ByteSize::ZERO), ..Default::default() },
        );
        let spills = |cmds: &[StateCommand]| {
            cmds.iter().filter(|c| matches!(c, StateCommand::SpillToDisk(_))).count()
        };
        assert!(spills(&constrained) == 0, "zero disk budget must forbid spills");
        assert!(spills(&unconstrained) >= spills(&constrained));
    }
}
