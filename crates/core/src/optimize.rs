//! The optimal-partition-state solver (paper §5.5, Eq. 5–6).
//!
//! At each job submission, Blaze restates the cached partitions of every
//! executor: minimize the total potential recovery cost of the partitions
//! referenced within the upcoming-jobs window `J` (`HORIZON_JOBS`: the
//! current job and its successor), subject to the per-executor memory
//! capacity:
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
//! [`blaze_solver::mckp`]'s branch and bound. The search has one bound, its
//! default node budget: an instance too hard to close within it keeps the
//! best selection found, which still dominates the greedy hull fill.
//!
//! One function prices every state of a candidate (`objectives`): `m`,
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
//! This module holds the pieces of one decision: candidate gathering, the
//! pricing, the single `solve_instance` entry into the solver crate, and
//! command emission. The loop that runs them per
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
use blaze_solver::mckp::{solve_mckp, solve_mckp_certified, MckpGroup, MckpOption, MckpSolution};

#[cfg(test)]
mod oracle;

/// Jobs whose references count into the objective, the submitted one
/// included: the paper's Eq. 5 window `J` (§5.5), the current job and its
/// successor.
const HORIZON_JOBS: usize = 2;

/// The states a decision may choose besides `m` and `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiers {
    /// Enables the serialized in-memory tier as a first-class decision
    /// state: each candidate's option group is `[out, ser, mem]` instead of
    /// `[out, mem]`. Off by default; the two settings price `m`, `d` and `u`
    /// alike.
    pub ser: bool,
    /// Whether the disk state `d` is allowed at all (false = the Fig. 12
    /// memory-only configuration): without it the only way out of memory
    /// is `u`.
    pub disk: bool,
}

impl Default for Tiers {
    fn default() -> Self {
        Self { ser: false, disk: true }
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
        let window_refs = match refs.refs_in_window(id.rdd, current_job, HORIZON_JOBS) {
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
/// capacity, tiers)` alone. Every candidate the knapsack leaves
/// out of memory takes the cheaper of `d` and `u` under the same
/// [`objectives`] that priced its group.
pub(crate) fn solve_instance(
    candidates: &[Candidate],
    capacity: ByteSize,
    tiers: Tiers,
    certify: bool,
) -> Solved {
    let groups = groups(candidates, tiers);
    let layout = layout(tiers);
    let cap = capacity.as_bytes();
    // Budget 0 is the search's default node budget.
    let (mut solution, cert) = if certify {
        let (s, c) = solve_mckp_certified(&groups, cap, 0, None);
        (s, Some(c))
    } else {
        (solve_mckp(&groups, cap, 0), None)
    };
    keep_ties(candidates, &groups, layout, cap, &mut solution);
    let picks = solution
        .choice
        .iter()
        .zip(candidates)
        .map(|(&o, c)| layout[o].unwrap_or_else(|| objectives(c, tiers).out().0))
        .collect();
    let payload =
        cert.map(|cert| InstancePayload::MultiChoice { groups, capacity: cap, solution, cert });
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
    fn picks(candidates: &[Candidate], capacity: ByteSize, tiers: Tiers) -> Vec<Pick> {
        solve_instance(candidates, capacity, tiers, false).picks
    }

    /// One submission through a driver with nothing retained.
    fn decide(
        lineage: &mut CostLineage,
        refs: &JobRefs,
        capacity: ByteSize,
        current_job: usize,
    ) -> Vec<StateCommand> {
        let hw = HardwareModel::default();
        IncrementalOptimizer::new().optimize(
            lineage,
            refs,
            None,
            &hw,
            capacity,
            current_job,
            Tiers::default(),
        )
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
        assert_eq!(picks(&candidates, ByteSize::from_kib(60), ON), vec![Pick::Ser]);
    }

    /// Certification never changes the answer: for both tier settings the
    /// certified solve returns the uncertified picks, and every emitted
    /// certificate verifies.
    #[test]
    fn solve_instance_is_identical_certified_or_not() {
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
            for cap_kib in [60u64, 120, 300] {
                let case = format!("{tiers:?} cap={cap_kib}");
                let cap = ByteSize::from_kib(cap_kib);
                let plain = solve_instance(candidates, cap, tiers, false);
                assert!(plain.payload.is_none(), "{case}");
                let certified = solve_instance(candidates, cap, tiers, true);
                assert_eq!(certified.picks, plain.picks, "{case}: picks moved");
                let payload = certified.payload.expect("certified");
                let cert = blaze_certify::InstanceCertificate { executor: e, payload };
                let findings = blaze_certify::verify_instance(&cert);
                assert!(findings.is_empty(), "{case}: {findings:?}");
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
        let keep = picks(&candidates, ByteSize::from_kib(100), OFF);
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
            let solved = solve_instance(&[empty], ByteSize::from_mib(64), tiers, true);
            let payload = solved.payload.expect("certified");
            let cert = blaze_certify::InstanceCertificate { executor: e, payload };
            assert!(blaze_certify::verify_instance(&cert).is_empty(), "{tiers:?}");
            let cmds = emit_commands(&[(e, vec![empty], solved.picks)]);
            assert!(cmds.is_empty(), "{tiers:?}: {cmds:?}");
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
        let out = |c: Candidate, tiers| picks(&[c], ByteSize::ZERO, tiers);
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

    /// The window is the submitted job and its successor (`HORIZON_JOBS`
    /// = 2): a block read twice by job `current + 1` is priced with both
    /// reads, and a block read twice but only by job `current + 2` gets the
    /// one-read weight of a block referenced past the window.
    #[test]
    fn the_window_is_the_current_job_and_its_successor() {
        use blaze_dataflow::{runner::LocalRunner, Context};
        let ctx = Context::new(LocalRunner::new());
        let next = ctx.parallelize(vec![0u64; 8], 1);
        let after = ctx.parallelize(vec![0u64; 8], 1);
        let current = ctx.parallelize(vec![0u64; 8], 1).map(|v| v + 1);
        let twice = |d: &blaze_dataflow::Dataset<u64>| d.zip_partitions(d, |a, _| a.to_vec());
        let targets = [current.id(), twice(&next).id(), twice(&after).id()];
        let mut cl = CostLineage::new();
        cl.merge_plan(&ctx.plan().read());
        cl.seed_job_targets(targets.to_vec());
        let refs = JobRefs::build(&ctx.plan().read(), &targets);
        for rdd in [next.id(), after.id()] {
            let id = BlockId::new(rdd, 0);
            cl.record_metrics(id, ByteSize::from_kib(64), SimDuration::from_millis(50));
            cl.set_state(id, PartitionState::Memory(ExecutorId(0)));
        }
        assert_eq!(refs.future_refs(after.id(), 0), 2);
        let hw = HardwareModel::default();
        let mut model = CostModel::new(&cl, &hw, None);
        let per_exec = gather_candidates(&cl, &refs, &hw, 0, &mut model);
        let window_refs = |rdd| {
            let c = per_exec[&ExecutorId(0)].iter().find(|c| c.id.rdd == rdd).unwrap();
            c.window_refs
        };
        assert_eq!(window_refs(next.id()), 2, "job current + 1 is inside the window");
        assert_eq!(window_refs(after.id()), 1, "job current + 2 is past it");
    }

    #[test]
    fn driver_evicts_the_unreferenced_block_under_pressure() {
        let (mut cl, refs, a_block, b_block) = small_world();
        // Capacity fits exactly one 64 KiB block: `b` (never referenced
        // after job 0; the window starts at job 1) must go.
        let cmds = decide(&mut cl, &refs, ByteSize::from_kib(64), 1);
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
        let cmds = decide(&mut cl, &refs, ByteSize::from_mib(10), 1);
        assert!(cmds.is_empty(), "no pressure, no commands: {cmds:?}");
    }
}
