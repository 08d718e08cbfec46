//! Future-reference derivation over the job sequence (§5.3, §5.6).
//!
//! Blaze derives "the number of potential references for each of the
//! partitions until the end of the application" from the captured
//! dependencies. A subtlety our engine shares with Spark: a reference
//! through a shuffle whose outputs already exist is *not* a data access —
//! the map stage is skipped. References that actually materialize data are
//! the dependencies of RDDs appearing for the first time in a job (new
//! stages). We therefore count, per job, the dependency edges of its *new*
//! RDDs; references from jobs beyond the captured sequence are induced by
//! shifting the last job's references by the detected iteration stride.
//!
//! The counts are built in one pass over the job sequence — from the
//! profile, or at every job submission when there is none — and read on
//! every task, so each RDD's `(job, count)` postings are chained in job
//! order and a query touches the one or two jobs that reference the RDD
//! instead of probing every job of the application.

use crate::pattern::IterationPattern;
use blaze_common::ids::RddId;
use blaze_dataflow::{planner::plan_job, Plan};

/// One job's references to one RDD.
#[derive(Debug, Clone, Copy)]
struct Posting {
    rdd: RddId,
    job: u32,
    /// Consuming edges of `rdd` from RDDs first materialized in `job`.
    count: u32,
    /// Index of the same RDD's posting from an earlier job, or [`NONE`].
    prev: u32,
}

/// "No posting": past the end of any postings list.
const NONE: u32 = u32::MAX;

/// Per-job reference counts of the application.
#[derive(Debug, Clone, Default)]
pub struct JobRefs {
    /// Every posting, in job order: the one place the counts live. A job's
    /// postings are contiguous (from `job_start`), which enumerates a job
    /// for induction; an RDD's postings are chained backwards from `head`,
    /// which answers the per-RDD queries.
    postings: Vec<Posting>,
    /// `head[rdd.raw()]` = index of that RDD's latest posting, or [`NONE`].
    /// RDD ids are dense (assigned in program order).
    head: Vec<u32>,
    /// `job_start[j]` = index of job `j`'s first posting.
    job_start: Vec<u32>,
    /// The per-job scan this structure replaced, built and induced alongside;
    /// every query is checked against it in debug builds.
    #[cfg(any(test, debug_assertions))]
    scan: scan::ScanRefs,
}

impl JobRefs {
    /// Opens the next job: postings go to it until the next call.
    fn begin_job(&mut self) {
        self.job_start.push(self.postings.len() as u32);
    }

    /// Counts `count` more references to `rdd` from the job being appended.
    fn post(&mut self, rdd: RddId, count: u32) {
        let job = (self.job_start.len() - 1) as u32;
        let slot = rdd.raw() as usize;
        if self.head.len() <= slot {
            self.head.resize(slot + 1, NONE);
        }
        match self.postings.get_mut(self.head[slot] as usize) {
            Some(latest) if latest.job == job => latest.count += count,
            _ => {
                let prev = std::mem::replace(&mut self.head[slot], self.postings.len() as u32);
                self.postings.push(Posting { rdd, job, count, prev });
            }
        }
    }

    /// Builds reference counts from a plan and an ordered job-target list.
    ///
    /// Targets beyond the plan (predicted future jobs) are skipped here;
    /// use [`JobRefs::extend_induced`] for those.
    pub fn build(plan: &Plan, job_targets: &[RddId]) -> Self {
        let mut refs = Self::default();
        // Highest RDD id of the jobs so far: an RDD above it is new.
        let mut max_seen: Option<u32> = None;
        for &target in job_targets {
            refs.begin_job();
            if let Ok(jp) = plan_job(plan, target) {
                for stage in &jp.stages {
                    for &rdd in &stage.rdds {
                        if max_seen.is_some_and(|m| rdd.raw() <= m) {
                            continue;
                        }
                        if let Ok(node) = plan.node(rdd) {
                            for dep in &node.deps {
                                refs.post(dep.parent(), 1);
                            }
                        }
                    }
                }
                let job_max = jp.stages.iter().flat_map(|s| s.rdds.iter()).map(|r| r.raw()).max();
                max_seen = max_seen.max(job_max);
            }
            // The job materializes its target: that is an access of the
            // target's blocks even when the whole sub-DAG already exists
            // (the `cached.count()` reuse pattern).
            refs.post(target, 1);
        }
        #[cfg(any(test, debug_assertions))]
        {
            refs.scan = scan::ScanRefs::build(plan, job_targets);
        }
        refs
    }

    /// Appends `extra` induced jobs by shifting the last job's references
    /// forward by the iteration stride (no-profiling mode).
    ///
    /// Only *periodic* datasets (those allocated during the last captured
    /// iteration) shift; stable datasets created before the periodic phase
    /// (e.g. a PageRank `links` graph) keep their id — they play the same
    /// role in every iteration.
    pub fn extend_induced(&mut self, pattern: IterationPattern, extra: usize) {
        let Some(&last_start) = self.job_start.last() else { return };
        let last: Vec<(RddId, u32)> =
            self.postings[last_start as usize..].iter().map(|p| (p.rdd, p.count)).collect();
        // Ids at or above this base were allocated during the last captured
        // iteration and are therefore periodic.
        let periodic_base = last
            .iter()
            .map(|(r, _)| r.raw())
            .max()
            .map(|m| m.saturating_sub(pattern.stride))
            .unwrap_or(u32::MAX);
        for k in 1..=extra {
            self.begin_job();
            for &(rdd, c) in &last {
                let shifted = if rdd.raw() > periodic_base {
                    RddId(rdd.raw() + pattern.stride * k as u32)
                } else {
                    rdd
                };
                self.post(shifted, c);
            }
        }
        #[cfg(any(test, debug_assertions))]
        self.scan.extend_induced(pattern, extra);
    }

    /// Number of jobs covered (built + induced).
    pub fn num_jobs(&self) -> usize {
        self.job_start.len()
    }

    /// Total references to `rdd` from jobs `from..to`.
    fn refs_in_range(&self, rdd: RddId, from: usize, to: usize) -> u32 {
        let mut at = self.head.get(rdd.raw() as usize).copied().unwrap_or(NONE);
        let mut total = 0;
        while let Some(p) = self.postings.get(at as usize) {
            if (p.job as usize) < from {
                break;
            }
            if (p.job as usize) < to {
                total += p.count;
            }
            at = p.prev;
        }
        total
    }

    /// References to `rdd` from job `job_idx` alone.
    pub fn refs_in_job(&self, rdd: RddId, job_idx: usize) -> u32 {
        let refs = self.refs_in_range(rdd, job_idx, job_idx.saturating_add(1));
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(refs, self.scan.refs_in_job(rdd, job_idx), "{rdd:?} in job {job_idx}");
        refs
    }

    /// Total references to `rdd` from jobs `from..` (future references).
    pub fn future_refs(&self, rdd: RddId, from: usize) -> u32 {
        let refs = self.refs_in_range(rdd, from, usize::MAX);
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(refs, self.scan.future_refs(rdd, from), "{rdd:?} from job {from}");
        refs
    }

    /// Total references to `rdd` within the window `from..from+len`.
    pub fn refs_in_window(&self, rdd: RddId, from: usize, len: usize) -> u32 {
        let refs = self.refs_in_range(rdd, from, from.saturating_add(len));
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(
            refs,
            self.scan.refs_in_window(rdd, from, len),
            "{rdd:?} in window {from}+{len}"
        );
        refs
    }
}

/// The representation [`JobRefs`] had before its counts were indexed per
/// RDD: one hash map per job, every query a scan over the jobs. Kept, with
/// its own derivation of the counts, as the reference the maintained
/// postings are checked against on every query in debug builds and in the
/// property tests.
#[cfg(any(test, debug_assertions))]
mod scan {
    use crate::pattern::IterationPattern;
    use blaze_common::fxhash::FxHashMap;
    use blaze_common::ids::RddId;
    use blaze_dataflow::{planner::plan_job, Plan};

    #[derive(Debug, Clone, Default)]
    pub(super) struct ScanRefs {
        per_job: Vec<FxHashMap<RddId, u32>>,
    }

    impl ScanRefs {
        pub(super) fn build(plan: &Plan, job_targets: &[RddId]) -> Self {
            let mut per_job = Vec::with_capacity(job_targets.len());
            let mut max_seen: Option<u32> = None;
            for &target in job_targets {
                let mut refs: FxHashMap<RddId, u32> = FxHashMap::default();
                if let Ok(jp) = plan_job(plan, target) {
                    for stage in &jp.stages {
                        for &rdd in &stage.rdds {
                            if max_seen.is_some_and(|m| rdd.raw() <= m) {
                                continue;
                            }
                            if let Ok(node) = plan.node(rdd) {
                                for dep in &node.deps {
                                    *refs.entry(dep.parent()).or_insert(0) += 1;
                                }
                            }
                        }
                    }
                    let job_max =
                        jp.stages.iter().flat_map(|s| s.rdds.iter()).map(|r| r.raw()).max();
                    max_seen = max_seen.max(job_max);
                }
                *refs.entry(target).or_insert(0) += 1;
                per_job.push(refs);
            }
            Self { per_job }
        }

        pub(super) fn extend_induced(&mut self, pattern: IterationPattern, extra: usize) {
            let Some(last) = self.per_job.last().cloned() else { return };
            let periodic_base = last
                .keys()
                .map(|r| r.raw())
                .max()
                .map(|m| m.saturating_sub(pattern.stride))
                .unwrap_or(u32::MAX);
            for k in 1..=extra {
                let shifted: FxHashMap<RddId, u32> = last
                    .iter()
                    .map(|(rdd, &c)| {
                        if rdd.raw() > periodic_base {
                            (RddId(rdd.raw() + pattern.stride * k as u32), c)
                        } else {
                            (*rdd, c)
                        }
                    })
                    .collect();
                self.per_job.push(shifted);
            }
        }

        pub(super) fn refs_in_job(&self, rdd: RddId, job_idx: usize) -> u32 {
            self.per_job.get(job_idx).and_then(|m| m.get(&rdd)).copied().unwrap_or(0)
        }

        pub(super) fn future_refs(&self, rdd: RddId, from: usize) -> u32 {
            self.per_job.iter().skip(from).map(|m| m.get(&rdd).copied().unwrap_or(0)).sum()
        }

        pub(super) fn refs_in_window(&self, rdd: RddId, from: usize, len: usize) -> u32 {
            self.per_job
                .iter()
                .skip(from)
                .take(len)
                .map(|m| m.get(&rdd).copied().unwrap_or(0))
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::detect;
    use blaze_dataflow::{runner::LocalRunner, Context, Dataset};
    use proptest::prelude::*;

    /// A PageRank-shaped iterative plan: ranks_{i+1} = f(join(ranks_i, links)).
    fn iterative_plan(iters: usize) -> (Context, Vec<RddId>, RddId, Vec<RddId>) {
        let ctx = Context::new(LocalRunner::new());
        let links: Dataset<(u64, Vec<u64>)> = ctx
            .parallelize((0..20u64).map(|i| (i, vec![(i + 1) % 20])).collect::<Vec<_>>(), 2)
            .partition_by(2);
        let mut ranks: Dataset<(u64, f64)> = links.map_values(|_| 1.0).named("init_ranks");
        let mut targets = Vec::new();
        let mut rank_ids = vec![ranks.id()];
        for _ in 0..iters {
            let contribs = links.join(&ranks, 2).flat_map(|(_, (dests, r))| {
                let share = r / dests.len() as f64;
                dests.iter().map(move |&d| (d, share)).collect::<Vec<_>>()
            });
            ranks = contribs.reduce_by_key(2, |a, b| a + b).map_values(|s| 0.15 + 0.85 * s);
            targets.push(ranks.id());
            rank_ids.push(ranks.id());
        }
        (ctx, targets, links.id(), rank_ids)
    }

    #[test]
    fn links_are_referenced_every_iteration() {
        let (ctx, targets, links, _ranks) = iterative_plan(4);
        let plan = ctx.plan().read();
        let refs = JobRefs::build(&plan, &targets);
        assert_eq!(refs.num_jobs(), 4);
        // The links dataset is joined in every iteration.
        for j in 0..4 {
            assert!(refs.refs_in_job(links, j) >= 1, "links unreferenced in job {j}");
        }
        assert_eq!(
            refs.future_refs(links, 0),
            (0..4).map(|j| refs.refs_in_job(links, j)).sum::<u32>()
        );
        assert!(refs.future_refs(links, 3) < refs.future_refs(links, 0));
    }

    #[test]
    fn ranks_are_referenced_by_the_next_iteration_only() {
        let (ctx, targets, _links, rank_ids) = iterative_plan(4);
        let plan = ctx.plan().read();
        let refs = JobRefs::build(&plan, &targets);
        // ranks_1 (output of job 0) is referenced by job 1, not job 3.
        let r1 = rank_ids[1];
        assert!(refs.refs_in_job(r1, 1) >= 1);
        assert_eq!(refs.refs_in_job(r1, 3), 0);
        // After job 1 has run, ranks_1 has no future references.
        assert_eq!(refs.future_refs(r1, 2), 0);
    }

    #[test]
    fn repeated_stages_are_not_double_counted() {
        let (ctx, targets, links, _ranks) = iterative_plan(4);
        let plan = ctx.plan().read();
        let refs = JobRefs::build(&plan, &targets);
        // Job 2's lineage contains all of job 1's RDDs, but only *new* RDDs
        // count, so per-job references stay bounded (no quadratic growth).
        let j1 = refs.refs_in_job(links, 1);
        let j3 = refs.refs_in_job(links, 3);
        assert_eq!(j1, j3, "per-iteration references must be constant");
    }

    #[test]
    fn induced_refs_shift_by_stride() {
        let (ctx, targets, links, _ranks) = iterative_plan(4);
        let plan = ctx.plan().read();
        let mut refs = JobRefs::build(&plan, &targets);
        let pattern = detect(&targets).unwrap();
        let before = refs.num_jobs();
        refs.extend_induced(pattern, 2);
        assert_eq!(refs.num_jobs(), before + 2);
        // Stable datasets keep their id: links stays referenced in induced
        // jobs too.
        assert!(refs.refs_in_job(links, before) >= 1);
        // The induced jobs reference the *future* congruent rank datasets.
        let future_rank = RddId(targets[3].raw() + pattern.stride);
        assert!(refs.future_refs(future_rank, before) >= 1);
    }

    #[test]
    fn window_counts_are_bounded_by_totals() {
        let (ctx, targets, links, _ranks) = iterative_plan(4);
        let plan = ctx.plan().read();
        let refs = JobRefs::build(&plan, &targets);
        assert!(refs.refs_in_window(links, 1, 2) <= refs.future_refs(links, 1));
    }

    /// A random DAG of maps, shuffles and zips (a zip may name one parent
    /// twice, so one job can hold several references to the same RDD).
    fn random_plan(ctx: &Context, shape: &[u8]) -> Vec<RddId> {
        let mut sets: Vec<Dataset<u64>> = vec![ctx.parallelize((0..16u64).collect::<Vec<_>>(), 2)];
        for &b in shape {
            let src = &sets[b as usize % sets.len()];
            let next = match b % 4 {
                0 => src.map(|x| x + 1),
                1 => src.map(|x| (x % 4, *x)).reduce_by_key(2, |a, v| a + v).map(|(k, v)| k ^ v),
                2 => src.zip_partitions(&sets[b as usize / 4 % sets.len()], |l, _r| l.to_vec()),
                _ => src.map(|x| x + 1).map(|x| x + 1),
            };
            sets.push(next);
        }
        sets.iter().map(|d| d.id()).collect()
    }

    /// One step of a [`JobRefs`]'s life: a build, or an induced tail
    /// appended to whatever it holds (an induce may follow an induce).
    #[derive(Debug, Clone)]
    enum Op {
        /// Build from the first `n` targets.
        Build(usize),
        Induce {
            stride: u32,
            horizon: usize,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..10).prop_map(Op::Build),
            (1u32..6, 0usize..5).prop_map(|(stride, horizon)| Op::Induce { stride, horizon }),
        ]
    }

    /// Every query the postings can answer, against the per-job scan.
    fn assert_matches_scan(refs: &JobRefs, rdds: u32) -> Result<(), TestCaseError> {
        // `from` and the window run past the last job on purpose.
        for rdd in (0..rdds).map(RddId) {
            for from in 0..refs.num_jobs() + 3 {
                let scan = &refs.scan;
                prop_assert_eq!(
                    refs.refs_in_range(rdd, from, from + 1),
                    scan.refs_in_job(rdd, from)
                );
                prop_assert_eq!(
                    refs.refs_in_range(rdd, from, usize::MAX),
                    scan.future_refs(rdd, from)
                );
                for len in 0..4 {
                    prop_assert_eq!(
                        refs.refs_in_range(rdd, from, from + len),
                        scan.refs_in_window(rdd, from, len)
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Under any interleaving of builds and inductions the per-RDD
        /// postings answer every query as the per-job scan does.
        #[test]
        fn postings_answer_as_the_per_job_scan(
            shape in prop::collection::vec(0u8..255, 1..10),
            target_picks in prop::collection::vec(0usize..1_000, 1..10),
            ops in prop::collection::vec(op_strategy(), 1..12),
        ) {
            let ctx = Context::new(LocalRunner::new());
            let rdds = random_plan(&ctx, &shape);
            let targets: Vec<RddId> = target_picks.iter().map(|&t| rdds[t % rdds.len()]).collect();
            let plan = ctx.plan().read();
            // Induced ids run past the plan by at most stride x horizon per op.
            let id_space = (plan.len() + ops.len() * 5 * 4 + 2) as u32;

            let mut refs = JobRefs::default();
            for op in &ops {
                match *op {
                    Op::Build(n) => refs = JobRefs::build(&plan, &targets[..n.min(targets.len())]),
                    Op::Induce { stride, horizon } => refs
                        .extend_induced(IterationPattern { stride, first_periodic_job: 0 }, horizon),
                }
                assert_matches_scan(&refs, id_space)?;
            }
        }
    }
}
