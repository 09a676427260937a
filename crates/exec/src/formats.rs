//! The one `InputFormat` implementation the experiments compare three
//! systems through — standard Hadoop text, Hadoop++'s trojan-indexed
//! row layout, and HAIL's per-replica-indexed PAX — routed through the
//! cost-based [`QueryPlanner`]. Which system a format instance serves
//! is read off its dataset ([`Dataset::format`]); it is not a second
//! argument.
//!
//! Splitting consumes a [`crate::planner::QueryPlan`] (the scheduler
//! follows the plan's locations; it never re-derives replica choices),
//! and every block read goes through
//! [`QueryPlanner::execute_block`] → `AccessPath::execute`.

use crate::executor::{ExecutorConfig, ExecutorContext, JobPool, JobPoolConfig, SplitLease};
use crate::planner::{PlannerConfig, QueryPlanner};
use crate::splitting::{default_splits, plan_default_splits, plan_hail_splits};
use hail_core::baselines::hadoop_plus_plus::trojan_header_bytes;
use hail_core::{Dataset, DatasetFormat, HailQuery};
use hail_dfs::DfsCluster;
use hail_mr::{InputFormat, InputSplit, SplitContext, SplitPlan, SplitRead, SplitTask, TaskStats};
use hail_types::{BlockId, Result};
use std::sync::Arc;
use std::time::Instant;

/// The planner-backed input format for all three systems.
///
/// Only [`InputFormat::splits`] and [`InputFormat::name`] differ per
/// system (`dataset.format`): Hadoop cuts per-block splits; Hadoop++
/// does too, but its JobClient first reads every block's trojan-index
/// header (the cost HAIL avoids, §6.4.1); HAIL runs the planner-driven
/// `HailSplitting`. Reading and estimating are the same code for all —
/// the planner picks the scan layout and the candidate access paths
/// from the dataset format.
pub struct PlannedInputFormat {
    pub dataset: Dataset,
    pub query: HailQuery,
    /// `HailSplitting` on HAIL datasets: false reproduces the paper's
    /// §6.4 configuration (per-replica indexes but default Hadoop
    /// splitting), true §6.5. The baselines always split per block.
    pub splitting: bool,
    /// Map slots per TaskTracker, used by `HailSplitting`.
    pub map_slots: usize,
    /// Planner knobs: cost model, selectivity estimates, plan cache and
    /// feedback store.
    pub planner: PlannerConfig,
    /// Parallel-executor knobs for fanning a split's block reads across
    /// workers; default serial unless `HAIL_PARALLELISM` overrides.
    pub executor: ExecutorConfig,
    /// A [`JobPool`] shared with other concurrently running jobs (see
    /// [`shared_job_pool`]). `None` — the solo default — builds a
    /// private pool per batch read.
    pub shared_pool: Option<Arc<JobPool>>,
}

impl PlannedInputFormat {
    pub fn new(dataset: Dataset, query: HailQuery) -> Self {
        PlannedInputFormat {
            dataset,
            query,
            splitting: true,
            map_slots: 2,
            planner: PlannerConfig::default(),
            executor: ExecutorConfig::default(),
            shared_pool: None,
        }
    }

    /// Disables `HailSplitting` (the §6.4 configuration).
    pub fn without_splitting(mut self) -> Self {
        self.splitting = false;
        self
    }

    /// Overrides the planner configuration.
    pub fn with_planner(mut self, config: PlannerConfig) -> Self {
        self.planner = config;
        self
    }

    /// Overrides the executor configuration.
    pub fn with_executor(mut self, config: ExecutorConfig) -> Self {
        self.executor = config;
        self
    }

    /// Routes this format's batch reads through a cluster-wide shared
    /// [`JobPool`] instead of a private per-batch one.
    pub fn with_shared_pool(mut self, pool: Arc<JobPool>) -> Self {
        self.shared_pool = Some(pool);
        self
    }

    fn query_planner<'a>(&self, cluster: &'a DfsCluster) -> QueryPlanner<'a> {
        QueryPlanner::with_config(cluster, self.planner.clone())
    }

    /// HAIL computes splits from the namenode's main-memory `Dir_rep` —
    /// no block header reads, so `client_cost` stays zero (§6.4.1).
    fn planned_splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
        let planner = self.query_planner(cluster);
        if self.splitting && !self.query.filter_columns().is_empty() {
            let plan = planner.plan_lenient(self.dataset.format, input, &self.query)?;
            Ok(plan_hail_splits(&plan, self.map_slots))
        } else if self.query.filter_columns().is_empty()
            && self.planner.bad_record_tokens.is_empty()
        {
            // Pure scan queries keep Hadoop's splitting and failover
            // granularity.
            default_splits(cluster, input)
        } else {
            // Default (per-block) splitting, but still scheduling toward
            // the replica the plan chose.
            let plan = planner.plan_lenient(self.dataset.format, input, &self.query)?;
            Ok(plan_default_splits(&plan))
        }
    }

    /// Reads one split: plan its blocks against the *current* cluster
    /// state and execute each block's chosen access path, buffering the
    /// records and timing the whole read.
    ///
    /// Planning is deterministic, so this reproduces the split-time plan
    /// on a healthy cluster; after a mid-job failure it transparently
    /// re-plans around dead replicas (HAIL's failover story).
    ///
    /// With more than one worker in `context`, the split's independent
    /// block reads fan out across its pool — every worker sharing the
    /// same `Sync` planner handle and the same `AccessPath::execute`
    /// seam — and the per-block results are merged **in split order**,
    /// so records, statistics, and simulated costs are bit-for-bit
    /// identical to the serial read.
    ///
    /// Plan-cache hits and misses incurred by this split are recorded
    /// into its [`TaskStats`]. The per-block selectivities the access
    /// paths observed are *not* absorbed into the feedback store here:
    /// [`InputFormat::read_split_batch`] absorbs every split's
    /// observations **in batch order after the barrier**, so the
    /// store's decayed state is identical at any job-level parallelism.
    fn read_split_unabsorbed(
        &self,
        cluster: &DfsCluster,
        context: &ExecutorContext,
        task: &SplitTask<'_>,
    ) -> Result<SplitRead> {
        let wall = Instant::now();
        let (split, task_node) = (task.split, task.ctx.task_node);
        let (dataset, query) = (&self.dataset, &self.query);
        let planner = self.query_planner(cluster);
        let plan = planner.plan(dataset.format, &split.blocks, query)?;
        let mut stats = TaskStats::default();
        // Attribute cache effectiveness from this plan's own blocks (not a
        // diff of the shared cache's global counters, which would misassign
        // other tasks' lookups once splits execute concurrently).
        if self.planner.plan_cache.is_some() {
            stats.plan_cache_hits = plan.blocks.iter().filter(|b| b.cached).count() as u64;
            stats.plan_cache_misses = plan.blocks.len() as u64 - stats.plan_cache_hits;
        }
        let scan_share = context.scan_share().map(Arc::as_ref);
        let mut records = Vec::new();
        if context.workers_for(split.blocks.len()) <= 1 && !context.has_shared_gate() {
            // Serial: every block appends straight to the split's
            // buffer, no per-block staging.
            for &block in &split.blocks {
                let block_stats = planner.execute_block_shared(
                    &plan,
                    block,
                    task_node,
                    &dataset.schema,
                    query,
                    scan_share,
                    &mut |rec| records.push(rec),
                )?;
                stats.merge(&block_stats);
            }
        } else {
            let per_block = context.run(
                split.blocks.len(),
                // Per-node slot gating keys on the node the read will
                // actually hit — the planner's locality resolution, not the
                // raw planned replica. (A mid-split failover re-plan inside
                // `execute_block` can still move a read afterwards; the
                // gate is a bound on the planned physical layout, not a
                // transactional reservation.)
                |i| {
                    plan.block_plan(split.blocks[i])
                        .map(|bp| planner.resolve_host(bp, task_node))
                },
                |i| {
                    let mut block_records = Vec::new();
                    let block_stats = planner.execute_block_shared(
                        &plan,
                        split.blocks[i],
                        task_node,
                        &dataset.schema,
                        query,
                        scan_share,
                        &mut |rec| block_records.push(rec),
                    )?;
                    Ok((block_stats, block_records))
                },
            )?;
            // Deterministic merge: split order, not completion order.
            for (block_stats, block_records) in per_block {
                stats.merge(&block_stats);
                records.extend(block_records);
            }
        }
        Ok(SplitRead {
            records,
            stats,
            reader_wall_seconds: wall.elapsed().as_secs_f64(),
        })
    }
}

impl InputFormat for PlannedInputFormat {
    fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
        match self.dataset.format {
            DatasetFormat::HadoopText => default_splits(cluster, input),
            DatasetFormat::HadoopPlusPlus => {
                let mut plan = default_splits(cluster, input)?;
                // The JobClient fetches each block's header (trojan index
                // directory) before it can build splits.
                for &b in input {
                    let header = trojan_header_bytes(cluster, b)?;
                    plan.client_cost.seeks += 1;
                    plan.client_cost.disk_read += header as u64;
                }
                Ok(plan)
            }
            DatasetFormat::HailPax => self.planned_splits(cluster, input),
        }
    }

    /// The execution phase of [`hail_mr::run_map_job`].
    ///
    /// Whole splits fan out across a [`JobPool`] — per-worker deques with
    /// stealing — while each split's block reads still fan out across an
    /// intra-split [`ExecutorContext`] whose width is *claimed* from the
    /// pool's global [`crate::executor::ParallelismBudget`]: the budget is
    /// the larger of the job-level worker count and the widest intra-split
    /// configuration, so `HAIL_PARALLELISM` / `HAIL_JOB_PARALLELISM` bound
    /// total threads rather than threads per layer. A per-node slot cap
    /// ([`ExecutorConfig::per_node_slots`]) becomes one **job-wide**
    /// [`crate::executor::NodeGate`] shared by every split.
    ///
    /// Determinism: results return in batch order; the error of the
    /// lowest-indexed failing split wins; and selectivity feedback is
    /// absorbed in batch order *after* all reads complete (the barrier) —
    /// at job parallelism 1 and for a batch of one too, so the post-job
    /// feedback state is bit-for-bit identical at any overlap. Splits
    /// cover disjoint blocks, so concurrent plan-cache use stays
    /// per-split deterministic as well.
    ///
    /// With a `shared_pool`, every batch (even a single-split one) routes
    /// through that cluster-wide pool via [`JobPool::run_capped`]: the
    /// job's own `job_parallelism` caps its fan-out, the pool's budget
    /// squeezes simultaneous jobs down to the global thread total, and
    /// the pool's [`crate::executor::NodeGate`] bounds concurrent reads
    /// per node across *all* jobs. Results stay bit-for-bit identical to
    /// the private-pool (and sequential) paths.
    fn read_split_batch(
        &self,
        cluster: &DfsCluster,
        batch: &[SplitTask<'_>],
        job_parallelism: Option<usize>,
    ) -> Result<Vec<SplitRead>> {
        let job_workers = job_parallelism
            .unwrap_or_else(hail_core::knobs::job_parallelism)
            .max(1);
        let intra: Vec<ExecutorConfig> = batch
            .iter()
            .map(|t| executor_for(&self.executor, &t.ctx))
            .collect();
        let run_split = |i: usize, lease: &SplitLease<'_>| -> Result<SplitRead> {
            // Claim intra-split workers from whatever the global
            // budget has free right now; the claim frees when the
            // split finishes, so the job tail widens automatically.
            let claim = lease.claim_intra(intra[i].parallelism.max(1));
            let context = ExecutorContext::new(ExecutorConfig {
                parallelism: claim.workers(),
                per_node_slots: None,
            })
            .with_shared_gate(lease.shared_gate())
            .with_scan_share(lease.scan_share());
            self.read_split_unabsorbed(cluster, &context, &batch[i])
        };
        let reads = if let Some(pool) = &self.shared_pool {
            pool.run_capped(batch.len(), job_workers, run_split)?
        } else if job_workers <= 1 || batch.len() <= 1 {
            // Sequential split execution on this thread, each split
            // under its own intra-split executor.
            batch
                .iter()
                .zip(&intra)
                .map(|(task, exec)| {
                    self.read_split_unabsorbed(cluster, &ExecutorContext::new(exec.clone()), task)
                })
                .collect::<Result<Vec<_>>>()?
        } else {
            let widest_intra = intra
                .iter()
                .map(|c| c.parallelism.max(1))
                .max()
                .unwrap_or(1);
            let pool = JobPool::new(JobPoolConfig {
                workers: job_workers.min(batch.len()),
                budget: job_workers.max(widest_intra),
                per_node_slots: self.executor.per_node_slots,
            });
            pool.run(batch.len(), run_split)?
        };
        // The barrier: fold every split's observations into the feedback
        // store in batch (split) order — never completion order. Under
        // `defer_feedback` the store stays frozen through the whole job;
        // the managed-batch runner absorbs in job-submission order instead.
        if let Some(feedback) = &self.planner.feedback {
            if !self.planner.defer_feedback {
                for read in &reads {
                    feedback.absorb(&read.stats);
                }
            }
        }
        Ok(reads)
    }

    fn estimate_splits(&self, cluster: &DfsCluster, splits: &[InputSplit]) -> Option<Vec<f64>> {
        Some(
            self.query_planner(cluster)
                .estimate_splits(self.dataset.format, splits, &self.query),
        )
    }

    fn name(&self) -> &str {
        match self.dataset.format {
            DatasetFormat::HadoopText => "Hadoop",
            DatasetFormat::HadoopPlusPlus => "Hadoop++",
            DatasetFormat::HailPax => "HAIL",
        }
    }
}

/// The effective executor configuration for one split read: the
/// format's own knobs, with the scheduler's [`SplitContext`]
/// parallelism taking precedence when the job set one.
fn executor_for(format_config: &ExecutorConfig, ctx: &SplitContext) -> ExecutorConfig {
    let mut config = format_config.clone();
    if let Some(parallelism) = ctx.parallelism {
        config.parallelism = parallelism.max(1);
    }
    config
}

/// One cluster-wide [`JobPool`] for serving up to `max_jobs` jobs at
/// once — the shared pool a `JobManager` deployment plumbs into every
/// job's format via `with_shared_pool`.
///
/// Sized so each of `max_jobs` concurrent jobs can claim the same
/// fan-out a solo run would build privately: split-level workers from
/// the `HAIL_JOB_PARALLELISM` knob and a thread budget covering the
/// widest intra-split configuration, both multiplied by `max_jobs`.
/// The per-node slot cap is **not** multiplied: it becomes one gate
/// bounding concurrent reads per datanode across all jobs — the
/// cluster-wide resource the gate models is the node, not the job.
pub fn shared_job_pool(max_jobs: usize, executor: &ExecutorConfig) -> Arc<JobPool> {
    let max_jobs = max_jobs.max(1);
    let job_workers = hail_core::knobs::job_parallelism().max(1);
    // A pool serving concurrent jobs is exactly where overlapping block
    // decodes can be shared, so it carries the cross-job scan-share
    // registry (unless `HAIL_DISABLE_SCAN_SHARING` turns sharing off).
    let scan_share = hail_core::knobs::scan_sharing_enabled()
        .then(|| Arc::new(crate::sharing::ScanShareRegistry::new()));
    Arc::new(
        JobPool::new(JobPoolConfig {
            workers: job_workers * max_jobs,
            budget: job_workers.max(executor.parallelism.max(1)) * max_jobs,
            per_node_slots: executor.per_node_slots,
        })
        .with_scan_share(scan_share),
    )
}
