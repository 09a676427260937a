//! The one `InputFormat` implementation the experiments compare three
//! systems through — standard Hadoop text, Hadoop++'s trojan-indexed
//! row layout, and HAIL's per-replica-indexed PAX — routed through the
//! cost-based [`QueryPlanner`]. Which system a format instance serves
//! is read off its dataset ([`Dataset::format`]); it is not a second
//! argument.
//!
//! Splitting consumes a [`crate::planner::QueryPlan`] (the scheduler
//! follows the plan's locations; it never re-derives replica choices),
//! the split reads execute that same plan while it still holds — a job
//! plans each block once — and every block read goes through
//! [`QueryPlanner::execute_block`] → [`crate::AccessPath::execute`].

use crate::planner::{PlannerConfig, QueryPlan, QueryPlanner};
use crate::splitting::{default_splits, plan_default_splits, plan_hail_splits};
use hail_core::baselines::hadoop_plus_plus::trojan_header_bytes;
use hail_core::{Dataset, DatasetFormat, HailQuery};
use hail_dfs::DfsCluster;
use hail_mr::{InputFormat, SplitPlan, SplitRead, SplitSource, SplitTask, TaskStats};
use hail_types::{BlockId, Result};

/// The planner-backed input format for all three systems.
///
/// Only [`InputFormat::splits`] and [`InputFormat::name`] differ per
/// system (`dataset.format`): Hadoop cuts per-block splits; Hadoop++
/// does too, but its JobClient first reads every block's trojan-index
/// header (the cost HAIL avoids, §6.4.1); HAIL runs the planner-driven
/// `HailSplitting`. Reading is the same code for all — the planner
/// picks the scan layout and the candidate access paths from the
/// dataset format.
pub struct PlannedInputFormat {
    pub dataset: Dataset,
    pub query: HailQuery,
    /// `HailSplitting` on HAIL datasets: false reproduces the paper's
    /// §6.4 configuration (per-replica indexes but default Hadoop
    /// splitting), true §6.5. The baselines always split per block.
    pub splitting: bool,
    /// Map slots per TaskTracker, used by `HailSplitting`.
    pub map_slots: usize,
    /// Planner knobs: selectivity estimates and the query shape.
    pub planner: PlannerConfig,
}

impl PlannedInputFormat {
    pub fn new(dataset: Dataset, query: HailQuery) -> Self {
        PlannedInputFormat {
            dataset,
            query,
            splitting: true,
            map_slots: 2,
            planner: PlannerConfig::default(),
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

    fn query_planner<'a>(&self, cluster: &'a DfsCluster) -> QueryPlanner<'a> {
        QueryPlanner::with_config(cluster, self.planner.clone())
    }

    /// HAIL computes splits from the namenode's main-memory `Dir_rep` —
    /// no block header reads, so `client_cost` stays zero (§6.4.1). A
    /// planned split plan carries the [`QueryPlan`] it was cut from as
    /// its [`SplitPlan::source`], for the split reads to execute.
    fn planned_splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
        let filtered = !self.query.filter_columns().is_empty();
        if !filtered {
            // Pure scan queries keep Hadoop's splitting and failover
            // granularity.
            return default_splits(cluster, input);
        }
        let plan = self
            .query_planner(cluster)
            .plan(self.dataset.format, input, &self.query)?;
        let mut splits = if self.splitting {
            plan_hail_splits(&plan, self.map_slots)
        } else {
            // Default (per-block) splitting, but still scheduling toward
            // the replica the plan chose.
            plan_default_splits(&plan)
        };
        splits.source = Some(SplitSource::new(plan));
        Ok(splits)
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

    /// Reads one split: executes each block's chosen access path in block
    /// order on this thread, buffering the records.
    ///
    /// A block's plan is the one its splits were cut from (the task's
    /// [`QueryPlan`] source) while that plan's design epoch holds;
    /// otherwise the block is planned now, against the *current* cluster
    /// state — after a mid-job death or a design change (HAIL's failover
    /// story: it re-plans around dead replicas), for a block the
    /// split-time pass degraded, and for a split read without a source.
    /// Planning is deterministic in what the stamp records, so both give
    /// the plan that planning the split afresh would. The blocks planned
    /// now are counted in [`TaskStats::blocks_replanned`].
    fn read_split(&self, cluster: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
        let (split, task_node) = (task.split, task.task_node);
        let (dataset, query) = (&self.dataset, &self.query);
        let planner = self.query_planner(cluster);
        let source = task
            .source
            .and_then(SplitSource::downcast_ref::<QueryPlan>)
            .filter(|plan| plan.holds(cluster));
        let reused = |block| source.is_some_and(|plan| plan.reusable(block));
        let replan: Vec<BlockId> = split
            .blocks
            .iter()
            .copied()
            .filter(|&b| !reused(b))
            .collect();
        let fresh = if replan.is_empty() {
            QueryPlan::empty(dataset.format)
        } else {
            planner.plan(dataset.format, &replan, query)?
        };
        let mut stats = TaskStats {
            blocks_replanned: replan.len() as u64,
            ..TaskStats::default()
        };
        let mut records = Vec::new();
        for &block in &split.blocks {
            let plan = match source.filter(|plan| plan.reusable(block)) {
                Some(plan) => plan,
                None => &fresh,
            };
            let block_stats = planner.execute_block_into(
                plan,
                block,
                task_node,
                &dataset.schema,
                query,
                &mut records,
            )?;
            stats.merge(&block_stats);
        }
        Ok(SplitRead { records, stats })
    }

    fn name(&self) -> &str {
        match self.dataset.format {
            DatasetFormat::HadoopText => "Hadoop",
            DatasetFormat::HadoopPlusPlus => "Hadoop++",
            DatasetFormat::HailPax => "HAIL",
        }
    }
}
