//! The `InputFormat` abstraction: how a job's input is cut into splits
//! and how batches of splits are read on workers.
//!
//! Hadoop's `InputFormat`/`RecordReader` UDFs are the paper's integration
//! point: HAIL ships its own input format + record reader and changes
//! nothing else in the engine (§4.3). The engine in this crate likewise
//! only sees this four-method trait; the Hadoop, Hadoop++ and HAIL
//! behaviours live in `hail-exec`'s one `PlannedInputFormat`, routed
//! through its cost-based `QueryPlanner` and `AccessPath`
//! implementations.

use crate::job::{MapRecord, TaskStats};
use hail_dfs::DfsCluster;
use hail_sim::CostLedger;
use hail_types::{BlockId, DatanodeId, HailError, Result};

/// A logical input split: one map task's input.
///
/// Default Hadoop splitting maps one split to one block; HAIL's
/// `HailSplitting` maps one split to *many* blocks colocated on one
/// datanode (§4.3), shrinking the task count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSplit {
    /// Blocks this split covers.
    pub blocks: Vec<BlockId>,
    /// Preferred nodes to schedule the task on (split locations).
    pub locations: Vec<DatanodeId>,
}

impl InputSplit {
    pub fn new(blocks: Vec<BlockId>, locations: Vec<DatanodeId>) -> Self {
        InputSplit { blocks, locations }
    }

    /// Single-block split (default Hadoop splitting).
    pub fn for_block(block: BlockId, locations: Vec<DatanodeId>) -> Self {
        InputSplit {
            blocks: vec![block],
            locations,
        }
    }
}

/// The split plan returned by an `InputFormat`: the splits plus the
/// physical cost the JobClient paid computing them (namenode lookups are
/// free main-memory operations; Hadoop++ additionally reads a block
/// header per block here).
#[derive(Debug, Clone, Default)]
pub struct SplitPlan {
    pub splits: Vec<InputSplit>,
    pub client_cost: CostLedger,
}

/// Execution context the scheduler hands a split read: where the map
/// task runs, and how much worker parallelism the engine grants the
/// read for fanning out independent block reads within the split.
///
/// This is the seam through which `run_map_job` drives the execution
/// layer's parallel executor without depending on it: the
/// planner-backed format in `hail-exec` honors `parallelism`; simple
/// formats ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitContext {
    /// The node the map task runs on; remote reads charge the network.
    pub task_node: DatanodeId,
    /// Worker threads the read may use for independent blocks of the
    /// split. `None` defers to the format's own executor
    /// configuration (which defaults to the `HAIL_PARALLELISM`
    /// environment override); `Some(1)` forces a serial read.
    pub parallelism: Option<usize>,
}

impl SplitContext {
    /// A read on `task_node` with the format's own parallelism policy.
    pub fn on(task_node: DatanodeId) -> Self {
        SplitContext {
            task_node,
            parallelism: None,
        }
    }

    /// Builder-style parallelism override.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = Some(parallelism.max(1));
        self
    }
}

/// One entry of a job-level batch read: an input split plus the
/// execution context the scheduler's assignment phase gave it.
#[derive(Debug, Clone)]
pub struct SplitTask<'a> {
    pub split: &'a InputSplit,
    pub ctx: SplitContext,
}

/// A fully buffered split read, as produced by
/// [`InputFormat::read_split_batch`]: the emitted records in emission
/// order, the task statistics, and the measured wall clock the read
/// took (telemetry only — never fed into simulated accounting).
#[derive(Debug)]
pub struct SplitRead {
    pub records: Vec<MapRecord>,
    pub stats: TaskStats,
    pub reader_wall_seconds: f64,
}

/// How a job's input is split and read. Implemented by the one
/// planner-backed format in `hail-exec`, which serves Hadoop, Hadoop++
/// and HAIL datasets alike.
///
/// Formats must be `Send + Sync`: a [`crate::manager::JobManager`]
/// runs concurrent jobs on worker threads, each holding a shared
/// reference to its job's format. All implementors are immutable
/// configuration over thread-safe infrastructure (the planner state
/// they touch is behind `RwLock`s), so the bounds cost nothing.
pub trait InputFormat: Send + Sync {
    /// Computes input splits for the given input blocks.
    fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan>;

    /// Reads a whole batch of splits — the scheduler's execution phase,
    /// and the only read entry point.
    ///
    /// Returns one [`SplitRead`] per task **in batch order**: the
    /// records the map task on `ctx.task_node` sees, in emission order,
    /// plus the task's physical statistics. `job_parallelism` is the
    /// job-level overlap budget (`None` defers to the format's own
    /// policy, which for the planner-backed format is the
    /// `HAIL_JOB_PARALLELISM` environment override). Formats without
    /// any overlap implement this with [`read_splits_sequentially`].
    ///
    /// Contract: on a **successful** batch, records, their order, every
    /// statistic, and any cross-query state the reads mutate (plan
    /// caches, selectivity feedback) must be bit-for-bit identical at
    /// every `job_parallelism` and every [`SplitContext::parallelism`]
    /// — overlap may only change the measured `reader_wall_seconds`.
    /// In particular, state folded per split (selectivity feedback)
    /// must be absorbed **in batch order after all reads complete**,
    /// never in completion order. On a failing batch only the returned
    /// error — the lowest-indexed failing task's — is guaranteed
    /// parallelism-independent: overlapped workers may have raced ahead
    /// of the failure and planned (and cached plans for) splits a
    /// sequential run would never have reached.
    fn read_split_batch(
        &self,
        cluster: &DfsCluster,
        batch: &[SplitTask<'_>],
        job_parallelism: Option<usize>,
    ) -> Result<Vec<SplitRead>>;

    /// Estimated record-reader seconds for each of a job's splits,
    /// positionally aligned with `splits` — the scheduler's assignment
    /// phase prices slot occupancy with this *before* any read happens,
    /// so node choices decouple from read results. One call covers the
    /// whole job so a format can derive query-level state (the
    /// canonical filter shape, feedback lookups) **once**. `None` (the
    /// default) or a result of the wrong length makes the scheduler
    /// fall back to a uniform block-count heuristic; the planner-backed
    /// format answers from memoized `BlockPlan`s. Must be cheap and
    /// must not perturb any cross-query state or counters.
    fn estimate_splits(&self, _cluster: &DfsCluster, _splits: &[InputSplit]) -> Option<Vec<f64>> {
        None
    }

    /// A short name for reports ("Hadoop", "Hadoop++", "HAIL").
    fn name(&self) -> &str;
}

/// [`InputFormat::read_split_batch`] for formats without job-level
/// overlap: runs `read_one` on each task in batch order, buffering what
/// it emits and timing it.
pub fn read_splits_sequentially(
    batch: &[SplitTask<'_>],
    mut read_one: impl FnMut(&SplitTask<'_>, &mut dyn FnMut(MapRecord)) -> Result<TaskStats>,
) -> Result<Vec<SplitRead>> {
    batch
        .iter()
        .map(|task| {
            let mut records = Vec::new();
            let wall = std::time::Instant::now();
            let stats = read_one(task, &mut |rec| records.push(rec))?;
            Ok(SplitRead {
                records,
                stats,
                reader_wall_seconds: wall.elapsed().as_secs_f64(),
            })
        })
        .collect()
}

/// Reads one split as a batch of one and replays its records to `emit`
/// — for callers outside the scheduler that want a single split's
/// records and statistics.
pub fn read_one_split(
    format: &dyn InputFormat,
    cluster: &DfsCluster,
    split: &InputSplit,
    ctx: SplitContext,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let read = format
        .read_split_batch(cluster, &[SplitTask { split, ctx }], None)?
        .pop()
        .ok_or_else(|| HailError::Job("batch read of one split returned no read".into()))?;
    read.records.into_iter().for_each(emit);
    Ok(read.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_constructors() {
        let s = InputSplit::for_block(7, vec![1, 2]);
        assert_eq!(s.blocks, vec![7]);
        let m = InputSplit::new(vec![1, 2, 3], vec![0]);
        assert_eq!(m.blocks.len(), 3);
        assert_eq!(m.locations, vec![0]);
    }

    #[test]
    fn default_split_plan_is_empty() {
        let p = SplitPlan::default();
        assert!(p.splits.is_empty());
        assert_eq!(p.client_cost.disk_read, 0);
    }

    #[test]
    fn split_context_builders() {
        let ctx = SplitContext::on(3);
        assert_eq!(ctx.task_node, 3);
        assert_eq!(ctx.parallelism, None);
        assert_eq!(ctx.with_parallelism(0).parallelism, Some(1));
        assert_eq!(SplitContext::on(0).with_parallelism(4).parallelism, Some(4));
    }
}
