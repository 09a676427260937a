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
use std::any::Any;
use std::fmt;
use std::sync::Arc;

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
/// header per block here), and what the format cut them from.
#[derive(Debug, Clone, Default)]
pub struct SplitPlan {
    pub splits: Vec<InputSplit>,
    pub client_cost: CostLedger,
    /// The format's own record of what it cut these splits from, handed
    /// back with every split read of them ([`SplitTask::source`]). The
    /// planner-backed format stores the query plan it priced, so a split
    /// read need not plan its blocks a second time. `None` when the
    /// format keeps nothing.
    pub source: Option<SplitSource>,
}

/// An opaque, shareable record an input format attaches to its
/// [`SplitPlan`]. The engine only carries it from [`InputFormat::splits`]
/// to [`InputFormat::read_split_batch`]; only the format that made it
/// knows its type.
#[derive(Clone)]
pub struct SplitSource(Arc<dyn Any + Send + Sync>);

impl SplitSource {
    pub fn new(source: impl Any + Send + Sync) -> Self {
        SplitSource(Arc::new(source))
    }

    /// The record, if it is a `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref()
    }
}

impl fmt::Debug for SplitSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SplitSource(..)")
    }
}

/// One entry of a job-level batch read: an input split plus the node
/// the scheduler's assignment phase runs its map task on.
#[derive(Debug, Clone)]
pub struct SplitTask<'a> {
    pub split: &'a InputSplit,
    /// The node the map task runs on; remote reads charge the network.
    pub task_node: DatanodeId,
    /// The [`SplitPlan::source`] of a split plan the same format cut over
    /// the same input — the one `split` came from or, after a node death,
    /// the one cut on the degraded cluster — if any. A format must read a
    /// split the same way with or without it.
    pub source: Option<&'a SplitSource>,
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
    /// Each task carries the [`SplitPlan::source`] of the plan its split
    /// came from, when the engine has it. Returns one [`SplitRead`] per
    /// task **in batch order**: the records the map task on `task_node`
    /// sees, in emission order, plus the task's physical statistics.
    /// `job_parallelism` is how
    /// many whole splits may be read at once (`None` defers to the
    /// format's own policy, which for the planner-backed format is the
    /// `HAIL_JOB_PARALLELISM` environment override). Formats without
    /// any overlap implement this with [`read_splits_sequentially`].
    ///
    /// Contract: on a **successful** batch, records, their order, every
    /// statistic, and any cross-query state the reads mutate (plan
    /// caches, selectivity feedback) must be bit-for-bit identical at
    /// every `job_parallelism` — overlap may only change the measured
    /// `reader_wall_seconds`.
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
/// records and statistics. The read carries no [`SplitSource`], so the
/// format derives whatever it needs from the split alone.
pub fn read_one_split(
    format: &dyn InputFormat,
    cluster: &DfsCluster,
    split: &InputSplit,
    task_node: DatanodeId,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let task = SplitTask {
        split,
        task_node,
        source: None,
    };
    let read = format
        .read_split_batch(cluster, &[task], None)?
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
}
