//! The JobTracker: locality-aware wave scheduling of map tasks over a
//! pool of per-node map slots, with Hadoop's per-task scheduling
//! overhead.
//!
//! The overhead model is the crux of §6.4/§6.5: every map task pays
//! several seconds of scheduling/startup cost regardless of how little
//! it reads, so a job with 3,200 one-block tasks is dominated by the
//! framework even when each record reader finishes in milliseconds.
//! `HailSplitting` attacks exactly this term by collapsing the task
//! count.

use crate::input_format::{InputFormat, InputSplit, SplitPlan, SplitRead, SplitTask};
use crate::job::{JobReport, MapRecord, TaskReport, TaskStats};
use hail_dfs::DfsCluster;
use hail_sim::{ClusterSpec, CostLedger, HardwareProfile, ScaleFactor, SlotPool};
use hail_types::{BlockId, DatanodeId, HailError, Result, Row};
use std::time::Instant;

/// A map-only job: the input format yields records; `map` turns each
/// record into zero or more output rows (the paper's annotated map
/// functions mostly just emit what the reader hands them).
///
/// Jobs are `Send + Sync` ([`InputFormat`] is a `Send + Sync` trait and
/// the map function carries the same bounds), so the
/// [`crate::manager::JobManager`] can run several of them concurrently
/// on scoped threads. A job runs on one thread — it reads, maps and
/// prices its splits one at a time in split order — so the bounds buy
/// shareability, not reentrancy.
///
/// The map stays `Fn + Send + Sync` rather than `FnMut + Send`:
/// [`crate::manager::JobManager::run_batch`] shares `&[MapJob]` with
/// the workers of `hail_sync::run_pipelined`, which may run any job on
/// any of them, and an `FnMut` map would need the fan-out to hand each
/// worker an owned task, a second code path for one caller. So a map
/// that accumulates state needs a lock, as `run_map_reduce_job`'s does.
pub struct MapJob<'a> {
    pub name: String,
    pub input: Vec<BlockId>,
    pub format: &'a dyn InputFormat,
    /// The map function. It is handed each record by value, in split
    /// order, and appends the rows it emits to the job's output — so a
    /// map that emits the record's own row moves it there instead of
    /// cloning it. The vector holds the output of every earlier record:
    /// a map appends to it and touches nothing else.
    #[allow(clippy::type_complexity)]
    pub map: Box<dyn Fn(MapRecord, &mut Vec<Row>) + Send + Sync + 'a>,
}

impl<'a> MapJob<'a> {
    /// A job whose map function simply emits every (good) record the
    /// reader produces — the common case once HAIL has filtered and
    /// projected inside the record reader. Each good row is moved into
    /// the output, still a view of the batch its block read built; bad
    /// records are dropped.
    pub fn collecting(
        name: impl Into<String>,
        input: Vec<BlockId>,
        format: &'a dyn InputFormat,
    ) -> Self {
        MapJob {
            name: name.into(),
            input,
            format,
            map: Box::new(|rec, out| {
                if !rec.bad {
                    out.push(rec.row);
                }
            }),
        }
    }
}

/// Result of running a job: the collected map output plus the full
/// simulated-time report.
#[derive(Debug)]
pub struct JobRun {
    pub output: Vec<Row>,
    pub report: JobReport,
}

/// Per-node slot pools for the live nodes of a cluster.
#[derive(Clone)]
pub(crate) struct NodeSlots {
    pools: Vec<SlotPool>,
    live: Vec<bool>,
}

impl NodeSlots {
    pub(crate) fn new(cluster: &DfsCluster, slots_per_node: usize) -> Self {
        let live: Vec<bool> = (0..cluster.node_count())
            .map(|n| cluster.datanode(n).map(|d| d.is_alive()).unwrap_or(false))
            .collect();
        NodeSlots {
            pools: (0..cluster.node_count())
                .map(|_| SlotPool::new(slots_per_node))
                .collect(),
            live,
        }
    }

    /// Earliest-free time of a node's slots.
    fn node_free_at(&self, node: DatanodeId) -> f64 {
        let pool = &self.pools[node];
        pool.earliest_slot()
            .map(|s| pool.free_at(s))
            .unwrap_or(f64::INFINITY)
    }

    /// Picks the node to run a task preferring `locations` — Hadoop's
    /// data-locality rule, strictly: a task waits for a slot on a live
    /// preferred node, and runs anywhere only when none lives (a remote
    /// read). Among candidates the earliest-free node wins; ties break
    /// toward the *earliest* location in the split's list: input formats
    /// order locations by preference (HAIL puts the matching-index
    /// replica first, §4.3).
    pub(crate) fn choose_node(&self, locations: &[DatanodeId]) -> Option<DatanodeId> {
        let live = |n: &DatanodeId| self.live.get(*n).copied().unwrap_or(false);
        let earliest_free = |candidates: &mut dyn Iterator<Item = DatanodeId>| {
            let mut best: Option<(DatanodeId, f64)> = None;
            for n in candidates {
                let free = self.node_free_at(n);
                if best.is_none_or(|(_, bf)| free < bf) {
                    best = Some((n, free));
                }
            }
            best.map(|(n, _)| n)
        };
        earliest_free(&mut locations.iter().copied().filter(live))
            .or_else(|| earliest_free(&mut (0..self.pools.len()).filter(live)))
    }

    /// Assigns a task of `duration` to `node`, returning (start, end).
    pub(crate) fn assign(
        &mut self,
        node: DatanodeId,
        duration: f64,
        not_before: f64,
    ) -> (f64, f64) {
        let pool = &mut self.pools[node];
        let slot = pool.earliest_slot().expect("node has no slots");
        pool.assign(slot, duration, not_before)
    }

    /// Marks a node dead from `at` onward: all its slots become
    /// unavailable.
    pub(crate) fn kill_node(&mut self, node: DatanodeId) {
        self.live[node] = false;
        let pool = &mut self.pools[node];
        for s in 0..pool.len() {
            pool.kill(s);
        }
    }

    /// Latest end time across all live slots.
    pub(crate) fn makespan(&self) -> f64 {
        self.pools
            .iter()
            .zip(&self.live)
            .map(|(p, &alive)| {
                if alive {
                    p.makespan()
                } else {
                    // A dead pool's slots are pinned at infinity by
                    // `kill`; map it to 0.0 so the fold ignores it —
                    // its tasks were re-scheduled elsewhere, and the
                    // makespan must stay finite.
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    pub(crate) fn live_slot_count(&self) -> usize {
        self.pools
            .iter()
            .zip(&self.live)
            .filter(|(_, &alive)| alive)
            .map(|(p, _)| p.len())
            .sum()
    }
}

/// The logical block the assignment phase prices each split block as:
/// the paper's 64 MB HDFS block.
const LOGICAL_BLOCK: u64 = 64 * 1024 * 1024;

/// Estimated reader seconds for `splits`, one per split: a pipelined
/// full scan of one logical block per split block on
/// [`HardwareProfile::physical`], whatever the format or query. Uniform
/// per block, so relative slot-occupancy ordering — the only thing node
/// choice consumes — matches any uniform actual durations exactly, and
/// node choice depends on no planner state.
pub(crate) fn split_estimates(splits: &[InputSplit]) -> Vec<f64> {
    let ledger = CostLedger {
        disk_read: LOGICAL_BLOCK,
        scan_cpu: LOGICAL_BLOCK,
        seeks: 1,
        ..Default::default()
    };
    let block_seconds = ledger.pipelined_seconds(&HardwareProfile::physical(), ScaleFactor::unit());
    splits
        .iter()
        .map(|split| block_seconds * split.blocks.len() as f64)
        .collect()
}

/// Phase 1 of [`run_map_job`]: choose a node for **every** split up
/// front, before any read happens.
///
/// Runs the strict-locality [`NodeSlots::choose_node`] rule, but
/// prices slot occupancy with *estimates* ([`split_estimates`]) instead
/// of actual read results, so node choice never waits on a read. The
/// planning pools here are throwaway: the final simulated schedule is
/// built in phase 2 from actual per-split durations on these pre-chosen
/// nodes, so simulated time never observes the estimates.
pub(crate) fn assign_split_nodes(
    cluster: &DfsCluster,
    spec: &ClusterSpec,
    splits: &[InputSplit],
) -> Result<Vec<DatanodeId>> {
    let hw = &spec.profile;
    let mut planning = NodeSlots::new(cluster, hw.map_slots);
    let mut nodes = Vec::with_capacity(splits.len());
    let ests = split_estimates(splits);
    for (split, est) in splits.iter().zip(ests) {
        let node = planning
            .choose_node(&split.locations)
            .ok_or_else(|| HailError::Job("no live nodes to schedule on".into()))?;
        planning.assign(node, hw.task_overhead_s + est, 0.0);
        nodes.push(node);
    }
    Ok(nodes)
}

/// Reads one split through `format` on this thread and measures the
/// call: the wall clock a [`TaskReport`] carries is the engine's, never
/// the format's. Every read of [`run_map_job`] and of both failover
/// passes goes through it.
pub(crate) fn read_timed(
    cluster: &DfsCluster,
    format: &dyn InputFormat,
    task: &SplitTask<'_>,
) -> Result<(SplitRead, f64)> {
    let wall = Instant::now();
    let read = format.read_split(cluster, task)?;
    Ok((read, wall.elapsed().as_secs_f64()))
}

/// The shared accounting step for one completed split read: price the
/// task from its **actual** statistics, occupy a simulated slot on the
/// pre-chosen node, no earlier than `not_before`, and build the
/// [`TaskReport`] (not a rerun). Used by [`run_map_job`] and both
/// failover passes, so their pricing cannot silently diverge.
pub(crate) fn account_task(
    spec: &ClusterSpec,
    slots: &mut NodeSlots,
    split: usize,
    node: DatanodeId,
    not_before: f64,
    stats: TaskStats,
    reader_wall_seconds: f64,
) -> TaskReport {
    let hw = &spec.profile;
    let reader_seconds = stats.reader_seconds(hw, spec.scale);
    let duration = hw.task_overhead_s + reader_seconds;
    let (start, end) = slots.assign(node, duration, not_before);
    TaskReport {
        split,
        node,
        start,
        end,
        reader_seconds,
        reader_wall_seconds,
        rerun: false,
        stats,
    }
}

/// Runs a map-only job to completion without failures.
///
/// Functional semantics and simulated time come from the same run: every
/// split is actually read (real bytes, real filtering) while the slot
/// pools account for waves and scheduling overhead. It runs in two
/// phases:
///
/// 1. **Assignment** (`assign_split_nodes`): nodes are chosen for all
///    splits up front from block-count *estimates*, decoupling scheduling
///    from reading.
/// 2. **Execution**: on this thread, strictly in split order, each split
///    is read ([`InputFormat::read_split`]), its records are mapped, and
///    its task is priced from the *actual* read statistics into the
///    simulated `NodeSlots` schedule — all before the next split is read,
///    so the job holds at most one split's records.
///
/// A failing read ends the job with its error; no later split is read.
/// A profile without map slots fails it before any split is read.
/// Every output row and every `TaskReport`/`JobReport` field except the
/// measured `reader_wall_seconds` is deterministic.
pub fn run_map_job(cluster: &DfsCluster, spec: &ClusterSpec, job: &MapJob<'_>) -> Result<JobRun> {
    let plan = job.format.splits(cluster, &job.input)?;
    run_map_job_with_plan(cluster, spec, job, &plan)
}

/// [`run_map_job`] against an already-derived split plan — the seam the
/// failover path uses to run the baseline pass on the plan it
/// snapshotted, instead of deriving `splits()` a second time. The plan
/// must come from [`InputFormat::splits`] on the same cluster state;
/// nothing else about the run changes.
pub(crate) fn run_map_job_with_plan(
    cluster: &DfsCluster,
    spec: &ClusterSpec,
    job: &MapJob<'_>,
    plan: &SplitPlan,
) -> Result<JobRun> {
    let hw = &spec.profile;
    if hw.map_slots == 0 {
        return Err(HailError::Job(
            "the hardware profile has no map slots".into(),
        ));
    }
    if plan.splits.is_empty() && !job.input.is_empty() {
        return Err(HailError::Job("input has blocks but no splits".into()));
    }
    let split_phase_seconds = plan.client_cost.serial_seconds(hw, spec.scale);

    // Phase 1: assignment.
    let nodes = assign_split_nodes(cluster, spec, &plan.splits)?;

    // Phase 2: execution, one split at a time.
    let mut slots = NodeSlots::new(cluster, hw.map_slots);
    let mut output = Vec::new();
    let mut tasks = Vec::with_capacity(plan.splits.len());
    for (i, (split, &task_node)) in plan.splits.iter().zip(&nodes).enumerate() {
        let task = SplitTask {
            split,
            task_node,
            source: plan.source.as_ref(),
        };
        let (read, wall) = read_timed(cluster, job.format, &task)?;
        // The split's records go to the map function by value and in
        // order; it appends what it emits to the job output.
        output.reserve(read.records.len());
        for rec in read.records {
            (job.map)(rec, &mut output);
        }
        tasks.push(account_task(
            spec, &mut slots, i, task_node, 0.0, read.stats, wall,
        ));
    }

    let makespan = slots.makespan();
    let report = JobReport {
        job_name: job.name.clone(),
        startup_seconds: hw.job_startup_s,
        split_phase_seconds,
        split_count: plan.splits.len(),
        total_slots: slots.live_slot_count(),
        tasks,
        end_to_end_seconds: hw.job_startup_s + split_phase_seconds + makespan,
        queue_wait_seconds: 0.0,
    };
    Ok(JobRun { output, report })
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "a test-only map log, not an engine lock"
)]
mod tests {
    use super::*;
    use crate::input_format::{InputSplit, SplitPlan, SplitRead};
    use hail_sim::HardwareProfile;
    use hail_types::{StorageConfig, Value};
    use std::sync::Mutex;

    /// A toy input format: one split per block, each emitting one record,
    /// charging a fixed disk read.
    struct ToyFormat {
        bytes_per_block: u64,
    }

    impl InputFormat for ToyFormat {
        fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
            let live = cluster.live_nodes();
            Ok(SplitPlan {
                splits: input
                    .iter()
                    .map(|&b| InputSplit::for_block(b, vec![live[b as usize % live.len()]]))
                    .collect(),
                ..Default::default()
            })
        }

        fn read_split(&self, _cluster: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
            let mut stats = TaskStats {
                records: 1,
                ..Default::default()
            };
            stats.ledger.disk_read = self.bytes_per_block;
            Ok(SplitRead {
                records: vec![MapRecord::good(Row::new(vec![Value::Long(
                    task.split.blocks[0] as i64,
                )]))],
                stats,
            })
        }

        fn name(&self) -> &str {
            "toy"
        }
    }

    fn spec(nodes: usize) -> ClusterSpec {
        ClusterSpec::new(nodes, HardwareProfile::physical())
    }

    #[test]
    fn collects_output_and_schedules_waves() {
        let cluster = DfsCluster::new(2, StorageConfig::default());
        let fmt = ToyFormat {
            bytes_per_block: 95_000_000, // 1 s of disk read
        };
        // 8 blocks, 2 nodes × 2 slots = 4 parallel → 2 waves.
        let job = MapJob::collecting("test", (0..8).collect(), &fmt);
        let run = run_map_job(&cluster, &spec(2), &job).unwrap();
        assert_eq!(run.output.len(), 8);
        assert_eq!(run.report.task_count(), 8);
        let hw = HardwareProfile::physical();
        let per_task = hw.task_overhead_s + 1.0;
        let expected = hw.job_startup_s + 2.0 * per_task;
        assert!(
            (run.report.end_to_end_seconds - expected).abs() < 1e-6,
            "got {}, expected {expected}",
            run.report.end_to_end_seconds
        );
    }

    #[test]
    fn overhead_dominates_short_tasks() {
        let cluster = DfsCluster::new(2, StorageConfig::default());
        let fmt = ToyFormat {
            bytes_per_block: 1000, // ~10 µs of reading
        };
        let job = MapJob::collecting("short", (0..40).collect(), &fmt);
        let run = run_map_job(&cluster, &spec(2), &job).unwrap();
        let r = &run.report;
        // The paper's observation: T_ideal ≪ T_end-to-end for short tasks.
        assert!(r.ideal_seconds() < 0.01);
        assert!(r.overhead_seconds() > 0.9 * r.end_to_end_seconds);
    }

    #[test]
    fn locality_preferred() {
        let cluster = DfsCluster::new(4, StorageConfig::default());
        let fmt = ToyFormat {
            bytes_per_block: 1_000_000,
        };
        let job = MapJob::collecting("local", (0..4).collect(), &fmt);
        let run = run_map_job(&cluster, &spec(4), &job).unwrap();
        for t in &run.report.tasks {
            // ToyFormat puts block b on node b%4; locality should honor it.
            assert_eq!(t.node, t.split % 4);
        }
    }

    /// Strict locality: when every block prefers node 0 — a pathological
    /// hot spot — all 16 tasks queue on node 0's two slots, however long
    /// the other nodes sit idle.
    #[test]
    fn strict_locality_queues_a_hot_spot_on_its_node() {
        struct HotSpot;
        impl InputFormat for HotSpot {
            fn splits(&self, _c: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
                Ok(SplitPlan {
                    splits: input
                        .iter()
                        .map(|&b| InputSplit::for_block(b, vec![0]))
                        .collect(),
                    ..Default::default()
                })
            }
            fn read_split(&self, _c: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
                let mut stats = TaskStats {
                    records: 1,
                    ..Default::default()
                };
                stats.ledger.disk_read = 95_000_000; // 1 s
                Ok(SplitRead {
                    records: vec![MapRecord::good(Row::new(vec![Value::Long(
                        task.split.blocks[0] as i64,
                    )]))],
                    stats,
                })
            }
            fn name(&self) -> &str {
                "hotspot"
            }
        }

        let cluster = DfsCluster::new(4, StorageConfig::default());
        let job = MapJob::collecting("hot", (0..16).collect(), &HotSpot);
        let run = run_map_job(&cluster, &spec(4), &job).unwrap();
        assert!(run.report.tasks.iter().all(|t| t.node == 0));
    }

    /// Pins the documented `NodeSlots::makespan` behavior after a node
    /// death: the dead node's pool (whose slots `kill` pins at
    /// infinity) is mapped to 0.0 and ignored — the makespan is the
    /// finite maximum over the *live* pools only.
    #[test]
    fn makespan_ignores_dead_pools_and_stays_finite() {
        let cluster = DfsCluster::new(3, StorageConfig::default());
        let mut slots = NodeSlots::new(&cluster, 2);
        slots.assign(0, 10.0, 0.0);
        slots.assign(1, 4.0, 0.0);
        slots.assign(2, 7.0, 0.0);
        assert_eq!(slots.makespan(), 10.0);

        // Killing the busiest node removes its contribution entirely —
        // not infinity (its killed slots), not its old 10.0.
        slots.kill_node(0);
        assert!(slots.makespan().is_finite());
        assert_eq!(slots.makespan(), 7.0);
        assert_eq!(slots.live_slot_count(), 4);

        // Killing every node leaves an empty (zero) makespan.
        slots.kill_node(1);
        slots.kill_node(2);
        assert_eq!(slots.makespan(), 0.0);
    }

    #[test]
    fn empty_input_is_fine() {
        let cluster = DfsCluster::new(2, StorageConfig::default());
        let fmt = ToyFormat { bytes_per_block: 1 };
        let job = MapJob::collecting("empty", vec![], &fmt);
        let run = run_map_job(&cluster, &spec(2), &job).unwrap();
        assert!(run.output.is_empty());
        assert_eq!(run.report.task_count(), 0);
    }

    /// Zero to three records per block, `[block, k]`, every third of
    /// them bad; blocks live on `block % nodes` with every other live
    /// node as a fallback.
    struct RecordsFormat;

    impl RecordsFormat {
        fn records(block: BlockId) -> Vec<MapRecord> {
            (0..block % 4)
                .map(|k| {
                    if (block + k).is_multiple_of(3) {
                        MapRecord::bad(format!("{block}:{k}"))
                    } else {
                        MapRecord::good(Row::new(vec![
                            Value::Long(block as i64),
                            Value::Long(k as i64),
                        ]))
                    }
                })
                .collect()
        }
    }

    impl InputFormat for RecordsFormat {
        fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
            let live = cluster.live_nodes();
            Ok(SplitPlan {
                splits: input
                    .iter()
                    .map(|&b| {
                        let preferred = live[b as usize % live.len()];
                        let mut locations = vec![preferred];
                        locations.extend(live.iter().copied().filter(|&n| n != preferred));
                        InputSplit::for_block(b, locations)
                    })
                    .collect(),
                ..Default::default()
            })
        }

        fn read_split(&self, cluster: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
            let split = task.split;
            if split
                .locations
                .iter()
                .all(|&n| !cluster.datanode(n).map(|d| d.is_alive()).unwrap_or(false))
            {
                return Err(HailError::DeadDatanode(split.locations[0]));
            }
            let records = Self::records(split.blocks[0]);
            let mut stats = TaskStats {
                records: records.len() as u64,
                ..Default::default()
            };
            stats.ledger.disk_read = 95_000_000;
            Ok(SplitRead { records, stats })
        }

        fn name(&self) -> &str {
            "records"
        }
    }

    /// What a map does with each record it is handed.
    #[derive(Clone, Copy, Debug)]
    enum Emit {
        Nothing,
        Once,
        Twice,
        CountBad,
    }

    /// A job whose map logs every record it is handed, then emits by
    /// `emit`.
    fn logging_job<'a>(
        emit: Emit,
        log: &'a Mutex<Vec<MapRecord>>,
        bad: &'a std::sync::atomic::AtomicUsize,
    ) -> MapJob<'a> {
        MapJob {
            name: format!("{emit:?}"),
            input: (0..40).collect(),
            format: &RecordsFormat,
            map: Box::new(move |rec, out| {
                log.lock().unwrap().push(MapRecord {
                    row: rec.row.clone(),
                    bad: rec.bad,
                });
                match emit {
                    Emit::Nothing => {}
                    Emit::Once => out.push(rec.row),
                    Emit::Twice => {
                        out.push(rec.row.clone());
                        out.push(rec.row);
                    }
                    Emit::CountBad => {
                        if rec.bad {
                            bad.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            }),
        }
    }

    fn logged(records: &[MapRecord]) -> Vec<(bool, Row)> {
        records.iter().map(|r| (r.bad, r.row.clone())).collect()
    }

    /// A by-value map sees every record exactly once, in split order,
    /// whatever it emits; what it emits is the job's output, in that
    /// order. The failover path hands the map
    /// the baseline pass's records only: lost splits are re-read and
    /// priced, never mapped again.
    #[test]
    fn by_value_map_sees_every_record_once_in_split_order() {
        use crate::failover::{run_map_job_with_failure, FailureScenario};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let records: Vec<MapRecord> = (0..40).flat_map(RecordsFormat::records).collect();
        let in_order = logged(&records);
        let bad_records = records.iter().filter(|r| r.bad).count();
        assert!(bad_records > 0 && bad_records < records.len());
        for emit in [Emit::Nothing, Emit::Once, Emit::Twice, Emit::CountBad] {
            let want: Vec<Row> = match emit {
                Emit::Nothing | Emit::CountBad => vec![],
                Emit::Once => records.iter().map(|r| r.row.clone()).collect(),
                Emit::Twice => records
                    .iter()
                    .flat_map(|r| [r.row.clone(), r.row.clone()])
                    .collect(),
            };
            let at = format!("{emit:?}");
            let log = Mutex::new(Vec::new());
            let bad = AtomicUsize::new(0);
            let job = logging_job(emit, &log, &bad);
            let cluster = DfsCluster::new(4, StorageConfig::default());
            let run = run_map_job(&cluster, &spec(4), &job).unwrap();
            assert_eq!(logged(&log.lock().unwrap()), in_order, "{at}");
            assert_eq!(run.output, want, "{at}");
            let counted = if matches!(emit, Emit::CountBad) {
                bad_records
            } else {
                0
            };
            assert_eq!(bad.load(Ordering::Relaxed), counted, "{at}");

            let log = Mutex::new(Vec::new());
            let bad = AtomicUsize::new(0);
            let job = logging_job(emit, &log, &bad);
            let mut cluster = DfsCluster::new(4, StorageConfig::default());
            let failed =
                run_map_job_with_failure(&mut cluster, &spec(4), &job, FailureScenario::at_half(1))
                    .unwrap();
            let rerun_records: u64 = failed
                .with_failure
                .tasks
                .iter()
                .filter(|t| t.rerun)
                .map(|t| t.stats.records)
                .sum();
            assert!(failed.rerun_count > 0 && rerun_records > 0, "{at}");
            assert_eq!(
                logged(&log.lock().unwrap()),
                in_order,
                "{at}: baseline pass only"
            );
            assert_eq!(failed.output, want, "{at}: failover output");
        }
    }

    /// A profile without map slots cannot run a job: each entry point
    /// returns `HailError::Job` before any split is read, and failover
    /// kills no node.
    #[test]
    fn no_map_slots_fails_before_any_split_is_read() {
        use crate::failover::{run_map_job_with_failure, FailureScenario};
        use crate::manager::JobManager;
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// [`ToyFormat`], counting the reads it serves.
        struct Counting(AtomicUsize);

        impl InputFormat for Counting {
            fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
                ToyFormat { bytes_per_block: 1 }.splits(cluster, input)
            }

            fn read_split(&self, cluster: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
                self.0.fetch_add(1, Ordering::SeqCst);
                ToyFormat { bytes_per_block: 1 }.read_split(cluster, task)
            }

            fn name(&self) -> &str {
                "counting"
            }
        }

        let fmt = Counting(AtomicUsize::new(0));
        let job = MapJob::collecting("no-slots", (0..8).collect(), &fmt);
        let mut no_slots = spec(4);
        no_slots.profile.map_slots = 0;
        let mut cluster = DfsCluster::new(4, StorageConfig::default());
        fn is_job_error<T>(r: Result<T>) -> bool {
            matches!(r, Err(HailError::Job(_)))
        }

        assert!(is_job_error(run_map_job(&cluster, &no_slots, &job)));
        for run in JobManager::new(2).run_batch(&cluster, &no_slots, std::slice::from_ref(&job)) {
            assert!(is_job_error(run));
        }
        let failed =
            run_map_job_with_failure(&mut cluster, &no_slots, &job, FailureScenario::at_half(1));
        assert!(is_job_error(failed));
        assert!(!cluster.namenode().is_dead(1));
        assert_eq!(fmt.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn map_function_filters() {
        let cluster = DfsCluster::new(2, StorageConfig::default());
        let fmt = ToyFormat { bytes_per_block: 1 };
        let job = MapJob {
            name: "filter".into(),
            input: (0..10).collect(),
            format: &fmt,
            map: Box::new(|rec, out| {
                if let Some(Value::Long(v)) = rec.row.get(0) {
                    if v % 2 == 0 {
                        out.push(rec.row);
                    }
                }
            }),
        };
        let run = run_map_job(&cluster, &spec(2), &job).unwrap();
        assert_eq!(run.output.len(), 5);
    }

    /// Split `k`'s read fails: the job returns that error, every split
    /// below `k` was read and mapped, and no split above `k` is read.
    #[test]
    fn a_failing_split_ends_the_job_and_no_later_split_is_read() {
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

        /// One split per block; the read of block `k` fails. Counts the
        /// reads it serves and the highest block it was asked for.
        struct FailAt {
            k: BlockId,
            reads: AtomicUsize,
            highest: AtomicU64,
        }

        impl InputFormat for FailAt {
            fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
                ToyFormat { bytes_per_block: 1 }.splits(cluster, input)
            }

            fn read_split(&self, cluster: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
                let block = task.split.blocks[0];
                self.reads.fetch_add(1, Ordering::SeqCst);
                self.highest.fetch_max(block, Ordering::SeqCst);
                if block == self.k {
                    return Err(HailError::Job(format!("split {block}")));
                }
                ToyFormat { bytes_per_block: 1 }.read_split(cluster, task)
            }

            fn name(&self) -> &str {
                "fail-at"
            }
        }

        let cluster = DfsCluster::new(4, StorageConfig::default());
        for k in [0, 7, 39] {
            let fmt = FailAt {
                k,
                reads: AtomicUsize::new(0),
                highest: AtomicU64::new(0),
            };
            let mapped = AtomicUsize::new(0);
            let job = MapJob {
                name: "fails".into(),
                input: (0..40).collect(),
                format: &fmt,
                map: Box::new(|rec, out| {
                    mapped.fetch_add(1, Ordering::SeqCst);
                    out.push(rec.row);
                }),
            };
            let err = run_map_job(&cluster, &spec(4), &job).unwrap_err();
            assert_eq!(
                err.to_string(),
                HailError::Job(format!("split {k}")).to_string()
            );
            assert_eq!(fmt.reads.load(Ordering::SeqCst), k as usize + 1, "k = {k}");
            assert_eq!(fmt.highest.load(Ordering::SeqCst), k, "k = {k}");
            assert_eq!(mapped.load(Ordering::SeqCst), k as usize, "k = {k}");
        }
    }
}
