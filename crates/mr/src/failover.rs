//! Failover: node death during a running job, task re-execution, and
//! the slowdown metric of §6.4.3.
//!
//! Methodology mirrors the paper: pick a node, kill it after a given
//! fraction of work progress, wait out the expiry interval (30 s), and
//! re-schedule the lost tasks on surviving nodes. The slowdown is
//! `(T_f − T_b) / T_b × 100`.
//!
//! The interesting HAIL-specific behaviour happens inside the record
//! reader on re-execution: if the dead node held the only replica with a
//! matching index, the re-run falls back to scanning another replica
//! (HAIL); with the same index on all replicas (HAIL-1Idx) the re-run
//! still gets an index scan — exactly the Fig. 8 comparison.

use crate::input_format::{InputSplit, SplitTask};
use crate::job::{JobReport, TaskReport};
use crate::scheduler::{account_task, read_timed, run_map_job_with_plan, MapJob, NodeSlots};
use hail_dfs::DfsCluster;
use hail_sim::ClusterSpec;
use hail_types::{BlockId, DatanodeId, HailError, Result, Row};
use std::collections::BTreeMap;

pub use hail_dfs::EXPIRY_INTERVAL_S;

/// A split's block set in canonical (sorted) order — the identity
/// replayed splits are matched by across plan re-derivations.
fn sorted_blocks(split: &InputSplit) -> Vec<BlockId> {
    let mut blocks = split.blocks.clone();
    blocks.sort_unstable();
    blocks
}

/// A staged failure: kill `node` once the job has made `at_progress`
/// (0..1) of its no-failure runtime; lost tasks are re-scheduled after
/// `expiry_s`.
#[derive(Debug, Clone, Copy)]
pub struct FailureScenario {
    pub node: DatanodeId,
    pub at_progress: f64,
    pub expiry_s: f64,
}

impl FailureScenario {
    pub fn at_half(node: DatanodeId) -> Self {
        FailureScenario {
            node,
            at_progress: 0.5,
            expiry_s: EXPIRY_INTERVAL_S,
        }
    }
}

/// Outcome of a job run under failure.
#[derive(Debug)]
pub struct FailoverRun {
    /// Output rows (complete despite the failure).
    pub output: Vec<Row>,
    /// The failure-free report (baseline `T_b`).
    pub baseline: JobReport,
    /// The with-failure report (`T_f`), including re-executed tasks.
    pub with_failure: JobReport,
    /// Simulated instant the node died.
    pub failure_time: f64,
    /// Tasks that were lost and re-executed.
    pub rerun_count: usize,
}

impl FailoverRun {
    /// §6.4.3's slowdown: `(T_f − T_b) / T_b × 100`.
    pub fn slowdown_percent(&self) -> f64 {
        let tb = self.baseline.end_to_end_seconds;
        let tf = self.with_failure.end_to_end_seconds;
        (tf - tb) / tb * 100.0
    }
}

/// Runs a job with a mid-flight node failure.
///
/// The cluster is mutated (the node is killed) and *left dead* on
/// return, matching reality: callers that need the node back must revive
/// it explicitly.
pub fn run_map_job_with_failure(
    cluster: &mut DfsCluster,
    spec: &ClusterSpec,
    job: &MapJob<'_>,
    scenario: FailureScenario,
) -> Result<FailoverRun> {
    // Derive the split plan once, before the baseline run, and thread it
    // straight into that run: the replay below indexes baseline tasks by
    // split number, so it must read exactly the plan the baseline
    // executed, never a second `splits()` derivation.
    let baseline_plan = job.format.splits(cluster, &job.input)?;

    // Pass 1: failure-free baseline (functional output + T_b), executed
    // on the snapshotted plan.
    let baseline_run = run_map_job_with_plan(cluster, spec, job, &baseline_plan)?;
    let t_b = baseline_run.report.end_to_end_seconds;
    let failure_time = scenario.at_progress.clamp(0.0, 1.0) * t_b;
    let hw = &spec.profile;
    let pre_phase = hw.job_startup_s + baseline_run.report.split_phase_seconds;

    // Pass 2: replay the schedule with the failure injected.
    //
    // - Tasks on the dead node still running at (or scheduled after) the
    //   failure are *lost* and re-executed after the expiry interval.
    // - Tasks on live nodes that had not yet started at the failure see
    //   the degraded cluster: a read that would have used the dead
    //   node's replica now picks another one — possibly falling back
    //   from index scan to full scan (the HAIL vs HAIL-1Idx effect).
    // - Tasks that started before the failure keep their original reads
    //   at their original times.
    //
    // Every replayed or re-executed task reads the **baseline** split
    // plan snapshotted above, before pass 1 ran and before the node
    // dies. The split boundaries were fixed by the JobClient before the
    // failure; re-deriving them on the degraded cluster can shift them
    // (e.g. `HailSplitting` re-clusters blocks by serving node), and
    // indexing a shifted plan with baseline split indices would read
    // the wrong blocks — or die with "split vanished".
    let mut slots = NodeSlots::new(cluster, hw.map_slots);
    let mut final_tasks: Vec<TaskReport> = Vec::with_capacity(baseline_run.report.tasks.len());

    // Makespan-relative failure instant (schedules run after pre_phase).
    let failure_makespan_t = (failure_time - pre_phase).max(0.0);

    // Kill the node up front: every re-evaluated read below must see
    // dead replicas.
    cluster.kill_node(scenario.node)?;
    // Degraded re-plan, consulted to *freshen the locations* of lost
    // splits (the planner may now prefer surviving replicas) — matched by
    // block set, never by index, which the degraded plan does not
    // preserve. It covers every input block, so its source serves the
    // reads of both passes below, whichever plan their splits came from.
    let degraded_plan = job.format.splits(cluster, &job.input)?;
    let degraded_by_blocks: BTreeMap<Vec<BlockId>, &InputSplit> = degraded_plan
        .splits
        .iter()
        .map(|s| (sorted_blocks(s), s))
        .collect();
    let baseline_split = |idx: usize| -> Result<&InputSplit> {
        baseline_plan
            .splits
            .get(idx)
            .ok_or_else(|| HailError::Job(format!("split {idx} missing from the baseline plan")))
    };

    let is_lost = |t: &TaskReport| t.node == scenario.node && t.end > failure_makespan_t;
    let is_reevaluated = |t: &TaskReport| t.node != scenario.node && t.start >= failure_makespan_t;

    // Replay the baseline schedule in task order. Output was already
    // collected functionally in pass 1, so every read below is priced
    // and its records are dropped unmapped.
    let mut lost: Vec<usize> = Vec::new();
    for task in &baseline_run.report.tasks {
        if is_lost(task) {
            // Lost: either mid-run at the failure or scheduled after it.
            lost.push(task.split);
            continue;
        }
        if is_reevaluated(task) {
            // Not yet started at the failure: read again, on the node
            // the baseline assigned, against the degraded cluster.
            let reeval = SplitTask {
                split: baseline_split(task.split)?,
                task_node: task.node,
                source: degraded_plan.source.as_ref(),
            };
            let (read, wall) = read_timed(cluster, job.format, &reeval)?;
            // Causality clamp: this task had not started when the node
            // died, so its replay must not start before the failure
            // instant — even if a cheaper degraded read (e.g. a remote
            // read turned local) frees its slot earlier than the
            // baseline did.
            final_tasks.push(account_task(
                spec,
                &mut slots,
                task.split,
                task.node,
                failure_makespan_t,
                read.stats,
                wall,
            ));
            continue;
        }
        // Replay unchanged (read happened before the failure), pinned
        // at its baseline start: a pre-failure task must not drift
        // earlier just because the replay freed a slot sooner (e.g.
        // lost tasks dropping off the dead node's pool).
        let duration = task.end - task.start;
        let (start, end) = slots.assign(task.node, duration, task.start);
        final_tasks.push(TaskReport {
            start,
            end,
            ..task.clone()
        });
    }
    slots.kill_node(scenario.node);
    let resume_at = failure_makespan_t + scenario.expiry_s;

    // Lost tasks replay through the same two-phase schedule/execute
    // shape as `run_map_job`: choose every rerun's node up front from
    // the post-replay slot state (estimated durations on a throwaway
    // copy), then read each in order and price the real schedule from
    // its actual statistics, never before `resume_at`.
    let lost_splits: Vec<InputSplit> = lost
        .iter()
        .map(|&idx| {
            let base = baseline_split(idx)?;
            // Prefer the degraded plan's locations for the same block
            // set, when the format still produces such a split.
            Ok(degraded_by_blocks
                .get(&sorted_blocks(base))
                .copied()
                .unwrap_or(base)
                .clone())
        })
        .collect::<Result<_>>()?;
    let mut planning = slots.clone();
    let mut rerun_nodes = Vec::with_capacity(lost_splits.len());
    let ests = crate::scheduler::split_estimates(&lost_splits);
    for (split, est) in lost_splits.iter().zip(ests) {
        let node = planning
            .choose_node(&split.locations)
            .ok_or_else(|| HailError::Job("no live nodes to re-schedule on".into()))?;
        planning.assign(node, hw.task_overhead_s + est, resume_at);
        rerun_nodes.push(node);
    }
    for ((split, &task_node), &idx) in lost_splits.iter().zip(&rerun_nodes).zip(&lost) {
        let rerun = SplitTask {
            split,
            task_node,
            source: degraded_plan.source.as_ref(),
        };
        let (read, wall) = read_timed(cluster, job.format, &rerun)?;
        final_tasks.push(TaskReport {
            rerun: true,
            ..account_task(
                spec, &mut slots, idx, task_node, resume_at, read.stats, wall,
            )
        });
    }

    // Output correctness: every split's output was already collected in
    // pass 1; the functional result equals the baseline output set. The
    // map function runs once per baseline record and never on a rerun:
    // the re-reads above only validate that lost splits remain readable
    // and price the replay.
    let with_failure = JobReport {
        job_name: job.name.clone(),
        startup_seconds: hw.job_startup_s,
        split_phase_seconds: baseline_run.report.split_phase_seconds,
        split_count: baseline_plan.splits.len(),
        total_slots: slots.live_slot_count(),
        tasks: final_tasks,
        end_to_end_seconds: pre_phase + slots.makespan(),
        queue_wait_seconds: 0.0,
    };

    Ok(FailoverRun {
        output: baseline_run.output,
        baseline: baseline_run.report,
        with_failure,
        failure_time,
        rerun_count: lost.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input_format::{InputFormat, InputSplit, SplitPlan, SplitRead};
    use crate::job::{MapRecord, TaskStats};
    use crate::scheduler::run_map_job;
    use hail_sim::HardwareProfile;
    use hail_types::{BlockId, StorageConfig, Value};

    /// Format whose blocks live on `block % nodes`, with other nodes as
    /// fallback locations.
    struct SpreadFormat {
        read_seconds_bytes: u64,
    }

    impl InputFormat for SpreadFormat {
        fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
            let live = cluster.live_nodes();
            Ok(SplitPlan {
                splits: input
                    .iter()
                    .map(|&b| {
                        // Preferred node + all live nodes as fallbacks.
                        let preferred = live[b as usize % live.len()];
                        let mut locs = vec![preferred];
                        locs.extend(live.iter().copied().filter(|&n| n != preferred));
                        InputSplit::for_block(b, locs)
                    })
                    .collect(),
                ..Default::default()
            })
        }

        fn read_split(&self, cluster: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
            let split = task.split;
            // Fail if every location is dead (data genuinely lost).
            if split
                .locations
                .iter()
                .all(|&n| !cluster.datanode(n).map(|d| d.is_alive()).unwrap_or(false))
            {
                return Err(HailError::DeadDatanode(split.locations[0]));
            }
            let mut stats = TaskStats {
                records: 1,
                ..Default::default()
            };
            stats.ledger.disk_read = self.read_seconds_bytes;
            Ok(SplitRead {
                records: vec![MapRecord::good(Row::new(vec![Value::Long(
                    split.blocks[0] as i64,
                )]))],
                stats,
            })
        }

        fn name(&self) -> &str {
            "spread"
        }
    }

    #[test]
    fn failure_slows_down_but_completes() {
        let mut cluster = DfsCluster::new(4, StorageConfig::default());
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let fmt = SpreadFormat {
            read_seconds_bytes: 95_000_000, // 1 s per read
        };
        let job = MapJob::collecting("fo", (0..64).collect(), &fmt);
        let run = run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(1))
            .unwrap();
        assert_eq!(run.output.len(), 64);
        assert!(run.rerun_count > 0, "some tasks must be lost");
        let slowdown = run.slowdown_percent();
        assert!(slowdown > 0.0, "failure must slow the job: {slowdown}");
        assert!(slowdown < 100.0, "slowdown should be bounded: {slowdown}");
        // All rerun tasks start after the expiry.
        for t in run.with_failure.tasks.iter().filter(|t| t.rerun) {
            assert!(t.node != 1);
            assert!(t.start >= run.failure_time - spec.profile.job_startup_s);
        }
    }

    /// A failover run calls the map once per baseline record and never
    /// on a rerun: lost splits are re-read and priced, not mapped again.
    /// The with-failure report is the collecting job's, whatever the map
    /// does.
    #[test]
    fn failover_maps_each_baseline_record_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let fmt = SpreadFormat {
            read_seconds_bytes: 95_000_000,
        };
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let calls = AtomicUsize::new(0);
        let counting = MapJob {
            name: "fo".into(),
            input: (0..64).collect(),
            format: &fmt,
            map: Box::new(|rec, out| {
                calls.fetch_add(1, Ordering::Relaxed);
                out.push(rec.row);
            }),
        };
        let run = |job: &MapJob<'_>| {
            let mut cluster = DfsCluster::new(4, StorageConfig::default());
            run_map_job_with_failure(&mut cluster, &spec, job, FailureScenario::at_half(1)).unwrap()
        };
        let counted = run(&counting);
        assert!(counted.rerun_count > 0, "some tasks must be lost");
        let baseline_records: u64 = counted.baseline.tasks.iter().map(|t| t.stats.records).sum();
        assert_eq!(calls.load(Ordering::Relaxed) as u64, baseline_records);
        assert_eq!(counted.output.len() as u64, baseline_records);
        // Every rerun still read its split: its statistics are the read's.
        for task in counted.with_failure.tasks.iter().filter(|t| t.rerun) {
            assert_eq!(task.stats.records, 1);
        }

        let collected = run(&MapJob::collecting("fo", (0..64).collect(), &fmt));
        let simulated = |report: &JobReport| {
            let mut report = report.clone();
            for task in &mut report.tasks {
                task.reader_wall_seconds = 0.0;
            }
            format!("{report:?}")
        };
        assert_eq!(
            simulated(&counted.with_failure),
            simulated(&collected.with_failure)
        );
    }

    #[test]
    fn early_failure_loses_more_tasks_than_late() {
        let fmt = SpreadFormat {
            read_seconds_bytes: 95_000_000,
        };
        let mut c1 = DfsCluster::new(4, StorageConfig::default());
        let mut c2 = DfsCluster::new(4, StorageConfig::default());
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let job = MapJob::collecting("fo", (0..64).collect(), &fmt);
        let early = run_map_job_with_failure(
            &mut c1,
            &spec,
            &job,
            FailureScenario {
                node: 0,
                at_progress: 0.1,
                expiry_s: 30.0,
            },
        )
        .unwrap();
        let late = run_map_job_with_failure(
            &mut c2,
            &spec,
            &job,
            FailureScenario {
                node: 0,
                at_progress: 0.9,
                expiry_s: 30.0,
            },
        )
        .unwrap();
        assert!(early.rerun_count > late.rerun_count);
    }

    /// Regression (replay indexing): a format whose split boundaries
    /// change when a node dies. Splits cluster blocks per *live* node,
    /// so killing one node re-clusters every block — the degraded plan
    /// has different (and fewer) splits than the baseline. Replayed
    /// tasks must read the snapshotted baseline splits; indexing the
    /// degraded plan with baseline split indices either dies with
    /// "split vanished" or silently reads the wrong blocks.
    struct ReclusteringFormat;

    impl InputFormat for ReclusteringFormat {
        fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
            let live = cluster.live_nodes();
            let mut splits = Vec::new();
            for (j, &node) in live.iter().enumerate() {
                let blocks: Vec<BlockId> = input
                    .iter()
                    .copied()
                    .filter(|&b| b as usize % live.len() == j)
                    .collect();
                if blocks.is_empty() {
                    continue;
                }
                let mut locs = vec![node];
                locs.extend(live.iter().copied().filter(|&n| n != node));
                splits.push(InputSplit::new(blocks, locs));
            }
            Ok(SplitPlan {
                splits,
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
            let records = split
                .blocks
                .iter()
                .map(|&b| MapRecord::good(Row::new(vec![Value::Long(b as i64)])))
                .collect();
            let mut stats = TaskStats {
                records: split.blocks.len() as u64,
                ..Default::default()
            };
            stats.ledger.disk_read = 95_000_000 * split.blocks.len() as u64;
            Ok(SplitRead { records, stats })
        }

        fn name(&self) -> &str {
            "reclustering"
        }
    }

    #[test]
    fn replay_survives_split_boundaries_changing_under_node_death() {
        let mut cluster = DfsCluster::new(4, StorageConfig::default());
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let job = MapJob::collecting("shift", (0..16).collect(), &ReclusteringFormat);
        // Early failure: most surviving tasks re-read on the degraded
        // cluster, whose re-derived plan has 3 splits where the
        // baseline had 4 — every baseline index must still resolve.
        let run = run_map_job_with_failure(
            &mut cluster,
            &spec,
            &job,
            FailureScenario {
                node: 0,
                at_progress: 0.1,
                expiry_s: 30.0,
            },
        )
        .expect("replay must use the snapshotted baseline plan, not degraded indices");
        // All 16 blocks exactly once, despite the boundary shift.
        let mut got: Vec<i64> = run
            .output
            .iter()
            .map(|r| match r.get(0).unwrap() {
                Value::Long(v) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<i64>>());
        // Every rerun read exactly its lost split's blocks (4 per
        // baseline split here), not a reshaped degraded split (which
        // would carry 5-6 blocks after re-clustering to 3 nodes).
        assert!(run.rerun_count > 0);
        for t in run.with_failure.tasks.iter().filter(|t| t.rerun) {
            assert_eq!(t.stats.records, 4, "rerun read the baseline split");
        }
    }

    /// Regression (replay causality): pre-failure tasks replay at
    /// exactly their baseline times even when lost tasks free slots
    /// earlier, and no task that had not started at the failure — a
    /// degraded re-read or a rerun — is ever scheduled before the
    /// failure instant.
    #[test]
    fn replay_never_schedules_post_failure_tasks_before_the_failure() {
        // Block 0 is a 20× longer read than the rest: it straddles the
        // failure on the dead node and is lost, freeing its slot for
        // the replay of that node's short *completed* tasks — which,
        // unpinned, would drift earlier than they really ran.
        struct SkewedFormat;
        impl InputFormat for SkewedFormat {
            fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
                let live = cluster.live_nodes();
                Ok(SplitPlan {
                    splits: input
                        .iter()
                        .map(|&b| {
                            let preferred = live[b as usize % live.len()];
                            let mut locs = vec![preferred];
                            locs.extend(live.iter().copied().filter(|&n| n != preferred));
                            InputSplit::for_block(b, locs)
                        })
                        .collect(),
                    ..Default::default()
                })
            }
            fn read_split(&self, _c: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
                let block = task.split.blocks[0];
                let mut stats = TaskStats {
                    records: 1,
                    ..Default::default()
                };
                stats.ledger.disk_read = if block == 0 {
                    95_000_000 * 20 // 20 s
                } else {
                    95_000_000 // 1 s
                };
                Ok(SplitRead {
                    records: vec![MapRecord::good(Row::new(vec![Value::Long(block as i64)]))],
                    stats,
                })
            }
            fn name(&self) -> &str {
                "skewed"
            }
        }

        let mut cluster = DfsCluster::new(4, StorageConfig::default());
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let job = MapJob::collecting("causal", (0..24).collect(), &SkewedFormat);
        let baseline_snapshot = {
            let c = DfsCluster::new(4, StorageConfig::default());
            run_map_job(&c, &spec, &job).unwrap().report
        };
        let run = run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(0))
            .unwrap();
        let pre_phase = spec.profile.job_startup_s + run.baseline.split_phase_seconds;
        let failure_makespan_t = (run.failure_time - pre_phase).max(0.0);

        let baseline_of = |split: usize| {
            baseline_snapshot
                .tasks
                .iter()
                .find(|t| t.split == split)
                .unwrap()
        };
        for t in &run.with_failure.tasks {
            let base = baseline_of(t.split);
            if t.rerun {
                // Lost tasks restart only after the expiry interval.
                assert!(
                    t.start >= failure_makespan_t,
                    "rerun of split {} at {} precedes the failure at {failure_makespan_t}",
                    t.split,
                    t.start
                );
                continue;
            }
            if base.start >= failure_makespan_t {
                // Had not started at the failure: causality demands it
                // cannot start before the failure instant in the replay.
                assert!(
                    t.start >= failure_makespan_t,
                    "split {} replayed at {} before the failure at {failure_makespan_t}",
                    t.split,
                    t.start
                );
            } else {
                // Started before the failure: the replay must reproduce
                // its real execution exactly — even on the dead node,
                // where the lost long task's slot frees up early.
                assert_eq!(
                    (t.start, t.end),
                    (base.start, base.end),
                    "pre-failure split {} drifted from its baseline schedule",
                    t.split
                );
            }
        }
    }

    /// Regression (baseline-plan threading): the failover path derives
    /// `splits()` exactly twice — once for the pre-failure snapshot
    /// (threaded into the baseline run) and once for the degraded
    /// re-plan after the kill. Before the snapshot was threaded
    /// through, the baseline run derived its own copy and the job paid
    /// three derivations.
    #[test]
    fn baseline_plan_is_derived_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct CountingFormat {
            inner: SpreadFormat,
            derivations: AtomicUsize,
        }

        impl InputFormat for CountingFormat {
            fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
                self.derivations.fetch_add(1, Ordering::Relaxed);
                self.inner.splits(cluster, input)
            }
            fn read_split(&self, cluster: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
                self.inner.read_split(cluster, task)
            }
            fn name(&self) -> &str {
                "counting"
            }
        }

        let fmt = CountingFormat {
            inner: SpreadFormat {
                read_seconds_bytes: 95_000_000,
            },
            derivations: AtomicUsize::new(0),
        };
        let mut cluster = DfsCluster::new(4, StorageConfig::default());
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let job = MapJob::collecting("once", (0..32).collect(), &fmt);
        let run = run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(1))
            .unwrap();
        assert_eq!(run.output.len(), 32);
        assert_eq!(
            fmt.derivations.load(Ordering::Relaxed),
            2,
            "exactly one baseline derivation (the snapshot) plus one degraded re-plan"
        );
    }

    #[test]
    fn node_left_dead_after_run() {
        let mut cluster = DfsCluster::new(4, StorageConfig::default());
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let fmt = SpreadFormat {
            read_seconds_bytes: 1000,
        };
        let job = MapJob::collecting("fo", (0..8).collect(), &fmt);
        run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(2)).unwrap();
        assert!(!cluster.datanode(2).unwrap().is_alive());
    }
}
