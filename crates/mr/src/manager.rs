//! Multi-job serving: FIFO admission of concurrent [`MapJob`]s.
//!
//! HAIL's premise is a cluster fielding many jobs at once over shared
//! replicas. The [`JobManager`] is the admission layer that makes that
//! real: callers queue a batch of jobs, the manager dequeues them in
//! strict FIFO order, and at most [`JobManager::max_concurrent`] jobs
//! are in flight at any moment. Each in-flight job runs the ordinary
//! [`crate::scheduler::run_map_job`] loop on its own thread, so every
//! job keeps the solo bound of one split's records held at a time. The
//! batch is one `hail_sync::run_pipelined` call with a lookahead of the
//! whole batch: a slow job never holds back the start of the jobs behind
//! it, and the caller collects the finished jobs' results in submission
//! order while the others still run.
//!
//! # Determinism contract
//!
//! A managed job's output and its report fields are bit-for-bit
//! identical to a solo [`crate::scheduler::run_map_job`] run at
//! any interleaving — concurrency may only change measured wall clock
//! ([`crate::job::TaskReport::reader_wall_seconds`]) and the
//! queue-wait telemetry
//! ([`crate::job::JobReport::queue_wait_seconds`], which the manager
//! fills in with the measured wall-clock delay between admission and
//! dequeue; solo runs report zero). There is no exception: jobs that
//! share a filter shape, or the whole query, still report exactly what
//! they report alone. That holds by construction: everything a job
//! shares with its neighbours — the cluster and the formats — is
//! immutable for the job's duration, and no job's planning reads state
//! another job writes. Each job plans its own blocks cold.
//!
//! Jobs never share reads: each reads its own blocks through its own
//! format, so no block read depends on what else is in flight.

use crate::scheduler::{run_map_job, JobRun, MapJob};
use hail_dfs::DfsCluster;
use hail_sim::ClusterSpec;
use hail_sync::run_pipelined;
use hail_types::Result;
use std::convert::Infallible;
use std::time::Instant;

/// Admits and runs concurrent map jobs with FIFO dequeue order and a
/// bounded number in flight.
///
/// The manager owns no execution resources itself — worker threads are
/// scoped to each [`JobManager::run_batch`] call ([`run_pipelined`] over
/// whole jobs), and jobs share nothing but the cluster they read. The
/// manager takes no lock of its own. Each job runs on one thread, so a
/// batch uses at most `max_concurrent` threads.
pub struct JobManager {
    max_concurrent: usize,
}

impl JobManager {
    /// A manager running at most `max_concurrent` jobs at once
    /// (clamped to at least 1).
    pub fn new(max_concurrent: usize) -> Self {
        JobManager {
            max_concurrent: max_concurrent.max(1),
        }
    }

    /// The in-flight-job bound.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// Runs `jobs` to completion, at most [`Self::max_concurrent`] at
    /// a time, and returns one result per job in submission order.
    ///
    /// Admission is FIFO: jobs are dequeued strictly in slice order
    /// (job *i* never starts after job *i+1* has been dequeued),
    /// though with concurrency > 1 neighbouring jobs overlap and may
    /// *finish* in any order. Every job's
    /// [`queue_wait_seconds`](crate::job::JobReport::queue_wait_seconds)
    /// is set to the measured wall-clock time it spent queued — from
    /// this call's start to its dequeue.
    pub fn run_batch(
        &self,
        cluster: &DfsCluster,
        spec: &ClusterSpec,
        jobs: &[MapJob<'_>],
    ) -> Vec<Result<JobRun>> {
        let admitted = Instant::now();
        let mut runs = Vec::with_capacity(jobs.len());
        // A lookahead of the whole batch: a slow job never holds back the
        // admission of the jobs behind it. Each commit keeps its job's
        // own result, so one failing job never stops the others.
        let Ok(()) = run_pipelined(
            jobs.len(),
            self.max_concurrent,
            jobs.len(),
            || (),
            |(), i| {
                let queue_wait_seconds = admitted.elapsed().as_secs_f64();
                run_map_job(cluster, spec, &jobs[i]).map(|mut run| {
                    run.report.queue_wait_seconds = queue_wait_seconds;
                    run
                })
            },
            |_, result| {
                runs.push(result);
                Ok::<_, Infallible>(())
            },
        );
        runs
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "a test-only recorder, not an engine lock"
)]
mod tests {
    use super::*;
    use crate::input_format::{InputFormat, InputSplit, SplitPlan, SplitRead, SplitTask};
    use crate::job::{MapRecord, TaskStats};
    use hail_sim::HardwareProfile;
    use hail_types::{BlockId, Row, StorageConfig, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Emits one row per block and tracks how many split reads are in
    /// flight at once (the manager-level concurrency gauge).
    struct GaugeFormat {
        in_flight: AtomicUsize,
        high_water: AtomicUsize,
    }

    impl GaugeFormat {
        fn new() -> Self {
            GaugeFormat {
                in_flight: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
            }
        }
    }

    impl InputFormat for GaugeFormat {
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
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.high_water.fetch_max(now, Ordering::SeqCst);
            let read = SplitRead {
                records: vec![MapRecord::good(Row::new(vec![Value::Long(
                    task.split.blocks[0] as i64,
                )]))],
                stats: TaskStats {
                    records: 1,
                    ..Default::default()
                },
            };
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            Ok(read)
        }

        fn name(&self) -> &str {
            "gauge"
        }
    }

    fn job<'a>(
        name: &str,
        format: &'a dyn InputFormat,
        blocks: std::ops::Range<u64>,
    ) -> MapJob<'a> {
        MapJob {
            name: name.into(),
            input: blocks.collect(),
            format,
            map: Box::new(|rec, out| out.push(rec.row)),
        }
    }

    #[test]
    fn max_concurrent_is_clamped() {
        assert_eq!(JobManager::new(0).max_concurrent(), 1);
        assert_eq!(JobManager::new(3).max_concurrent(), 3);
    }

    /// With one in-flight slot the manager is a strict FIFO queue:
    /// jobs run in submission order, and each job's measured queue
    /// wait is at least its predecessor's.
    #[test]
    fn serial_admission_is_fifo() {
        let cluster = DfsCluster::new(2, StorageConfig::default());
        let spec = ClusterSpec::new(2, HardwareProfile::physical());
        let fmt = GaugeFormat::new();
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let order_ref = &order;
        let jobs: Vec<MapJob<'_>> = (0..6)
            .map(|j| MapJob {
                name: format!("job-{j}"),
                input: (0..4).collect(),
                format: &fmt,
                map: Box::new(move |rec, out| {
                    if rec.row.get(0) == Some(&Value::Long(0)) {
                        order_ref.lock().unwrap().push(j);
                    }
                    out.push(rec.row);
                }),
            })
            .collect();
        let results = JobManager::new(1).run_batch(&cluster, &spec, &jobs);
        assert_eq!(results.len(), 6);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4, 5]);
        let mut prev_wait = 0.0;
        for run in results {
            let run = run.unwrap();
            assert_eq!(run.output.len(), 4);
            assert!(run.report.queue_wait_seconds >= prev_wait);
            prev_wait = run.report.queue_wait_seconds;
        }
        // One in-flight slot means the gauge never saw overlap.
        assert_eq!(fmt.high_water.load(Ordering::SeqCst), 1);
    }

    /// The in-flight bound holds: with `max_concurrent = 2`, no more
    /// than two jobs' split reads ever overlap, and every job's output
    /// is bit-for-bit what a solo run produces.
    #[test]
    fn bounded_in_flight_and_solo_equivalence() {
        let cluster = DfsCluster::new(2, StorageConfig::default());
        let spec = ClusterSpec::new(2, HardwareProfile::physical());
        let fmt = GaugeFormat::new();
        let jobs: Vec<MapJob<'_>> = (0..8)
            .map(|j| job(&format!("job-{j}"), &fmt, (j * 10)..(j * 10 + 7)))
            .collect();
        let results = JobManager::new(2).run_batch(&cluster, &spec, &jobs);
        assert!(fmt.high_water.load(Ordering::SeqCst) <= 2);

        for (j, run) in results.into_iter().enumerate() {
            let run = run.unwrap();
            let solo = run_map_job(
                &cluster,
                &spec,
                &job(
                    &format!("job-{j}"),
                    &fmt,
                    (j as u64 * 10)..(j as u64 * 10 + 7),
                ),
            )
            .unwrap();
            assert_eq!(run.output, solo.output);
            assert_eq!(
                run.report.end_to_end_seconds,
                solo.report.end_to_end_seconds
            );
            assert_eq!(run.report.tasks.len(), solo.report.tasks.len());
            assert!(run.report.queue_wait_seconds >= 0.0);
            assert_eq!(solo.report.queue_wait_seconds, 0.0);
        }
    }

    #[test]
    fn empty_batch_returns_nothing() {
        let cluster = DfsCluster::new(1, StorageConfig::default());
        let spec = ClusterSpec::new(1, HardwareProfile::physical());
        assert!(JobManager::new(4)
            .run_batch(&cluster, &spec, &[])
            .is_empty());
    }
}
