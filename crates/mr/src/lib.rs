//! # hail-mr
//!
//! A deterministic Hadoop-MapReduce-like execution engine:
//!
//! - [`input_format`] — the three-method `InputFormat` UDF surface
//!   (`splits`, `read_split`, `name`)
//! - [`job`] — records, task statistics, job reports (T_ideal, overhead)
//! - [`scheduler`] — locality-aware wave scheduling with Hadoop's
//!   per-task overhead model, and the drive loop that reads a job's
//!   splits
//! - [`manager`] — FIFO admission of concurrent jobs with a bounded
//!   in-flight limit ([`JobManager::new`])
//! - [`shuffle`] — grouped reduce with costed shuffle
//! - [`failover`] — mid-job node death, task re-execution, slowdown
//!
//! [`TaskStats`] is also the adaptive planner's sensor: each task
//! carries per-block [`SelectivityObservation`]s (the re-indexing
//! advisor's evidence, absorbed at the adaptive loop's round boundary)
//! and the
//! count of blocks its read planned again instead of reusing the
//! split-time plan, which [`JobReport::blocks_replanned`] sums per job.
//!
//! [`run_map_job`] is two-phase: an *assignment* phase chooses nodes
//! for every split up front from one uniform per-block estimate (a
//! split's block count, whatever the format), and an *execution* phase
//! reads the splits one at a time, in split order, on the job's thread
//! — each [`SplitTask`] naming the node its map task runs on and
//! carrying the [`SplitSource`] its format attached to the split plan
//! (for the planner-backed format, the plan the split reads execute).
//! Each split is read through [`InputFormat::read_split`], mapped and
//! priced before the next is read, so a job holds at most one split's
//! records. The engine times every read: [`TaskReport::reader_wall_seconds`]
//! reports the measured wall time separately from the simulated
//! [`TaskReport::reader_seconds`].
//!
//! Above single-job execution sits the [`JobManager`]: FIFO admission
//! of many jobs with at most [`JobManager::max_concurrent`] in flight,
//! one thread per job. Each managed job's output and report stay
//! bit-for-bit identical to a solo run at any interleaving — concurrency
//! only changes measured wall clock and the
//! [`JobReport::queue_wait_seconds`] telemetry. Jobs share the cluster,
//! never reads or planning state.

#![forbid(unsafe_code)]

pub mod failover;
pub mod input_format;
pub mod job;
pub mod manager;
pub mod scheduler;
pub mod shuffle;

pub use failover::{run_map_job_with_failure, FailoverRun, FailureScenario};
pub use input_format::{InputFormat, InputSplit, SplitPlan, SplitRead, SplitSource, SplitTask};
pub use job::{JobReport, MapRecord, PathCounts, SelectivityObservation, TaskReport, TaskStats};
pub use manager::JobManager;
pub use scheduler::{run_map_job, JobRun, MapJob};
pub use shuffle::{run_map_reduce_job, MapReduceJob, MapReduceRun};
