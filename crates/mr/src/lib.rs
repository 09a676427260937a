//! # hail-mr
//!
//! A deterministic Hadoop-MapReduce-like execution engine:
//!
//! - [`input_format`] — the four-method `InputFormat` UDF surface
//!   (`splits`, `read_split_batch`, `estimate_splits`, `name`)
//! - [`job`] — records, task statistics, job reports (T_ideal, overhead)
//! - [`scheduler`] — locality-aware wave scheduling with Hadoop's
//!   per-task overhead model
//! - [`driver`] — the shared chunked drive loop every execution pass
//!   (scheduler and both failover passes) reads splits through
//! - [`run_ordered`] — the engine's one fan-out (indexed tasks on
//!   scoped threads, results in index order), re-exported from
//!   `hail-sync` so the upload client below this crate shares it
//! - [`manager`] — FIFO admission of concurrent jobs with a bounded
//!   in-flight limit ([`JobManager::new`])
//! - [`inflight`] — cross-job in-flight block interest
//!   ([`InFlightBlocks`]): which blocks admitted jobs are still going
//!   to read, with drain notifications the execution layer's
//!   scan-share registry keys its decoded-block retention on
//! - [`shuffle`] — grouped reduce with costed shuffle
//! - [`failover`] — mid-job node death, task re-execution, slowdown
//!
//! [`TaskStats`] is also the adaptive planner's sensor: each task
//! carries per-block [`SelectivityObservation`]s (fed back into the
//! execution layer's selectivity estimates after each split) and
//! plan-cache hit/miss counters, which [`JobReport::plan_cache_hits`]
//! and [`JobReport::plan_cache_misses`] aggregate per job.
//!
//! [`run_map_job`] is two-phase: an *assignment* phase chooses nodes
//! for every split up front from planner estimates
//! ([`InputFormat::estimate_splits`]), and an *execution* phase drives
//! the whole batch through the shared [`ChunkedDrive`] loop — fixed
//! [`SPLIT_BATCH_CHUNK`]-sized calls to [`InputFormat::read_split_batch`],
//! each [`SplitTask`] naming the node its map task runs on and carrying
//! the [`SplitSource`] its format attached to the split plan — for the
//! planner-backed format, the plan the split reads execute. The
//! planner-backed format reads up to [`MapJob::job_parallelism`] (or
//! the `HAIL_JOB_PARALLELISM` environment override) whole splits at
//! once through [`run_ordered`]; each split reads its blocks on one
//! thread. Parallelism only changes real wall clock — results, their
//! order, and every simulated-clock figure are identical at any
//! setting, and [`TaskReport::reader_wall_seconds`] reports the
//! measured wall time separately from the simulated
//! [`TaskReport::reader_seconds`].
//!
//! Above single-job execution sits the [`JobManager`]: FIFO admission
//! of many jobs with at most [`JobManager::max_concurrent`] in flight.
//! Each managed job's output and report stay bit-for-bit identical to
//! a solo run at any interleaving — concurrency only changes measured
//! wall clock and the [`JobReport::queue_wait_seconds`] telemetry.

#![forbid(unsafe_code)]

pub mod driver;
pub mod failover;
pub mod inflight;
pub mod input_format;
pub mod job;
pub mod manager;
pub mod scheduler;
pub mod shuffle;

pub use driver::{ChunkedDrive, SPLIT_BATCH_CHUNK};
pub use failover::{run_map_job_with_failure, FailoverRun, FailureScenario};
pub use hail_sync::run_ordered;
pub use inflight::{InFlightBlocks, InterestGuard};
pub use input_format::{
    read_one_split, read_splits_sequentially, InputFormat, InputSplit, SplitPlan, SplitRead,
    SplitSource, SplitTask,
};
pub use job::{JobReport, MapRecord, PathCounts, SelectivityObservation, TaskReport, TaskStats};
pub use manager::JobManager;
pub use scheduler::{run_map_job, run_map_job_with_interest, JobRun, MapJob};
pub use shuffle::{run_map_reduce_job, MapReduceJob, MapReduceRun};
