//! Shared experiment infrastructure: scaled testbeds, per-system setup
//! (upload), and query execution.
//!
//! Experiments materialize real data at laptop scale. A testbed fixes
//! the mapping: `blocks_per_node` determines the real block size, and
//! the cost model's [`ScaleFactor`] maps each real block onto the
//! paper's 64 MB logical block. Structural quantities — block counts,
//! waves, seeks, packets-per-block — are preserved; byte-denominated
//! quantities are scaled.

use hail_core::{
    upload_hadoop, upload_hadoop_plus_plus, upload_hail, upload_seconds, Dataset, DatasetFormat,
    HailQuery, HppUploadReport,
};
use hail_dfs::DfsCluster;
use hail_exec::{
    apply_reindex, PlanCache, PlannedInputFormat, ReindexAdvisor, ReindexOutcome,
    SelectivityFeedback,
};
use hail_index::ReplicaIndexConfig;
use hail_mr::{run_map_job, InputFormat, JobManager, JobRun, MapJob};
use hail_sim::{ClusterSpec, HardwareProfile, ScaleFactor};
use hail_types::{DatanodeId, Result, Schema, StorageConfig};
use hail_workloads::{SyntheticGenerator, UserVisitsGenerator};
use std::sync::Arc;

/// The paper's logical block size (64 MB).
pub const LOGICAL_BLOCK: usize = 64 * 1024 * 1024;

/// How an experiment materializes a dataset.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    pub nodes: usize,
    pub rows_per_node: usize,
    /// Logical blocks each node's portion is cut into (block size
    /// follows from the text volume).
    pub blocks_per_node: usize,
    /// Values per index partition at this scale (the paper's 1,024 per
    /// 64 MB block ≈ 650 partitions; small blocks need proportionally
    /// small partitions).
    pub index_partition_size: usize,
    pub replication: usize,
}

/// The paper's UserVisits volume: 20 GB/node ÷ 64 MB = 312 blocks/node.
pub const UV_BLOCKS_PER_NODE: usize = 312;
/// The paper's Synthetic volume: 13 GB/node ÷ 64 MB = 203 blocks/node.
pub const SYN_BLOCKS_PER_NODE: usize = 203;

impl ExperimentScale {
    /// Upload-experiment default, structurally matching the paper's
    /// UserVisits setup: every node holds 312 logical 64 MB blocks
    /// (20 GB/node).
    pub fn upload(nodes: usize, rows_per_node: usize) -> Self {
        ExperimentScale {
            nodes,
            rows_per_node,
            blocks_per_node: UV_BLOCKS_PER_NODE,
            index_partition_size: 4,
            replication: 3,
        }
    }

    /// Query-experiment default: same block structure, so the task
    /// count and wave structure match the paper's 3,200-task jobs.
    pub fn query(nodes: usize, rows_per_node: usize) -> Self {
        ExperimentScale {
            nodes,
            rows_per_node,
            blocks_per_node: UV_BLOCKS_PER_NODE,
            index_partition_size: 4,
            replication: 3,
        }
    }

    /// Builder override for the per-node block count (e.g. Synthetic's
    /// 203 blocks/node).
    pub fn with_blocks_per_node(mut self, blocks: usize) -> Self {
        self.blocks_per_node = blocks;
        self
    }

    /// Builder override for the index partition size.
    pub fn with_partition_size(mut self, partition: usize) -> Self {
        self.index_partition_size = partition;
        self
    }
}

/// A generated, scaled experiment environment.
pub struct Testbed {
    pub scale: ExperimentScale,
    pub schema: Schema,
    pub texts: Vec<(DatanodeId, String)>,
    pub storage: StorageConfig,
    pub spec: ClusterSpec,
}

fn build_testbed(
    scale: ExperimentScale,
    profile: HardwareProfile,
    schema: Schema,
    texts: Vec<(DatanodeId, String)>,
) -> Testbed {
    let per_node_bytes = texts.first().map(|(_, t)| t.len()).unwrap_or(1);
    let real_block = (per_node_bytes / scale.blocks_per_node).max(1);
    let storage = StorageConfig {
        block_size: real_block,
        replication: scale.replication,
        delimiter: '|',
        index_partition_size: scale.index_partition_size,
    };
    let spec = ClusterSpec::new(scale.nodes, profile)
        .with_scale(ScaleFactor::from_block_sizes(real_block, LOGICAL_BLOCK));
    Testbed {
        scale,
        schema,
        texts,
        storage,
        spec,
    }
}

/// UserVisits testbed.
pub fn uv_testbed(scale: ExperimentScale, profile: HardwareProfile) -> Testbed {
    let generator = UserVisitsGenerator::default();
    build_testbed(
        scale,
        profile,
        hail_workloads::bob_schema(),
        generator.generate(scale.nodes, scale.rows_per_node),
    )
}

/// Synthetic testbed.
pub fn syn_testbed(scale: ExperimentScale, profile: HardwareProfile) -> Testbed {
    let generator = SyntheticGenerator::default();
    build_testbed(
        scale,
        profile,
        hail_workloads::synthetic_schema(),
        generator.generate(scale.nodes, scale.rows_per_node),
    )
}

/// One uploaded system: its cluster state, dataset handle, and simulated
/// upload time.
pub struct SystemSetup {
    pub cluster: DfsCluster,
    pub dataset: Dataset,
    pub upload_seconds: f64,
}

/// Interleaves a dataset's blocks round-robin across the uploading
/// nodes. A real multi-node parallel upload allocates block ids
/// interleaved across writers; our in-process upload is sequential per
/// node, which would otherwise correlate job progress with writer
/// identity (and distort failover experiments).
fn interleave_blocks(blocks: Vec<hail_types::BlockId>, nodes: usize) -> Vec<hail_types::BlockId> {
    if nodes <= 1 || blocks.is_empty() {
        return blocks;
    }
    let per = blocks.len().div_ceil(nodes);
    let mut out = Vec::with_capacity(blocks.len());
    for i in 0..per {
        for n in 0..nodes {
            if let Some(&b) = blocks.get(n * per + i) {
                out.push(b);
            }
        }
    }
    debug_assert_eq!(out.len(), blocks.len());
    out
}

/// Standard Hadoop: text upload.
pub fn setup_hadoop(tb: &Testbed) -> Result<SystemSetup> {
    let mut cluster = DfsCluster::new(tb.scale.nodes, tb.storage.clone());
    let mut dataset = upload_hadoop(&mut cluster, &tb.schema, "dataset", &tb.texts)?;
    dataset.blocks = interleave_blocks(dataset.blocks, tb.scale.nodes);
    let t = upload_seconds(&cluster, &tb.spec);
    Ok(SystemSetup {
        cluster,
        dataset,
        upload_seconds: t,
    })
}

/// HAIL with clustered indexes on `index_columns[i]` for replica `i`
/// (missing entries stay unsorted).
pub fn setup_hail(tb: &Testbed, index_columns: &[usize]) -> Result<SystemSetup> {
    let mut cluster = DfsCluster::new(tb.scale.nodes, tb.storage.clone());
    let config = ReplicaIndexConfig::first_indexed(tb.scale.replication, index_columns);
    let mut dataset = upload_hail(&mut cluster, &tb.schema, "dataset", &tb.texts, &config)?;
    dataset.blocks = interleave_blocks(dataset.blocks, tb.scale.nodes);
    let t = upload_seconds(&cluster, &tb.spec);
    Ok(SystemSetup {
        cluster,
        dataset,
        upload_seconds: t,
    })
}

/// HAIL with an explicit replica index configuration (e.g. HAIL-1Idx).
pub fn setup_hail_with_config(tb: &Testbed, config: &ReplicaIndexConfig) -> Result<SystemSetup> {
    let mut cluster = DfsCluster::new(tb.scale.nodes, tb.storage.clone());
    let mut dataset = upload_hail(&mut cluster, &tb.schema, "dataset", &tb.texts, config)?;
    dataset.blocks = interleave_blocks(dataset.blocks, tb.scale.nodes);
    let t = upload_seconds(&cluster, &tb.spec);
    Ok(SystemSetup {
        cluster,
        dataset,
        upload_seconds: t,
    })
}

/// Hadoop++ with a trojan index on `key_column` (None = binary
/// conversion only).
pub fn setup_hpp(
    tb: &Testbed,
    key_column: Option<usize>,
) -> Result<(SystemSetup, HppUploadReport)> {
    let mut cluster = DfsCluster::new(tb.scale.nodes, tb.storage.clone());
    let (mut dataset, report) = upload_hadoop_plus_plus(
        &mut cluster,
        &tb.spec,
        &tb.schema,
        "dataset",
        &tb.texts,
        key_column,
    )?;
    dataset.blocks = interleave_blocks(dataset.blocks, tb.scale.nodes);
    let t = report.total_seconds();
    Ok((
        SystemSetup {
            cluster,
            dataset,
            upload_seconds: t,
        },
        report,
    ))
}

/// Builds the matching input format for a dataset and runs the query as
/// a map-only job, collecting output.
pub fn run_query(
    setup: &SystemSetup,
    spec: &ClusterSpec,
    query: &HailQuery,
    hail_splitting: bool,
) -> Result<JobRun> {
    let format = make_format(setup, spec, query, hail_splitting);
    let job = MapJob::collecting("query", setup.dataset.blocks.clone(), &format);
    run_map_job(&setup.cluster, spec, &job)
}

/// [`run_query`] reading up to `job_parallelism` whole splits at once.
/// Results and simulated times are identical at any setting; only the
/// measured wall clock changes.
///
/// `split_parallelism` is frozen-suite residue: the benchmark suite
/// calls this signature. It no longer names a separate setting; the
/// job runs at the larger of the two.
pub fn run_query_overlapped(
    setup: &SystemSetup,
    spec: &ClusterSpec,
    query: &HailQuery,
    hail_splitting: bool,
    split_parallelism: usize,
    job_parallelism: usize,
) -> Result<JobRun> {
    let format = make_format(setup, spec, query, hail_splitting);
    let job = MapJob::collecting("query", setup.dataset.blocks.clone(), &format)
        .with_job_parallelism(split_parallelism.max(job_parallelism));
    run_map_job(&setup.cluster, spec, &job)
}

/// Builds the input format for a dataset (shared by every runner).
/// `hail_splitting` and the map-slot count only matter on HAIL
/// datasets; the baselines always split per block.
fn make_format(
    setup: &SystemSetup,
    spec: &ClusterSpec,
    query: &HailQuery,
    hail_splitting: bool,
) -> PlannedInputFormat {
    let mut format = PlannedInputFormat::new(setup.dataset.clone(), query.clone());
    format.splitting = hail_splitting;
    format.map_slots = spec.profile.map_slots;
    format
}

/// The cross-job resource a multi-job deployment shares: optionally one
/// selectivity feedback store. Every job plans its own blocks cold and
/// reads them itself.
///
/// `feedback` defaults to a fresh shared store. Sharing one
/// [`SelectivityFeedback`] between *concurrently running* jobs is safe
/// because formats built by [`make_shared_format`] freeze the store for
/// the duration of each job (`PlannerConfig::defer_feedback`):
/// observations are collected into per-task statistics but absorbed
/// only afterwards, by [`run_queries_managed`], in **job-submission
/// order** (tasks in schedule order within each job). During a batch
/// every job plans against the same read-only snapshot, and the write
/// order is fixed by submission rather than by completion races — so
/// outputs, reports, and the post-batch feedback state are bit-for-bit
/// identical at every `JobManager` concurrency. Use
/// [`SharedJobInfra::without_shared_feedback`] to opt out and plan
/// from the static prior alone.
pub struct SharedJobInfra {
    /// Kept as frozen-suite residue: the benchmark suite reads its
    /// (always zero) counters. No format is handed it.
    pub plan_cache: Arc<PlanCache>,
    pub feedback: Option<Arc<SelectivityFeedback>>,
}

impl SharedJobInfra {
    /// Infrastructure for concurrent jobs: a fresh shared feedback
    /// store.
    ///
    /// The job count is frozen-suite residue: the benchmark suite
    /// calls this signature, but nothing here is sized by it any more.
    pub fn for_jobs(_max_jobs: usize) -> Self {
        SharedJobInfra {
            plan_cache: Arc::new(PlanCache::default()),
            feedback: Some(Arc::new(SelectivityFeedback::default())),
        }
    }

    /// Drops the shared feedback store: jobs plan from the static
    /// selectivity prior alone, and nothing is absorbed after batches.
    pub fn without_shared_feedback(mut self) -> Self {
        self.feedback = None;
        self
    }
}

/// [`make_shared_format`]'s solo-format counterpart is the private
/// `make_format`; this builds the same input format wired to the
/// shared multi-job infrastructure: HAIL formats built from one `infra`
/// share its feedback store if any.
pub fn make_shared_format(
    setup: &SystemSetup,
    spec: &ClusterSpec,
    query: &HailQuery,
    hail_splitting: bool,
    infra: &SharedJobInfra,
) -> Box<dyn InputFormat> {
    let mut format = make_format(setup, spec, query, hail_splitting);
    // The baselines plan from the static prior alone, as they do solo.
    if setup.dataset.format == DatasetFormat::HailPax {
        format.planner.feedback = infra.feedback.clone();
        // Freeze the shared store during the job; the batch runner
        // absorbs observations afterwards in submission order (the
        // determinism contract on [`SharedJobInfra`]).
        format.planner.defer_feedback = true;
    }
    Box::new(format)
}

/// Batch-level aggregates [`run_queries_managed`] computes over its
/// runs, so the suite and tests stop recomputing them by hand.
///
/// The queue-wait median uses the nearest-rank method over every
/// job's [`hail_mr::JobReport::queue_wait_seconds`]; it is measured
/// wall clock, so it is **outside** the determinism contract. Everything
/// else in the runs is bit-for-bit reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchSummary {
    /// Jobs in the batch.
    pub jobs: usize,
    pub queue_wait_p50_seconds: f64,
    /// Always 0: jobs no longer share block reads. Kept as frozen-suite
    /// residue: the benchmark suite reads it for its
    /// `exec.scan_share_attach_share` probe.
    pub blocks_read_shared: u64,
    /// Logical block reads requested across all jobs (before pruning).
    pub logical_blocks: u64,
}

/// What [`run_queries_managed`] returns: per-query runs in submission
/// order plus the batch-level [`BatchSummary`].
#[derive(Debug)]
pub struct ManagedBatch {
    pub runs: Vec<JobRun>,
    pub summary: BatchSummary,
}

/// Nearest-rank percentile (`p` in 0..=100) over unsorted samples.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

fn summarize_batch(runs: &[JobRun], logical_blocks: u64) -> BatchSummary {
    let mut waits: Vec<f64> = runs.iter().map(|r| r.report.queue_wait_seconds).collect();
    BatchSummary {
        jobs: runs.len(),
        queue_wait_p50_seconds: percentile(&mut waits, 50.0),
        blocks_read_shared: 0,
        logical_blocks,
    }
}

/// Runs many queries as one [`JobManager`] batch over shared multi-job
/// infrastructure, returning per-query runs in submission order plus
/// batch aggregates. Failing jobs fail the whole call (the suite and
/// tests expect all-success).
///
/// When the infra carries a shared feedback store, every job's
/// observations are absorbed **after** the batch, in submission order
/// (the store was frozen during the batch via
/// `PlannerConfig::defer_feedback`) — the [`SharedJobInfra`]
/// determinism contract.
pub fn run_queries_managed(
    setup: &SystemSetup,
    spec: &ClusterSpec,
    queries: &[HailQuery],
    hail_splitting: bool,
    manager: &JobManager,
    infra: &SharedJobInfra,
) -> Result<ManagedBatch> {
    run_queries_managed_at(setup, spec, queries, hail_splitting, manager, infra, None)
}

/// [`run_queries_managed`] with every job reading up to
/// `job_parallelism` splits at once (`None`: the
/// `HAIL_JOB_PARALLELISM` default), so a batch runs on up to
/// `max_concurrent × job_parallelism` threads.
pub fn run_queries_managed_at(
    setup: &SystemSetup,
    spec: &ClusterSpec,
    queries: &[HailQuery],
    hail_splitting: bool,
    manager: &JobManager,
    infra: &SharedJobInfra,
    job_parallelism: Option<usize>,
) -> Result<ManagedBatch> {
    let formats: Vec<Box<dyn InputFormat>> = queries
        .iter()
        .map(|q| make_shared_format(setup, spec, q, hail_splitting, infra))
        .collect();
    let jobs: Vec<MapJob<'_>> = formats
        .iter()
        .enumerate()
        .map(|(i, f)| MapJob {
            job_parallelism,
            ..MapJob::collecting(
                format!("query-{i}"),
                setup.dataset.blocks.clone(),
                f.as_ref(),
            )
        })
        .collect();
    let runs: Vec<JobRun> = manager
        .run_batch(&setup.cluster, spec, &jobs)
        .into_iter()
        .collect::<Result<_>>()?;
    if let Some(feedback) = &infra.feedback {
        // The submission-order barrier: jobs in submission order,
        // tasks in each report's schedule order.
        for run in &runs {
            for task in &run.report.tasks {
                feedback.absorb(&task.stats);
            }
        }
    }
    let logical = (queries.len() * setup.dataset.blocks.len()) as u64;
    let summary = summarize_batch(&runs, logical);
    Ok(ManagedBatch { runs, summary })
}

/// One adaptive rebuild that fired during [`run_adaptive_workload`]:
/// which job boundary it ran at and what it built.
#[derive(Debug, Clone)]
pub struct ReindexEvent {
    /// Jobs completed before the rebuild ran — the flip boundary. Job
    /// indexes `0..after_job` planned against the old design, jobs
    /// `after_job..` against the new one.
    pub after_job: usize,
    pub outcome: ReindexOutcome,
}

/// The result of an adaptive workload: per-job runs in submission
/// order, plus every rebuild the advisor fired between rounds.
#[derive(Debug)]
pub struct AdaptiveRun {
    pub runs: Vec<JobRun>,
    pub events: Vec<ReindexEvent>,
}

/// Drives a workload through the `JobManager` with the adaptive
/// re-indexing loop closed: jobs run in rounds of `round_size`, and
/// *between* rounds the harness absorbs every finished job's
/// selectivity observations into `feedback` (in job-submission order),
/// asks the advisor for rebuild recommendations, and applies them to
/// the cluster.
///
/// The between-rounds placement is the correctness mechanism, not a
/// simplification: `JobManager::run_batch` borrows the cluster shared
/// (`&DfsCluster`) while [`apply_reindex`] needs it exclusively
/// (`&mut`), so a rebuild can only run when no job is in flight —
/// queries see the old design or the new one, never a half-registered
/// hybrid, and no admitted job ever blocks mid-split on background
/// maintenance. Because rounds are cut by job count (not by
/// concurrency) and feedback is absorbed in submission order, the
/// FullScan→index flip lands at the same job boundary whatever the
/// manager's concurrency is.
///
/// A disabled advisor (policy `enabled: false`, e.g. under
/// `HAIL_DISABLE_REINDEX=1`) turns this into plain batched serving:
/// evidence still accumulates, but the design never changes.
#[allow(clippy::too_many_arguments)]
pub fn run_adaptive_workload(
    setup: &mut SystemSetup,
    spec: &ClusterSpec,
    queries: &[HailQuery],
    hail_splitting: bool,
    manager: &JobManager,
    infra: &SharedJobInfra,
    advisor: &ReindexAdvisor,
    feedback: &SelectivityFeedback,
    round_size: usize,
) -> Result<AdaptiveRun> {
    let round = round_size.max(1);
    let blocks = setup.dataset.blocks.clone();
    let mut runs = Vec::with_capacity(queries.len());
    let mut events = Vec::new();
    for chunk in queries.chunks(round) {
        let mut batch = run_queries_managed(setup, spec, chunk, hail_splitting, manager, infra)?;
        // Absorb evidence deterministically: jobs in submission order,
        // tasks in each report's schedule order. When the advisor's
        // store *is* the infra's shared store, `run_queries_managed`
        // already absorbed this round — absorbing again would double
        // every observation.
        let absorbed_by_batch = infra
            .feedback
            .as_ref()
            .is_some_and(|f| std::ptr::eq(Arc::as_ptr(f), feedback));
        if !absorbed_by_batch {
            for run in &batch.runs {
                for task in &run.report.tasks {
                    feedback.absorb(&task.stats);
                }
            }
        }
        runs.append(&mut batch.runs);
        for action in advisor.note_round(feedback, setup.cluster.namenode(), &blocks) {
            let outcome = apply_reindex(&mut setup.cluster, &blocks, &action)?;
            events.push(ReindexEvent {
                after_job: runs.len(),
                outcome,
            });
        }
    }
    Ok(AdaptiveRun { runs, events })
}

/// Runs a query under a staged node failure (§6.4.3). The cluster's
/// failed node stays dead afterwards.
pub fn run_query_with_failure(
    setup: &mut SystemSetup,
    spec: &ClusterSpec,
    query: &HailQuery,
    hail_splitting: bool,
    scenario: hail_mr::FailureScenario,
) -> Result<hail_mr::FailoverRun> {
    let format = make_format(setup, spec, query, hail_splitting);
    let job = MapJob::collecting("query", setup.dataset.blocks.clone(), &format);
    hail_mr::run_map_job_with_failure(&mut setup.cluster, spec, &job, scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_workloads::{bob_queries, canonical, oracle_eval};

    /// Nearest rank over the samples in `total_cmp` order: a NaN sample
    /// sorts last instead of panicking the summary.
    #[test]
    fn percentile_orders_every_sample() {
        let mut samples = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&mut samples, 50.0), 2.0);
        assert!(percentile(&mut samples, 100.0).is_nan());
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn three_systems_agree_on_bob_q1() {
        let scale = ExperimentScale::query(4, 1500);
        let tb = uv_testbed(scale, HardwareProfile::physical());
        let q = bob_queries()[0].to_query(&tb.schema).unwrap();

        let hadoop = setup_hadoop(&tb).unwrap();
        let hail = setup_hail(&tb, &[2, 0, 3]).unwrap();
        let (hpp, _) = setup_hpp(&tb, Some(0)).unwrap();

        let r_hadoop = run_query(&hadoop, &tb.spec, &q, false).unwrap();
        let r_hail = run_query(&hail, &tb.spec, &q, true).unwrap();
        let r_hpp = run_query(&hpp, &tb.spec, &q, false).unwrap();

        let expected = canonical(&oracle_eval(&tb.texts, &tb.schema, &q));
        assert_eq!(canonical(&r_hadoop.output), expected);
        assert_eq!(canonical(&r_hail.output), expected);
        assert_eq!(canonical(&r_hpp.output), expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn scale_factor_derivation() {
        let scale = ExperimentScale::upload(2, 500);
        let tb = uv_testbed(scale, HardwareProfile::physical());
        // Block size ≈ per-node text / blocks_per_node.
        let per_node = tb.texts[0].1.len();
        let expected = per_node / tb.scale.blocks_per_node;
        assert!((tb.storage.block_size as i64 - expected as i64).abs() < 2);
        assert!(tb.spec.scale.0 > 1.0);
    }

    #[test]
    fn hail_splitting_reduces_tasks() {
        let scale = ExperimentScale::query(4, 2000);
        let tb = uv_testbed(scale, HardwareProfile::physical());
        let q = bob_queries()[0].to_query(&tb.schema).unwrap();
        let hail = setup_hail(&tb, &[2, 0, 3]).unwrap();
        let with = run_query(&hail, &tb.spec, &q, true).unwrap();
        let without = run_query(&hail, &tb.spec, &q, false).unwrap();
        assert!(with.report.task_count() * 4 < without.report.task_count());
        assert!(with.report.end_to_end_seconds < without.report.end_to_end_seconds);
    }
}
