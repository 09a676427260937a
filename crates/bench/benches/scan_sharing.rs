//! Cooperative scan sharing: physical vs logical block reads for a
//! queue of overlapping Bob-query jobs at concurrency 1/2/4.
//!
//! Each of the five Bob queries is queued four times *adjacently*, so
//! at concurrency 4 the in-flight window is usually four jobs of the
//! same shape scanning the same blocks — the registry's serving-layer
//! case (think a dashboard fanning out the same query). Concurrency
//! may only change wall clock and the sharing counters: per-job rows
//! are asserted identical at every setting and against a
//! registry-less (`HAIL_DISABLE_SCAN_SHARING=1`-shaped) pool.
//!
//! Headline metrics — jobs/sec, physical blocks read (logical − pruned
//! − shared), and the physical-read reduction at concurrency 4 versus
//! sharing disabled (asserted ≥ 1.5×) — are written to `BENCH_9.json`
//! via [`BenchSummary`] for the driver to grep.

use hail_bench::{
    run_queries_managed, setup_hail, uv_testbed, BenchSummary, ExperimentScale, ManagedBatch,
    Report, SharedJobInfra,
};
use hail_core::HailQuery;
use hail_exec::SelectivityFeedback;
use hail_exec::{ExecutorConfig, JobPool, JobPoolConfig, PlanCache};
use hail_mr::JobManager;
use hail_sim::HardwareProfile;
use hail_workloads::bob_queries;
use std::sync::Arc;
use std::time::Instant;

const CONCURRENCIES: [usize; 3] = [1, 2, 4];
/// Queue depth: each Bob query queued this many times, adjacently.
const REPEATS: usize = 4;

/// The `HAIL_DISABLE_SCAN_SHARING=1` pool shape: same sizing as
/// `shared_job_pool`, no registry attached.
fn infra_without_sharing(max_jobs: usize) -> SharedJobInfra {
    let executor = ExecutorConfig::default();
    let job_workers = hail_core::knobs::job_parallelism().max(1);
    SharedJobInfra {
        plan_cache: Arc::new(PlanCache::default()),
        feedback: Some(Arc::new(SelectivityFeedback::default())),
        pool: Arc::new(JobPool::new(JobPoolConfig {
            workers: job_workers * max_jobs,
            budget: job_workers.max(executor.parallelism.max(1)) * max_jobs,
            per_node_slots: executor.per_node_slots,
        })),
    }
}

fn physical_blocks(batch: &ManagedBatch) -> u64 {
    batch.summary.logical_blocks - batch.summary.blocks_pruned - batch.summary.blocks_read_shared
}

fn outputs(batch: &ManagedBatch) -> Vec<Vec<String>> {
    batch
        .runs
        .iter()
        .map(|r| r.output.iter().map(|row| row.to_string()).collect())
        .collect()
}

fn main() {
    let scale = ExperimentScale::query(4, 40_000)
        .with_blocks_per_node(16)
        .with_partition_size(64);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let hail = setup_hail(&tb, &[2, 0, 3]).expect("hail setup"); // visitDate, sourceIP, adRevenue

    // Grouped, not cycled: [q0 ×4, q1 ×4, ...].
    let queries: Vec<HailQuery> = bob_queries()
        .iter()
        .flat_map(|spec| {
            let q = spec.to_query(&tb.schema).expect(spec.id);
            std::iter::repeat_n(q, REPEATS)
        })
        .collect();

    let mut table = Report::new(
        "scan-sharing/throughput",
        format!(
            "{} queued Bob jobs, each query ×{REPEATS} adjacent",
            queries.len()
        ),
        "jobs/sec + physical vs logical block reads",
    );
    let mut summary = BenchSummary::new("BENCH_9");
    let mut baseline: Option<Vec<Vec<String>>> = None;
    let mut physical_c4 = 0u64;

    for conc in CONCURRENCIES {
        let manager = JobManager::new(conc);
        let infra = SharedJobInfra::for_jobs(conc);
        let started = Instant::now();
        let batch = run_queries_managed(&hail, &tb.spec, &queries, true, &manager, &infra)
            .expect("managed batch");
        let secs = started.elapsed().as_secs_f64();

        // Sharing may only change counters — never rows.
        let rows = outputs(&batch);
        match &baseline {
            None => baseline = Some(rows),
            Some(expected) => assert_eq!(
                expected, &rows,
                "concurrency {conc} changed some job's rows or order"
            ),
        }

        let physical = physical_blocks(&batch);
        if conc == 4 {
            physical_c4 = physical;
        }
        let jobs_per_sec = queries.len() as f64 / secs;
        table.row(format!("concurrency={conc} jobs/sec"), None, jobs_per_sec);
        table.row(
            format!("concurrency={conc} physical blocks read"),
            None,
            physical as f64,
        );
        table.row(
            format!("concurrency={conc} blocks read shared"),
            None,
            batch.summary.blocks_read_shared as f64,
        );
        summary.metric(format!("jobs_per_sec_c{conc}"), jobs_per_sec);
        summary.metric(format!("physical_blocks_c{conc}"), physical as f64);
        summary.metric(
            format!("blocks_read_shared_c{conc}"),
            batch.summary.blocks_read_shared as f64,
        );
        if conc == 1 {
            assert_eq!(
                batch.summary.blocks_read_shared, 0,
                "one in-flight job never attaches"
            );
        }
        summary.metric(
            format!("logical_blocks_c{conc}"),
            batch.summary.logical_blocks as f64,
        );
    }

    // The registry-less pool at concurrency 4: the disable-knob
    // degradation, and the denominator of the headline reduction.
    let disabled = infra_without_sharing(4);
    let batch = run_queries_managed(
        &hail,
        &tb.spec,
        &queries,
        true,
        &JobManager::new(4),
        &disabled,
    )
    .expect("disabled batch");
    assert_eq!(
        batch.summary.blocks_read_shared, 0,
        "no registry, no sharing"
    );
    assert_eq!(
        baseline.as_ref().unwrap(),
        &outputs(&batch),
        "disabling sharing changed some job's rows or order"
    );
    let physical_disabled = physical_blocks(&batch);
    let reduction = physical_disabled as f64 / physical_c4 as f64;
    assert!(
        reduction >= 1.5,
        "scan sharing must cut physical block reads ≥1.5× at concurrency 4: \
         {physical_disabled} without vs {physical_c4} with ({reduction:.2}×)"
    );

    table.row(
        "concurrency=4 physical blocks, sharing off".to_string(),
        None,
        physical_disabled as f64,
    );
    summary.metric("physical_blocks_c4_disabled", physical_disabled as f64);
    summary.metric("physical_read_reduction_c4", reduction);
    table.note(format!(
        "physical reads at concurrency 4: {reduction:.2}× fewer with sharing on"
    ));
    table.note("per-job rows and order identical at every concurrency, sharing on or off");
    table.print();

    summary.report(table);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_9.json");
    summary.write_to(out).expect("write BENCH_9.json");
    eprintln!("wrote {out}");
}
