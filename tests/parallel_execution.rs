//! Parallel split execution end to end: the executor must change wall
//! clock only.
//!
//! Acceptance criteria of the parallel-executor change: with
//! parallelism 1 the engine behaves exactly as before; with any higher
//! parallelism the same jobs produce identical output rows **in the
//! same order**, identical simulated-clock reports, identical
//! path/selectivity/cache statistics, and a non-negative framework
//! overhead (wall clock is reported separately and never leaks into
//! the simulated accounting).

use hail::exec::{ExecutorConfig, PlannerConfig};
use hail::mr::{read_one_split, JobReport, SplitContext};
use hail::prelude::*;
use std::sync::Arc;

fn storage() -> StorageConfig {
    let mut s = StorageConfig::test_scale(4 * 1024);
    s.index_partition_size = 16;
    s
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::VarChar),
    ])
    .unwrap()
}

/// A 4-node cluster with enough blocks that `HailSplitting` builds
/// multi-block splits (the executor's fan-out unit).
fn setup() -> (DfsCluster, Dataset) {
    let mut cluster = DfsCluster::new(4, storage());
    let texts: Vec<(usize, String)> = (0..4)
        .map(|n| {
            (
                n,
                (0..3000)
                    .map(|i| format!("{}|w{}\n", (i * 7 + n) % 500, i))
                    .collect(),
            )
        })
        .collect();
    let dataset = upload_hail(
        &mut cluster,
        &schema(),
        "t",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[0]),
    )
    .unwrap();
    (cluster, dataset)
}

fn run_at(
    cluster: &DfsCluster,
    dataset: &Dataset,
    parallelism: usize,
    planner: PlannerConfig,
) -> (Vec<Row>, JobReport) {
    run_at_levels(cluster, dataset, parallelism, 1, planner)
}

fn run_at_levels(
    cluster: &DfsCluster,
    dataset: &Dataset,
    split_parallelism: usize,
    job_parallelism: usize,
    planner: PlannerConfig,
) -> (Vec<Row>, JobReport) {
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
    let format = PlannedInputFormat::new(dataset.clone(), query).with_planner(planner);
    let job = MapJob::collecting("par", dataset.blocks.clone(), &format)
        .with_parallelism(split_parallelism)
        .with_job_parallelism(job_parallelism);
    let spec = ClusterSpec::new(4, HardwareProfile::physical());
    let run = run_map_job(cluster, &spec, &job).unwrap();
    (run.output, run.report)
}

/// Every simulated-domain figure of two reports must be bit-for-bit
/// equal; only the measured wall clock may differ.
fn assert_reports_identical(serial: &JobReport, parallel: &JobReport) {
    assert_eq!(serial.task_count(), parallel.task_count());
    assert_eq!(serial.split_count, parallel.split_count);
    assert_eq!(serial.end_to_end_seconds, parallel.end_to_end_seconds);
    assert_eq!(serial.ideal_seconds(), parallel.ideal_seconds());
    assert_eq!(serial.overhead_seconds(), parallel.overhead_seconds());
    assert_eq!(serial.path_counts(), parallel.path_counts());
    assert_eq!(serial.plan_cache_hits(), parallel.plan_cache_hits());
    assert_eq!(serial.plan_cache_misses(), parallel.plan_cache_misses());
    for (a, b) in serial.tasks.iter().zip(&parallel.tasks) {
        assert_eq!(a.split, b.split);
        assert_eq!(a.node, b.node);
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
        assert_eq!(a.reader_seconds, b.reader_seconds);
        assert_eq!(a.stats.records, b.stats.records);
        assert_eq!(a.stats.paths, b.stats.paths);
        assert_eq!(a.stats.serial_pricing, b.stats.serial_pricing);
        assert_eq!(a.stats.sidecar_bytes_read, b.stats.sidecar_bytes_read);
        // Selectivity observations in the same (split) order — the
        // order the feedback store's decay depends on.
        assert_eq!(a.stats.selectivity, b.stats.selectivity);
    }
}

/// Acceptance: parallelism 1 is the old behavior, and parallelism
/// 2/4/8 reproduce it bit for bit — output rows in the same order and
/// identical simulated reports.
#[test]
fn any_parallelism_reproduces_the_serial_run() {
    let (cluster, dataset) = setup();
    let multi_block = {
        let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
        let format = PlannedInputFormat::new(dataset.clone(), query);
        let plan = format.splits(&cluster, &dataset.blocks).unwrap();
        plan.splits.iter().map(|s| s.blocks.len()).max().unwrap()
    };
    assert!(
        multi_block >= 3,
        "setup must produce multi-block splits, got max {multi_block}"
    );

    let (serial_out, serial_report) = run_at(&cluster, &dataset, 1, PlannerConfig::default());
    assert!(!serial_out.is_empty());
    for parallelism in [2, 4, 8] {
        let (out, report) = run_at(&cluster, &dataset, parallelism, PlannerConfig::default());
        assert_eq!(serial_out, out, "parallelism {parallelism} changed rows");
        assert_reports_identical(&serial_report, &report);
    }
}

/// Acceptance: the adaptive state (shared plan cache + selectivity
/// feedback) converges to the same values under parallel execution —
/// absorption order is split order, not completion order.
#[test]
fn adaptive_state_is_parallelism_invariant() {
    let (cluster, dataset) = setup();
    let run_with_state = |parallelism: usize| {
        let cache = Arc::new(PlanCache::default());
        let feedback = Arc::new(SelectivityFeedback::default());
        let planner = PlannerConfig {
            plan_cache: Some(Arc::clone(&cache)),
            feedback: Some(Arc::clone(&feedback)),
            ..Default::default()
        };
        // Two passes: the second hits the warm cache and plans from
        // absorbed feedback.
        run_at(&cluster, &dataset, parallelism, planner.clone());
        let (out, report) = run_at(&cluster, &dataset, parallelism, planner);
        (out, report, cache, feedback)
    };
    let (serial_out, serial_report, serial_cache, serial_fb) = run_with_state(1);
    let (par_out, par_report, par_cache, par_fb) = run_with_state(4);

    assert_eq!(serial_out, par_out);
    assert_reports_identical(&serial_report, &par_report);
    assert!(serial_report.plan_cache_hits() > 0, "second pass was warm");
    let (s, p) = (serial_cache.stats(), par_cache.stats());
    assert_eq!(s.hits, p.hits);
    assert_eq!(s.misses, p.misses);
    assert_eq!(s.cost_evaluations, p.cost_evaluations);
    // The feedback store's decayed estimate is bit-identical: the
    // executor merged observations in split order both times.
    assert_eq!(serial_fb.observed(0, false), par_fb.observed(0, false));
    assert_eq!(
        serial_fb.observation_count(0, false),
        par_fb.observation_count(0, false)
    );
}

/// Acceptance (satellite): wall clock and simulated reader work are
/// separate domains — a parallel run reports a measured wall clock but
/// its simulated overhead is the serial run's, never negative.
#[test]
fn overhead_accounting_survives_parallel_readers() {
    let (cluster, dataset) = setup();
    let (_, report) = run_at(&cluster, &dataset, 4, PlannerConfig::default());
    assert!(report.overhead_seconds() >= 0.0);
    assert!(report.ideal_seconds() > 0.0);
    // Wall clock is recorded per task and summed, and is a real
    // measurement: non-negative and finite.
    let wall = report.reader_wall_seconds();
    assert!(wall.is_finite() && wall >= 0.0);
    // The simulated reader *work* is unaffected by the fan-out.
    let (_, serial_report) = run_at(&cluster, &dataset, 1, PlannerConfig::default());
    assert_eq!(
        report.total_reader_seconds(),
        serial_report.total_reader_seconds()
    );
}

/// Acceptance: mid-job failure handling (lost-task re-execution and
/// degraded re-reads) is parallelism-invariant too.
#[test]
fn failover_is_parallelism_invariant() {
    let run_failure = |parallelism: usize| {
        let (mut cluster, dataset) = setup();
        let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
        let format = PlannedInputFormat::new(dataset.clone(), query);
        let job =
            MapJob::collecting("fo", dataset.blocks.clone(), &format).with_parallelism(parallelism);
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(1)).unwrap()
    };
    let serial = run_failure(1);
    let parallel = run_failure(4);
    let mut serial_rows: Vec<String> = serial.output.iter().map(Row::to_string).collect();
    let mut parallel_rows: Vec<String> = parallel.output.iter().map(Row::to_string).collect();
    serial_rows.sort();
    parallel_rows.sort();
    assert_eq!(serial_rows, parallel_rows);
    assert_eq!(serial.rerun_count, parallel.rerun_count);
    assert_eq!(serial.slowdown_percent(), parallel.slowdown_percent());
    assert_eq!(
        serial.with_failure.end_to_end_seconds,
        parallel.with_failure.end_to_end_seconds
    );
}

/// Acceptance (job overlap): the full matrix of job-level parallelism
/// 1/2/4 × intra-split parallelism 1/2 reproduces the strictly
/// sequential run bit for bit — output rows in order, every simulated
/// report figure, and the post-job adaptive cache/feedback state.
#[test]
fn job_level_overlap_is_bit_for_bit_invariant() {
    let (cluster, dataset) = setup();
    let run_with_state = |split_p: usize, job_p: usize| {
        let cache = Arc::new(PlanCache::default());
        let feedback = Arc::new(SelectivityFeedback::default());
        let planner = PlannerConfig {
            plan_cache: Some(Arc::clone(&cache)),
            feedback: Some(Arc::clone(&feedback)),
            ..Default::default()
        };
        // Two passes: the second plans from a warm cache and absorbed
        // feedback, so any overlap-order leak into the adaptive state
        // would surface as diverging plans or counters.
        run_at_levels(&cluster, &dataset, split_p, job_p, planner.clone());
        let (out, report) = run_at_levels(&cluster, &dataset, split_p, job_p, planner);
        (out, report, cache, feedback)
    };

    let (base_out, base_report, base_cache, base_fb) = run_with_state(1, 1);
    assert!(!base_out.is_empty());
    for job_p in [1, 2, 4] {
        for split_p in [1, 2] {
            if (job_p, split_p) == (1, 1) {
                continue;
            }
            let (out, report, cache, fb) = run_with_state(split_p, job_p);
            assert_eq!(base_out, out, "job={job_p} split={split_p} changed rows");
            assert_reports_identical(&base_report, &report);
            let (b, p) = (base_cache.stats(), cache.stats());
            assert_eq!(b.hits, p.hits, "job={job_p} split={split_p} cache hits");
            assert_eq!(b.misses, p.misses);
            assert_eq!(b.cost_evaluations, p.cost_evaluations);
            assert_eq!(
                base_fb.observed(0, false),
                fb.observed(0, false),
                "job={job_p} split={split_p} feedback state"
            );
            assert_eq!(
                base_fb.observation_count(0, false),
                fb.observation_count(0, false)
            );
        }
    }
}

/// Acceptance (job overlap): a mid-job failure replayed through the
/// shared job-level pool is bit-for-bit equivalent to the sequential
/// replay — same output, same rerun set, same `T_f`.
#[test]
fn failover_through_the_shared_pool_is_invariant() {
    let run_failure = |split_p: usize, job_p: usize| {
        let (mut cluster, dataset) = setup();
        let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
        let format = PlannedInputFormat::new(dataset.clone(), query);
        let job = MapJob::collecting("fo", dataset.blocks.clone(), &format)
            .with_parallelism(split_p)
            .with_job_parallelism(job_p);
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(1)).unwrap()
    };
    let serial = run_failure(1, 1);
    for (split_p, job_p) in [(1, 4), (2, 2), (2, 4)] {
        let pooled = run_failure(split_p, job_p);
        assert_eq!(serial.output.len(), pooled.output.len());
        for (a, b) in serial.output.iter().zip(&pooled.output) {
            assert_eq!(a, b, "job={job_p} split={split_p} changed output order");
        }
        assert_eq!(serial.rerun_count, pooled.rerun_count);
        assert_eq!(serial.failure_time, pooled.failure_time);
        assert_eq!(serial.slowdown_percent(), pooled.slowdown_percent());
        assert_reports_identical(&serial.with_failure, &pooled.with_failure);
    }
}

/// The scheduler-level override beats the format's own executor config
/// (including the `HAIL_PARALLELISM` default), and a `SplitContext`
/// read honors whichever applies — results identical either way.
#[test]
fn split_context_parallelism_overrides_format_config() {
    let (cluster, dataset) = setup();
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
    let format = PlannedInputFormat::new(dataset.clone(), query.clone())
        .with_executor(ExecutorConfig::with_parallelism(2).with_per_node_slots(1));
    let plan = format.splits(&cluster, &dataset.blocks).unwrap();
    let split = plan.splits.iter().max_by_key(|s| s.blocks.len()).unwrap();

    let on_node = SplitContext::on(split.locations[0]);
    let mut via_format = Vec::new();
    read_one_split(&format, &cluster, split, on_node, &mut |r| {
        via_format.push(r)
    })
    .unwrap();
    let mut via_override = Vec::new();
    read_one_split(
        &format,
        &cluster,
        split,
        on_node.with_parallelism(8),
        &mut |r| via_override.push(r),
    )
    .unwrap();
    assert_eq!(via_format, via_override);
    assert!(!via_format.is_empty());
}
