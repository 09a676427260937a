//! Parallel split execution end to end: reading whole splits at once
//! must change wall clock only.
//!
//! With job parallelism 1 the engine reads splits in order on the
//! caller's thread; at 2, 4 and 8 the same jobs produce identical
//! output rows **in the same order**, identical simulated-clock
//! reports, identical path/selectivity/replan statistics, and a
//! non-negative framework overhead (wall clock is reported separately
//! and never leaks into the simulated accounting).

use hail::mr::{FailoverRun, JobReport};
use hail::prelude::*;

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
/// several splits (the fan-out unit).
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
    job_parallelism: usize,
) -> (Vec<Row>, JobReport) {
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
    let format = PlannedInputFormat::new(dataset.clone(), query);
    let job = MapJob::collecting("par", dataset.blocks.clone(), &format)
        .with_job_parallelism(job_parallelism);
    let spec = ClusterSpec::new(4, HardwareProfile::physical());
    let run = run_map_job(cluster, &spec, &job).unwrap();
    (run.output, run.report)
}

/// A fresh cluster whose node 1 dies halfway through the job, read at
/// `job_parallelism`.
fn run_failure(job_parallelism: usize) -> FailoverRun {
    let (mut cluster, dataset) = setup();
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
    let format = PlannedInputFormat::new(dataset.clone(), query);
    let job = MapJob::collecting("fo", dataset.blocks.clone(), &format)
        .with_job_parallelism(job_parallelism);
    let spec = ClusterSpec::new(4, HardwareProfile::physical());
    run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(1)).unwrap()
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
    assert_eq!(serial.blocks_replanned(), parallel.blocks_replanned());
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
        // order the advisor's evidence store's decay depends on.
        assert_eq!(a.stats.selectivity, b.stats.selectivity);
    }
}

/// The advisor's evidence a job leaves: its tasks' observations
/// absorbed in schedule order into a fresh store, as the adaptive
/// loop feeds it.
fn evidence(report: &JobReport) -> String {
    let store = SelectivityFeedback::default();
    for task in &report.tasks {
        store.absorb(&task.stats);
    }
    format!("{store:?}")
}

/// Acceptance: job parallelism 1 is the sequential run, and 2/4/8
/// reproduce it bit for bit — output rows in the same order and
/// identical simulated reports.
#[test]
fn any_parallelism_reproduces_the_serial_run() {
    let (cluster, dataset) = setup();
    let splits = {
        let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
        let format = PlannedInputFormat::new(dataset.clone(), query);
        format
            .splits(&cluster, &dataset.blocks)
            .unwrap()
            .splits
            .len()
    };
    assert!(
        splits >= 4,
        "setup must give widths above 1 splits to overlap, got {splits}"
    );

    let (serial_out, serial_report) = run_at(&cluster, &dataset, 1);
    assert!(!serial_out.is_empty());
    for parallelism in [2, 4, 8] {
        let (out, report) = run_at(&cluster, &dataset, parallelism);
        assert_eq!(serial_out, out, "parallelism {parallelism} changed rows");
        assert_reports_identical(&serial_report, &report);
    }
}

/// Acceptance: the adaptive state (the advisor's evidence, fed from the
/// reports) converges to the same values under parallel execution —
/// observations come back in split order, not completion order.
#[test]
fn adaptive_state_is_parallelism_invariant() {
    let (cluster, dataset) = setup();
    let (serial_out, serial_report) = run_at(&cluster, &dataset, 1);
    let (par_out, par_report) = run_at(&cluster, &dataset, 4);

    assert_eq!(serial_out, par_out);
    assert_reports_identical(&serial_report, &par_report);
    assert!(
        serial_report
            .tasks
            .iter()
            .any(|t| !t.stats.selectivity.is_empty()),
        "the job observed selectivities"
    );
    assert_eq!(evidence(&serial_report), evidence(&par_report));
}

/// Acceptance (satellite): wall clock and simulated reader work are
/// separate domains — a parallel run reports a measured wall clock but
/// its simulated overhead is the serial run's, never negative.
#[test]
fn overhead_accounting_survives_parallel_readers() {
    let (cluster, dataset) = setup();
    let (_, report) = run_at(&cluster, &dataset, 4);
    assert!(report.overhead_seconds() >= 0.0);
    assert!(report.ideal_seconds() > 0.0);
    // Wall clock is recorded per task and summed, and is a real
    // measurement: non-negative and finite.
    let wall = report.reader_wall_seconds();
    assert!(wall.is_finite() && wall >= 0.0);
    // The simulated reader *work* is unaffected by the overlap.
    let (_, serial_report) = run_at(&cluster, &dataset, 1);
    assert_eq!(
        report.total_reader_seconds(),
        serial_report.total_reader_seconds()
    );
}

/// Acceptance: mid-job failure handling (lost-task re-execution and
/// degraded re-reads) is parallelism-invariant too.
#[test]
fn failover_is_parallelism_invariant() {
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

/// Acceptance (job overlap): job parallelism 2/4/8 reproduces the
/// strictly sequential run bit for bit — output rows in order, every
/// simulated report figure, and the evidence the reports feed the
/// advisor.
#[test]
fn job_level_overlap_is_bit_for_bit_invariant() {
    let (cluster, dataset) = setup();
    let (base_out, base_report) = run_at(&cluster, &dataset, 1);
    assert!(!base_out.is_empty());
    for job_p in [2, 4, 8] {
        let (out, report) = run_at(&cluster, &dataset, job_p);
        assert_eq!(base_out, out, "job={job_p} changed rows");
        assert_reports_identical(&base_report, &report);
        assert_eq!(
            evidence(&base_report),
            evidence(&report),
            "job={job_p} evidence"
        );
    }
}

/// Acceptance (job overlap): a mid-job failure replayed with
/// overlapping split reads is bit-for-bit equivalent to the sequential
/// replay — same output in the same order, same rerun set, same `T_f`.
#[test]
fn failover_through_the_shared_pool_is_invariant() {
    let serial = run_failure(1);
    for job_p in [2, 4, 8] {
        let overlapped = run_failure(job_p);
        assert_eq!(serial.output.len(), overlapped.output.len());
        for (a, b) in serial.output.iter().zip(&overlapped.output) {
            assert_eq!(a, b, "job={job_p} changed output order");
        }
        assert_eq!(serial.rerun_count, overlapped.rerun_count);
        assert_eq!(serial.failure_time, overlapped.failure_time);
        assert_eq!(serial.slowdown_percent(), overlapped.slowdown_percent());
        assert_reports_identical(&serial.with_failure, &overlapped.with_failure);
    }
}
