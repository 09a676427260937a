//! Concurrent jobs over overlapping block sets, end to end. Every
//! block read is one access path's own read, so jobs that scan the
//! same blocks at once leave no trace on each other: a managed job's
//! output AND whole report (modulo measured wall clocks) equal its solo
//! run's, even when shapes repeat and every job overlaps every other on
//! every block — the case cooperative scan sharing once served.

use hail::prelude::*;
use hail_bench::{
    make_shared_format, run_queries_managed_at, setup_hail, uv_testbed, ExperimentScale,
    SharedJobInfra, SystemSetup,
};
use hail_mr::{JobReport, JobRun};

/// Every `(jobs in flight, job parallelism)` setting the sweep runs:
/// concurrency 1, 2 and 4, where the two concurrent jobs at
/// concurrency 2 also read two splits each at once.
const SETTINGS: [(usize, usize); 3] = [(1, 1), (2, 2), (4, 1)];

fn uv_setup(rows_per_node: usize, blocks_per_node: usize) -> (hail_bench::Testbed, SystemSetup) {
    let scale = ExperimentScale::query(4, rows_per_node)
        .with_blocks_per_node(blocks_per_node)
        .with_partition_size(64);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let setup = setup_hail(&tb, &[2, 0, 3]).unwrap(); // visitDate, sourceIP, adRevenue
    (tb, setup)
}

/// A solo run with private infrastructure — the baseline every managed
/// job must reproduce bit-for-bit.
fn solo(setup: &SystemSetup, spec: &ClusterSpec, query: &HailQuery, splitting: bool) -> JobRun {
    let infra = SharedJobInfra::for_jobs(1);
    let format = make_shared_format(setup, spec, query, splitting, &infra);
    let job = MapJob::collecting("solo", setup.dataset.blocks.clone(), format.as_ref());
    run_map_job(&setup.cluster, spec, &job).unwrap()
}

/// `JobReport` rendered with the measured-wall-clock fields (the only
/// fields allowed to vary between a managed and a solo run) zeroed.
fn report_modulo_wall(report: &JobReport) -> String {
    let mut r = report.clone();
    r.job_name = String::new();
    r.queue_wait_seconds = 0.0;
    for t in &mut r.tasks {
        t.reader_wall_seconds = 0.0;
    }
    format!("{r:?}")
}

/// Eight pairwise-distinct filter shapes, repeated `repeats` times:
/// every job scans the whole block set, so any two concurrent jobs
/// overlap on every block, and repeated shapes land on identical
/// (replica, path) choices.
fn overlapping_queries(schema: &Schema, repeats: usize) -> Vec<HailQuery> {
    let shapes: Vec<HailQuery> = [
        ("@3 between(1999-01-01, 2000-01-01)", "{@1}"),
        ("@1 = '172.101.11.46'", "{@8, @9, @4}"),
        ("@4 >= 1 and @4 <= 10", "{@8, @9, @4}"),
        ("@8 = 'searchword3'", "{@1, @8}"),
        ("@9 <= 120", "{@1, @9}"),
        ("@4 >= 1 and @4 <= 10 and @9 <= 200", "{@4, @9}"),
        ("@1 = '172.101.11.46' and @4 <= 50", "{@1, @4}"),
        ("@9 <= 4000", "{@1, @9}"),
    ]
    .iter()
    .map(|(f, p)| HailQuery::parse(f, p, schema).unwrap())
    .collect();
    (0..repeats).flat_map(|_| shapes.iter().cloned()).collect()
}

/// Overlapping-block jobs at concurrency 1/2/4: outputs and reports
/// (modulo wall clocks) bit-for-bit against solo runs. At
/// concurrency 2 each job also reads two splits at once, so concurrent
/// jobs read the same blocks on split threads of their own.
#[test]
fn overlapping_jobs_match_solo_at_every_concurrency() {
    let (tb, setup) = uv_setup(500, 4);
    let queries = overlapping_queries(&bob_schema(), 3);
    let unique = 8;
    let expected: Vec<JobRun> = queries[..unique]
        .iter()
        .map(|q| solo(&setup, &tb.spec, q, true))
        .collect();

    for (conc, j) in SETTINGS {
        let infra = SharedJobInfra::for_jobs(conc);
        let batch = run_queries_managed_at(
            &setup,
            &tb.spec,
            &queries,
            true,
            &JobManager::new(conc),
            &infra,
            Some(j),
        )
        .unwrap();
        assert_eq!(batch.summary.jobs, queries.len());
        assert_eq!(
            batch.summary.logical_blocks,
            (queries.len() * setup.dataset.blocks.len()) as u64
        );
        for (i, run) in batch.runs.iter().enumerate() {
            let exp = &expected[i % unique];
            assert_eq!(
                run.output, exp.output,
                "concurrency {conc}, j {j}, job {i}: output diverged from solo"
            );
            assert_eq!(
                report_modulo_wall(&run.report),
                report_modulo_wall(&exp.report),
                "concurrency {conc}, j {j}, job {i}: report must be bit-for-bit modulo wall"
            );
        }
    }
}
