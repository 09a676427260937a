//! Multi-job serving end to end: the `JobManager` admitting ~200
//! queued Bob/Synthetic queries at concurrency 1/2/4, with per-job
//! results bit-for-bit identical to solo runs at every interleaving.
//! No job's plan reads state another job writes, so this holds by
//! construction; the tests keep checking it.
//!
//! Covers the acceptance criteria of the multi-job change:
//!
//! - per-job **output** and whole **report** (modulo measured wall
//!   clock and queue wait) identical to a solo run at concurrency
//!   1/2/4, jobs that share a filter shape or repeat a query included;
//! - the same for conjunctive queries over two filter columns;
//! - peak memory stays O(chunk) per in-flight job: no
//!   `read_split_batch` call ever exceeds `SPLIT_BATCH_CHUNK` splits,
//!   managed or not;
//! - failover under concurrency: a mid-job node death, then ≥4
//!   concurrent jobs over the degraded cluster, still bit-for-bit
//!   against solo runs on that cluster.
//!
//! At concurrency 2 in the two solo-equivalence sweeps each job also
//! reads two splits at once.

use hail::prelude::*;
use hail_bench::{
    make_shared_format, run_queries_managed, run_queries_managed_at, setup_hail, uv_testbed,
    ExperimentScale, SharedJobInfra, SystemSetup,
};
use hail_mr::{JobReport, JobRun, SplitPlan, SplitRead, SplitTask};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Every `(jobs in flight, job parallelism)` setting the managed sweeps
/// run: concurrency 1, 2 and 4, where the two concurrent jobs at
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

fn syn_setup(rows_per_node: usize, blocks_per_node: usize) -> (hail_bench::Testbed, SystemSetup) {
    let scale = ExperimentScale::query(4, rows_per_node)
        .with_blocks_per_node(blocks_per_node)
        .with_partition_size(64);
    let tb = hail_bench::syn_testbed(scale, HardwareProfile::physical());
    let setup = setup_hail(&tb, &[0, 1, 2]).unwrap();
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

/// Bob-style UserVisits query variants: the five paper queries' filter
/// families with varying literals. Cycles with period 25, so a batch
/// of 100 holds 25 unique queries, each queued four times.
fn uv_queries(n: usize, schema: &Schema) -> Vec<HailQuery> {
    (0..n)
        .map(|i| {
            let k = i % 25;
            match k % 5 {
                0 => HailQuery::parse(
                    &format!("@4 >= {} and @4 <= {}", k, k + 40),
                    "{@8, @9, @4}",
                    schema,
                ),
                1 => HailQuery::parse(
                    &format!("@3 between(19{:02}-01-01, 2000-01-01)", 90 + (k % 10)),
                    "{@1}",
                    schema,
                ),
                2 => HailQuery::parse(
                    &format!("@1 = '172.101.11.{}'", 40 + k),
                    "{@8, @9, @4}",
                    schema,
                ),
                3 => HailQuery::parse(&format!("@9 <= {}", 50 + 10 * k), "{@1, @9}", schema),
                _ => HailQuery::parse(&format!("@8 = 'searchword{}'", k % 7), "{@1, @8}", schema),
            }
            .unwrap()
        })
        .collect()
}

/// Synthetic query variants in the Table-1 style: selectivity and
/// projectivity sweeps on @1. Cycles with period 25.
fn syn_queries(n: usize, schema: &Schema) -> Vec<HailQuery> {
    let projections = ["", "{@1}", "{@1, @2, @3}", "{@1, @5, @9, @13}"];
    (0..n)
        .map(|i| {
            let k = i % 25;
            HailQuery::parse(
                &format!("@1 <= {}", 9 + 37 * k),
                projections[k % projections.len()],
                schema,
            )
            .unwrap()
        })
        .collect()
}

/// ~200 queued Bob/Synthetic queries through the manager at
/// concurrency 1/2/4 (two splits per job at once at concurrency 2):
/// every job's output and whole report (wall clocks zeroed) are
/// bit-for-bit its solo run's — each query is queued four times and
/// each filter shape five times, so jobs share shapes and whole
/// queries with jobs in flight beside them — and queue-wait telemetry
/// surfaces for queued jobs.
#[test]
fn two_hundred_queries_match_solo_at_every_concurrency() {
    let (uv_tb, uv) = uv_setup(400, 4);
    let (syn_tb, syn) = syn_setup(300, 4);
    let uv_qs = uv_queries(100, &bob_schema());
    let syn_qs = syn_queries(100, &synthetic_schema());

    // Solo baselines, one per unique query.
    let uv_expected: Vec<JobRun> = uv_qs[..25]
        .iter()
        .map(|q| solo(&uv, &uv_tb.spec, q, true))
        .collect();
    let syn_expected: Vec<JobRun> = syn_qs[..25]
        .iter()
        .map(|q| solo(&syn, &syn_tb.spec, q, true))
        .collect();

    for (conc, j) in SETTINGS {
        let manager = JobManager::new(conc);
        for (setup, spec, queries, expected) in [
            (&uv, &uv_tb.spec, &uv_qs, &uv_expected),
            (&syn, &syn_tb.spec, &syn_qs, &syn_expected),
        ] {
            let infra = SharedJobInfra::for_jobs(conc);
            let batch =
                run_queries_managed_at(setup, spec, queries, true, &manager, &infra, Some(j))
                    .unwrap();
            assert_eq!(batch.summary.jobs, queries.len());
            let runs = batch.runs;
            assert_eq!(runs.len(), queries.len());
            for (i, run) in runs.iter().enumerate() {
                let at = format!("concurrency {conc}, job parallelism {j}, job {i}");
                assert_eq!(
                    run.output,
                    expected[i % 25].output,
                    "{at}: managed output diverged from solo"
                );
                assert_eq!(
                    report_modulo_wall(&run.report),
                    report_modulo_wall(&expected[i % 25].report),
                    "{at}: report must be bit-for-bit modulo wall clock"
                );
                assert!(run.report.queue_wait_seconds >= 0.0);
            }
            // With one in-flight slot and 100 queued jobs, the tail of
            // the queue measurably waited.
            if conc == 1 {
                assert!(
                    runs.last().unwrap().report.queue_wait_seconds > 0.0,
                    "the last of 100 serially admitted jobs waited"
                );
            }
        }
    }
}

/// `JobReport` rendered with the measured-wall-clock fields (the only
/// fields allowed to vary between a managed and a solo run) zeroed.
fn report_modulo_wall(report: &JobReport) -> String {
    let mut r = report.clone();
    r.job_name = String::new(); // submitter-chosen label, not engine state
    r.queue_wait_seconds = 0.0;
    for t in &mut r.tasks {
        t.reader_wall_seconds = 0.0;
    }
    format!("{r:?}")
}

/// Queries whose filter shapes are pairwise distinct (different column
/// sets or predicate classes), three of them conjunctions over two
/// filter columns.
fn distinct_shape_queries(schema: &Schema) -> Vec<HailQuery> {
    [
        ("@3 between(1999-01-01, 2000-01-01)", "{@1}"),
        ("@1 = '172.101.11.46'", "{@8, @9, @4}"),
        ("@1 = '172.101.11.46' and @3 = 1992-12-22", "{@8, @9, @4}"),
        ("@4 >= 1 and @4 <= 10", "{@8, @9, @4}"),
        ("@8 = 'searchword3'", "{@1, @8}"),
        ("@9 <= 120", "{@1, @9}"),
        ("@4 >= 1 and @4 <= 10 and @9 <= 200", "{@4, @9}"),
        ("@1 = '172.101.11.46' and @4 <= 50", "{@1, @4}"),
    ]
    .iter()
    .map(|(f, p)| HailQuery::parse(f, p, schema).unwrap())
    .collect()
}

/// Conjunctive and single-column jobs alike: managed runs reproduce the
/// solo run's whole report — every simulated figure, schedule entry,
/// and counter — not just the output, at every concurrency and job
/// parallelism.
#[test]
fn distinct_shapes_reproduce_full_reports() {
    let (tb, setup) = uv_setup(500, 4);
    let queries = distinct_shape_queries(&bob_schema());
    let expected: Vec<JobRun> = queries
        .iter()
        .map(|q| solo(&setup, &tb.spec, q, true))
        .collect();
    for (conc, j) in SETTINGS {
        let infra = SharedJobInfra::for_jobs(conc);
        let runs = run_queries_managed_at(
            &setup,
            &tb.spec,
            &queries,
            true,
            &JobManager::new(conc),
            &infra,
            Some(j),
        )
        .unwrap()
        .runs;
        for (run, exp) in runs.iter().zip(&expected) {
            let at = format!("concurrency {conc}, job parallelism {j}");
            assert_eq!(run.output, exp.output, "{at}: output");
            assert_eq!(
                report_modulo_wall(&run.report),
                report_modulo_wall(&exp.report),
                "{at}: report must be bit-for-bit modulo wall clock"
            );
        }
    }
}

/// Failover under concurrency: a job survives a mid-run node death
/// (through the shared drive loop's re-evaluation and rerun passes),
/// then four concurrent jobs serve from the degraded cluster with
/// output and reports still bit-for-bit against solo runs on it.
#[test]
fn concurrent_jobs_on_a_degraded_cluster_match_solo() {
    let (tb, mut setup) = uv_setup(500, 4);
    let queries = distinct_shape_queries(&bob_schema());

    // Mid-job death: node 1 dies halfway through the first query.
    let failover = {
        let infra = SharedJobInfra::for_jobs(1);
        let format = make_shared_format(&setup, &tb.spec, &queries[0], true, &infra);
        let job = MapJob::collecting(
            "under-failure",
            setup.dataset.blocks.clone(),
            format.as_ref(),
        );
        run_map_job_with_failure(
            &mut setup.cluster,
            &tb.spec,
            &job,
            FailureScenario::at_half(1),
        )
        .unwrap()
    };
    assert!(setup.cluster.live_nodes().len() < 4, "the node stayed dead");
    let oracle = canonical(&oracle_eval(&tb.texts, &tb.schema, &queries[0]));
    assert_eq!(
        canonical(&failover.output),
        oracle,
        "failover must not lose or invent rows"
    );

    // Concurrent serving over the degraded cluster.
    let expected: Vec<JobRun> = queries
        .iter()
        .map(|q| solo(&setup, &tb.spec, q, true))
        .collect();
    let infra = SharedJobInfra::for_jobs(4);
    let runs = run_queries_managed(
        &setup,
        &tb.spec,
        &queries,
        true,
        &JobManager::new(4),
        &infra,
    )
    .unwrap()
    .runs;
    for (run, exp) in runs.iter().zip(&expected) {
        assert_eq!(run.output, exp.output, "degraded-cluster output diverged");
        assert_eq!(
            report_modulo_wall(&run.report),
            report_modulo_wall(&exp.report),
            "degraded-cluster report diverged"
        );
        // Every scheduled task avoided the dead node.
        for t in &run.report.tasks {
            assert_ne!(t.node, 1, "no task may be scheduled on a dead node");
        }
    }
}

/// The baselines run through the shared infrastructure too (one format
/// type), but plan statelessly: a managed Hadoop or Hadoop++ batch at
/// concurrency 2 returns each job's plain solo output and simulated
/// time, whatever same-shaped job ran before it.
#[test]
fn managed_baselines_match_their_solo_runs() {
    let scale = ExperimentScale::query(4, 300)
        .with_blocks_per_node(4)
        .with_partition_size(64);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let hadoop = hail_bench::setup_hadoop(&tb).unwrap();
    let (hpp, _) = hail_bench::setup_hpp(&tb, Some(2)).unwrap();
    let queries = uv_queries(10, &bob_schema());
    for setup in [&hadoop, &hpp] {
        let infra = SharedJobInfra::for_jobs(2);
        let batch =
            run_queries_managed(setup, &tb.spec, &queries, true, &JobManager::new(2), &infra)
                .unwrap();
        for (run, query) in batch.runs.iter().zip(&queries) {
            let solo = hail_bench::run_query(setup, &tb.spec, query, true).unwrap();
            assert_eq!(run.output, solo.output);
            assert_eq!(
                run.report.end_to_end_seconds,
                solo.report.end_to_end_seconds
            );
        }
    }
}

/// Wraps a format and records the largest `read_split_batch` it is
/// ever handed — the O(chunk) memory-bound probe.
struct BatchRecordingFormat {
    inner: Box<dyn InputFormat>,
    max_batch: AtomicUsize,
    calls: AtomicUsize,
}

impl BatchRecordingFormat {
    fn new(inner: Box<dyn InputFormat>) -> Self {
        BatchRecordingFormat {
            inner,
            max_batch: AtomicUsize::new(0),
            calls: AtomicUsize::new(0),
        }
    }
}

impl InputFormat for BatchRecordingFormat {
    fn splits(&self, cluster: &DfsCluster, input: &[hail::types::BlockId]) -> Result<SplitPlan> {
        self.inner.splits(cluster, input)
    }

    fn read_split_batch(
        &self,
        cluster: &DfsCluster,
        batch: &[SplitTask<'_>],
        job_parallelism: Option<usize>,
    ) -> Result<Vec<SplitRead>> {
        self.max_batch.fetch_max(batch.len(), Ordering::SeqCst);
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.read_split_batch(cluster, batch, job_parallelism)
    }

    fn name(&self) -> &str {
        "batch-recording"
    }
}

/// Peak memory stays O(chunk) per in-flight job under the manager: a
/// job over >64 per-block splits never sees a `read_split_batch`
/// larger than `SPLIT_BATCH_CHUNK`, at concurrency 4 either.
#[test]
fn managed_jobs_keep_chunked_reads_bounded() {
    // Per-block splits (no HailSplitting) over 4 × 20 = 80 blocks, so
    // every job's drive loop must chunk: 80 > SPLIT_BATCH_CHUNK.
    let (tb, setup) = uv_setup(240, 20);
    assert!(setup.dataset.blocks.len() > SPLIT_BATCH_CHUNK);
    let query = HailQuery::parse("@9 <= 150", "{@1, @9}", &bob_schema()).unwrap();

    let infra = SharedJobInfra::for_jobs(4);
    let formats: Vec<BatchRecordingFormat> = (0..4)
        .map(|_| {
            BatchRecordingFormat::new(make_shared_format(&setup, &tb.spec, &query, false, &infra))
        })
        .collect();
    let jobs: Vec<MapJob<'_>> = formats
        .iter()
        .map(|f| {
            MapJob::collecting(
                "bounded",
                setup.dataset.blocks.clone(),
                f as &dyn InputFormat,
            )
        })
        .collect();
    let runs = JobManager::new(4).run_batch(&setup.cluster, &tb.spec, &jobs);
    let expected = solo(&setup, &tb.spec, &query, false);
    for run in runs {
        assert_eq!(run.unwrap().output, expected.output);
    }
    for f in &formats {
        let max = f.max_batch.load(Ordering::SeqCst);
        assert!(
            max > 0 && max <= SPLIT_BATCH_CHUNK,
            "chunk bound violated: {max}"
        );
        assert!(
            f.calls.load(Ordering::SeqCst) >= setup.dataset.blocks.len() / SPLIT_BATCH_CHUNK,
            "the drive loop actually chunked"
        );
    }
}
