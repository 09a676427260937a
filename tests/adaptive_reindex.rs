//! The aggressive-elephant loop, closed end to end: sustained
//! `SelectivityFeedback` evidence on an unindexed column triggers an
//! in-place replica rewrite between job batches, the design epoch
//! bumps, and the very next job re-plans FullScan → index — with no
//! operator action.
//!
//! Pins the PR's acceptance criteria:
//!
//! - a repeated selective workload flips from FullScan to
//!   ClusteredIndexScan at a deterministic job boundary;
//! - equality evidence on a low-cardinality column builds a bitmap
//!   sidecar instead, and the planner picks BitmapScan;
//! - the flip boundary, per-job outputs, and reports (modulo measured
//!   wall clocks) are bit-for-bit identical at job concurrency 1/2/4 —
//!   re-indexing does not perturb the multi-job determinism contract;
//! - killing the replica that holds a freshly built adaptive index
//!   mid-workload loses no rows, and subsequent planning degrades
//!   gracefully to the surviving replicas' paths;
//! - the default policy re-indexes, and a disabled one (what
//!   `HAIL_DISABLE_REINDEX=1` selects) lets evidence accumulate but
//!   never moves the design.

use hail::prelude::*;
use hail_bench::{
    run_adaptive_workload, run_query, run_query_with_failure, setup_hail, uv_testbed, AdaptiveRun,
    ExperimentScale, SharedJobInfra, SystemSetup, Testbed,
};
use hail_mr::JobReport;
use hail_types::BlockId;

/// duration (@9, 0-based column 8): uniform 1..10_000, so `@9 <= 500`
/// is ~5% selective — well under the advisor's 0.15 ceiling.
const DURATION_COL: usize = 8;
/// searchWord (@8, 0-based column 7): 12 distinct values, bitmap-able.
const SEARCHWORD_COL: usize = 7;

/// A testbed whose replicas serve visitDate (@3) and sourceIP (@1)
/// only — duration and searchWord are unindexed everywhere, and
/// replica 2 is unsorted (the safe rewrite target).
fn adaptive_setup(rows_per_node: usize, blocks_per_node: usize) -> (Testbed, SystemSetup) {
    let scale = ExperimentScale::query(4, rows_per_node)
        .with_blocks_per_node(blocks_per_node)
        .with_partition_size(64);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let setup = setup_hail(&tb, &[2, 0]).unwrap();
    (tb, setup)
}

/// An advisor with the default evidence thresholds, switched on or off
/// explicitly rather than by the `HAIL_DISABLE_REINDEX` default.
fn advisor(enabled: bool) -> ReindexAdvisor {
    ReindexAdvisor::new(ReindexPolicy {
        enabled,
        ..ReindexPolicy::default()
    })
}

/// One round of pairwise-distinct filter shapes (no intra-round cache
/// racing, so the full report-determinism contract applies). The first
/// query is the evidence driver: a ~5% range predicate on the
/// unindexed duration column.
fn round_queries(schema: &Schema) -> Vec<HailQuery> {
    [
        ("@9 <= 500", "{@1, @9}"),
        ("@3 between(1999-01-01, 2000-01-01)", "{@1}"),
        ("@1 = '172.101.11.46'", "{@8, @9, @4}"),
        ("@4 >= 1 and @4 <= 10 and @9 <= 5000", "{@4, @9}"),
    ]
    .iter()
    .map(|(f, p)| HailQuery::parse(f, p, schema).unwrap())
    .collect()
}

/// `rounds` repetitions of [`round_queries`], flattened in submission
/// order.
fn workload(schema: &Schema, rounds: usize) -> Vec<HailQuery> {
    let one = round_queries(schema);
    (0..rounds).flat_map(|_| one.iter().cloned()).collect()
}

/// Drives [`workload`] through the adaptive loop at the given
/// concurrency on a fresh, identical cluster.
fn drive(tb: &Testbed, conc: usize, rounds: usize) -> (SystemSetup, AdaptiveRun) {
    let mut setup = setup_hail(tb, &[2, 0]).unwrap();
    let queries = workload(&tb.schema, rounds);
    let round_size = round_queries(&tb.schema).len();
    let manager = JobManager::new(conc);
    let infra = SharedJobInfra::for_jobs(conc);
    let advisor = advisor(true);
    let feedback = SelectivityFeedback::default();
    let run = run_adaptive_workload(
        &mut setup, &tb.spec, &queries, true, &manager, &infra, &advisor, &feedback, round_size,
    )
    .unwrap();
    (setup, run)
}

/// `JobReport` rendered with the measured-wall-clock fields and the
/// scan-sharing telemetry (the only fields allowed to vary between
/// runs — which reads attach to a concurrent decode depends on real
/// thread timing) zeroed.
fn report_modulo_wall(report: &JobReport) -> String {
    let mut r = report.clone();
    r.job_name = String::new();
    r.queue_wait_seconds = 0.0;
    for t in &mut r.tasks {
        t.reader_wall_seconds = 0.0;
        t.stats.blocks_read_shared = 0;
        t.stats.shared_bytes_saved = 0;
    }
    format!("{r:?}")
}

/// The tentpole acceptance test: a repeated selective workload on the
/// unindexed duration column flips FullScan → ClusteredIndexScan at a
/// deterministic job boundary, with identical (and correct) outputs on
/// both sides of the flip.
#[test]
fn repeated_selective_workload_flips_fullscan_to_index() {
    let (tb, _) = adaptive_setup(400, 4);
    let (setup, run) = drive(&tb, 2, 4);
    let round_size = round_queries(&tb.schema).len();

    // Exactly one rebuild fired: a clustered index on duration, after
    // round 2 (hysteresis_rounds = 2), covering every block.
    assert_eq!(run.events.len(), 1, "exactly one adaptive rebuild fires");
    let event = &run.events[0];
    assert_eq!(event.outcome.action.column, DURATION_COL);
    assert_eq!(event.outcome.action.kind, ReindexKind::Clustered);
    assert_eq!(event.after_job, 2 * round_size, "flip lands after round 2");
    assert_eq!(
        event.outcome.replicas_rewritten,
        setup.dataset.blocks.len(),
        "one replica rewritten per block"
    );
    assert_eq!(event.outcome.blocks_skipped, 0);

    // Every block now advertises a live host serving the new index.
    for &block in &setup.dataset.blocks {
        let hosts = setup
            .cluster
            .namenode()
            .get_hosts_with_index(block, DURATION_COL)
            .unwrap();
        assert_eq!(hosts.len(), 1, "block {block}: exactly one indexed replica");
    }

    // The driver query full-scanned before the boundary and uses the
    // clustered index — never a FullScan — after it, and the index makes
    // its simulated job cheaper.
    let mut sim_seconds = [Vec::new(), Vec::new()]; // pre-, post-flip
    for (i, job) in run.runs.iter().enumerate() {
        if i % round_size != 0 {
            continue; // only the duration-predicate jobs
        }
        sim_seconds[usize::from(i >= event.after_job)].push(job.report.end_to_end_seconds);
        let counts = job.report.path_counts();
        if i < event.after_job {
            assert!(
                counts.get(AccessPathKind::FullScan) > 0,
                "job {i}: pre-flip jobs pay the full scan"
            );
            assert_eq!(
                counts.get(AccessPathKind::ClusteredIndexScan),
                0,
                "job {i}: no duration index exists yet"
            );
        } else {
            assert!(
                counts.get(AccessPathKind::ClusteredIndexScan) > 0,
                "job {i}: post-flip jobs plan onto the new index"
            );
            assert_eq!(
                counts.get(AccessPathKind::FullScan),
                0,
                "job {i}: the flip retires the full scan entirely"
            );
        }
    }
    let [pre, post] = sim_seconds.map(|s| s.iter().sum::<f64>() / s.len() as f64);
    assert!(
        post < pre,
        "the index must make the simulated job cheaper: {post} vs {pre}"
    );

    // Outputs are identical on both sides of the flip and match the
    // oracle: the rewrite changed layout, never data.
    let queries = round_queries(&tb.schema);
    for (qi, query) in queries.iter().enumerate() {
        let expected = canonical(&oracle_eval(&tb.texts, &tb.schema, query));
        for round in 0..4 {
            let run = &run.runs[round * round_size + qi];
            assert_eq!(
                canonical(&run.output),
                expected,
                "query {qi} round {round}: output must match the oracle"
            );
        }
    }
}

/// Equality evidence on a low-cardinality column builds a bitmap
/// sidecar (not a clustered index), and the planner flips the query
/// onto BitmapScan.
#[test]
fn equality_evidence_builds_a_bitmap_sidecar() {
    let scale = ExperimentScale::query(4, 400)
        .with_blocks_per_node(4)
        .with_partition_size(64);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let mut setup = setup_hail(&tb, &[2, 0]).unwrap();

    // searchWord equality: 12 distinct values → ~8% selective, under
    // both the advisor ceiling and the bitmap cardinality limit.
    let query = HailQuery::parse("@8 = 'searchword3'", "{@1, @8}", &tb.schema).unwrap();
    let queries: Vec<HailQuery> = (0..6).map(|_| query.clone()).collect();

    let manager = JobManager::new(1);
    let infra = SharedJobInfra::for_jobs(1);
    let advisor = advisor(true);
    let feedback = SelectivityFeedback::default();
    let run = run_adaptive_workload(
        &mut setup, &tb.spec, &queries, true, &manager, &infra, &advisor, &feedback, 1,
    )
    .unwrap();

    assert_eq!(run.events.len(), 1);
    let event = &run.events[0];
    assert_eq!(event.outcome.action.column, SEARCHWORD_COL);
    assert_eq!(event.outcome.action.kind, ReindexKind::BitmapSidecar);
    assert!(event.outcome.replicas_rewritten > 0);

    for &block in &setup.dataset.blocks {
        let hosts = setup
            .cluster
            .namenode()
            .get_hosts_with_bitmap(block, SEARCHWORD_COL)
            .unwrap();
        assert_eq!(hosts.len(), 1, "block {block}: one bitmap-bearing replica");
    }

    let expected = canonical(&oracle_eval(&tb.texts, &tb.schema, &query));
    for (i, job) in run.runs.iter().enumerate() {
        assert_eq!(canonical(&job.output), expected, "job {i}: output");
        let counts = job.report.path_counts();
        if i >= event.after_job {
            assert!(
                counts.get(AccessPathKind::BitmapScan) > 0,
                "job {i}: post-flip jobs use the bitmap sidecar"
            );
            assert_eq!(counts.get(AccessPathKind::FullScan), 0, "job {i}");
        } else {
            assert_eq!(counts.get(AccessPathKind::BitmapScan), 0, "job {i}");
        }
    }
}

/// The determinism regression: the same adaptive workload at
/// concurrency 1, 2, and 4 produces bit-for-bit identical per-job
/// outputs and reports (modulo measured wall clocks), identical
/// rebuild outcomes, and the FullScan→index flip at the same job
/// boundary. Concurrency 1 *is* the solo baseline — one job in flight,
/// admitted in submission order.
#[test]
fn flip_boundary_and_reports_identical_at_every_concurrency() {
    let (tb, _) = adaptive_setup(400, 4);
    let (_, baseline) = drive(&tb, 1, 4);
    assert_eq!(baseline.events.len(), 1, "solo run flips exactly once");

    for conc in [2usize, 4] {
        let (_, run) = drive(&tb, conc, 4);
        assert_eq!(
            run.events.len(),
            baseline.events.len(),
            "concurrency {conc}: same number of rebuilds as solo"
        );
        for (e, be) in run.events.iter().zip(&baseline.events) {
            assert_eq!(
                e.after_job, be.after_job,
                "concurrency {conc}: flip at the same job boundary as solo"
            );
            assert_eq!(
                e.outcome, be.outcome,
                "concurrency {conc}: identical rebuild outcome"
            );
        }
        assert_eq!(run.runs.len(), baseline.runs.len());
        for (i, (r, b)) in run.runs.iter().zip(&baseline.runs).enumerate() {
            assert_eq!(
                r.output, b.output,
                "concurrency {conc}, job {i}: output identical to solo"
            );
            assert_eq!(
                report_modulo_wall(&r.report),
                report_modulo_wall(&b.report),
                "concurrency {conc}, job {i}: report bit-for-bit modulo wall clock"
            );
        }
    }
}

/// Fault injection on the adaptive index itself: kill the replica that
/// holds a freshly built index mid-workload. The in-flight job loses
/// no rows (failover re-executes the lost tasks), and subsequent
/// planning degrades gracefully to the surviving replicas' paths —
/// still correct, just back to scanning where the dead node held the
/// only index.
#[test]
fn killing_freshly_indexed_replica_degrades_gracefully() {
    let (tb, _) = adaptive_setup(400, 4);
    let (mut setup, run) = drive(&tb, 2, 3);
    assert_eq!(run.events.len(), 1, "the rebuild fired before the failure");

    // The node holding the new duration index on the first block.
    let block0 = setup.dataset.blocks[0];
    let victim = setup
        .cluster
        .namenode()
        .get_hosts_with_index(block0, DURATION_COL)
        .unwrap()[0];
    let affected_before: Vec<BlockId> = setup
        .dataset
        .blocks
        .iter()
        .copied()
        .filter(|&b| {
            setup
                .cluster
                .namenode()
                .get_hosts_with_index(b, DURATION_COL)
                .unwrap()
                .contains(&victim)
        })
        .collect();
    assert!(
        !affected_before.is_empty(),
        "the victim held at least one adaptive index"
    );

    // Kill it at 50% job progress: the failover run must still produce
    // the oracle's rows.
    let query = &round_queries(&tb.schema)[0];
    let expected = canonical(&oracle_eval(&tb.texts, &tb.schema, query));
    let failover = run_query_with_failure(
        &mut setup,
        &tb.spec,
        query,
        true,
        FailureScenario::at_half(victim),
    )
    .unwrap();
    assert_eq!(
        canonical(&failover.output),
        expected,
        "mid-job death of the indexed replica loses no rows"
    );
    assert!(failover.rerun_count > 0, "lost tasks were re-executed");

    // The namenode no longer advertises the dead node's indexes; the
    // affected blocks fall back to their surviving (unindexed, for
    // duration) replicas.
    for &b in &affected_before {
        let hosts = setup
            .cluster
            .namenode()
            .get_hosts_with_index(b, DURATION_COL)
            .unwrap();
        assert!(
            !hosts.contains(&victim),
            "block {b}: dead node dropped from Dir_rep candidates"
        );
    }

    // Planning on the degraded cluster stays correct: some blocks lost
    // their only duration index and full-scan again, the rest keep
    // their index — and the rows are still the oracle's.
    let degraded = run_query(&setup, &tb.spec, query, true).unwrap();
    assert_eq!(canonical(&degraded.output), expected, "degraded planning");
    let counts = degraded.report.path_counts();
    assert!(
        counts.get(AccessPathKind::FullScan) > 0,
        "blocks whose only index died degrade to FullScan"
    );
    assert!(
        counts.get(AccessPathKind::ClusteredIndexScan) > 0,
        "blocks with a surviving indexed replica keep using it"
    );
}

/// The `HAIL_DISABLE_REINDEX` switch, both ways: the default policy is
/// on and closes the loop; a disabled one lets evidence accumulate but
/// never moves the design. Every job matches the oracle either way.
#[test]
fn default_policy_honours_disable_env() {
    assert!(ReindexPolicy::default().enabled, "re-indexing defaults on");
    let tb = adaptive_setup(300, 2).0;
    let round_size = round_queries(&tb.schema).len();
    for enabled in [true, false] {
        let mut setup = setup_hail(&tb, &[2, 0]).unwrap();
        let feedback = SelectivityFeedback::default();
        let run = run_adaptive_workload(
            &mut setup,
            &tb.spec,
            &workload(&tb.schema, 3),
            true,
            &JobManager::new(2),
            &SharedJobInfra::for_jobs(2),
            &advisor(enabled),
            &feedback,
            round_size,
        )
        .unwrap();

        if enabled {
            assert_eq!(run.events.len(), 1, "an enabled policy closes the loop");
            assert_eq!(run.events[0].outcome.action.column, DURATION_COL);
        } else {
            assert!(run.events.is_empty(), "disabled: the design never moves");
            assert!(
                feedback.observation_count(DURATION_COL, false) > 0,
                "evidence still accumulates while disabled"
            );
            for &block in &setup.dataset.blocks {
                assert!(
                    setup
                        .cluster
                        .namenode()
                        .get_hosts_with_index(block, DURATION_COL)
                        .unwrap()
                        .is_empty(),
                    "block {block}: duration stays unindexed"
                );
            }
        }

        for (qi, query) in round_queries(&tb.schema).iter().enumerate() {
            let expected = canonical(&oracle_eval(&tb.texts, &tb.schema, query));
            for round in 0..3 {
                assert_eq!(
                    canonical(&run.runs[round * round_size + qi].output),
                    expected,
                    "enabled {enabled}: query {qi} round {round}"
                );
            }
        }
    }
}
