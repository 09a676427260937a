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
//! - equality evidence builds the same clustered index, and the planner
//!   picks ClusteredIndexScan; equality and range evidence on one column
//!   rewrite each block once, as one action that leaves the round's
//!   other slot to another column;
//! - the flip boundary, per-job outputs, and reports (modulo measured
//!   wall clocks) are bit-for-bit identical at job concurrency 1/2/4 —
//!   re-indexing does not perturb the multi-job determinism contract;
//! - the evidence the advisor reads is every job's report absorbed
//!   exactly once, in submission order, at every concurrency — fed at
//!   the round boundary, the one place the store is fed;
//! - killing the replica that holds a freshly built adaptive index
//!   mid-workload loses no rows, and subsequent planning degrades
//!   gracefully to the surviving replicas' paths;
//! - the default policy re-indexes, and a disabled one lets evidence
//!   accumulate but never moves the design.

use hail::prelude::*;
use hail_bench::{
    run_adaptive_workload, run_query, run_query_with_failure, setup_hail, uv_testbed, AdaptiveRun,
    ExperimentScale, SharedJobInfra, SystemSetup, Testbed,
};
use hail_mr::{JobReport, JobRun};
use hail_types::BlockId;

/// duration (@9, 0-based column 8): uniform 1..10_000, so `@9 <= 500`
/// is ~5% selective — well under the advisor's 0.15 ceiling.
const DURATION_COL: usize = 8;
/// searchWord (@8, 0-based column 7): 12 distinct values.
const SEARCHWORD_COL: usize = 7;
/// adRevenue (@4, 0-based column 3): uniform over [0, 485.3).
const AD_REVENUE_COL: usize = 3;

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

/// An advisor with the default evidence thresholds, switched on or off.
fn advisor(enabled: bool) -> ReindexAdvisor {
    ReindexAdvisor::new(ReindexPolicy {
        enabled,
        ..ReindexPolicy::default()
    })
}

/// One round of pairwise-distinct filter shapes. The first
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

/// `JobReport` rendered with the measured-wall-clock fields (the only
/// fields allowed to vary between runs) zeroed.
fn report_modulo_wall(report: &JobReport) -> String {
    let mut r = report.clone();
    r.job_name = String::new();
    r.queue_wait_seconds = 0.0;
    for t in &mut r.tasks {
        t.reader_wall_seconds = 0.0;
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
    // round 2 (the advisor's two hysteresis rounds), covering every block.
    assert_eq!(run.events.len(), 1, "exactly one adaptive rebuild fires");
    let event = &run.events[0];
    assert_eq!(event.outcome.action.column, DURATION_COL);
    assert!(!event.outcome.action.eq, "range evidence fired");
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

/// Equality evidence builds a clustered index, as range evidence does:
/// the unsorted replica of every block is re-sorted on the column, the
/// upload's two clustered replicas survive, and the planner flips the
/// query onto ClusteredIndexScan.
#[test]
fn equality_evidence_builds_a_clustered_index() {
    let scale = ExperimentScale::query(4, 400)
        .with_blocks_per_node(4)
        .with_partition_size(64);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let mut setup = setup_hail(&tb, &[2, 0]).unwrap();
    let unsorted: Vec<_> = setup
        .dataset
        .blocks
        .iter()
        .map(|&block| {
            let nn = setup.cluster.namenode();
            let replicas = nn.live_replicas(block);
            let r = replicas
                .iter()
                .find(|r| r.index.sort_order() == SortOrder::Unsorted)
                .expect("one unsorted replica per block");
            r.datanode
        })
        .collect();

    // searchWord equality: 12 distinct values → ~8% selective, under
    // the advisor ceiling.
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
    assert!(event.outcome.action.eq, "equality evidence fired");
    assert_eq!(
        event.outcome.replicas_rewritten,
        setup.dataset.blocks.len(),
        "one replica rewritten per block"
    );

    let nn = setup.cluster.namenode();
    for (&block, &was_unsorted) in setup.dataset.blocks.iter().zip(&unsorted) {
        let hosts = nn.get_hosts_with_index(block, SEARCHWORD_COL).unwrap();
        assert_eq!(
            hosts,
            vec![was_unsorted],
            "block {block}: the unsorted replica"
        );
        for column in [2, 0] {
            let kept = nn.get_hosts_with_index(block, column).unwrap();
            assert_eq!(kept.len(), 1, "block {block}: index on @{}", column + 1);
        }
    }

    let expected = canonical(&oracle_eval(&tb.texts, &tb.schema, &query));
    for (i, job) in run.runs.iter().enumerate() {
        assert_eq!(canonical(&job.output), expected, "job {i}: output");
        let counts = job.report.path_counts();
        if i >= event.after_job {
            assert!(
                counts.get(AccessPathKind::ClusteredIndexScan) > 0,
                "job {i}: post-flip jobs use the new clustered index"
            );
            assert_eq!(counts.get(AccessPathKind::FullScan), 0, "job {i}");
        } else {
            assert_eq!(counts.get(AccessPathKind::ClusteredIndexScan), 0, "job {i}");
        }
    }
}

/// Equality and range evidence on one column qualify in the same round,
/// and there is room for two builds, but the column gets one action:
/// the range class fires and rewrites every block, and the equality
/// class neither fires with it nor later — the rewrite closed the
/// column's design gap. Two replicas of each block are unsorted, so it
/// is the advisor, not a lack of targets, that spares a second rewrite.
#[test]
fn equality_and_range_evidence_on_one_column_rewrite_each_block_once() {
    let (tb, _) = adaptive_setup(400, 4);
    let mut setup = setup_hail(&tb, &[2]).unwrap();
    let round = [("@9 <= 500", "{@1, @9}"), ("@9 = 4242", "{@1, @9}")];
    let queries: Vec<HailQuery> = (0..3)
        .flat_map(|_| round.iter())
        .map(|(f, p)| HailQuery::parse(f, p, &tb.schema).unwrap())
        .collect();
    let advisor = ReindexAdvisor::new(ReindexPolicy {
        enabled: true,
        max_builds_per_round: 2,
    });
    let feedback = SelectivityFeedback::default();
    let run = run_adaptive_workload(
        &mut setup,
        &tb.spec,
        &queries,
        true,
        &JobManager::new(1),
        &SharedJobInfra::for_jobs(1),
        &advisor,
        &feedback,
        round.len(),
    )
    .unwrap();

    let fired: Vec<_> = run
        .events
        .iter()
        .map(|e| (e.after_job, e.outcome.action))
        .collect();
    assert_eq!(
        fired,
        [(
            4,
            ReindexAction {
                column: DURATION_COL,
                eq: false
            }
        )],
        "one action for the column, in round 2: the range class"
    );
    assert!(!advisor.has_fired(DURATION_COL, true));
    let blocks = setup.dataset.blocks.len();
    assert_eq!(run.events[0].outcome.replicas_rewritten, blocks);
    assert_eq!(run.events[0].outcome.blocks_skipped, 0);
    for &block in &setup.dataset.blocks {
        let hosts = setup
            .cluster
            .namenode()
            .get_hosts_with_index(block, DURATION_COL)
            .unwrap();
        assert_eq!(hosts.len(), 1, "block {block}: one duration index");
    }
    for (i, (job, query)) in run.runs.iter().zip(&queries).enumerate() {
        let expected = canonical(&oracle_eval(&tb.texts, &tb.schema, query));
        assert_eq!(canonical(&job.output), expected, "job {i}: output");
    }
}

/// Two columns qualify in one round with room for two builds, and the
/// first of them on both classes: the column with both classes takes
/// one slot, so the other column takes the second and both are indexed
/// in that round.
#[test]
fn two_columns_fire_in_one_round_when_one_has_both_classes() {
    let (tb, _) = adaptive_setup(400, 4);
    let mut setup = setup_hail(&tb, &[2]).unwrap();
    // adRevenue (@4, column 3): a ~2% range and an equality that matches
    // nothing; duration (@9, column 8): a ~5% range.
    let round = [
        ("@4 <= 10", "{@1, @4}"),
        ("@4 = 42.5", "{@1, @4}"),
        ("@9 <= 500", "{@1, @9}"),
    ];
    let queries: Vec<HailQuery> = (0..3)
        .flat_map(|_| round.iter())
        .map(|(f, p)| HailQuery::parse(f, p, &tb.schema).unwrap())
        .collect();
    let advisor = ReindexAdvisor::new(ReindexPolicy {
        enabled: true,
        max_builds_per_round: 2,
    });
    let feedback = SelectivityFeedback::default();
    let run = run_adaptive_workload(
        &mut setup,
        &tb.spec,
        &queries,
        true,
        &JobManager::new(1),
        &SharedJobInfra::for_jobs(1),
        &advisor,
        &feedback,
        round.len(),
    )
    .unwrap();

    assert!(
        feedback.observation_count(AD_REVENUE_COL, true) > 0,
        "the equality class has evidence"
    );
    let fired: Vec<_> = run
        .events
        .iter()
        .map(|e| (e.after_job, e.outcome.action))
        .collect();
    let after_round_2 = 2 * round.len();
    assert_eq!(
        fired,
        [
            (
                after_round_2,
                ReindexAction {
                    column: AD_REVENUE_COL,
                    eq: false
                }
            ),
            (
                after_round_2,
                ReindexAction {
                    column: DURATION_COL,
                    eq: false
                }
            ),
        ],
        "both columns fire in round 2"
    );
    assert!(!advisor.has_fired(AD_REVENUE_COL, true));
    let blocks = setup.dataset.blocks.len();
    for event in &run.events {
        assert_eq!(event.outcome.replicas_rewritten, blocks);
    }
    let nn = setup.cluster.namenode();
    for &block in &setup.dataset.blocks {
        for column in [AD_REVENUE_COL, DURATION_COL] {
            let hosts = nn.get_hosts_with_index(block, column).unwrap();
            assert_eq!(hosts.len(), 1, "block {block}: index on @{}", column + 1);
        }
    }
    for (i, (job, query)) in run.runs.iter().zip(&queries).enumerate() {
        let expected = canonical(&oracle_eval(&tb.texts, &tb.schema, query));
        assert_eq!(canonical(&job.output), expected, "job {i}: output");
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

/// The evidence a workload must leave behind: a fresh store that
/// absorbed each job's report once, jobs in submission order and tasks
/// in schedule order.
fn absorbed_in_submission_order(runs: &[JobRun]) -> String {
    let oracle = SelectivityFeedback::default();
    for run in runs {
        for task in &run.report.tasks {
            oracle.absorb(&task.stats);
        }
    }
    format!("{oracle:?}")
}

/// The adaptive loop at concurrency 1, 2 and 4: the FullScan→index flip
/// lands at the same job boundary, every output and report matches
/// concurrency 1, and the advisor's store holds every report absorbed
/// exactly once, in submission order. Each round runs two range jobs on
/// duration with different literals, so the decayed state depends on
/// absorption order.
#[test]
fn reindex_flip_boundary_and_feedback_state_hold_at_every_concurrency() {
    let (tb, _) = adaptive_setup(400, 4);
    let round = [
        ("@9 <= 500", "{@1, @9}"),
        ("@3 between(1999-01-01, 2000-01-01)", "{@1}"),
        ("@9 <= 200", "{@1, @9}"),
        ("@1 = '172.101.11.46'", "{@8, @9, @4}"),
    ];
    let queries: Vec<HailQuery> = (0..4)
        .flat_map(|_| round.iter())
        .map(|(f, p)| HailQuery::parse(f, p, &tb.schema).unwrap())
        .collect();
    let drive = |conc: usize| {
        let mut setup = setup_hail(&tb, &[2, 0]).unwrap();
        let feedback = SelectivityFeedback::default();
        let run = run_adaptive_workload(
            &mut setup,
            &tb.spec,
            &queries,
            true,
            &JobManager::new(conc),
            &SharedJobInfra::for_jobs(conc),
            &advisor(true),
            &feedback,
            round.len(),
        )
        .unwrap();
        let state = format!("{feedback:?}");
        (run, state)
    };

    let (baseline, _) = drive(1);
    assert_eq!(baseline.events.len(), 1, "solo run flips exactly once");
    for conc in [1, 2, 4] {
        let at = format!("concurrency {conc}");
        let (run, state) = drive(conc);
        assert_eq!(run.events.len(), 1, "{at}: one rebuild");
        assert_eq!(
            run.events[0].after_job, baseline.events[0].after_job,
            "{at}: the flip boundary moved"
        );
        assert_eq!(run.events[0].outcome, baseline.events[0].outcome);
        for (i, (r, b)) in run.runs.iter().zip(&baseline.runs).enumerate() {
            assert_eq!(r.output, b.output, "{at}, job {i}: output");
            assert_eq!(
                report_modulo_wall(&r.report),
                report_modulo_wall(&b.report),
                "{at}, job {i}: report"
            );
        }
        assert_eq!(
            state,
            absorbed_in_submission_order(&run.runs),
            "{at}: the advisor's evidence is not every report absorbed once, in order"
        );
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

/// The default policy is on and closes the loop; a disabled one lets
/// evidence accumulate but never moves the design. Every job matches the
/// oracle either way.
#[test]
fn default_policy_reindexes_and_a_disabled_one_never_does() {
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
            &if enabled {
                ReindexAdvisor::default()
            } else {
                advisor(false)
            },
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
