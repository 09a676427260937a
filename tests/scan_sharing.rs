//! Cooperative scan sharing end to end: concurrent jobs over
//! overlapping block sets attach to each other's in-flight decodes
//! through the infra's `ScanShareRegistry`, and the sharing is
//! *invisible* everywhere except the telemetry counters.
//!
//! Pins the PR's acceptance criteria:
//!
//! - per-job outputs AND reports (modulo measured wall clocks and the
//!   sharing counters) are bit-for-bit identical to solo runs at
//!   concurrency 1/2/4 for overlapping-block workloads;
//! - at concurrency 1 the managed path provably never attaches — one
//!   job in flight, interest drained (and retained decodes evicted)
//!   before the next admission;
//! - a registry-less infra (the `HAIL_DISABLE_SCAN_SHARING=1`
//!   degradation) produces the same outputs and reports, with zero
//!   sharing counters — the batch and the reindex-flip tests run with
//!   sharing on and off;
//! - node death interacts safely with retained decodes: a failover
//!   run with the registry in play loses no rows, and a concurrent
//!   batch on the degraded cluster — same registry, potentially
//!   holding decodes from before the death — still matches solo runs
//!   on that cluster (the mid-produce death protocol itself, producer
//!   removal + waiter fallback, is unit-tested in `hail_exec::sharing`);
//! - shared-feedback determinism: identical post-batch
//!   `SelectivityFeedback` state at every concurrency, including
//!   across an adaptive reindex flip whose boundary must not move.

mod common;

use common::{infra, settings};
use hail::prelude::*;
use hail_bench::{
    make_shared_format, run_adaptive_workload, run_queries_managed, run_queries_managed_at,
    setup_hail, uv_testbed, ExperimentScale, SharedJobInfra, SystemSetup,
};
use hail_mr::{JobReport, JobRun};

fn uv_setup(rows_per_node: usize, blocks_per_node: usize) -> (hail_bench::Testbed, SystemSetup) {
    let scale = ExperimentScale::query(4, rows_per_node)
        .with_blocks_per_node(blocks_per_node)
        .with_partition_size(64);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let setup = setup_hail(&tb, &[2, 0, 3]).unwrap(); // visitDate, sourceIP, adRevenue
    (tb, setup)
}

/// A solo run with private infrastructure — the baseline every managed
/// job must reproduce bit-for-bit. The solo infra carries a registry
/// too, but with one job there is never a concurrent decode to attach
/// to: every acquire produces.
fn solo(setup: &SystemSetup, spec: &ClusterSpec, query: &HailQuery, splitting: bool) -> JobRun {
    let infra = SharedJobInfra::for_jobs(1);
    let format = make_shared_format(setup, spec, query, splitting, &infra);
    let job = MapJob::collecting("solo", setup.dataset.blocks.clone(), format.as_ref());
    run_map_job(&setup.cluster, spec, &job).unwrap()
}

/// `JobReport` rendered with the measured-wall-clock fields and the
/// scan-sharing telemetry zeroed — the only fields allowed to vary
/// between a managed and a solo run (which reads attach to another
/// job's decode depends on real thread timing).
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

/// Eight pairwise-distinct filter shapes, repeated `repeats` times:
/// every job scans the whole block set, so any two concurrent jobs
/// overlap on every block, and repeated shapes land on identical
/// (replica, path) choices — the scan-share registry's best case.
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

/// The deterministic part of a shared feedback store's state: every
/// observed (column, equality) class with its blended estimate and
/// observation weight, in `BTreeMap` order.
fn feedback_state(infra: &SharedJobInfra) -> String {
    format!("{:?}", infra.feedback.as_ref().expect("shared feedback"))
}

/// Overlapping-block jobs at concurrency 1/2/4, with sharing on and
/// off: outputs and reports (modulo wall clocks and sharing counters)
/// bit-for-bit against solo runs, the post-batch shared feedback state
/// identical at every setting, and the concurrency-1 managed path never
/// attaching. At concurrency 2 each job also reads two splits at once,
/// so producers and consumers run on split threads of concurrent jobs.
#[test]
fn overlapping_jobs_match_solo_at_every_concurrency() {
    let (tb, setup) = uv_setup(500, 4);
    let queries = overlapping_queries(&bob_schema(), 3);
    let unique = 8;
    let expected: Vec<JobRun> = queries[..unique]
        .iter()
        .map(|q| solo(&setup, &tb.spec, q, true))
        .collect();

    // The default infra carries a registry; the sweep sets it explicitly.
    assert!(SharedJobInfra::for_jobs(4).scan_share.is_some());
    let mut feedback_baseline: Option<String> = None;
    for (sharing, conc, j) in settings() {
        let infra = infra(sharing);
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
                "concurrency {conc}, j {j}, sharing {sharing}, job {i}: output diverged from solo"
            );
            assert_eq!(
                report_modulo_wall(&run.report),
                report_modulo_wall(&exp.report),
                "concurrency {conc}, j {j}, sharing {sharing}, job {i}: report must be \
                 bit-for-bit modulo wall and sharing"
            );
        }
        // One slot: each job's interest drains (evicting its retained
        // decodes) before the next admission, so nothing to attach to.
        if conc == 1 {
            assert_eq!(
                batch.summary.blocks_read_shared, 0,
                "a single in-flight job can never attach"
            );
            assert_eq!(batch.summary.shared_bytes_saved, 0);
        }
        // Absorption runs in submission order after the batch, so the
        // store's state is a function of the (identical) reports alone.
        let state = feedback_state(&infra);
        match &feedback_baseline {
            None => feedback_baseline = Some(state),
            Some(base) => assert_eq!(
                base, &state,
                "concurrency {conc}, j {j}, sharing {sharing}: post-batch shared feedback state \
                 diverged"
            ),
        }
    }
}

/// With identical concurrent jobs over the same blocks, decodes
/// actually get shared: repeats of one query at concurrency 4 attach
/// (same plan → same (block, replica, shape) keys), saving simulated
/// disk bytes — while outputs still match the solo run.
///
/// The test holds its own interest in every block for the whole batch,
/// so a retained decode stays attachable however fast the jobs run: a
/// job that finishes before the next one starts would otherwise drain
/// the blocks' interest and evict what the next job could attach to.
#[test]
fn identical_concurrent_jobs_share_decodes() {
    let (tb, setup) = uv_setup(400, 4);
    let query = HailQuery::parse("@9 <= 150", "{@1, @9}", &bob_schema()).unwrap();
    let queries: Vec<HailQuery> = (0..16).map(|_| query.clone()).collect();
    let expected = solo(&setup, &tb.spec, &query, true);

    let infra = infra(true);
    let manager = JobManager::new(4);
    let interest = manager.in_flight_blocks().register(&setup.dataset.blocks);
    let batch = run_queries_managed(&setup, &tb.spec, &queries, true, &manager, &infra).unwrap();
    for run in &batch.runs {
        assert_eq!(run.output, expected.output);
    }
    assert!(
        batch.summary.blocks_read_shared > 0,
        "16 identical jobs, 4 in flight over the same blocks: some read must attach"
    );
    assert!(
        batch.summary.shared_bytes_saved > 0,
        "attached reads save the producer's simulated disk bytes"
    );
    let registry = infra.scan_share.as_ref().expect("sharing on");
    drop(interest);
    assert_eq!(
        registry.retained(),
        0,
        "batch drained: the in-flight tracker evicted every retained decode"
    );
}

/// A registry-less infra — the `HAIL_DISABLE_SCAN_SHARING=1` shape —
/// serves the same batch with identical outputs and reports and zero
/// sharing counters: degradation to independent reads is lossless.
#[test]
fn disabled_sharing_is_bit_for_bit_identical_modulo_counters() {
    let (tb, setup) = uv_setup(400, 4);
    let queries = overlapping_queries(&bob_schema(), 2);

    let disabled = infra(false);
    assert!(disabled.scan_share.is_none());
    let without = run_queries_managed(
        &setup,
        &tb.spec,
        &queries,
        true,
        &JobManager::new(4),
        &disabled,
    )
    .unwrap();
    assert_eq!(without.summary.blocks_read_shared, 0);
    assert_eq!(without.summary.shared_bytes_saved, 0);

    let enabled = infra(true);
    let with = run_queries_managed(
        &setup,
        &tb.spec,
        &queries,
        true,
        &JobManager::new(4),
        &enabled,
    )
    .unwrap();

    assert_eq!(with.runs.len(), without.runs.len());
    for (i, (w, wo)) in with.runs.iter().zip(&without.runs).enumerate() {
        assert_eq!(w.output, wo.output, "job {i}: sharing changed rows");
        assert_eq!(
            report_modulo_wall(&w.report),
            report_modulo_wall(&wo.report),
            "job {i}: sharing may only change the telemetry counters"
        );
    }
    assert_eq!(
        feedback_state(&enabled),
        feedback_state(&disabled),
        "sharing must not perturb the absorbed feedback state"
    );
}

/// Node death with the registry in play: a mid-job failover run built
/// from sharing infra loses no rows, and a subsequent concurrency-4
/// batch on the degraded cluster — same registry, which may still
/// retain decodes produced before the death — matches solo runs on
/// that cluster. Retained decodes are keyed by (block, replica), so
/// dead-replica entries simply become unreachable once the planner
/// stops choosing that replica.
#[test]
fn retained_decodes_survive_node_death_without_poisoning_results() {
    let (tb, mut setup) = uv_setup(500, 4);
    let queries = overlapping_queries(&bob_schema(), 1);
    let infra = SharedJobInfra::for_jobs(4);

    // Mid-job death under the sharing infra: node 1 dies halfway.
    let failover = {
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
        "failover with a scan-share registry must not lose or invent rows"
    );

    // Concurrent serving over the degraded cluster, same infra: any
    // decode retained from before the death must not poison results.
    let expected: Vec<JobRun> = queries
        .iter()
        .map(|q| solo(&setup, &tb.spec, q, true))
        .collect();
    let batch = run_queries_managed(
        &setup,
        &tb.spec,
        &queries,
        true,
        &JobManager::new(4),
        &infra,
    )
    .unwrap();
    for (i, (run, exp)) in batch.runs.iter().zip(&expected).enumerate() {
        assert_eq!(
            run.output, exp.output,
            "job {i}: degraded-cluster output diverged"
        );
        for t in &run.report.tasks {
            assert_ne!(t.node, 1, "no task may be scheduled on a dead node");
        }
    }
}

/// The adaptive loop with the infra's own shared store driving the
/// advisor: the FullScan→index flip lands at the same job boundary and
/// the post-workload feedback state is identical at concurrency 1/2/4,
/// with sharing on and off.
/// Exercises the double-absorption guard in `run_adaptive_workload`
/// (the batch already absorbed — pointer-equal stores must not absorb
/// twice) and the registry clear after each rewrite.
#[test]
fn reindex_flip_boundary_and_feedback_state_hold_at_every_concurrency() {
    let tb = {
        let scale = ExperimentScale::query(4, 400)
            .with_blocks_per_node(4)
            .with_partition_size(64);
        uv_testbed(scale, HardwareProfile::physical())
    };
    // Two replicas (visitDate, sourceIP): duration (@9) is unindexed,
    // and replica 1 is the safe rewrite target.
    let drive = |conc: usize, sharing: bool| {
        let mut setup = setup_hail(&tb, &[2, 0]).unwrap();
        let queries: Vec<HailQuery> = {
            let round = [
                ("@9 <= 500", "{@1, @9}"),
                ("@3 between(1999-01-01, 2000-01-01)", "{@1}"),
                ("@1 = '172.101.11.46'", "{@8, @9, @4}"),
                ("@4 >= 1 and @4 <= 10 and @9 <= 5000", "{@4, @9}"),
            ];
            (0..4)
                .flat_map(|_| round.iter())
                .map(|(f, p)| HailQuery::parse(f, p, &tb.schema).unwrap())
                .collect()
        };
        let infra = infra(sharing);
        let advisor = ReindexAdvisor::new(ReindexPolicy {
            enabled: true,
            ..ReindexPolicy::default()
        });
        let feedback = infra.feedback.clone().unwrap();
        let run = run_adaptive_workload(
            &mut setup,
            &tb.spec,
            &queries,
            true,
            &JobManager::new(conc),
            &infra,
            &advisor,
            &feedback,
            4,
        )
        .unwrap();
        (run, feedback_state(&infra))
    };

    let (baseline, base_state) = drive(1, true);
    assert_eq!(baseline.events.len(), 1, "solo run flips exactly once");
    // (1, true) again too: a repeat of the baseline must not differ.
    for (sharing, conc, _) in settings() {
        let at = format!("concurrency {conc}, sharing {sharing}");
        let (run, state) = drive(conc, sharing);
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
            state, base_state,
            "{at}: post-workload shared feedback state diverged"
        );
    }
}
