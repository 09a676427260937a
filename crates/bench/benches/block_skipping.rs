//! Block skipping via persisted zone-map + Bloom synopses: needle-in-
//! the-haystack queries planned with synopsis pruning on vs off.
//!
//! Three tables, plus a `BENCH_6.json` summary at the repo root:
//!
//! 1. *Planning evaluations* — cost-model candidate evaluations per
//!    job. A needle whose value exists nowhere must show **at least 5×
//!    fewer** evaluations with synopses on (the pruned side enumerates
//!    no candidates at all).
//! 2. *Blocks touched* — access paths actually executed vs blocks
//!    skipped outright.
//! 3. *Wall clocks* — the needle job under split parallelism 1/4 and
//!    job overlap 1/4 (synopses on, the default).
//!
//! Correctness gates, asserted on every comparison: the output rows
//! are bit-for-bit identical with synopses on and off (for needles and
//! for a selective haystack query that pruning must *not* touch), and
//! the adaptive planner state — the selectivity feedback each run
//! leaves behind — is identical too.

use hail_bench::{
    run_query_at, run_query_overlapped, setup_hail_with_config, uv_testbed, BenchSummary,
    ExperimentScale, Report, SystemSetup,
};
use hail_core::HailQuery;
use hail_exec::{PlanCache, PlannedInputFormat, PlannerConfig, SelectivityFeedback};
use hail_index::ReplicaIndexConfig;
use hail_mr::{run_map_job, JobRun, MapJob};
use hail_sim::{ClusterSpec, HardwareProfile};
use hail_workloads::{bob_queries, canonical};
use std::sync::Arc;
use std::time::Instant;

const SAMPLES: usize = 3;

/// One job under an explicit pruning mode, through a private plan
/// cache + feedback store so the two modes never share state.
struct ModeRun {
    run: JobRun,
    cost_evaluations: u64,
    feedback: Arc<SelectivityFeedback>,
}

fn run_mode(
    setup: &SystemSetup,
    spec: &ClusterSpec,
    query: &HailQuery,
    synopsis_pruning: bool,
) -> ModeRun {
    let cache = Arc::new(PlanCache::default());
    let feedback = Arc::new(SelectivityFeedback::default());
    let mut format =
        PlannedInputFormat::new(setup.dataset.clone(), query.clone()).with_planner(PlannerConfig {
            plan_cache: Some(Arc::clone(&cache)),
            feedback: Some(Arc::clone(&feedback)),
            synopsis_pruning,
            ..Default::default()
        });
    format.map_slots = spec.profile.map_slots;
    let job = MapJob::collecting("block-skipping", setup.dataset.blocks.clone(), &format);
    let run = run_map_job(&setup.cluster, spec, &job).expect("needle job");
    ModeRun {
        run,
        cost_evaluations: cache.stats().cost_evaluations,
        feedback,
    }
}

/// Runs one query with pruning on and off, asserts identical output
/// and identical adaptive state, and returns (on, off).
fn compare_modes(
    setup: &SystemSetup,
    spec: &ClusterSpec,
    label: &str,
    query: &HailQuery,
    feedback_key: (usize, bool),
) -> (ModeRun, ModeRun) {
    let on = run_mode(setup, spec, query, true);
    let off = run_mode(setup, spec, query, false);
    assert_eq!(
        canonical(&on.run.output),
        canonical(&off.run.output),
        "{label}: pruning changed the result"
    );
    let (column, eq) = feedback_key;
    assert_eq!(
        on.feedback.observed(column, eq),
        off.feedback.observed(column, eq),
        "{label}: pruning changed the adaptive state"
    );
    assert_eq!(off.run.report.blocks_pruned(), 0);
    (on, off)
}

/// Min-of-N elapsed wall clock for a closure, in milliseconds.
fn best_ms(mut f: impl FnMut() -> JobRun) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let started = Instant::now();
        let _ = f();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let scale = ExperimentScale::query(4, 6000)
        .with_blocks_per_node(24)
        .with_partition_size(16);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    // Clustered indexes on visitDate/sourceIP/adRevenue (the Bob filter
    // columns), with zone-map + Bloom synopses on all three.
    let config = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3])
        .with_synopses(0)
        .with_synopses(2)
        .with_synopses(3);
    let hail = setup_hail_with_config(&tb, &config).expect("hail setup");
    let blocks_total = hail.dataset.blocks.len() as f64;

    // Octets never exceed 255, so this IP exists nowhere — yet it sorts
    // inside every block's sourceIP min/max, so only the Bloom filter
    // can prove it absent.
    let bloom_needle =
        HailQuery::parse("@1 = '172.101.11.460'", "{@1, @4}", &tb.schema).expect("bloom needle");
    // A date range wholly above the generated domain: zone maps prune.
    let zone_needle =
        HailQuery::parse("@3 between(2050-01-01, 2051-01-01)", "{@1, @4}", &tb.schema)
            .expect("zone needle");

    let mut summary = BenchSummary::new("BENCH_6");
    let mut planning = Report::new(
        "block-skipping/planning",
        "Cost-model candidate evaluations per needle job, synopses on vs off",
        "evaluations",
    );
    let mut touched = Report::new(
        "block-skipping/blocks-touched",
        "Access paths executed vs blocks skipped per needle job",
        "blocks",
    );

    for (label, key, query) in [
        ("bloom-needle", (0usize, true), &bloom_needle),
        ("zone-needle", (2usize, false), &zone_needle),
    ] {
        let (on, off) = compare_modes(&hail, &tb.spec, label, query, key);
        assert!(
            on.run.output.is_empty(),
            "{label}: the needle exists nowhere"
        );
        let ratio = off.cost_evaluations as f64 / on.cost_evaluations.max(1) as f64;
        assert!(
            ratio >= 5.0,
            "{label}: expected ≥5× fewer planning evaluations, got {ratio:.1}× \
             ({} full vs {} pruned)",
            off.cost_evaluations,
            on.cost_evaluations
        );
        // Every block is either skipped or actually read (Bloom false
        // positives land in the second bucket — correctness never
        // depends on the filter).
        let pruned = on.run.report.blocks_pruned();
        assert_eq!(
            pruned + on.run.report.path_counts().total(),
            hail.dataset.blocks.len() as u64,
            "{label}: skipped + read covers every block"
        );
        assert!(
            pruned as f64 >= 0.9 * blocks_total,
            "{label}: only {pruned} of {blocks_total} blocks skipped"
        );
        assert!(on.run.report.synopsis_bytes_read() > 0);

        planning.row(format!("{label} full"), None, off.cost_evaluations as f64);
        planning.row(format!("{label} pruned"), None, on.cost_evaluations as f64);
        touched.row(
            format!("{label} full"),
            None,
            off.run.report.path_counts().total() as f64,
        );
        touched.row(
            format!("{label} pruned"),
            None,
            on.run.report.path_counts().total() as f64,
        );
        touched.row(
            format!("{label} skipped"),
            None,
            on.run.report.blocks_pruned() as f64,
        );

        let short = label.split('-').next().unwrap();
        summary.metric(
            format!("planning_evals_full_{short}"),
            off.cost_evaluations as f64,
        );
        summary.metric(
            format!("planning_evals_pruned_{short}"),
            on.cost_evaluations as f64,
        );
        summary.metric(format!("planning_eval_ratio_{short}"), ratio);
        summary.metric(
            format!("blocks_touched_pruned_{short}"),
            on.run.report.path_counts().total() as f64,
        );
        summary.metric(
            format!("blocks_pruned_{short}"),
            on.run.report.blocks_pruned() as f64,
        );
        summary.metric(
            format!("synopsis_bytes_read_{short}"),
            on.run.report.synopsis_bytes_read() as f64,
        );
        summary.metric(
            format!("end_to_end_full_{short}"),
            off.run.report.end_to_end_seconds,
        );
        summary.metric(
            format!("end_to_end_pruned_{short}"),
            on.run.report.end_to_end_seconds,
        );
    }
    summary.metric("blocks_total", blocks_total);
    planning.note("ratio gate: pruned side must evaluate ≥5× fewer candidates");
    planning.note("outputs and adaptive planner state identical on vs off");
    planning.print();
    touched.print();

    // A selective haystack query (rows DO exist): pruning must stay
    // conservative — identical non-empty output, identical feedback.
    let haystack = bob_queries()[0].to_query(&tb.schema).expect("bob q1");
    let (on, off) = compare_modes(&hail, &tb.spec, "haystack", &haystack, (2, false));
    assert!(!on.run.output.is_empty(), "the haystack query matches rows");
    summary.metric("haystack_rows", on.run.output.len() as f64);
    summary.metric(
        "haystack_blocks_pruned",
        on.run.report.blocks_pruned() as f64,
    );
    summary.metric("haystack_evals_full", off.cost_evaluations as f64);

    // Wall clocks under the default format (synopses on): the needle
    // job at split parallelism 1 vs 4, and with job overlap 1 vs 4.
    let mut walls = Report::new(
        "block-skipping/wall-clock",
        "Needle-job elapsed wall clock under executor parallelism",
        format!("measured ms (min of {SAMPLES})"),
    );
    let split_1 = best_ms(|| run_query_at(&hail, &tb.spec, &bloom_needle, true, 1).expect("p1"));
    let split_4 = best_ms(|| run_query_at(&hail, &tb.spec, &bloom_needle, true, 4).expect("p4"));
    let job_1 =
        best_ms(|| run_query_overlapped(&hail, &tb.spec, &bloom_needle, true, 2, 1).expect("j1"));
    let job_4 =
        best_ms(|| run_query_overlapped(&hail, &tb.spec, &bloom_needle, true, 2, 4).expect("j4"));
    walls.row("split=1", None, split_1);
    walls.row("split=4", None, split_4);
    walls.row("job=1 (split=2)", None, job_1);
    walls.row("job=4 (split=2)", None, job_4);
    walls.note("pruned jobs read no blocks, so parallelism has little left to overlap");
    walls.print();
    summary.metric("wall_ms_split_1", split_1);
    summary.metric("wall_ms_split_4", split_4);
    summary.metric("wall_ms_job_1", job_1);
    summary.metric("wall_ms_job_4", job_4);

    summary.report(planning);
    summary.report(touched);
    summary.report(walls);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");
    summary.write_to(path).expect("write BENCH_6.json");
    println!("wrote {path}");
}
