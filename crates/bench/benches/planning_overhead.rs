//! Planning overhead, before vs after the adaptive layer: the stateless
//! planner re-prices every `(replica, access path)` candidate on every
//! plan (what each split read used to pay), while a warm
//! fingerprinted `PlanCache` serves the same per-block plans with zero
//! cost-model evaluations. A third target measures the cache's own
//! bookkeeping on a cold pass, and a fourth the marginal cost of
//! selectivity-feedback blending.
//!
//! `--json` switches to a machine-readable [`BenchSummary`] document
//! (min-of-N manual timings; criterion's statistical run is skipped —
//! its arg parser owns the command line otherwise).

use criterion::{criterion_group, Criterion};
use hail_bench::{json_mode, BenchSummary, Report};
use hail_core::{upload_hail, Dataset, HailQuery};
use hail_dfs::DfsCluster;
use hail_exec::{PlanCache, PlannerConfig, QueryPlanner, SelectivityFeedback};
use hail_index::ReplicaIndexConfig;
use hail_types::{DataType, Field, Schema, StorageConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::VarChar),
    ])
    .unwrap()
}

/// A 4-node testbed with enough blocks that per-plan work dominates.
fn testbed() -> (DfsCluster, Dataset) {
    let mut config = StorageConfig::test_scale(2 * 1024);
    config.index_partition_size = 16;
    let mut cluster = DfsCluster::new(4, config);
    let texts: Vec<(usize, String)> = (0..4)
        .map(|n| {
            (
                n,
                (0..4000)
                    .map(|i| format!("{}|w{}\n", (i * 13 + n) % 997, i))
                    .collect(),
            )
        })
        .collect();
    let dataset = upload_hail(
        &mut cluster,
        &schema(),
        "bench",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[0]).with_bitmap(0),
    )
    .unwrap();
    (cluster, dataset)
}

fn bench_planning(c: &mut Criterion) {
    let (cluster, dataset) = testbed();
    let query = HailQuery::parse("@1 between(100, 160)", "{@2}", &schema()).unwrap();
    println!(
        "planning-overhead testbed: {} blocks × {} replica candidates each",
        dataset.blocks.len(),
        3
    );

    // Before: the stateless planner — every plan enumerates and prices
    // all candidates from Dir_rep (this is per split-read cost without
    // the cache).
    c.bench_function("plan/stateless_reprice", |b| {
        let planner = QueryPlanner::new(&cluster);
        b.iter(|| planner.plan_dataset(black_box(&dataset), &query).unwrap())
    });

    // Cold cache: pricing plus memoization bookkeeping (paid once per
    // filter shape).
    c.bench_function("plan/cache_cold", |b| {
        b.iter(|| {
            let config = PlannerConfig {
                plan_cache: Some(Arc::new(PlanCache::default())),
                ..Default::default()
            };
            QueryPlanner::with_config(&cluster, config)
                .plan_dataset(black_box(&dataset), &query)
                .unwrap()
        })
    });

    // After: a warm cache — every block plan is a fingerprint check
    // plus a map lookup; zero candidates priced.
    let cache = Arc::new(PlanCache::default());
    let warm_config = PlannerConfig {
        plan_cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    let warm_planner = QueryPlanner::with_config(&cluster, warm_config);
    warm_planner.plan_dataset(&dataset, &query).unwrap();
    let priced_once = cache.stats().cost_evaluations;
    c.bench_function("plan/cache_warm", |b| {
        b.iter(|| {
            warm_planner
                .plan_dataset(black_box(&dataset), &query)
                .unwrap()
        })
    });
    assert_eq!(
        cache.stats().cost_evaluations,
        priced_once,
        "warm passes priced nothing"
    );
    println!(
        "cache after warm runs: {} hits, {} misses, {} candidates priced (all on the cold pass)",
        cache.stats().hits,
        cache.stats().misses,
        cache.stats().cost_evaluations
    );

    // Feedback blending on top of the static prior (no cache, so the
    // blend runs on every plan).
    let feedback = Arc::new(SelectivityFeedback::default());
    for _ in 0..16 {
        feedback.observe(0, false, 40, 1000);
    }
    let feedback_config = PlannerConfig {
        feedback: Some(Arc::clone(&feedback)),
        ..Default::default()
    };
    let feedback_planner = QueryPlanner::with_config(&cluster, feedback_config);
    c.bench_function("plan/with_feedback_blend", |b| {
        b.iter(|| {
            feedback_planner
                .plan_dataset(black_box(&dataset), &query)
                .unwrap()
        })
    });
}

criterion_group!(benches, bench_planning);

/// Microseconds per call, min over `samples` timed calls of `f`.
fn time_us(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// The same four targets as the criterion run, measured with min-of-N
/// manual timings and bundled into one [`BenchSummary`] document.
fn summary_run() {
    const SAMPLES: usize = 25;
    let (cluster, dataset) = testbed();
    let query = HailQuery::parse("@1 between(100, 160)", "{@2}", &schema()).unwrap();

    let stateless = QueryPlanner::new(&cluster);
    let stateless_us = time_us(SAMPLES, || {
        stateless.plan_dataset(black_box(&dataset), &query).unwrap();
    });

    let cold_us = time_us(SAMPLES, || {
        let config = PlannerConfig {
            plan_cache: Some(Arc::new(PlanCache::default())),
            ..Default::default()
        };
        QueryPlanner::with_config(&cluster, config)
            .plan_dataset(black_box(&dataset), &query)
            .unwrap();
    });

    let cache = Arc::new(PlanCache::default());
    let warm_planner = QueryPlanner::with_config(
        &cluster,
        PlannerConfig {
            plan_cache: Some(Arc::clone(&cache)),
            ..Default::default()
        },
    );
    warm_planner.plan_dataset(&dataset, &query).unwrap();
    let priced_once = cache.stats().cost_evaluations;
    let warm_us = time_us(SAMPLES, || {
        warm_planner
            .plan_dataset(black_box(&dataset), &query)
            .unwrap();
    });
    assert_eq!(
        cache.stats().cost_evaluations,
        priced_once,
        "warm passes priced nothing"
    );

    let feedback = Arc::new(SelectivityFeedback::default());
    for _ in 0..16 {
        feedback.observe(0, false, 40, 1000);
    }
    let feedback_planner = QueryPlanner::with_config(
        &cluster,
        PlannerConfig {
            feedback: Some(Arc::clone(&feedback)),
            ..Default::default()
        },
    );
    let feedback_us = time_us(SAMPLES, || {
        feedback_planner
            .plan_dataset(black_box(&dataset), &query)
            .unwrap();
    });

    let mut table = Report::new(
        "planning-overhead",
        format!(
            "plan_dataset over {} blocks, min of {SAMPLES}",
            dataset.blocks.len()
        ),
        "measured µs",
    );
    table.row("plan/stateless_reprice", None, stateless_us);
    table.row("plan/cache_cold", None, cold_us);
    table.row("plan/cache_warm", None, warm_us);
    table.row("plan/with_feedback_blend", None, feedback_us);
    table.note(format!(
        "cold pass priced {priced_once} candidates; warm passes priced 0"
    ));

    let mut summary = BenchSummary::new("planning_overhead");
    summary.metric("plan_stateless_us", stateless_us);
    summary.metric("plan_cache_cold_us", cold_us);
    summary.metric("plan_cache_warm_us", warm_us);
    summary.metric("plan_feedback_blend_us", feedback_us);
    summary.metric("warm_speedup_vs_stateless", stateless_us / warm_us);
    summary.metric("cold_cost_evaluations", priced_once as f64);
    summary.report(table);
    println!("{}", summary.to_json());
}

fn main() {
    if json_mode() {
        summary_run();
    } else {
        benches();
    }
}
