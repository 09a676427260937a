//! Concurrency stress tests for the cross-query planner state: many
//! threads hammer `plan_block` (and full split reads) through one
//! shared `PlanCache` + `SelectivityFeedback` while death-log evictions
//! and feedback absorption run against them.
//!
//! The properties under test:
//!
//! - **No lost evictions.** Every death in the log evicts every entry
//!   whose fingerprint involved the dead datanode, exactly once, no
//!   matter how many sync calls race or how many lookups interleave.
//! - **Counter consistency.** Each cache lookup counts as exactly one
//!   hit or one miss, so `hits + misses` equals the number of lookups
//!   issued across all threads.
//! - **Atomic absorption.** Feedback batches land whole; the final
//!   observation count equals exactly what was fed in.
//! - **Correctness under contention.** Plans served during the storm
//!   equal what a stateless planner computes.

use hail::exec::{BlockFingerprint, BlockPlan, FilterShape, FullScan, PlannerConfig, ScanLayout};
use hail::mr::{read_one_split, SplitSource, SplitTask, TaskStats};
use hail::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::VarChar),
    ])
    .unwrap()
}

fn setup(rows: usize) -> (DfsCluster, Dataset) {
    let mut storage = StorageConfig::test_scale(4 * 1024);
    storage.index_partition_size = 16;
    let mut cluster = DfsCluster::new(4, storage);
    let text: String = (0..rows)
        .map(|i| format!("{}|w{i}\n", (i * 7) % 500))
        .collect();
    let dataset = upload_hail(
        &mut cluster,
        &schema(),
        "t",
        &[(0, text)],
        &ReplicaIndexConfig::first_indexed(3, &[0]),
    )
    .unwrap();
    (cluster, dataset)
}

/// A minimal block plan for seeding doomed cache entries; its contents
/// never execute.
fn dummy_plan(block: u64) -> BlockPlan {
    BlockPlan {
        block,
        replica: 0,
        path: Arc::new(FullScan::new(ScanLayout::HailPax)),
        kind: AccessPathKind::FullScan,
        est_seconds: 0.0,
        locations: vec![0],
        candidates: Vec::new(),
        fallback: false,
        sidecar_bytes: None,
        cached: false,
        selectivity: Vec::new(),
        pruned: None,
    }
}

/// The stress test: planner threads hammer `plan_block` while two
/// racing death threads drain a 20-death log and a feedback thread
/// absorbs observation batches — all against one shared cache/store.
#[test]
fn plan_block_vs_death_evictions_and_feedback_absorption() {
    let (cluster, dataset) = setup(2000);
    let cache = Arc::new(PlanCache::with_capacity(1 << 16));
    let feedback = Arc::new(SelectivityFeedback::default());
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();

    // Seed doomed entries: synthetic blocks (ids far above the real
    // dataset's) whose fingerprints involve datanodes 10..30 — the ones
    // the death log will declare dead. Disjoint keys from anything the
    // planner threads touch, so evictions and inserts interleave freely.
    let doomed_nodes: Vec<usize> = (10..30).collect();
    let shape = FilterShape::of(
        DatasetFormat::HailPax,
        &query,
        None,
        &[(0, 0.05)],
        0xdead_beef,
    );
    let mut doomed_entries = 0u64;
    for (i, &dn) in doomed_nodes.iter().enumerate() {
        for j in 0..3u64 {
            let block = 1_000_000 + (i as u64) * 8 + j;
            let fingerprint = BlockFingerprint {
                digest: 0x1234_5678 ^ block,
                datanodes: vec![dn],
            };
            cache.insert(&shape, block, fingerprint, dummy_plan(block));
            doomed_entries += 1;
        }
    }
    assert_eq!(cache.len() as u64, doomed_entries);

    const PLANNERS: usize = 4;
    const ROUNDS: usize = 30;
    const FEEDBACK_BATCHES: u64 = 50;
    const OBS_PER_BATCH: u64 = 4;
    let lookups_issued = AtomicU64::new(0);
    let death_log: Vec<usize> = doomed_nodes.clone();

    std::thread::scope(|scope| {
        // Planner threads: repeated full-dataset planning through the
        // shared cache (one lookup per block per plan).
        for _ in 0..PLANNERS {
            scope.spawn(|| {
                let config = PlannerConfig {
                    plan_cache: Some(Arc::clone(&cache)),
                    feedback: Some(Arc::clone(&feedback)),
                    ..Default::default()
                };
                let planner = QueryPlanner::with_config(&cluster, config);
                for _ in 0..ROUNDS {
                    let plan = planner.plan_dataset(&dataset, &query).unwrap();
                    assert_eq!(plan.blocks.len(), dataset.blocks.len());
                    lookups_issued.fetch_add(plan.blocks.len() as u64, Ordering::Relaxed);
                }
            });
        }
        // Two racing death threads feed growing prefixes of the same
        // log; the seen-cursor must process each death exactly once.
        for _ in 0..2 {
            scope.spawn(|| {
                for k in 1..=death_log.len() {
                    cache.sync_deaths(&death_log[..k]);
                    std::thread::yield_now();
                }
            });
        }
        // Feedback absorption in batches.
        scope.spawn(|| {
            for _ in 0..FEEDBACK_BATCHES {
                let stats = TaskStats {
                    selectivity: (0..OBS_PER_BATCH)
                        .map(|_| SelectivityObservation {
                            column: 0,
                            eq: false,
                            matched: 100,
                            total: 1000,
                        })
                        .collect(),
                    ..Default::default()
                };
                feedback.absorb(&stats);
                std::thread::yield_now();
            }
        });
    });

    // No lost evictions: every doomed entry is gone, exactly once.
    for &dn in &doomed_nodes {
        assert_eq!(
            cache.entries_involving(dn),
            0,
            "entries referencing dead DN{dn} survived the sync"
        );
    }
    let stats = cache.stats();
    assert_eq!(
        stats.evictions, doomed_entries,
        "each doomed entry evicted exactly once (no capacity pressure)"
    );

    // Counter consistency: planner lookups all counted exactly once.
    // (The doomed entries were never looked up, so planner threads are
    // the only lookup source.)
    assert_eq!(
        stats.hits + stats.misses,
        lookups_issued.load(Ordering::Relaxed),
        "every lookup is exactly one hit or one miss"
    );
    assert!(stats.hits > 0, "warm rounds must hit");

    // Atomic absorption: exactly the fed batches landed.
    assert_eq!(
        feedback.observation_count(0, false),
        FEEDBACK_BATCHES * OBS_PER_BATCH
    );

    // Correctness under contention: what the cache now serves equals a
    // stateless pricing pass under the same (post-feedback) estimates.
    let adapted = PlannerConfig {
        plan_cache: Some(Arc::clone(&cache)),
        feedback: Some(Arc::clone(&feedback)),
        ..Default::default()
    };
    let cached_plan = QueryPlanner::with_config(&cluster, adapted)
        .plan_dataset(&dataset, &query)
        .unwrap();
    let stateless = PlannerConfig {
        feedback: Some(Arc::clone(&feedback)),
        ..Default::default()
    };
    let fresh_plan = QueryPlanner::with_config(&cluster, stateless)
        .plan_dataset(&dataset, &query)
        .unwrap();
    // A planner thread that raced the absorber may have priced a block
    // at an intermediate selectivity that rounds to the same 1/1000
    // bucket as the final estimate. Serving that plan is correct under
    // `cache.rs` invalidation rule 3 (only plan-relevant drift
    // re-prices), but its price need not be bit-equal to a fresh one:
    // it is bounded by what one quantum either side moves the price
    // (the cheapest candidate's price is monotone in selectivity).
    const QUANTUM: f64 = 1e-3;
    let selectivity = fresh_plan.blocks[0].selectivity[0].value;
    let priced_at = |s: f64| {
        let config = PlannerConfig {
            estimate: SelectivityEstimate::uniform(s),
            ..Default::default()
        };
        QueryPlanner::with_config(&cluster, config)
            .plan_dataset(&dataset, &query)
            .unwrap()
    };
    let (low, high) = (
        priced_at(selectivity - QUANTUM),
        priced_at(selectivity + QUANTUM),
    );
    for (i, (a, b)) in cached_plan
        .blocks
        .iter()
        .zip(&fresh_plan.blocks)
        .enumerate()
    {
        assert_eq!(a.block, b.block);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.replica, b.replica);
        let slack = (high.blocks[i].est_seconds - b.est_seconds)
            .abs()
            .max((b.est_seconds - low.blocks[i].est_seconds).abs());
        assert!(
            (a.est_seconds - b.est_seconds).abs() <= slack,
            "block {}: cached {} vs fresh {} exceeds one selectivity quantum ({slack})",
            a.block,
            a.est_seconds,
            b.est_seconds
        );
    }
}

/// Whole split reads racing through one shared adaptive state. Without
/// the split-time plan each read plans its blocks through the shared
/// cache: the per-split attribution covers every block exactly once,
/// whichever thread's read warmed the cache for another. Under the
/// split-time plan the reads look nothing up and price nothing, and every
/// block is attributed as a hit. Both rounds return the serial records,
/// and, absorbed in split order, leave the serial feedback state.
#[test]
fn concurrent_read_splits_share_adaptive_state() {
    let (cluster, dataset) = setup(4000);
    let blocks = dataset.blocks.len() as u64;
    let query = HailQuery::parse("@1 between(40, 90)", "{@2}", &schema()).unwrap();
    let cache = Arc::new(PlanCache::default());
    let feedback = Arc::new(SelectivityFeedback::default());
    // Deferred, as in a managed batch: the store is read-only while the
    // splits race, and absorbed afterwards in split order.
    let format =
        PlannedInputFormat::new(dataset.clone(), query.clone()).with_planner(PlannerConfig {
            plan_cache: Some(Arc::clone(&cache)),
            feedback: Some(Arc::clone(&feedback)),
            defer_feedback: true,
            ..Default::default()
        });
    let plan = format.splits(&cluster, &dataset.blocks).unwrap();
    assert!(plan.splits.len() >= 2);
    let absorb = |reads: &[TaskStats]| {
        reads.iter().for_each(|stats| feedback.absorb(stats));
        feedback.observed(0, false)
    };

    // Serial oracle.
    let serial: Vec<TaskStats> = plan
        .splits
        .iter()
        .map(|split| {
            read_one_split(&format, &cluster, split, split.locations[0], &mut |_| {}).unwrap()
        })
        .collect();
    let serial_records: u64 = serial.iter().map(|t| t.records).sum();
    let serial_feedback = absorb(&serial);

    // All splits at once, each read on its own thread, with or without
    // the split-time plan.
    let race = |source: Option<&SplitSource>| -> Vec<TaskStats> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .splits
                .iter()
                .map(|split| {
                    let format = &format;
                    let cluster = &cluster;
                    scope.spawn(move || {
                        let task = SplitTask {
                            split,
                            task_node: split.locations[0],
                            source,
                        };
                        let mut reads = format.read_split_batch(cluster, &[task], None).unwrap();
                        reads.pop().unwrap().stats
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };
    for source in [None, plan.source.as_ref()] {
        cache.clear();
        feedback.clear();
        // `clear` keeps the effectiveness counters: measure each round as
        // a delta.
        let before = cache.stats();
        let totals = race(source);
        let records: u64 = totals.iter().map(|t| t.records).sum();
        assert_eq!(records, serial_records);
        let hits: u64 = totals.iter().map(|t| t.plan_cache_hits).sum();
        let misses: u64 = totals.iter().map(|t| t.plan_cache_misses).sum();
        assert_eq!(hits + misses, blocks);
        let after = cache.stats();
        let lookups = (after.hits + after.misses) - (before.hits + before.misses);
        if source.is_some() {
            assert_eq!((hits, lookups), (blocks, 0), "the split-time plan serves");
            assert_eq!(after.cost_evaluations, before.cost_evaluations);
        } else {
            assert_eq!(lookups, blocks, "one lookup per block");
        }
        assert_eq!(absorb(&totals), serial_feedback);
    }
}
