//! Adaptive planning end to end: the fingerprinted plan cache and the
//! selectivity-feedback loop.
//!
//! Covers the acceptance criteria of the adaptive-planning change: a
//! split read under its split-time plan looks nothing up, and a repeated
//! split read with an identical filter shape performs zero cost-model
//! evaluations (asserted via the cache's counters);
//! replica death evicts exactly the affected block entries and failover
//! re-plans; a changed `ReplicaIndexConfig` fingerprint misses the
//! cache; and observed selectivity feedback flips a plan the static
//! prior had mispriced.

use hail::exec::{
    PlanCache, PlannerConfig, QueryPlanner, SelectivityEstimate, SelectivityFeedback,
};
use hail::mr::{read_one_split, SplitTask};
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

/// A 4-node cluster with one clustered index on @1 (replica 0 of 3).
fn setup(rows: usize) -> (DfsCluster, Dataset) {
    let mut cluster = DfsCluster::new(4, storage());
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

fn cached_config(cache: &Arc<PlanCache>) -> PlannerConfig {
    PlannerConfig {
        plan_cache: Some(Arc::clone(cache)),
        ..Default::default()
    }
}

/// Acceptance: a split read under the plan its splits were cut from
/// looks nothing up and prices nothing — every block plan is the
/// split-time one, counted as a hit — and a repeated read without that
/// plan, planning its blocks again with an identical filter shape, is
/// all cache hits and prices nothing either.
#[test]
fn repeated_read_split_prices_nothing() {
    let (cluster, dataset) = setup(800);
    let blocks = dataset.blocks.len() as u64;
    let cache = Arc::new(PlanCache::default());
    let query = HailQuery::parse("@1 between(100, 140)", "{@2}", &schema()).unwrap();
    let format =
        PlannedInputFormat::new(dataset.clone(), query).with_planner(cached_config(&cache));

    // Cutting the splits priced every block once.
    let split_plan = format.splits(&cluster, &dataset.blocks).unwrap();
    let warm = cache.stats();
    assert_eq!((warm.hits, warm.misses), (0, blocks));
    assert!(warm.cost_evaluations > 0, "cold planning priced something");

    // The reads execute that plan: no lookup at all.
    let tasks: Vec<SplitTask<'_>> = split_plan
        .splits
        .iter()
        .map(|split| SplitTask {
            split,
            task_node: split.locations[0],
            source: split_plan.source.as_ref(),
        })
        .collect();
    let mut first = TaskStats::default();
    for read in format.read_split_batch(&cluster, &tasks, Some(1)).unwrap() {
        first.merge(&read.stats);
    }
    assert_eq!(
        cache.stats(),
        warm,
        "a read under the split-time plan looks nothing up"
    );
    assert_eq!(
        (first.plan_cache_hits, first.plan_cache_misses),
        (blocks, 0)
    );

    // Without it, each read plans its blocks: all hits, nothing priced.
    let mut second = TaskStats::default();
    for split in &split_plan.splits {
        let stats =
            read_one_split(&format, &cluster, split, split.locations[0], &mut |_| {}).unwrap();
        second.merge(&stats);
    }
    let after = cache.stats();
    assert_eq!(
        after.cost_evaluations, warm.cost_evaluations,
        "a repeated split read must not price any candidate"
    );
    assert_eq!(
        (second.plan_cache_hits, second.plan_cache_misses),
        (blocks, 0)
    );
    assert_eq!(
        (after.hits - warm.hits, after.misses),
        (blocks, warm.misses)
    );
    assert_eq!(first.records, second.records);

    // A *different* filter shape (equality instead of range) is its own
    // cache entry and must be priced.
    let eq_query = HailQuery::parse("@1 = 107", "", &schema()).unwrap();
    let eq_format =
        PlannedInputFormat::new(dataset.clone(), eq_query).with_planner(cached_config(&cache));
    eq_format.splits(&cluster, &dataset.blocks).unwrap();
    assert!(
        cache.stats().cost_evaluations > after.cost_evaluations,
        "a new filter shape is freshly priced"
    );
}

/// The cache-aware planner and the stateless planner agree on every
/// plan — memoization must never change a decision.
#[test]
fn cached_plans_match_fresh_plans() {
    let (cluster, dataset) = setup(600);
    let cache = Arc::new(PlanCache::default());
    let query = HailQuery::parse("@1 between(50, 90)", "", &schema()).unwrap();
    let fresh = QueryPlanner::new(&cluster)
        .plan_dataset(&dataset, &query)
        .unwrap();
    let cached_planner = QueryPlanner::with_config(&cluster, cached_config(&cache));
    cached_planner.plan_dataset(&dataset, &query).unwrap(); // warm
    let warm = cached_planner.plan_dataset(&dataset, &query).unwrap();
    for (a, b) in fresh.blocks.iter().zip(&warm.blocks) {
        assert_eq!(a.block, b.block);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.replica, b.replica);
        assert_eq!(a.locations, b.locations);
        assert!((a.est_seconds - b.est_seconds).abs() < 1e-12);
        assert!(b.cached, "second pass served from cache");
        assert!(!a.cached);
    }
    let text = warm.explain();
    assert!(
        text.contains("[cached]"),
        "explain annotates cache hits:\n{text}"
    );
    assert!(fresh.explain().contains("[priced]"));
}

/// Acceptance: replica death evicts only the affected block entries —
/// blocks with no replica on the dead node keep hitting the cache.
#[test]
fn replica_death_evicts_only_affected_blocks() {
    // Two writers far apart on a 6-node cluster with replication 2, so
    // the two halves of the dataset live on disjoint node sets.
    let mut cluster = DfsCluster::new(6, storage().with_replication(2));
    let text_for = |base: usize| -> String {
        (0..400)
            .map(|i| format!("{}|w{i}\n", (base + i * 3) % 300))
            .collect()
    };
    let dataset = upload_hail(
        &mut cluster,
        &schema(),
        "t",
        &[(0, text_for(0)), (3, text_for(7))],
        &ReplicaIndexConfig::first_indexed(2, &[0]),
    )
    .unwrap();

    let hosts: Vec<Vec<usize>> = dataset
        .blocks
        .iter()
        .map(|&b| cluster.namenode().get_hosts(b).unwrap())
        .collect();
    // A node hosting some blocks but not all of them.
    let victim = (0..6)
        .find(|dn| hosts.iter().any(|h| h.contains(dn)) && !hosts.iter().all(|h| h.contains(dn)))
        .expect("writers far apart must produce disjoint replica sets");
    let affected: Vec<bool> = hosts.iter().map(|h| h.contains(&victim)).collect();
    let n_affected = affected.iter().filter(|&&a| a).count();
    assert!(n_affected > 0 && n_affected < dataset.blocks.len());

    let cache = Arc::new(PlanCache::default());
    let planner = QueryPlanner::with_config(&cluster, cached_config(&cache));
    let query = HailQuery::parse("@1 between(10, 25)", "", &schema()).unwrap();
    planner.plan_dataset(&dataset, &query).unwrap(); // warm
    let warm = cache.stats();
    assert_eq!(cache.len(), dataset.blocks.len());

    cluster.kill_node(victim).unwrap();
    let replanned = QueryPlanner::with_config(&cluster, cached_config(&cache))
        .plan_dataset(&dataset, &query)
        .unwrap();
    let after = cache.stats();
    assert_eq!(
        after.evictions - warm.evictions,
        n_affected as u64,
        "exactly the entries whose fingerprint involved the dead node"
    );
    assert_eq!(
        after.hits - warm.hits,
        (dataset.blocks.len() - n_affected) as u64,
        "unaffected blocks keep hitting"
    );
    assert_eq!(after.misses - warm.misses, n_affected as u64);
    // The re-planned blocks avoid the dead node.
    for (bp, &was_affected) in replanned.blocks.iter().zip(&affected) {
        assert_ne!(bp.replica, victim);
        assert_eq!(bp.cached, !was_affected);
    }
}

/// Failover re-plans through the cache: killing the planned index
/// replica invalidates its entries and the read degrades to a scan on a
/// surviving replica, with the same rows coming back.
#[test]
fn failover_replans_and_degrades_to_scan() {
    let (mut cluster, dataset) = setup(500);
    let cache = Arc::new(PlanCache::default());
    let query = HailQuery::parse("@1 between(30, 60)", "", &schema()).unwrap();
    let planner_config = cached_config(&cache);

    let planner = QueryPlanner::with_config(&cluster, planner_config.clone());
    let plan = planner.plan_dataset(&dataset, &query).unwrap();
    let block = dataset.blocks[0];
    let bp = plan.block_plan(block).unwrap();
    assert_eq!(bp.kind, AccessPathKind::ClusteredIndexScan);
    let indexed_replica = bp.replica;

    // Expected rows via a fresh full scan before the failure.
    let mut expected = 0u64;
    QueryPlanner::new(&cluster)
        .execute_block(&plan, block, 0, &schema(), &query, &mut |r| {
            if !r.bad {
                expected += 1;
            }
        })
        .unwrap();

    cluster.kill_node(indexed_replica).unwrap();
    let planner = QueryPlanner::with_config(&cluster, planner_config);
    let mut got = 0u64;
    let stats = planner
        .execute_block(&plan, block, 0, &schema(), &query, &mut |r| {
            if !r.bad {
                got += 1;
            }
        })
        .unwrap();
    assert_eq!(got, expected, "failover must not lose or invent rows");
    assert!(
        stats.fell_back_to_scan,
        "only the dead replica had an index: execution degrades to scan"
    );
    assert!(
        cache.stats().evictions > 0,
        "the death invalidated the memoized plans"
    );
    // The cache now holds (and serves) the degraded plan.
    let replan = planner.plan_dataset(&dataset, &query).unwrap();
    assert_eq!(
        replan.block_plan(block).unwrap().kind,
        AccessPathKind::FullScan
    );
    let again = planner.plan_dataset(&dataset, &query).unwrap();
    assert!(again.block_plan(block).unwrap().cached);
}

/// Acceptance: a changed `ReplicaIndexConfig` changes the replica-index
/// fingerprint — same blocks, same filter shape, but the cache must not
/// serve plans built for the old physical design. The sidecar directory
/// alone is enough to change the fingerprint.
#[test]
fn changed_index_config_fingerprint_misses() {
    let schema = Schema::new(vec![
        Field::new("country", DataType::VarChar),
        Field::new("v", DataType::Int),
    ])
    .unwrap();
    let mut storage_cfg = storage();
    storage_cfg.index_partition_size = 32;
    let text: String = (0..400)
        .map(|i| format!("{}|{}\n", ["USA", "DEU", "FRA", "BRA"][i % 4], i))
        .collect();
    let upload = |config: &ReplicaIndexConfig| -> (DfsCluster, Dataset) {
        let mut c = DfsCluster::new(3, storage_cfg.clone());
        let ds = upload_hail(&mut c, &schema, "t", &[(0, text.clone())], config).unwrap();
        (c, ds)
    };
    // Identical primary indexes; the second design only adds a bitmap
    // sidecar over @1.
    let (cluster_a, ds_a) = upload(&ReplicaIndexConfig::first_indexed(3, &[1]));
    let (cluster_b, ds_b) = upload(&ReplicaIndexConfig::first_indexed(3, &[1]).with_bitmap(0));
    assert_eq!(ds_a.blocks, ds_b.blocks, "same data, same block ids");

    let cache = Arc::new(PlanCache::default());
    let query = HailQuery::parse("@1 = 'DEU'", "{@2}", &schema).unwrap();
    QueryPlanner::with_config(&cluster_a, cached_config(&cache))
        .plan_dataset(&ds_a, &query)
        .unwrap();
    let warm = cache.stats();

    let plan_b = QueryPlanner::with_config(&cluster_b, cached_config(&cache))
        .plan_dataset(&ds_b, &query)
        .unwrap();
    let after = cache.stats();
    assert_eq!(after.hits, warm.hits, "stale-design plans never served");
    assert_eq!(
        after.fingerprint_invalidations - warm.fingerprint_invalidations,
        ds_b.blocks.len() as u64,
        "every stale entry was detected and replaced"
    );
    // And the re-priced plans actually use the new physical design.
    for bp in &plan_b.blocks {
        assert_eq!(bp.kind, AccessPathKind::BitmapScan);
        assert!(!bp.cached);
    }
}

/// Acceptance: observed selectivity feedback flips a plan the static
/// prior had mispriced. The prior claims the filter is highly selective
/// (index territory); the data disagrees (nearly every row matches);
/// sustained execution feedback pushes the effective estimate across
/// the cost model's break-even and the planner switches to the scan —
/// with `explain()` reporting the estimate's provenance throughout.
#[test]
fn feedback_flips_mispriced_plan() {
    let mut cluster = DfsCluster::new(4, storage());
    let schema = schema();
    // Every key lies in [0, 9]: the query below matches ~100% of rows.
    let text: String = (0..700).map(|i| format!("{}|w{i}\n", i % 10)).collect();
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "t",
        &[(0, text)],
        &ReplicaIndexConfig::first_indexed(3, &[0]),
    )
    .unwrap();
    let query = HailQuery::parse("@1 between(0, 50)", "{@2}", &schema).unwrap();

    let feedback = Arc::new(SelectivityFeedback::default());
    let config = PlannerConfig {
        estimate: SelectivityEstimate::uniform(0.01), // confidently wrong
        feedback: Some(Arc::clone(&feedback)),
        ..Default::default()
    };
    let planner = QueryPlanner::with_config(&cluster, config.clone());

    // The static prior misprices the query: 1% selectivity makes the
    // clustered index look far cheaper than the scan.
    let mispriced = planner.plan_dataset(&dataset, &query).unwrap();
    for bp in &mispriced.blocks {
        assert_eq!(bp.kind, AccessPathKind::ClusteredIndexScan);
    }
    assert!(
        mispriced.explain().contains("(prior)"),
        "{}",
        mispriced.explain()
    );

    // Execute the mispriced plan repeatedly; every block read records
    // its observed key-column selectivity, and the format-level
    // plumbing feeds it into the store split by split.
    let format = PlannedInputFormat::new(dataset.clone(), query.clone()).with_planner(config);
    let splits = format.splits(&cluster, &dataset.blocks).unwrap();
    for _ in 0..12 {
        for split in &splits.splits {
            read_one_split(&format, &cluster, split, split.locations[0], &mut |_| {}).unwrap();
        }
    }
    let (observed_mean, weight) = feedback.observed(0, false).expect("observations recorded");
    assert!(
        observed_mean > 0.95,
        "observed ≈ everything matches: {observed_mean}"
    );
    assert!(weight > 10.0, "sustained evidence accumulated: {weight}");

    // Same query, same static prior — but the blended estimate now sits
    // past the break-even and the planner corrects itself.
    let corrected = planner.plan_dataset(&dataset, &query).unwrap();
    for bp in &corrected.blocks {
        assert_eq!(
            bp.kind,
            AccessPathKind::FullScan,
            "feedback flips the mispriced index plan to a scan"
        );
        assert!(bp.est_seconds > mispriced.blocks[0].est_seconds);
    }
    assert!(
        corrected.explain().contains("(observed)"),
        "{}",
        corrected.explain()
    );

    // A planner without the store still trusts the wrong prior — the
    // flip is the feedback's doing, not drift elsewhere.
    let static_plan = QueryPlanner::with_config(
        &cluster,
        PlannerConfig {
            estimate: SelectivityEstimate::uniform(0.01),
            ..Default::default()
        },
    )
    .plan_dataset(&dataset, &query)
    .unwrap();
    assert_eq!(
        static_plan.blocks[0].kind,
        AccessPathKind::ClusteredIndexScan
    );
}

/// The cache counters surface in the job report: a second identical job
/// reads every block plan from the cache.
#[test]
fn job_report_exposes_cache_counters() {
    let (cluster, dataset) = setup(600);
    let cache = Arc::new(PlanCache::default());
    let query = HailQuery::parse("@1 between(5, 45)", "{@2}", &schema()).unwrap();
    let format =
        PlannedInputFormat::new(dataset.clone(), query).with_planner(cached_config(&cache));
    let spec = ClusterSpec::new(4, HardwareProfile::physical());

    let job = MapJob::collecting("q", dataset.blocks.clone(), &format);
    let first = run_map_job(&cluster, &spec, &job).unwrap();
    let evals_after_first = cache.stats().cost_evaluations;
    assert_eq!(
        first.report.plan_cache_hits() + first.report.plan_cache_misses(),
        dataset.blocks.len() as u64
    );

    let job = MapJob::collecting("q-again", dataset.blocks.clone(), &format);
    let second = run_map_job(&cluster, &spec, &job).unwrap();
    assert_eq!(second.report.plan_cache_hits(), dataset.blocks.len() as u64);
    assert_eq!(second.report.plan_cache_misses(), 0);
    assert_eq!(
        cache.stats().cost_evaluations,
        evals_after_first,
        "the repeat job priced nothing"
    );
    assert_eq!(first.output.len(), second.output.len());
}
