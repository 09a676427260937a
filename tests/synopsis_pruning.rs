//! End-to-end tests for block skipping via persisted zone-map/Bloom
//! synopses: pruning never changes query results (the property), the
//! namenode's `Dir_rep` mirrors the stored synopses, corrupt synopsis
//! tags fail the replica parse, losing the only synopsis-holding
//! replica degrades to unpruned planning, and a split-time plan of
//! pruned blocks is planned again after a physical-design change like
//! any priced plan.

use hail::exec::{PlannerConfig, QueryPlanner};
use hail::mr::{SplitPlan, SplitTask};
use hail::prelude::*;

fn storage() -> StorageConfig {
    let mut s = StorageConfig::test_scale(4 * 1024);
    s.index_partition_size = 8;
    s
}

/// UserVisits rows split across several blocks, with zone-map + Bloom
/// synopses persisted on every Bob filter column of every replica.
fn synopsis_cluster(rows: usize) -> (DfsCluster, Dataset, Schema, Vec<(usize, String)>) {
    let schema = bob_schema();
    let texts = vec![(0, UserVisitsGenerator::default().node_text(0, rows))];
    let mut cluster = DfsCluster::new(3, storage());
    // Bob filters touch @1 (sourceIP), @3 (visitDate), @4 (adRevenue).
    let config = ReplicaIndexConfig::first_indexed(3, &[2])
        .with_synopses(0)
        .with_synopses(2)
        .with_synopses(3);
    let dataset = upload_hail(&mut cluster, &schema, "uv", &texts, &config).unwrap();
    (cluster, dataset, schema, texts)
}

fn planner_with(cluster: &DfsCluster, synopsis_pruning: bool) -> QueryPlanner<'_> {
    QueryPlanner::with_config(
        cluster,
        PlannerConfig {
            synopsis_pruning,
            ..Default::default()
        },
    )
}

/// Executes every block of a fresh plan, returning (good rows, merged
/// stats).
fn run_plan(
    planner: &QueryPlanner<'_>,
    dataset: &Dataset,
    schema: &Schema,
    query: &HailQuery,
) -> (Vec<Row>, TaskStats) {
    let plan = planner.plan_dataset(dataset, query).unwrap();
    let mut rows = Vec::new();
    let mut merged = TaskStats::default();
    for &b in &dataset.blocks {
        let stats = planner
            .execute_block(&plan, b, 0, schema, query, &mut |r| {
                if !r.bad {
                    rows.push(r.row);
                }
            })
            .unwrap();
        merged.merge(&stats);
    }
    (rows, merged)
}

/// The property: for every Bob and Synthetic query family, planning
/// with synopsis pruning on and off produces bit-for-bit identical row
/// sets — and both match the oracle evaluator. Pruning may only skip
/// reads, never rows.
#[test]
fn pruning_never_drops_rows_across_workloads() {
    let (cluster, dataset, schema, texts) = synopsis_cluster(600);
    for spec in bob_queries() {
        let query = spec.to_query(&schema).unwrap();
        let (pruned_rows, _) = run_plan(&planner_with(&cluster, true), &dataset, &schema, &query);
        let (full_rows, full_stats) =
            run_plan(&planner_with(&cluster, false), &dataset, &schema, &query);
        assert_eq!(
            canonical(&pruned_rows),
            canonical(&full_rows),
            "{}: pruning changed the result",
            spec.id
        );
        assert_eq!(
            canonical(&full_rows),
            canonical(&oracle_eval(&texts, &schema, &query)),
            "{}: baseline diverged from oracle",
            spec.id
        );
        assert_eq!(full_stats.blocks_pruned, 0, "pruning disabled means zero");
    }

    // The Synthetic workload, on its own schema and dataset.
    let schema = synthetic_schema();
    let texts = vec![(0, SyntheticGenerator::default().node_text(0, 600))];
    let mut cluster = DfsCluster::new(3, storage());
    let config = ReplicaIndexConfig::first_indexed(3, &[0]).with_synopses(0);
    let dataset = upload_hail(&mut cluster, &schema, "syn", &texts, &config).unwrap();
    for spec in synthetic_queries() {
        let query = spec.to_query(&schema).unwrap();
        let (pruned_rows, _) = run_plan(&planner_with(&cluster, true), &dataset, &schema, &query);
        let (full_rows, _) = run_plan(&planner_with(&cluster, false), &dataset, &schema, &query);
        assert_eq!(
            canonical(&pruned_rows),
            canonical(&full_rows),
            "{}: pruning changed the result",
            spec.id
        );
        assert_eq!(
            canonical(&full_rows),
            canonical(&oracle_eval(&texts, &schema, &query))
        );
    }
}

/// A needle that exists nowhere is pruned everywhere: the Bloom filter
/// proves every block empty, no block is read, and the synthesized
/// statistics report the skips.
#[test]
fn absent_needle_prunes_every_block() {
    let (cluster, dataset, schema, _) = synopsis_cluster(400);
    // Octets never exceed 255, so this IP exists nowhere — yet it sorts
    // inside every block's sourceIP min/max, so only the Bloom filter
    // (not the zone map) can prove it absent.
    let query = HailQuery::parse("@1 = '172.101.11.460'", "{@1}", &schema).unwrap();
    let planner = planner_with(&cluster, true);
    let plan = planner.plan_dataset(&dataset, &query).unwrap();
    assert!(dataset.blocks.len() > 1, "need several blocks to skip");
    for bp in &plan.blocks {
        let info = bp.pruned.as_ref().expect("needle absent from every block");
        assert_eq!(info.reason, hail::exec::PruneReason::Bloom);
        assert_eq!(bp.est_seconds, 0.0, "pruned plans are free");
        assert!(bp.candidates.is_empty(), "no candidate was enumerated");
    }
    assert!(
        plan.explain().contains("[pruned: bloom]"),
        "{}",
        plan.explain()
    );

    let (rows, stats) = run_plan(&planner, &dataset, &schema, &query);
    assert!(rows.is_empty());
    assert_eq!(stats.blocks_pruned, dataset.blocks.len() as u64);
    assert!(stats.synopsis_bytes_read > 0, "the probes are accounted");
    assert_eq!(stats.paths.total(), 0, "no access path ever ran");
    assert_eq!(stats.ledger.disk_read, 0, "no replica bytes were read");

    // A range wholly outside the stored domain prunes via zone maps.
    let query = HailQuery::parse("@3 between(2050-01-01, 2051-01-01)", "{@1}", &schema).unwrap();
    let plan = planner.plan_dataset(&dataset, &query).unwrap();
    for bp in &plan.blocks {
        let info = bp.pruned.as_ref().expect("range outside every zone");
        assert_eq!(info.reason, hail::exec::PruneReason::Zone);
    }
    assert!(plan.explain().contains("[pruned: zone]"));
}

/// Upload with synopses: every replica parses back with them, and the
/// namenode's `Dir_rep` entry mirrors the stored sidecars exactly.
#[test]
fn dir_rep_mirrors_synopsis_sidecars() {
    let (cluster, dataset, _, _) = synopsis_cluster(300);
    for &block in &dataset.blocks {
        for dn in cluster.namenode().get_hosts(block).unwrap() {
            let mut ledger = CostLedger::new();
            let raw = cluster
                .datanode(dn)
                .unwrap()
                .read_replica(block, &mut ledger)
                .unwrap();
            let parsed = IndexedBlock::parse(raw).unwrap();
            for column in [0usize, 2, 3] {
                let (meta, zone) = parsed.zone_map_sidecar(column).unwrap().expect("zone map");
                assert_eq!(zone.column(), column);
                let (bmeta, bloom) = parsed.bloom_sidecar(column).unwrap().expect("bloom");
                assert_eq!(bloom.column(), column);
                // Dir_rep records exactly what the replica stores.
                let info = cluster.namenode().replica_info(block, dn).unwrap();
                assert_eq!(&info.index, parsed.metadata());
                assert_eq!(info.index.zone_map_on(column), Some(&meta));
                assert_eq!(info.index.bloom_on(column), Some(&bmeta));
            }
        }
        for column in [0usize, 2, 3] {
            let nn = cluster.namenode();
            assert_eq!(nn.get_hosts_with_zone_map(block, column).unwrap().len(), 3);
            assert_eq!(nn.get_hosts_with_bloom(block, column).unwrap().len(), 3);
        }
    }
}

/// A corrupt synopsis descriptor — an unknown tag, or a primary-index
/// tag smuggled into a sidecar slot — fails the replica parse instead
/// of yielding a half-readable block.
#[test]
fn corrupt_synopsis_tag_fails_replica_parse() {
    let schema = bob_schema();
    let texts = vec![(0, UserVisitsGenerator::default().node_text(0, 200))];
    let mut storage = StorageConfig::test_scale(1 << 20); // one big block
    storage.index_partition_size = 32;
    let mut cluster = DfsCluster::new(3, storage);
    // Exactly one sidecar (the zone map), so its descriptor is the
    // metadata record's first sidecar entry.
    let config = ReplicaIndexConfig::unindexed(3).with_zone_map(2);
    let dataset = upload_hail(&mut cluster, &schema, "uv", &texts, &config).unwrap();

    let block = dataset.blocks[0];
    let dn = cluster.namenode().get_hosts(block).unwrap()[0];
    let mut ledger = CostLedger::new();
    let raw = cluster
        .datanode(dn)
        .unwrap()
        .read_replica(block, &mut ledger)
        .unwrap();
    let good = IndexedBlock::parse(raw.clone()).unwrap();
    assert!(good.zone_map(2).unwrap().is_some());

    // The sidecar descriptor's kind tag sits 20 bytes into the metadata
    // record, which sits right before the fixed 20-byte footer.
    let meta_len = good.metadata().to_bytes().len();
    let tag_pos = raw.len() - 20 - meta_len + 20;

    let mut unknown = raw.to_vec();
    unknown[tag_pos] = 250;
    let err = IndexedBlock::parse(bytes::Bytes::from(unknown)).unwrap_err();
    assert!(err.to_string().contains("unknown index kind"), "{err}");

    // Tag 1 (Clustered) is a valid kind but not a sidecar kind.
    let mut smuggled = raw.to_vec();
    smuggled[tag_pos] = 1;
    let err = IndexedBlock::parse(bytes::Bytes::from(smuggled)).unwrap_err();
    assert!(err.to_string().contains("not a sidecar"), "{err}");
}

/// Synopses on one chain position only: pruning works while the holder
/// lives, already-planned prunes still execute after it dies (block
/// content is immutable), and fresh plans degrade to unpruned planning
/// instead of erroring.
#[test]
fn death_of_synopsis_replica_degrades_to_unpruned_planning() {
    let schema = bob_schema();
    let texts = vec![(0, UserVisitsGenerator::default().node_text(0, 400))];
    let mut cluster = DfsCluster::new(3, storage());
    let config = ReplicaIndexConfig::unindexed(3)
        .with_zone_map_on(0, 0)
        .with_bloom_on(0, 0);
    let dataset = upload_hail(&mut cluster, &schema, "uv", &texts, &config).unwrap();
    let block = dataset.blocks[0];
    let holders = cluster.namenode().get_hosts_with_bloom(block, 0).unwrap();
    assert_eq!(holders.len(), 1, "synopses on one chain position only");

    let query = HailQuery::parse("@1 = '999.999.999.999'", "{@1}", &schema).unwrap();
    let planner = planner_with(&cluster, true);
    let before = planner.plan_dataset(&dataset, &query).unwrap();
    assert!(before.blocks.iter().all(|bp| bp.pruned.is_some()));

    cluster.kill_node(holders[0]).unwrap();

    // The pre-death plan still executes: a pruned block is never read,
    // so the dead replica is never needed.
    let planner = planner_with(&cluster, true);
    let mut rows = 0usize;
    let stats = planner
        .execute_block(&before, block, 0, &schema, &query, &mut |_| rows += 1)
        .unwrap();
    assert_eq!(stats.blocks_pruned, 1);
    assert_eq!(rows, 0);

    // A fresh plan finds no synopsis on the survivors: no prune, no
    // error, and the scan still answers (with nothing, correctly).
    let after = planner.plan_dataset(&dataset, &query).unwrap();
    for bp in &after.blocks {
        assert!(bp.pruned.is_none(), "no synopsis left to prune with");
        assert!(!bp.candidates.is_empty(), "priced normally instead");
    }
    let (rows, stats) = run_plan(&planner, &dataset, &schema, &query);
    assert!(rows.is_empty());
    assert_eq!(stats.blocks_pruned, 0);
    assert!(stats.ledger.disk_read > 0, "the blocks really were read");
}

/// A death bumps the design epoch: a split plan of zero-cost pruned
/// blocks cut before it no longer holds, so the split reads plan every
/// block again — re-proving each prune from the surviving replicas'
/// synopses, pricing nothing, and placing no block on the dead node.
#[test]
fn design_epoch_bump_replans_pruned_blocks() {
    let (mut cluster, dataset, schema, _) = synopsis_cluster(400);
    let config = PlannerConfig {
        synopsis_pruning: true,
        ..Default::default()
    };
    let query = HailQuery::parse("@1 = '999.999.999.999'", "{@1}", &schema).unwrap();
    let n = dataset.blocks.len() as u64;
    let format =
        PlannedInputFormat::new(dataset.clone(), query.clone()).with_planner(config.clone());
    let split_plan = format.splits(&cluster, &dataset.blocks).unwrap();
    let read = |cluster: &DfsCluster, split_plan: &SplitPlan| {
        let tasks: Vec<SplitTask<'_>> = split_plan
            .splits
            .iter()
            .map(|split| SplitTask {
                split,
                task_node: split.locations[0],
                source: split_plan.source.as_ref(),
            })
            .collect();
        let mut stats = TaskStats::default();
        for read in format.read_split_batch(cluster, &tasks, Some(1)).unwrap() {
            stats.merge(&read.stats);
        }
        stats
    };

    let before = read(&cluster, &split_plan);
    assert_eq!(before.blocks_pruned, n);
    assert_eq!(before.blocks_replanned, 0, "the split-time plan holds");

    let victim = split_plan.splits[0].locations[0];
    cluster.kill_node(victim).unwrap();
    let after = read(&cluster, &split_plan);
    assert_eq!(after.blocks_replanned, n, "every block re-planned");
    assert_eq!(after.blocks_pruned, n, "re-pruned from the survivors");
    assert_eq!(after.records, 0);
    let replanned = QueryPlanner::with_config(&cluster, config)
        .plan_dataset(&dataset, &query)
        .unwrap();
    for bp in &replanned.blocks {
        assert!(bp.pruned.is_some());
        assert!(bp.candidates.is_empty(), "pruned plans price nothing");
        assert!(!bp.locations.contains(&victim));
    }
}

/// The whole job pipeline reports pruning: a needle job over
/// `run_map_job` skips every block, the `JobReport` aggregates the new
/// counters, and a synopsis-off run returns the identical (empty)
/// output.
#[test]
fn job_reports_aggregate_pruning_counters() {
    let (cluster, dataset, schema, _) = synopsis_cluster(400);
    let spec = ClusterSpec::new(3, HardwareProfile::physical());
    let query = HailQuery::parse("@1 = '999.999.999.999'", "{@1}", &schema).unwrap();

    // Pruning on, then off, set explicitly rather than left to the
    // `HAIL_DISABLE_SYNOPSES` default.
    let format =
        PlannedInputFormat::new(dataset.clone(), query.clone()).with_planner(PlannerConfig {
            synopsis_pruning: true,
            ..Default::default()
        });
    let job = MapJob::collecting("needle", dataset.blocks.clone(), &format);
    let run = run_map_job(&cluster, &spec, &job).unwrap();
    assert!(run.output.is_empty());
    assert_eq!(run.report.blocks_pruned(), dataset.blocks.len() as u64);
    assert!(run.report.synopsis_bytes_read() > 0);

    let off = PlannedInputFormat::new(dataset.clone(), query.clone()).with_planner(PlannerConfig {
        synopsis_pruning: false,
        ..Default::default()
    });
    let job = MapJob::collecting("needle-off", dataset.blocks.clone(), &off);
    let run_off = run_map_job(&cluster, &spec, &job).unwrap();
    assert_eq!(run_off.output, run.output);
    assert_eq!(run_off.report.blocks_pruned(), 0);
    assert_eq!(run_off.report.synopsis_bytes_read(), 0);
}
