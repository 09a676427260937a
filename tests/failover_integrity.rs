//! Failover integrity across the full stack: node deaths must never
//! change query results, and the replica-equivalence invariant must hold
//! under every index configuration.

use hail::prelude::*;

/// The job parallelisms every failover job runs at: sequential, and
/// two and four splits at once.
const PARALLELISM: [usize; 3] = [1, 2, 4];

/// A collecting job over `dataset` through `format` at job parallelism
/// `j`.
fn job<'a>(format: &'a PlannedInputFormat, dataset: &Dataset, j: usize) -> MapJob<'a> {
    MapJob::collecting("q", dataset.blocks.clone(), format).with_job_parallelism(j)
}

fn storage() -> StorageConfig {
    let mut s = StorageConfig::test_scale(2 * 1024);
    s.index_partition_size = 8;
    s
}

fn setup(nodes: usize, config: &ReplicaIndexConfig) -> (DfsCluster, Dataset, Vec<(usize, String)>) {
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(nodes, 600);
    let mut cluster = DfsCluster::new(nodes, storage());
    let dataset = upload_hail(&mut cluster, &schema, "uv", &texts, config).unwrap();
    (cluster, dataset, texts)
}

#[test]
fn results_identical_after_any_single_node_death() {
    let config = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]);
    let schema = bob_schema();
    let spec = ClusterSpec::new(5, HardwareProfile::physical());
    let query = bob_queries()[0].to_query(&schema).unwrap();

    for victim in 0..5usize {
        let (mut cluster, dataset, texts) = setup(5, &config);
        let expected = canonical(&oracle_eval(&texts, &schema, &query));

        cluster.kill_node(victim).unwrap();
        for j in PARALLELISM {
            let format = PlannedInputFormat::new(dataset.clone(), query.clone());
            let run = run_map_job(&cluster, &spec, &job(&format, &dataset, j)).unwrap();
            assert_eq!(
                canonical(&run.output),
                expected,
                "node {victim} death changed results at j{j}"
            );
        }
    }
}

#[test]
fn results_identical_after_two_node_deaths() {
    // Replication 3 tolerates two failures.
    let config = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]);
    let schema = bob_schema();
    let spec = ClusterSpec::new(6, HardwareProfile::physical());
    let query = bob_queries()[3].to_query(&schema).unwrap();

    let (mut cluster, dataset, texts) = setup(6, &config);
    let expected = canonical(&oracle_eval(&texts, &schema, &query));
    cluster.kill_node(1).unwrap();
    cluster.kill_node(4).unwrap();
    for j in PARALLELISM {
        let format = PlannedInputFormat::new(dataset.clone(), query.clone());
        let run = run_map_job(&cluster, &spec, &job(&format, &dataset, j)).unwrap();
        assert_eq!(canonical(&run.output), expected, "j{j}");
    }
}

#[test]
fn mid_job_failure_preserves_output() {
    let config = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]);
    let schema = bob_schema();
    let spec = ClusterSpec::new(5, HardwareProfile::physical());
    let query = bob_queries()[0].to_query(&schema).unwrap();
    for j in PARALLELISM {
        let (mut cluster, dataset, texts) = setup(5, &config);
        let expected = canonical(&oracle_eval(&texts, &schema, &query));

        let format = PlannedInputFormat::new(dataset.clone(), query.clone()).without_splitting();
        let job = job(&format, &dataset, j);
        let run = run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(2))
            .unwrap();
        assert_eq!(canonical(&run.output), expected, "j{j}");
        assert!(run.with_failure.end_to_end_seconds >= run.baseline.end_to_end_seconds);
        // The dead node is really dead.
        assert!(!cluster.datanode(2).unwrap().is_alive());
    }
}

#[test]
fn replica_equivalence_for_every_index_configuration() {
    for config in [
        ReplicaIndexConfig::unindexed(3),
        ReplicaIndexConfig::first_indexed(3, &[2]),
        ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]),
        ReplicaIndexConfig::uniform(3, 0),
    ] {
        let (cluster, _, _) = setup(4, &config);
        verify_replica_equivalence(&cluster).unwrap_or_else(|e| panic!("config {config:?}: {e}"));
    }
}

#[test]
fn recovery_reads_any_surviving_replica() {
    let config = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]);
    let (mut cluster, dataset, _) = setup(4, &config);
    let block = dataset.blocks[0];
    let before = recover_logical_rows(&cluster, block).unwrap();
    // Kill two of the three replica holders.
    let hosts = cluster.namenode().get_hosts(block).unwrap();
    cluster.kill_node(hosts[0]).unwrap();
    cluster.kill_node(hosts[1]).unwrap();
    let after = recover_logical_rows(&cluster, block).unwrap();
    assert_eq!(before, after);
}

#[test]
fn higher_replication_survives_more_failures() {
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(6, 300);
    let mut s = storage();
    s.replication = 5;
    let mut cluster = DfsCluster::new(6, s);
    let config = ReplicaIndexConfig::first_indexed(5, &[2, 0, 3, 8, 1]);
    let dataset = upload_hail(&mut cluster, &schema, "uv", &texts, &config).unwrap();
    for victim in [0, 2, 4, 5] {
        cluster.kill_node(victim).unwrap();
    }
    // Four dead nodes, five replicas: every block still recoverable.
    for &b in &dataset.blocks {
        recover_logical_rows(&cluster, b).unwrap();
    }
}

/// A planned read whose index replica died since planning plans the
/// block again on the degraded cluster: it degrades to a full scan on a
/// surviving replica, and the same rows come back.
#[test]
fn failover_replans_and_degrades_to_scan() {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::VarChar),
    ])
    .unwrap();
    let mut storage = StorageConfig::test_scale(4 * 1024);
    storage.index_partition_size = 16;
    let mut cluster = DfsCluster::new(4, storage);
    let text: String = (0..500)
        .map(|i| format!("{}|w{i}\n", (i * 7) % 500))
        .collect();
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "t",
        &[(0, text)],
        &ReplicaIndexConfig::first_indexed(3, &[0]),
    )
    .unwrap();
    let query = HailQuery::parse("@1 between(30, 60)", "", &schema).unwrap();

    let plan = QueryPlanner::new(&cluster)
        .plan_dataset(&dataset, &query)
        .unwrap();
    let block = dataset.blocks[0];
    let bp = plan.block_plan(block).unwrap();
    assert_eq!(bp.kind, AccessPathKind::ClusteredIndexScan);
    let indexed_replica = bp.replica;

    let count = |cluster: &DfsCluster| {
        let mut rows = 0u64;
        let stats = QueryPlanner::new(cluster)
            .execute_block(&plan, block, 0, &schema, &query, &mut |r| {
                if !r.bad {
                    rows += 1;
                }
            })
            .unwrap();
        (rows, stats)
    };
    let (expected, before) = count(&cluster);
    assert!(!before.fell_back_to_scan);

    cluster.kill_node(indexed_replica).unwrap();
    let (got, stats) = count(&cluster);
    assert_eq!(got, expected, "failover must not lose or invent rows");
    assert!(
        stats.fell_back_to_scan,
        "only the dead replica had an index: execution degrades to scan"
    );
    assert_eq!(stats.paths.get(AccessPathKind::FullScan), 1);
    // Planning afresh on the degraded cluster gives the same scan.
    let replan = QueryPlanner::new(&cluster)
        .plan_dataset(&dataset, &query)
        .unwrap();
    let degraded = replan.block_plan(block).unwrap();
    assert_eq!(degraded.kind, AccessPathKind::FullScan);
    assert_ne!(degraded.replica, indexed_replica);
    assert!(degraded.fallback);
}
