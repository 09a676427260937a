//! Failover integrity across the full stack: node deaths must never
//! change query results, and the replica-equivalence invariant must hold
//! under every index configuration.

use hail::prelude::*;

/// (intra-split parallelism, job parallelism) every failover job runs
/// at: serial, and the two executors alone and together.
const PARALLELISM: [(usize, usize); 5] = [(1, 1), (2, 2), (4, 1), (4, 4), (1, 2)];

/// A collecting job over `dataset` through `format` at job parallelism
/// `j`.
fn job<'a>(format: &'a PlannedInputFormat, dataset: &Dataset, j: usize) -> MapJob<'a> {
    MapJob::collecting("q", dataset.blocks.clone(), format).with_job_parallelism(j)
}

/// `query`'s format at intra-split parallelism `p`.
fn format(dataset: &Dataset, query: &HailQuery, p: usize) -> PlannedInputFormat {
    PlannedInputFormat::new(dataset.clone(), query.clone())
        .with_executor(ExecutorConfig::with_parallelism(p))
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
        for (p, j) in PARALLELISM {
            let format = format(&dataset, &query, p);
            let run = run_map_job(&cluster, &spec, &job(&format, &dataset, j)).unwrap();
            assert_eq!(
                canonical(&run.output),
                expected,
                "node {victim} death changed results at p{p}/j{j}"
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
    for (p, j) in PARALLELISM {
        let format = format(&dataset, &query, p);
        let run = run_map_job(&cluster, &spec, &job(&format, &dataset, j)).unwrap();
        assert_eq!(canonical(&run.output), expected, "p{p}/j{j}");
    }
}

#[test]
fn mid_job_failure_preserves_output() {
    let config = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]);
    let schema = bob_schema();
    let spec = ClusterSpec::new(5, HardwareProfile::physical());
    let query = bob_queries()[0].to_query(&schema).unwrap();
    for (p, j) in PARALLELISM {
        let (mut cluster, dataset, texts) = setup(5, &config);
        let expected = canonical(&oracle_eval(&texts, &schema, &query));

        let format = format(&dataset, &query, p).without_splitting();
        let job = job(&format, &dataset, j);
        let run = run_map_job_with_failure(&mut cluster, &spec, &job, FailureScenario::at_half(2))
            .unwrap();
        assert_eq!(canonical(&run.output), expected, "p{p}/j{j}");
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
