//! The planner layer end to end: all five Bob query families and all
//! six Synthetic queries, on all three systems (Hadoop, Hadoop++,
//! HAIL), execute through `QueryPlanner::plan` → `AccessPath::execute`,
//! and the per-block access-path choices reproduce the oracle
//! evaluator's row output exactly.

use hail::exec::{PlannerConfig, QueryPlanner, SelectivityEstimate};
use hail::prelude::*;
use hail::workloads::QuerySpec;

fn storage() -> StorageConfig {
    let mut s = StorageConfig::test_scale(4 * 1024);
    s.index_partition_size = 8;
    s
}

struct System {
    name: &'static str,
    cluster: DfsCluster,
    dataset: Dataset,
}

fn systems(schema: &Schema, texts: &[(usize, String)], hail_cols: &[usize]) -> Vec<System> {
    let spec = ClusterSpec::new(3, HardwareProfile::physical());

    let mut hadoop_cluster = DfsCluster::new(3, storage());
    let hadoop = upload_hadoop(&mut hadoop_cluster, schema, "d", texts).unwrap();

    let mut hail_cluster = DfsCluster::new(3, storage());
    let hail = upload_hail(
        &mut hail_cluster,
        schema,
        "d",
        texts,
        &ReplicaIndexConfig::first_indexed(3, hail_cols),
    )
    .unwrap();

    let mut hpp_cluster = DfsCluster::new(3, storage());
    let (hpp, _) = upload_hadoop_plus_plus(
        &mut hpp_cluster,
        &spec,
        schema,
        "d",
        texts,
        Some(hail_cols[0]),
    )
    .unwrap();

    vec![
        System {
            name: "Hadoop",
            cluster: hadoop_cluster,
            dataset: hadoop,
        },
        System {
            name: "HAIL",
            cluster: hail_cluster,
            dataset: hail,
        },
        System {
            name: "Hadoop++",
            cluster: hpp_cluster,
            dataset: hpp,
        },
    ]
}

/// Plans a query, executes every block through its chosen access path,
/// and returns (rows, plan histogram, fallback flag).
fn run_through_planner(
    system: &System,
    schema: &Schema,
    spec: &QuerySpec,
) -> (
    Vec<Row>,
    std::collections::BTreeMap<AccessPathKind, usize>,
    bool,
) {
    let query = spec.to_query(schema).unwrap();
    let mut est = SelectivityEstimate::uniform(0.05);
    for c in query.filter_columns() {
        est = est.with_column(c, spec.paper_selectivity);
    }
    let planner = QueryPlanner::with_config(
        &system.cluster,
        PlannerConfig {
            estimate: est,
            ..Default::default()
        },
    );
    let plan = planner.plan_dataset(&system.dataset, &query).unwrap();
    assert_eq!(plan.blocks.len(), system.dataset.blocks.len());

    let mut rows = Vec::new();
    let mut fell_back = false;
    for &b in &system.dataset.blocks {
        let stats = planner
            .execute_block(&plan, b, 0, schema, &query, &mut |r| {
                if !r.bad {
                    rows.push(r.row);
                }
            })
            .unwrap();
        fell_back |= stats.fell_back_to_scan;
        // Exactly one access path served this block, and it is the one
        // the plan chose.
        assert_eq!(stats.paths.total(), 1, "{}: block {b}", system.name);
        assert_eq!(
            stats.paths.get(plan.block_plan(b).unwrap().kind),
            1,
            "{}: block {b} executed a different path than planned",
            system.name
        );
    }
    (rows, plan.path_histogram(), fell_back)
}

#[test]
fn bob_queries_execute_through_planner_on_all_systems() {
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(3, 1200);
    // visitDate, sourceIP, adRevenue — Bob's §6.4.1 configuration.
    // Hadoop++'s single trojan index goes to the first column.
    let hpp_key = 2usize;
    let systems = systems(&schema, &texts, &[hpp_key, 0, 3]);

    for spec in bob_queries() {
        let query = spec.to_query(&schema).unwrap();
        let expected = canonical(&oracle_eval(&texts, &schema, &query));
        for system in &systems {
            let (rows, histogram, fell_back) = run_through_planner(system, &schema, &spec);
            assert_eq!(
                canonical(&rows),
                expected,
                "{}: {} output must match the oracle exactly",
                system.name,
                spec.id
            );
            match system.name {
                // Text blocks can only be scanned.
                "Hadoop" => {
                    assert_eq!(
                        histogram.keys().collect::<Vec<_>>(),
                        vec![&AccessPathKind::FullScan]
                    )
                }
                // Every Bob filter column is indexed on some replica.
                "HAIL" => {
                    assert_eq!(
                        histogram.keys().collect::<Vec<_>>(),
                        vec![&AccessPathKind::ClusteredIndexScan],
                        "{}: {histogram:?}",
                        spec.id
                    );
                    assert!(!fell_back, "{}", spec.id);
                }
                // Hadoop++ has one trojan key; queries filtering any
                // other column full-scan.
                _ => {
                    let q = spec.to_query(&schema).unwrap();
                    if q.filter_columns().contains(&hpp_key) {
                        assert_eq!(
                            histogram.keys().collect::<Vec<_>>(),
                            vec![&AccessPathKind::TrojanIndexScan],
                            "{}",
                            spec.id
                        );
                    } else {
                        assert_eq!(
                            histogram.keys().collect::<Vec<_>>(),
                            vec![&AccessPathKind::FullScan],
                            "{}",
                            spec.id
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn synthetic_queries_execute_through_planner_on_all_systems() {
    let schema = synthetic_schema();
    let texts = SyntheticGenerator::default().generate(3, 900);
    let systems = systems(&schema, &texts, &[0, 1, 2]);

    for spec in synthetic_queries() {
        let query = spec.to_query(&schema).unwrap();
        let expected = canonical(&oracle_eval(&texts, &schema, &query));
        assert!(!expected.is_empty(), "{}", spec.id);
        for system in &systems {
            let (rows, histogram, _) = run_through_planner(system, &schema, &spec);
            assert_eq!(
                canonical(&rows),
                expected,
                "{}: {} output must match the oracle exactly",
                system.name,
                spec.id
            );
            // All Syn queries filter @1, which HAIL and Hadoop++ index.
            let expected_kind = match system.name {
                "Hadoop" => AccessPathKind::FullScan,
                "HAIL" => AccessPathKind::ClusteredIndexScan,
                _ => AccessPathKind::TrojanIndexScan,
            };
            assert_eq!(
                histogram.keys().collect::<Vec<_>>(),
                vec![&expected_kind],
                "{}: {}",
                system.name,
                spec.id
            );
        }
    }
}

/// The scheduler path: running every Bob query through the input
/// formats on Bob's design — one replica clustered on each filtered
/// column — reports per-path counts consistent with the plan, needs no
/// scan fallback, and the job output still matches the oracle.
#[test]
fn job_reports_expose_planner_choices() {
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(3, 800);
    let spec = ClusterSpec::new(3, HardwareProfile::physical());

    let mut cluster = DfsCluster::new(3, storage());
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "uv",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]),
    )
    .unwrap();

    for q in bob_queries() {
        let query = q.to_query(&schema).unwrap();
        let format = PlannedInputFormat::new(dataset.clone(), query.clone());
        let job = MapJob::collecting(q.id, dataset.blocks.clone(), &format);
        let run = run_map_job(&cluster, &spec, &job).unwrap();

        let expected = canonical(&oracle_eval(&texts, &schema, &query));
        assert_eq!(canonical(&run.output), expected, "{}", q.id);

        let counts = run.report.path_counts();
        assert_eq!(
            counts.get(AccessPathKind::ClusteredIndexScan),
            dataset.blocks.len() as u64,
            "{}: every block index-served: {counts}",
            q.id
        );
        assert_eq!(counts.get(AccessPathKind::FullScan), 0, "{}", q.id);
        assert_eq!(run.report.fallback_count(), 0, "{}", q.id);
    }
}

#[test]
fn uncovered_column_falls_back_and_still_answers() {
    // Index only sourceIP; a visitDate query must scan — same answer.
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(3, 500);
    let mut storage = StorageConfig::test_scale(4 * 1024);
    storage.index_partition_size = 8;
    let mut cluster = DfsCluster::new(3, storage);
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "uv",
        &texts,
        &ReplicaIndexConfig::uniform(3, 0),
    )
    .unwrap();
    let spec = ClusterSpec::new(3, HardwareProfile::physical());
    let query = bob_queries()[0].to_query(&schema).unwrap(); // visitDate
    let format = PlannedInputFormat::new(dataset.clone(), query.clone());
    let job = MapJob::collecting("q1", dataset.blocks.clone(), &format);
    let run = run_map_job(&cluster, &spec, &job).unwrap();
    assert!(run.report.fallback_count() > 0, "must fall back to scans");
    let expected = canonical(&oracle_eval(&texts, &schema, &query));
    assert_eq!(canonical(&run.output), expected);
}
