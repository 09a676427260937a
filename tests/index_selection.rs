//! §3.4 end to end: the workload-driven index advisor picks the right
//! per-replica indexes for Bob's workload, and uploading with its
//! recommendation makes every query index-served.

use hail::index::{select_for_workload, WorkloadFilter};
use hail::prelude::*;

#[test]
fn advisor_picks_bobs_three_columns() {
    let schema = bob_schema();
    // Bob's workload as (filter column, paper selectivity, frequency):
    // Q1 filters visitDate (@3), Q2/Q3 sourceIP (@1), Q4/Q5 adRevenue (@4).
    let workload: Vec<WorkloadFilter> = bob_queries()
        .iter()
        .flat_map(|q| {
            let query = q.to_query(&schema).unwrap();
            query
                .filter_columns()
                .into_iter()
                .map(move |c| WorkloadFilter::new(c, q.paper_selectivity, 1.0))
        })
        .collect();

    let config = select_for_workload(&schema, 3, &workload).unwrap();
    let mut chosen: Vec<usize> = config.orders().iter().filter_map(|o| o.column()).collect();
    chosen.sort_unstable();
    // visitDate = 2, sourceIP = 0, adRevenue = 3 (0-based).
    assert_eq!(chosen, vec![0, 2, 3]);
}

#[test]
fn advisor_recommendation_serves_every_bob_query_with_an_index() {
    let schema = bob_schema();
    let workload: Vec<WorkloadFilter> = bob_queries()
        .iter()
        .flat_map(|q| {
            let query = q.to_query(&schema).unwrap();
            query
                .filter_columns()
                .into_iter()
                .map(move |c| WorkloadFilter::new(c, q.paper_selectivity, 1.0))
        })
        .collect();
    let config = select_for_workload(&schema, 3, &workload).unwrap();

    let texts = UserVisitsGenerator::default().generate(3, 800);
    let mut storage = StorageConfig::test_scale(4 * 1024);
    storage.index_partition_size = 8;
    let mut cluster = DfsCluster::new(3, storage);
    let dataset = upload_hail(&mut cluster, &schema, "uv", &texts, &config).unwrap();
    let spec = ClusterSpec::new(3, HardwareProfile::physical());

    for q in bob_queries() {
        let query = q.to_query(&schema).unwrap();
        let format = PlannedInputFormat::new(dataset.clone(), query.clone());
        let job = MapJob::collecting(q.id, dataset.blocks.clone(), &format);
        let run = run_map_job(&cluster, &spec, &job).unwrap();
        // No task needed to fall back to a scan: the advisor covered
        // every filter column.
        assert_eq!(
            run.report.fallback_count(),
            0,
            "{} had scan fallbacks under the advisor's config",
            q.id
        );
        // And results are right.
        let expected = canonical(&oracle_eval(&texts, &schema, &query));
        assert_eq!(canonical(&run.output), expected, "{}", q.id);
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
