//! End-to-end equivalence: every paper query returns *identical* results
//! on the Hadoop text path, the Hadoop++ trojan path, the HAIL index
//! path, and the HAIL scan path — all checked against a direct oracle
//! evaluation over the original text, under every engine setting in
//! [`SETTINGS`].

use hail::prelude::*;

/// Synopsis pruning on and off; neither setting may change a result.
const SETTINGS: [bool; 2] = [true, false];

fn run(
    cluster: &DfsCluster,
    spec: &ClusterSpec,
    dataset: &Dataset,
    query: &HailQuery,
    splitting: bool,
    synopsis_pruning: bool,
) -> Vec<Row> {
    let mut format = PlannedInputFormat::new(dataset.clone(), query.clone());
    format.splitting = splitting;
    format.planner.synopsis_pruning = synopsis_pruning;
    let job = MapJob::collecting("q", dataset.blocks.clone(), &format);
    run_map_job(cluster, spec, &job).unwrap().output
}

fn storage() -> StorageConfig {
    let mut s = StorageConfig::test_scale(4 * 1024);
    s.index_partition_size = 8;
    s
}

#[test]
fn bob_queries_agree_across_all_paths() {
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(3, 1500);
    let spec = ClusterSpec::new(3, HardwareProfile::physical());

    let mut hadoop_cluster = DfsCluster::new(3, storage());
    let hadoop = upload_hadoop(&mut hadoop_cluster, &schema, "uv", &texts).unwrap();
    let mut hail_cluster = DfsCluster::new(3, storage());
    let hail = upload_hail(
        &mut hail_cluster,
        &schema,
        "uv",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[2, 0, 3])
            .with_synopses(0)
            .with_synopses(2),
    )
    .unwrap();
    let mut hpp_cluster = DfsCluster::new(3, storage());
    let (hpp, _) =
        upload_hadoop_plus_plus(&mut hpp_cluster, &spec, &schema, "uv", &texts, Some(0)).unwrap();

    for q in bob_queries() {
        let query = q.to_query(&schema).unwrap();
        let expected = canonical(&oracle_eval(&texts, &schema, &query));
        assert!(
            !expected.is_empty() || q.id == "Bob-Q3",
            "{} should match something",
            q.id
        );
        for s in SETTINGS {
            let h = canonical(&run(&hadoop_cluster, &spec, &hadoop, &query, false, s));
            let a1 = canonical(&run(&hail_cluster, &spec, &hail, &query, false, s));
            let a2 = canonical(&run(&hail_cluster, &spec, &hail, &query, true, s));
            let p = canonical(&run(&hpp_cluster, &spec, &hpp, &query, false, s));
            assert_eq!(h, expected, "{} with pruning {s}: Hadoop vs oracle", q.id);
            assert_eq!(
                a1, expected,
                "{} with pruning {s}: HAIL (default splits)",
                q.id
            );
            assert_eq!(
                a2, expected,
                "{} with pruning {s}: HAIL (HailSplitting)",
                q.id
            );
            assert_eq!(p, expected, "{} with pruning {s}: Hadoop++ vs oracle", q.id);
        }
    }
}

#[test]
fn synthetic_queries_agree_across_all_paths() {
    let schema = synthetic_schema();
    let texts = SyntheticGenerator::default().generate(3, 1200);
    let spec = ClusterSpec::new(3, HardwareProfile::physical());

    let mut hadoop_cluster = DfsCluster::new(3, storage());
    let hadoop = upload_hadoop(&mut hadoop_cluster, &schema, "syn", &texts).unwrap();
    let mut hail_cluster = DfsCluster::new(3, storage());
    let hail = upload_hail(
        &mut hail_cluster,
        &schema,
        "syn",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[0, 1, 2]).with_synopses(0),
    )
    .unwrap();
    let mut hpp_cluster = DfsCluster::new(3, storage());
    let (hpp, _) =
        upload_hadoop_plus_plus(&mut hpp_cluster, &spec, &schema, "syn", &texts, Some(0)).unwrap();

    for q in synthetic_queries() {
        let query = q.to_query(&schema).unwrap();
        let expected = canonical(&oracle_eval(&texts, &schema, &query));
        assert!(!expected.is_empty(), "{} should match something", q.id);
        for s in SETTINGS {
            for (name, cluster, dataset, splitting) in [
                ("Hadoop", &hadoop_cluster, &hadoop, false),
                ("HAIL", &hail_cluster, &hail, true),
                ("Hadoop++", &hpp_cluster, &hpp, false),
            ] {
                assert_eq!(
                    canonical(&run(cluster, &spec, dataset, &query, splitting, s)),
                    expected,
                    "{} with pruning {s}: {name}",
                    q.id
                );
            }
        }
    }
}

/// The cluster's `StorageConfig::delimiter` is the one field delimiter
/// every system parses uploaded text with: on a `,`-configured cluster
/// Hadoop (read side) and Hadoop++ (conversion job) must split fields
/// exactly as HAIL's upload does, not on a hard-coded `|`.
#[test]
fn three_systems_agree_on_a_comma_delimited_cluster() {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::VarChar),
    ])
    .unwrap();
    let piped: String = (0..900)
        .map(|i| format!("{}|w{i}\n", (i * 7) % 500))
        .collect();
    let texts = vec![(0usize, piped.replace('|', ","))];
    let spec = ClusterSpec::new(3, HardwareProfile::physical());
    let comma_storage = || StorageConfig {
        delimiter: ',',
        ..storage()
    };

    let mut hadoop_cluster = DfsCluster::new(3, comma_storage());
    let hadoop = upload_hadoop(&mut hadoop_cluster, &schema, "d", &texts).unwrap();
    let mut hail_cluster = DfsCluster::new(3, comma_storage());
    let hail = upload_hail(
        &mut hail_cluster,
        &schema,
        "d",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[0]),
    )
    .unwrap();
    let mut hpp_cluster = DfsCluster::new(3, comma_storage());
    let (hpp, _) =
        upload_hadoop_plus_plus(&mut hpp_cluster, &spec, &schema, "d", &texts, Some(0)).unwrap();

    let query = HailQuery::parse("@1 between(100, 140)", "{@2, @1}", &schema).unwrap();
    // The oracle parses `|`-delimited text; same rows, other delimiter.
    let expected = canonical(&oracle_eval(&[(0, piped)], &schema, &query));
    assert!(!expected.is_empty());
    for (name, cluster, dataset) in [
        ("Hadoop", &hadoop_cluster, &hadoop),
        ("HAIL", &hail_cluster, &hail),
        ("Hadoop++", &hpp_cluster, &hpp),
    ] {
        assert_eq!(
            canonical(&run(cluster, &spec, dataset, &query, true, SETTINGS[0])),
            expected,
            "{name} on a `,`-delimited cluster"
        );
    }
}

#[test]
fn bad_records_survive_upload_and_reach_the_map_function() {
    use hail::workloads::badness::inject_bad_records;
    let schema = bob_schema();
    let clean = UserVisitsGenerator::default().node_text(0, 800);
    let (dirty, n_bad) = inject_bad_records(&clean, &schema, 0.05, 11);
    assert!(n_bad > 10);

    let mut cluster = DfsCluster::new(3, storage());
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "uv",
        &[(0, dirty.clone())],
        &ReplicaIndexConfig::first_indexed(3, &[2]),
    )
    .unwrap();

    // Run a full scan and count bad records handed to the map function.
    let query = HailQuery::full_scan();
    let format = PlannedInputFormat::new(dataset.clone(), query);
    let bad_seen = std::sync::atomic::AtomicUsize::new(0);
    let job = MapJob {
        name: "badscan".into(),
        input: dataset.blocks.clone(),
        format: &format,
        map: Box::new(|rec, out| {
            if rec.bad {
                bad_seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            } else {
                out.push(rec.row);
            }
        }),
    };
    let spec = ClusterSpec::new(3, HardwareProfile::physical());
    let run = run_map_job(&cluster, &spec, &job).unwrap();
    assert_eq!(
        bad_seen.load(std::sync::atomic::Ordering::Relaxed),
        n_bad,
        "every bad record must reach map()"
    );
    assert_eq!(run.output.len(), 800 - n_bad);
}

#[test]
fn projections_and_row_order_content() {
    // Projection must reorder columns exactly as requested.
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(1, 300);
    let mut cluster = DfsCluster::new(3, storage());
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "uv",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[3]),
    )
    .unwrap();
    let spec = ClusterSpec::new(3, HardwareProfile::physical());
    // Project duration then sourceIP (reversed order).
    let query = HailQuery::parse("@4 >= 1 and @4 <= 50", "{@9, @1}", &schema).unwrap();
    let format = PlannedInputFormat::new(dataset.clone(), query.clone());
    let job = MapJob::collecting("proj", dataset.blocks.clone(), &format);
    let run = run_map_job(&cluster, &spec, &job).unwrap();
    assert!(!run.output.is_empty());
    for row in &run.output {
        assert_eq!(row.len(), 2);
        assert!(
            row.get(0).unwrap().as_i32().is_some(),
            "first col = duration"
        );
        assert!(
            row.get(1).unwrap().as_str().is_some(),
            "second col = sourceIP"
        );
    }
    let expected = canonical(&oracle_eval(&texts, &schema, &query));
    assert_eq!(canonical(&run.output), expected);
}
