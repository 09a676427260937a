//! Randomized property tests over the whole query pipeline: for
//! arbitrary data and arbitrary range predicates, the HAIL index path,
//! the HAIL scan path, the Hadoop text path, and the oracle all agree;
//! splitting policies partition the input exactly.
//!
//! (Formerly proptest-based; the offline build vendors no proptest, so
//! the cases are driven by the workspace's deterministic `rand` stub.)

use hail::exec::{default_splits, plan_hail_splits};
use hail::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("name", DataType::VarChar),
        Field::new("v", DataType::Int),
    ])
    .unwrap()
}

fn storage() -> StorageConfig {
    let mut s = StorageConfig::test_scale(256);
    s.index_partition_size = 4;
    s
}

fn random_rows(rng: &mut StdRng) -> Vec<(i32, String, i32)> {
    let n = rng.random_range(10..250usize);
    (0..n)
        .map(|_| {
            let len = rng.random_range(1..7usize);
            let name: String = (0..len)
                .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
                .collect();
            (
                rng.random_range(0..500i32),
                name,
                rng.random_range(-100..100i32),
            )
        })
        .collect()
}

fn to_text(rows: &[(i32, String, i32)]) -> String {
    rows.iter()
        .map(|(k, n, v)| format!("{k}|{n}|{v}\n"))
        .collect()
}

/// Index path ≡ scan path ≡ Hadoop ≡ oracle for random range queries.
#[test]
fn all_paths_agree() {
    let mut rng = StdRng::seed_from_u64(0xA11_A6EE);
    for case in 0..32 {
        let rows = random_rows(&mut rng);
        let lo = rng.random_range(0..500i32);
        let hi = lo.saturating_add(rng.random_range(0..200i32));
        let schema = schema();
        let texts = vec![(0usize, to_text(&rows))];
        let spec = ClusterSpec::new(3, HardwareProfile::physical());
        let query =
            HailQuery::parse(&format!("@1 between({lo}, {hi})"), "{@2, @1}", &schema).unwrap();
        let expected = canonical(&oracle_eval(&texts, &schema, &query));

        // HAIL with an index on @1.
        let mut hail_cluster = DfsCluster::new(3, storage());
        let hail = upload_hail(
            &mut hail_cluster,
            &schema,
            "d",
            &texts,
            &ReplicaIndexConfig::first_indexed(3, &[0]),
        )
        .unwrap();
        let format = PlannedInputFormat::new(hail.clone(), query.clone());
        let job = MapJob::collecting("q", hail.blocks.clone(), &format);
        let via_index = run_map_job(&hail_cluster, &spec, &job).unwrap();
        assert_eq!(
            canonical(&via_index.output),
            expected,
            "case {case}: index path"
        );

        // HAIL with no index at all → scan path.
        let mut scan_cluster = DfsCluster::new(3, storage());
        let unindexed = upload_hail(
            &mut scan_cluster,
            &schema,
            "d",
            &texts,
            &ReplicaIndexConfig::unindexed(3),
        )
        .unwrap();
        let format = PlannedInputFormat::new(unindexed.clone(), query.clone());
        let job = MapJob::collecting("q", unindexed.blocks.clone(), &format);
        let via_scan = run_map_job(&scan_cluster, &spec, &job).unwrap();
        assert_eq!(
            canonical(&via_scan.output),
            expected,
            "case {case}: scan path"
        );

        // Hadoop text.
        let mut text_cluster = DfsCluster::new(3, storage());
        let text_ds = upload_hadoop(&mut text_cluster, &schema, "d", &texts).unwrap();
        let format = PlannedInputFormat::new(text_ds.clone(), query.clone());
        let job = MapJob::collecting("q", text_ds.blocks.clone(), &format);
        let via_text = run_map_job(&text_cluster, &spec, &job).unwrap();
        assert_eq!(
            canonical(&via_text.output),
            expected,
            "case {case}: text path"
        );
    }
}

/// Both splitting policies cover every block exactly once.
#[test]
fn splitting_partitions_input() {
    let mut rng = StdRng::seed_from_u64(0x5F117);
    for case in 0..16 {
        let rows = random_rows(&mut rng);
        let slots = rng.random_range(1..4usize);
        let schema = schema();
        let texts = vec![(0usize, to_text(&rows)), (1, to_text(&rows))];
        let mut cluster = DfsCluster::new(3, storage());
        let ds = upload_hail(
            &mut cluster,
            &schema,
            "d",
            &texts,
            &ReplicaIndexConfig::first_indexed(3, &[0]),
        )
        .unwrap();
        let query = HailQuery::parse("@1 <= 250", "", &schema).unwrap();

        for plan in [
            default_splits(&cluster, &ds.blocks).unwrap(),
            plan_hail_splits(
                &QueryPlanner::new(&cluster)
                    .plan_dataset(&ds, &query)
                    .unwrap(),
                slots,
            ),
        ] {
            let mut covered: Vec<_> = plan.splits.iter().flat_map(|s| s.blocks.clone()).collect();
            covered.sort_unstable();
            let mut expected = ds.blocks.clone();
            expected.sort_unstable();
            assert_eq!(covered, expected, "case {case}");
            for split in &plan.splits {
                assert!(!split.locations.is_empty(), "case {case}");
            }
        }
    }
}

/// Conjunctive predicates: intersected index bounds never lose rows.
#[test]
fn conjunction_correct() {
    let mut rng = StdRng::seed_from_u64(0xC0_17C7);
    for case in 0..32 {
        let rows = random_rows(&mut rng);
        let a = rng.random_range(0..500i32);
        let b = rng.random_range(0..500i32);
        let schema = schema();
        let (lo, hi) = (a.min(b), a.max(b));
        let texts = vec![(0usize, to_text(&rows))];
        let query = HailQuery::parse(
            &format!("@1 >= {lo} and @1 <= {hi} and @3 >= 0"),
            "{@1, @3}",
            &schema,
        )
        .unwrap();
        let expected = canonical(&oracle_eval(&texts, &schema, &query));

        let mut cluster = DfsCluster::new(3, storage());
        let ds = upload_hail(
            &mut cluster,
            &schema,
            "d",
            &texts,
            &ReplicaIndexConfig::first_indexed(3, &[0]),
        )
        .unwrap();
        let spec = ClusterSpec::new(3, HardwareProfile::physical());
        let format = PlannedInputFormat::new(ds.clone(), query);
        let job = MapJob::collecting("q", ds.blocks.clone(), &format);
        let run = run_map_job(&cluster, &spec, &job).unwrap();
        assert_eq!(canonical(&run.output), expected, "case {case}");
    }
}
