//! `explain()` is what an operator reads to learn why the planner chose
//! a replica and an access path, so its text is pinned like a format.
//!
//! Golden digests: one small seeded bed per system, one FNV-1a digest of
//! the `explain()` text per plan — Bob-Q1..Q5 and Syn-Q1c on HAIL, Bob-Q2
//! on Hadoop++ (a trojan plan) and Bob-Q1 on Hadoop text. A moved
//! replica choice, estimate, path name or line layout fails here first.
//! The path names are pinned one by one as well, the row-layout full
//! scan among them, which none of these plans chooses.

use hail_core::{upload_hadoop, upload_hadoop_plus_plus, upload_hail, Dataset};
use hail_dfs::DfsCluster;
use hail_exec::{AccessPath, QueryPlanner, ScanLayout};
use hail_index::ReplicaIndexConfig;
use hail_sim::{ClusterSpec, HardwareProfile};
use hail_types::{DatanodeId, Schema, StorageConfig};
use hail_workloads::{
    bob_queries, bob_schema, synthetic_queries, synthetic_schema, QuerySpec, SyntheticGenerator,
    UserVisitsGenerator,
};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn storage() -> StorageConfig {
    let mut storage = StorageConfig::test_scale(8 * 1024);
    storage.index_partition_size = 16;
    storage
}

fn bob_texts() -> Vec<(DatanodeId, String)> {
    UserVisitsGenerator::default().generate(3, 300)
}

fn explain(cluster: &DfsCluster, dataset: &Dataset, schema: &Schema, spec: &QuerySpec) -> String {
    let query = spec.to_query(schema).unwrap();
    QueryPlanner::new(cluster)
        .plan_dataset(dataset, &query)
        .unwrap()
        .explain()
}

/// `(plan, digest of its explain() text)`, in the order the test plans.
const GOLDEN: [(&str, u64); 8] = [
    ("HAIL Bob-Q1", 0x1E51_BBCC_FDD9_2C7F),
    ("HAIL Bob-Q2", 0x2530_B17B_A76A_B4B0),
    ("HAIL Bob-Q3", 0x0384_A3BE_6469_35A7),
    ("HAIL Bob-Q4", 0x5549_49C5_EC87_B9EA),
    ("HAIL Bob-Q5", 0xAE79_7EEB_AC4F_8098),
    ("HAIL Syn-Q1c", 0xAF09_292D_1212_569A),
    ("Hadoop++ Bob-Q2", 0x6360_A36C_B52F_4BC7),
    ("Hadoop Bob-Q1", 0x9DDA_E557_C3CF_2A73),
];

fn explained_plans() -> Vec<(String, String)> {
    let mut plans = Vec::new();
    let bob = bob_schema();

    // HAIL: one replica clustered on each Bob filter column, with
    // synopses on two of them, so some blocks are pruned.
    let mut cluster = DfsCluster::new(4, storage());
    let design = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]).with_synopses(2);
    let dataset = upload_hail(&mut cluster, &bob, "uv", &bob_texts(), &design).unwrap();
    for spec in bob_queries() {
        let text = explain(&cluster, &dataset, &bob, &spec);
        plans.push((format!("HAIL {}", spec.id), text));
    }

    let synthetic = synthetic_schema();
    let mut cluster = DfsCluster::new(4, storage());
    let texts = SyntheticGenerator::default().generate(2, 200);
    let design = ReplicaIndexConfig::first_indexed(3, &[0]);
    let dataset = upload_hail(&mut cluster, &synthetic, "syn", &texts, &design).unwrap();
    let spec = &synthetic_queries()[2];
    assert_eq!(spec.id, "Syn-Q1c");
    let text = explain(&cluster, &dataset, &synthetic, spec);
    plans.push((format!("HAIL {}", spec.id), text));

    // Hadoop++: trojan index on sourceIP (@1), which Bob-Q2 filters.
    let mut cluster = DfsCluster::new(4, storage());
    let spec_4 = ClusterSpec::new(4, HardwareProfile::physical());
    let (dataset, _) =
        upload_hadoop_plus_plus(&mut cluster, &spec_4, &bob, "uv", &bob_texts(), Some(0)).unwrap();
    let spec = &bob_queries()[1];
    let text = explain(&cluster, &dataset, &bob, spec);
    plans.push((format!("Hadoop++ {}", spec.id), text));

    let mut cluster = DfsCluster::new(4, storage());
    let dataset = upload_hadoop(&mut cluster, &bob, "uv", &bob_texts()).unwrap();
    let spec = &bob_queries()[0];
    let text = explain(&cluster, &dataset, &bob, spec);
    plans.push((format!("Hadoop {}", spec.id), text));
    plans
}

#[test]
fn explain_text_matches_the_golden_digests() {
    let plans = explained_plans();
    let got: Vec<(&str, u64)> = plans
        .iter()
        .map(|(name, text)| (name.as_str(), fnv(text.as_bytes())))
        .collect();
    for ((name, text), (golden_name, golden)) in plans.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(
            fnv(text.as_bytes()),
            golden,
            "{name}: explain() moved (all digests: {got:#018X?}):\n{text}"
        );
    }
}

#[test]
fn access_paths_print_their_explain_names() {
    for (path, name) in [
        (
            AccessPath::FullScan(ScanLayout::Text { delimiter: '|' }),
            "full-scan(text)",
        ),
        (AccessPath::FullScan(ScanLayout::HailPax), "full-scan(pax)"),
        (
            AccessPath::FullScan(ScanLayout::RowLayout),
            "full-scan(rows)",
        ),
        (
            AccessPath::ClusteredIndexScan { column: 2 },
            "clustered-index-scan(@3)",
        ),
        (
            AccessPath::TrojanIndexScan { column: 0 },
            "trojan-index-scan(@1)",
        ),
    ] {
        assert_eq!(path.to_string(), name);
    }
}
