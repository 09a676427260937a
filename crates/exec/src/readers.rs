//! Single-block reader entry points, planner-backed.
//!
//! These are the former `hail-core::record_reader` functions, kept as
//! thin wrappers over [`QueryPlanner::execute_block`] so examples,
//! tests, and ad-hoc tools can read one block without constructing an
//! input format. All replica and access-path choices go through the
//! planner — there is no second code path.

use crate::planner::QueryPlanner;
use hail_core::{DatasetFormat, HailQuery};
use hail_dfs::DfsCluster;
use hail_mr::{MapRecord, TaskStats};
use hail_types::{BlockId, DatanodeId, Result, Schema};

/// Reads one HAIL (PAX) block with the planner-chosen access path,
/// emitting qualifying records. Kept as frozen-suite residue: the
/// `hail-bench` suite's `exec.read_hail_block_us` probe calls it.
pub fn read_hail_block(
    cluster: &DfsCluster,
    block: BlockId,
    task_node: DatanodeId,
    schema: &Schema,
    query: &HailQuery,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    read_block(
        cluster,
        DatasetFormat::HailPax,
        block,
        task_node,
        schema,
        query,
        emit,
    )
}

/// Reads one standard Hadoop text block: full scan, line splitting,
/// filtering in the reader (the expensive `v.toString().split(",")` of
/// §4.1).
pub fn read_hadoop_text_block(
    cluster: &DfsCluster,
    block: BlockId,
    task_node: DatanodeId,
    schema: &Schema,
    query: &HailQuery,
    delimiter: char,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let planner = QueryPlanner::with_config(
        cluster,
        crate::planner::PlannerConfig {
            text_delimiter: Some(delimiter),
            ..Default::default()
        },
    );
    let plan = planner.plan(DatasetFormat::HadoopText, &[block], query)?;
    planner.execute_block(&plan, block, task_node, schema, query, emit)
}

/// Reads one Hadoop++ row-layout block: trojan-index scan when the
/// query ranges over the block's key column, full scan otherwise.
pub fn read_hpp_block(
    cluster: &DfsCluster,
    block: BlockId,
    task_node: DatanodeId,
    schema: &Schema,
    query: &HailQuery,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    read_block(
        cluster,
        DatasetFormat::HadoopPlusPlus,
        block,
        task_node,
        schema,
        query,
        emit,
    )
}

fn read_block(
    cluster: &DfsCluster,
    format: DatasetFormat,
    block: BlockId,
    task_node: DatanodeId,
    schema: &Schema,
    query: &HailQuery,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let planner = QueryPlanner::new(cluster);
    let plan = planner.plan(format, &[block], query)?;
    planner.execute_block(&plan, block, task_node, schema, query, emit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_core::{upload_hadoop, upload_hail};
    use hail_index::ReplicaIndexConfig;
    use hail_types::{DataType, Field, StorageConfig};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("ip", DataType::VarChar),
            Field::new("visitDate", DataType::Date),
            Field::new("revenue", DataType::Float),
        ])
        .unwrap()
    }

    fn text(n: usize) -> String {
        (0..n)
            .map(|i| {
                format!(
                    "10.0.{}.{}|19{:02}-01-01|{}.5\n",
                    i / 250,
                    i % 250,
                    70 + (i % 30),
                    i % 100
                )
            })
            .collect()
    }

    fn hail_setup(rows: usize) -> (DfsCluster, hail_core::Dataset) {
        // Small blocks need proportionally small index partitions for the
        // index to narrow anything (the paper's 64 MB block holds ~650
        // partitions of 1,024 values).
        let mut config = StorageConfig::test_scale(4096);
        config.index_partition_size = 16;
        let mut c = DfsCluster::new(4, config);
        let cfg = ReplicaIndexConfig::first_indexed(3, &[1, 0, 2]);
        let ds = upload_hail(&mut c, &schema(), "uv", &[(0, text(rows))], &cfg).unwrap();
        (c, ds)
    }

    fn collect_hail(
        c: &DfsCluster,
        ds: &hail_core::Dataset,
        query: &HailQuery,
    ) -> (Vec<MapRecord>, TaskStats) {
        let mut records = Vec::new();
        let mut total = TaskStats::default();
        for &b in &ds.blocks {
            let stats =
                read_hail_block(c, b, 0, &schema(), query, &mut |r| records.push(r)).unwrap();
            total.merge(&stats);
        }
        (records, total)
    }

    #[test]
    fn index_scan_equals_full_scan_results() {
        let (c, ds) = hail_setup(500);
        let q = HailQuery::parse("@2 between(1975-01-01, 1980-12-31)", "{@1}", &schema()).unwrap();
        let (with_index, stats) = collect_hail(&c, &ds, &q);
        assert!(stats.serial_pricing, "index scans are latency-bound");
        assert!(!with_index.is_empty());
        assert_eq!(
            stats
                .paths
                .get(hail_types::AccessPathKind::ClusteredIndexScan),
            ds.blocks.len() as u64,
            "every block should be index-served"
        );

        // Oracle: parse the original text and filter.
        let expected: Vec<String> = text(500)
            .lines()
            .filter(|l| {
                let date = l.split('|').nth(1).unwrap();
                ("1975-01-01"..="1980-12-31").contains(&date)
            })
            .map(|l| l.split('|').next().unwrap().to_string())
            .collect();
        let mut got: Vec<String> = with_index
            .iter()
            .filter(|r| !r.bad)
            .map(|r| r.row.get(0).unwrap().to_string())
            .collect();
        let mut expected = expected;
        got.sort();
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn index_scan_reads_less_than_full_scan() {
        let (c, ds) = hail_setup(2000);
        // Highly selective point query on the date column.
        let q = HailQuery::parse("@2 = 1975-01-01", "{@1}", &schema()).unwrap();
        let (_, idx_stats) = collect_hail(&c, &ds, &q);

        // A no-filter query scans everything.
        let scan_q = HailQuery::parse("", "{@1}", &schema()).unwrap();
        let (_, scan_stats) = collect_hail(&c, &ds, &scan_q);
        assert!(
            idx_stats.ledger.disk_read * 4 < scan_stats.ledger.disk_read,
            "index scan ({} B) should read far less than full scan ({} B)",
            idx_stats.ledger.disk_read,
            scan_stats.ledger.disk_read
        );
        assert!(!idx_stats.fell_back_to_scan);
        assert_eq!(
            scan_stats.paths.get(hail_types::AccessPathKind::FullScan),
            ds.blocks.len() as u64
        );
    }

    #[test]
    fn fallback_when_index_node_dies() {
        let (mut c, ds) = hail_setup(300);
        let q = HailQuery::parse("@2 between(1975-01-01, 1980-12-31)", "{@1}", &schema()).unwrap();
        let (before, _) = collect_hail(&c, &ds, &q);

        // Kill the nodes holding the visitDate index until none serve it.
        for &b in &ds.blocks {
            for dn in c.namenode().get_hosts_with_index(b, 1).unwrap() {
                c.kill_node(dn).unwrap();
            }
        }
        let (after, stats) = collect_hail(&c, &ds, &q);
        assert!(stats.fell_back_to_scan, "must fall back to scanning");
        let key = |records: &[MapRecord]| {
            let mut v: Vec<String> = records
                .iter()
                .filter(|r| !r.bad)
                .map(|r| r.row.to_string())
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            key(&before),
            key(&after),
            "results identical after failover"
        );
    }

    #[test]
    fn conjunction_filters_on_secondary_column() {
        let (c, ds) = hail_setup(400);
        let q = HailQuery::parse(
            "@2 between(1975-01-01, 1985-12-31) and @1 = '10.0.0.33'",
            "",
            &schema(),
        )
        .unwrap();
        let (records, _) = collect_hail(&c, &ds, &q);
        for r in records.iter().filter(|r| !r.bad) {
            assert_eq!(r.row.get(0).unwrap().to_string(), "10.0.0.33");
        }
    }

    #[test]
    fn hadoop_reader_matches_hail_results() {
        let rows = 400;
        let mut hc = DfsCluster::new(4, StorageConfig::test_scale(4096));
        let hds = upload_hadoop(&mut hc, &schema(), "uv", &[(0, text(rows))]).unwrap();
        let (pc, pds) = hail_setup(rows);

        let q = HailQuery::parse("@3 >= 10 and @3 <= 20", "{@1, @3}", &schema()).unwrap();
        let mut hadoop_records = Vec::new();
        for &b in &hds.blocks {
            read_hadoop_text_block(&hc, b, 0, &schema(), &q, '|', &mut |r| {
                hadoop_records.push(r)
            })
            .unwrap();
        }
        let (hail_records, _) = collect_hail(&pc, &pds, &q);
        let norm = |rs: &[MapRecord]| {
            let mut v: Vec<String> = rs
                .iter()
                .filter(|r| !r.bad)
                .map(|r| r.row.to_string())
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(&hadoop_records), norm(&hail_records));
    }

    /// Regression: the caller's delimiter is honored on text blocks,
    /// even when it differs from the cluster's configured one.
    #[test]
    fn text_reader_honors_custom_delimiter() {
        let mut c = DfsCluster::new(3, StorageConfig::test_scale(1 << 20));
        assert_eq!(c.config().delimiter, '|');
        // Comma-separated data in a '|'-configured cluster.
        let text = "1.1.1.1,1999-01-01,1.5\n2.2.2.2,1999-06-01,2.5\n";
        let ds = upload_hadoop(&mut c, &schema(), "csv", &[(0, text.into())]).unwrap();
        let q = HailQuery::parse("@2 = 1999-01-01", "{@1}", &schema()).unwrap();
        let mut records = Vec::new();
        read_hadoop_text_block(&c, ds.blocks[0], 0, &schema(), &q, ',', &mut |r| {
            records.push(r)
        })
        .unwrap();
        let good: Vec<_> = records.iter().filter(|r| !r.bad).collect();
        assert_eq!(good.len(), 1, "comma rows must parse: {records:?}");
        assert_eq!(good[0].row.get(0).unwrap().as_str(), Some("1.1.1.1"));
    }

    /// Regression: a filtered query over a plain text dataset is not an
    /// index fallback — there never was an index to fall back from.
    #[test]
    fn text_scans_are_not_fallbacks() {
        let mut c = DfsCluster::new(3, StorageConfig::test_scale(4096));
        let ds = upload_hadoop(&mut c, &schema(), "uv", &[(0, text(200))]).unwrap();
        let q = HailQuery::parse("@2 = 1975-01-01", "{@1}", &schema()).unwrap();
        let mut total = TaskStats::default();
        for &b in &ds.blocks {
            let s = read_hadoop_text_block(&c, b, 0, &schema(), &q, '|', &mut |_| {}).unwrap();
            total.merge(&s);
        }
        assert!(!total.fell_back_to_scan, "text scans are the normal path");
    }

    #[test]
    fn bad_records_flow_to_map() {
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(1 << 20));
        let cfg = ReplicaIndexConfig::first_indexed(3, &[1]);
        let text = "1.1.1.1|1999-01-01|1.0\nBROKEN LINE\n2.2.2.2|1999-06-01|2.0\n";
        let ds = upload_hail(&mut c, &schema(), "uv", &[(0, text.into())], &cfg).unwrap();
        let q = HailQuery::parse("@2 = 1999-01-01", "", &schema()).unwrap();
        let mut records = Vec::new();
        read_hail_block(&c, ds.blocks[0], 0, &schema(), &q, &mut |r| records.push(r)).unwrap();
        let bad: Vec<_> = records.iter().filter(|r| r.bad).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].row.get(0).unwrap().as_str(), Some("BROKEN LINE"));
    }

    #[test]
    fn hpp_reader_index_scan_matches_full_scan() {
        use hail_core::upload_hadoop_plus_plus;
        use hail_sim::{ClusterSpec, HardwareProfile};

        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let texts: Vec<(usize, String)> = (0..2)
            .map(|n| {
                let t: String = (0..300)
                    .map(|i| {
                        format!(
                            "10.{n}.0.{}|19{:02}-0{}-01|{}.25\n",
                            i % 250,
                            70 + (i % 29),
                            1 + (i % 9),
                            i % 50
                        )
                    })
                    .collect();
                (n, t)
            })
            .collect();
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(8192));
        let (ds, _) =
            upload_hadoop_plus_plus(&mut c, &spec, &schema(), "uv", &texts, Some(0)).unwrap();

        let q = HailQuery::parse("@1 = '10.0.0.42'", "{@1, @3}", &schema()).unwrap();
        let mut via_index = Vec::new();
        let mut idx_stats = TaskStats::default();
        for &b in &ds.blocks {
            let s = read_hpp_block(&c, b, 0, &schema(), &q, &mut |r| via_index.push(r)).unwrap();
            idx_stats.merge(&s);
        }
        assert!(idx_stats.serial_pricing);
        assert!(!idx_stats.fell_back_to_scan);
        assert!(
            idx_stats
                .paths
                .get(hail_types::AccessPathKind::TrojanIndexScan)
                > 0
        );

        // Filter on a non-key column → full scan, same logical results
        // for an equivalent predicate expressed differently.
        let q2 = HailQuery::parse(
            "@2 >= 1970-01-01 and @1 = '10.0.0.42'",
            "{@1, @3}",
            &schema(),
        )
        .unwrap();
        let mut via_scan = Vec::new();
        let mut scan_stats = TaskStats::default();
        for &b in &ds.blocks {
            // Key column is @1 (= index 0); q2's first filter is @2 so
            // the planner still finds @1 = … and uses the trojan index.
            let s = read_hpp_block(&c, b, 0, &schema(), &q2, &mut |r| via_scan.push(r)).unwrap();
            scan_stats.merge(&s);
        }
        let norm = |v: &[MapRecord]| {
            let mut out: Vec<String> = v
                .iter()
                .filter(|r| !r.bad)
                .map(|r| r.row.to_string())
                .collect();
            out.sort();
            out
        };
        assert_eq!(norm(&via_index), norm(&via_scan));
        // The index scan reads far less than the block size per block.
        let total_block_bytes: u64 = ds
            .blocks
            .iter()
            .map(|&b| {
                let h = c.namenode().get_hosts(b).unwrap()[0];
                c.namenode().replica_info(b, h).unwrap().replica_bytes as u64
            })
            .sum();
        assert!(idx_stats.ledger.disk_read < total_block_bytes / 2);
    }
}
