//! Verified reads: a replica is trusted only chunk by chunk, and a read
//! that finds a corrupt chunk fails over to another replica.
//!
//! The matrix flips one byte in one region of one stored replica at a
//! time — PAX header, directory, each column, the bad section, the
//! clustered index, each sidecar (bitmap, inverted list, zone map,
//! Bloom), the index metadata, the trailer — and holds every access path
//! that reads that region to three things:
//!
//! - the path itself, run against the damaged replica, returns `Err`
//!   (never a panic, never fewer rows);
//! - the planner's block read serving from that replica fails over and
//!   returns exactly the rows of an undamaged read;
//! - whole jobs — solo, and two at a time under one `JobManager` —
//!   return the oracle's rows.
//!
//! A damaged zone map or Bloom filter must never prune a block that has
//! matching rows: the flipped byte is one that would make an unverified
//! reader prove the block empty. The prune probe reads only a holder's
//! trailer, metadata and probed sidecar, so damage anywhere else must
//! not stop a sound prune. The Hadoop++ row layout's trojan scan and full
//! scan get the same treatment as the PAX paths.

use hail::prelude::*;
use hail_bench::{run_queries_managed, setup_hpp, SharedJobInfra, SystemSetup, Testbed};
use hail_exec::{
    BitmapScan, BlockAccess, ClusteredIndexScan, FullScan, InvertedListScan, PruneReason,
    ScanLayout, TrojanIndexScan,
};
use hail_index::{BloomSynopsis, ZoneMapSynopsis, TRAILER_LEN};
use hail_types::config::CHUNK_SIZE;
use hail_types::{BlockId, DatanodeId};
use std::ops::Range;

const NODES: usize = 4;
const ROWS: usize = 480;
const TAGS: [&str; 4] = ["red", "green", "blue", "gold"];

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("day", DataType::Date),
        Field::new("name", DataType::VarChar),
        Field::new("tag", DataType::VarChar),
        Field::new("amount", DataType::Float),
    ])
    .unwrap()
}

/// One block's text: `ROWS` rows whose key `k` is a permutation of
/// `0..ROWS`, the tag cycling with `k`, and — when `bad` — a bad line
/// every 40 rows.
fn text(node: usize, bad: bool) -> String {
    let mut out = String::new();
    for i in 0..ROWS {
        let k = (i * 37 + node) % ROWS;
        out.push_str(&format!(
            "{k}|2001-{:02}-{:02}|name{:04}|{}|{}.5\n",
            1 + i % 12,
            1 + i % 28,
            (i * 11) % ROWS,
            TAGS[k % 4],
            i % 97
        ));
        if bad && i % 40 == 7 {
            out.push_str(&format!("ERROR timeout on row {i} ### damaged\n"));
        }
    }
    out
}

/// Node 0's block carries bad records (so a bad section and an inverted
/// list with entries); node 1's has none (so its synopses can prune).
fn texts() -> Vec<(usize, String)> {
    vec![(0, text(0, true)), (1, text(1, false))]
}

/// Replica 0 clustered on `k`, replica 1 on `name`, replica 2 unsorted;
/// every replica with a bitmap on `tag`, an inverted list, and a zone
/// map + Bloom filter on `k`.
fn design() -> ReplicaIndexConfig {
    ReplicaIndexConfig::first_indexed(3, &[0, 2])
        .with_bitmap(3)
        .with_inverted_list()
        .with_synopses(0)
}

fn setup() -> SystemSetup {
    let mut storage = StorageConfig::test_scale(1 << 20);
    storage.index_partition_size = 16;
    let mut cluster = DfsCluster::new(NODES, storage);
    let dataset = upload_hail(&mut cluster, &schema(), "t", &texts(), &design()).unwrap();
    assert_eq!(dataset.blocks.len(), 2, "one block per node's text");
    SystemSetup {
        cluster,
        dataset,
        upload_seconds: 0.0,
    }
}

fn spec() -> ClusterSpec {
    ClusterSpec::new(NODES, HardwareProfile::physical())
}

fn query(filter: &str, projection: &str) -> HailQuery {
    HailQuery::parse(filter, projection, &schema()).unwrap()
}

/// The path-level probes: which path, the query it serves, and the
/// planner's bad-record tokens for the inverted-list scan.
struct Probe {
    name: &'static str,
    path: Box<dyn AccessPath + Send + Sync>,
    query: HailQuery,
    tokens: Vec<String>,
    /// Only the replica clustered on the key can serve it.
    clustered_only: bool,
    /// Reads every column region whole.
    reads_columns: bool,
}

fn probes() -> Vec<Probe> {
    let all = "{@1, @2, @3, @4, @5}";
    let pax = |name, path: Box<dyn AccessPath + Send + Sync>, query, clustered_only| Probe {
        name,
        path,
        query,
        tokens: Vec::new(),
        clustered_only,
        reads_columns: true,
    };
    vec![
        // No replica serves @5: every block streams.
        pax(
            "full-scan",
            Box::new(FullScan::new(ScanLayout::HailPax)),
            query("@5 >= -1.0", all),
            false,
        ),
        // Every partition qualifies, so every column is read whole.
        pax(
            "clustered-index-scan",
            Box::new(ClusteredIndexScan { column: 0 }),
            query("@1 >= -1", all),
            true,
        ),
        // A quarter of the rows, spread over every chunk of every column.
        pax(
            "bitmap-scan",
            Box::new(BitmapScan { column: 3 }),
            query("@4 = 'red'", all),
            false,
        ),
        Probe {
            name: "inverted-list-scan",
            path: Box::new(InvertedListScan {
                tokens: vec!["error".into()],
            }),
            query: HailQuery::full_scan(),
            tokens: vec!["error".into()],
            clustered_only: false,
            reads_columns: false,
        },
    ]
}

/// Whether `probe` reads region `region` of a replica. Every path opens
/// the container — header, directory, metadata, trailer, and the
/// clustered index where there is one — and emits the bad records.
fn reads(probe: &Probe, region: &str) -> bool {
    match region {
        "pax header" | "directory" | "index metadata" | "trailer" | "clustered index"
        | "bad section" => true,
        "bitmap(@4)" => probe.name == "bitmap-scan",
        "inverted-list" => probe.name == "inverted-list-scan",
        column if column.starts_with("column") => probe.reads_columns,
        _ => false,
    }
}

/// Every non-empty region of one stored replica, by name, as byte
/// ranges.
fn regions(cluster: &DfsCluster, block: BlockId, node: DatanodeId) -> Vec<(String, Range<usize>)> {
    let bytes = cluster
        .datanode(node)
        .unwrap()
        .read_replica(block, &mut CostLedger::new())
        .unwrap();
    let indexed = IndexedBlock::parse(bytes.clone()).unwrap();
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let schema = schema();
    // magic, version, field count, the fields, three counts.
    let names: usize = schema.fields().iter().map(|f| 3 + f.name.len()).sum();
    let dir = 7 + names + 12;
    let columns = schema.len();
    let mut out = vec![
        ("pax header".to_string(), 0..dir),
        ("directory".to_string(), dir..dir + (columns + 1) * 8),
    ];
    for c in 0..=columns {
        let (off, len) = (u32_at(dir + 8 * c), u32_at(dir + 8 * c + 4));
        let name = if c < columns {
            format!("column @{}", c + 1)
        } else {
            "bad section".to_string()
        };
        out.push((name, off..off + len));
    }
    let meta = indexed.metadata();
    if meta.index_bytes > 0 {
        let at = meta.index_offset;
        out.push(("clustered index".into(), at..at + meta.index_bytes));
    }
    for s in &meta.sidecars {
        let at = s.sidecar_offset;
        out.push((s.kind.to_string(), at..at + s.sidecar_bytes));
    }
    let trailer = bytes.len() - TRAILER_LEN;
    let meta_len = u32_at(trailer + 12);
    out.push(("index metadata".into(), trailer - meta_len..trailer));
    out.push(("trailer".into(), trailer..bytes.len()));
    out.retain(|(_, range)| !range.is_empty());
    out
}

fn planner_for<'a>(cluster: &'a DfsCluster, probe: &Probe) -> QueryPlanner<'a> {
    QueryPlanner::with_config(
        cluster,
        PlannerConfig {
            bad_record_tokens: probe.tokens.clone(),
            ..Default::default()
        },
    )
}

/// One block read through the planner with the task on `node` — which
/// every probe's path serves from `node` when it can — as canonical
/// records, bad ones marked.
fn block_read(
    cluster: &DfsCluster,
    probe: &Probe,
    block: BlockId,
    node: DatanodeId,
) -> hail_types::Result<Vec<String>> {
    let planner = planner_for(cluster, probe);
    let plan = planner.plan(DatasetFormat::HailPax, &[block], &probe.query)?;
    let mut records = Vec::new();
    planner.execute_block(&plan, block, node, &schema(), &probe.query, &mut |r| {
        records.push(record_string(&r))
    })?;
    records.sort();
    Ok(records)
}

fn record_string(r: &MapRecord) -> String {
    format!("{}{}", if r.bad { "bad: " } else { "" }, r.row)
}

/// A whole solo job for `probe`, every record it reads — bad ones
/// included — kept.
fn job(setup: &SystemSetup, probe: &Probe) -> JobRun {
    let mut format = PlannedInputFormat::new(setup.dataset.clone(), probe.query.clone());
    format.planner.bad_record_tokens = probe.tokens.clone();
    let job = MapJob {
        name: probe.name.into(),
        input: setup.dataset.blocks.clone(),
        format: &format,
        job_parallelism: None,
        map: Box::new(|rec, out| out.push(rec.row.clone())),
    };
    run_map_job(&setup.cluster, &spec(), &job).unwrap()
}

fn good_rows(setup: &SystemSetup, probe: &Probe) -> Vec<String> {
    let run = job(setup, probe);
    let arity = probe.query.projected_columns(&schema()).len();
    let good: Vec<Row> = run
        .output
        .into_iter()
        .filter(|row| row.len() == arity && arity > 1)
        .collect();
    canonical(&good)
}

/// The PAX matrix: every region of every replica of the block with bad
/// records, under every path that reads it.
#[test]
fn a_corrupt_region_fails_its_readers_and_fails_over() {
    let mut setup = setup();
    let block = setup.dataset.blocks[0];
    let hosts = setup.cluster.namenode().get_hosts(block).unwrap();
    let probes = probes();
    let expected_blocks: Vec<Vec<Vec<String>>> = probes
        .iter()
        .map(|p| {
            hosts
                .iter()
                .map(|&node| block_read(&setup.cluster, p, block, node).unwrap())
                .collect()
        })
        .collect();
    let expected_jobs: Vec<String> = probes
        .iter()
        .map(|p| format!("{:?}", canonical(&job(&setup, p).output)))
        .collect();
    for p in &probes[..3] {
        let oracle = canonical(&oracle_eval(&texts(), &schema(), &p.query));
        assert_eq!(good_rows(&setup, p), oracle, "{}", p.name);
    }
    let managed: Vec<HailQuery> = probes[..3].iter().map(|p| p.query.clone()).collect();

    let mut cases = 0;
    for (pos, &node) in hosts.iter().enumerate() {
        for (region, range) in regions(&setup.cluster, block, node) {
            if region.starts_with("zone-map") || region.starts_with("bloom") {
                continue; // read only by the synopsis probe, below
            }
            let byte = (range.start + range.end) / 2;
            let dn = setup.cluster.datanode_mut(node).unwrap();
            dn.corrupt_replica(block, byte).unwrap();
            let what = |p: &Probe| format!("{} on replica {pos}, {region} byte {byte}", p.name);
            let cluster = &setup.cluster;
            for (i, p) in probes.iter().enumerate() {
                if !reads(p, &region) || (p.clustered_only && pos != 0) {
                    continue;
                }
                cases += 1;
                let access = BlockAccess {
                    cluster,
                    block,
                    replica: node,
                    task_node: node,
                    schema: &schema(),
                    query: &p.query,
                };
                let mut rows = 0;
                let read = p.path.execute(&access, &mut |_| rows += 1);
                assert!(read.is_err(), "{}: read {rows} records", what(p));
                // The planner serves from the damaged replica, finds it
                // corrupt and reads another.
                let failed_over = block_read(cluster, p, block, node)
                    .unwrap_or_else(|e| panic!("{}: {e}", what(p)));
                assert_eq!(failed_over, expected_blocks[i][pos], "{}", what(p));
                let run = job(&setup, p);
                assert_eq!(
                    format!("{:?}", canonical(&run.output)),
                    expected_jobs[i],
                    "{}",
                    what(p)
                );
            }
            // Two jobs at a time: a full scan, a clustered scan and a
            // bitmap scan.
            let infra = SharedJobInfra::for_jobs(2);
            let batch =
                run_queries_managed(&setup, &spec(), &managed, true, &JobManager::new(2), &infra)
                    .unwrap();
            for (run, q) in batch.runs.iter().zip(&managed) {
                assert_eq!(
                    canonical(&run.output),
                    canonical(&oracle_eval(&texts(), &schema(), q)),
                    "managed {q:?} on replica {pos}, {region}"
                );
            }
            let dn = setup.cluster.datanode_mut(node).unwrap();
            dn.corrupt_replica(block, byte).unwrap(); // flip it back
        }
    }
    assert!(cases >= 60, "{cases} cases");
}

/// A byte of a stored synopsis whose flip an unverified reader would
/// take as proof that no row has `k = needle`.
fn dangerous_byte(raw: &[u8], is_zone: bool, needle: i32) -> usize {
    let bounds = KeyBounds::point(Value::Int(needle));
    (0..raw.len())
        .find(|&at| {
            let mut flipped = raw.to_vec();
            flipped[at] ^= 0xFF;
            if is_zone {
                ZoneMapSynopsis::from_bytes(&flipped)
                    .is_ok_and(|z| z.bad_records() == 0 && !z.overlaps(&bounds))
            } else {
                BloomSynopsis::from_bytes(&flipped)
                    .is_ok_and(|b| b.bad_records() == 0 && !b.might_contain(&Value::Int(needle)))
            }
        })
        .expect("some flip misleads an unverified reader")
}

/// A damaged zone map or Bloom filter never prunes a block that holds a
/// match: the probe finds it corrupt and asks the next holder — and
/// with every holder damaged, does not prune at all.
#[test]
fn a_corrupt_synopsis_never_prunes_a_matching_block() {
    let mut setup = setup();
    let block = setup.dataset.blocks[1];
    let needle = 5;
    let q = query(&format!("@1 = {needle}"), "{@3}");
    let oracle = canonical(&oracle_eval(&texts(), &schema(), &q));
    assert_eq!(oracle.len(), 2, "one match per block");
    let pruning = || PlannerConfig {
        synopsis_pruning: true,
        ..Default::default()
    };
    // Undamaged, the synopses prune nothing here and something for a
    // key no block holds.
    let plan = QueryPlanner::with_config(&setup.cluster, pruning())
        .plan_dataset(&setup.dataset, &q)
        .unwrap();
    assert!(plan.blocks.iter().all(|bp| bp.pruned.is_none()));
    let absent = QueryPlanner::with_config(&setup.cluster, pruning())
        .plan_dataset(&setup.dataset, &query("@1 = 100000", "{@3}"))
        .unwrap();
    assert!(absent.blocks.iter().any(|bp| bp.pruned.is_some()));

    // In the order the probe asks them: the first one is consulted first.
    let mut hosts = setup.cluster.namenode().get_hosts(block).unwrap();
    hosts.sort_unstable();
    for kind in ["zone-map(@1)", "bloom(@1)"] {
        for damaged in [1, hosts.len()] {
            let mut flips = Vec::new();
            for &node in &hosts[..damaged] {
                let range = regions(&setup.cluster, block, node)
                    .into_iter()
                    .find(|(name, _)| name == kind)
                    .unwrap()
                    .1;
                let raw = setup
                    .cluster
                    .datanode(node)
                    .unwrap()
                    .read_replica(block, &mut CostLedger::new())
                    .unwrap();
                let at =
                    range.start + dangerous_byte(&raw[range], kind.starts_with("zone"), needle);
                setup
                    .cluster
                    .datanode_mut(node)
                    .unwrap()
                    .corrupt_replica(block, at)
                    .unwrap();
                flips.push((node, at));
            }
            let what = format!("{kind} damaged on {damaged} replica(s)");
            let planner = QueryPlanner::with_config(&setup.cluster, pruning());
            let plan = planner.plan_dataset(&setup.dataset, &q).unwrap();
            assert!(
                plan.block_plan(block).unwrap().pruned.is_none(),
                "{what}: pruned\n{}",
                plan.explain()
            );
            let mut format = PlannedInputFormat::new(setup.dataset.clone(), q.clone());
            format.planner = pruning();
            let job = MapJob::collecting("synopsis", setup.dataset.blocks.clone(), &format);
            let run = run_map_job(&setup.cluster, &spec(), &job).unwrap();
            assert_eq!(canonical(&run.output), oracle, "{what}");
            for (node, at) in flips {
                let dn = setup.cluster.datanode_mut(node).unwrap();
                dn.corrupt_replica(block, at).unwrap();
            }
        }
    }
}

/// A read that fails after it has handed out rows keeps none of them. The
/// first byte of the bad section is damaged on every replica: the queries
/// read only the first two columns, so each PAX read fails only after its
/// good rows — which one block's read builds as one batch — were emitted.
/// There is no replica to fail over to, and the block read leaves the
/// caller's records as it found them.
#[test]
fn a_read_that_fails_halfway_keeps_no_records() {
    let mut setup = setup();
    let block = setup.dataset.blocks[0];
    let hosts = setup.cluster.namenode().get_hosts(block).unwrap();
    for &node in &hosts {
        let bad = regions(&setup.cluster, block, node)
            .into_iter()
            .find(|(name, _)| name == "bad section")
            .expect("block 0 has bad records")
            .1;
        let dn = setup.cluster.datanode_mut(node).unwrap();
        dn.corrupt_replica(block, bad.start).unwrap();
    }
    let schema = schema();
    let on_key = setup
        .cluster
        .namenode()
        .get_hosts_with_index(block, 0)
        .unwrap();
    let clustered = hosts.iter().position(|h| on_key.contains(h)).unwrap();
    let sentinel = MapRecord::bad("kept from before".into());
    let reads: [(Box<dyn AccessPath>, HailQuery, usize); 3] = [
        (
            Box::new(FullScan::new(ScanLayout::HailPax)),
            query("@1 <= 200", "{@1, @2}"),
            0,
        ),
        (
            Box::new(ClusteredIndexScan { column: 0 }),
            query("@1 <= 200", "{@1, @2}"),
            clustered,
        ),
        (
            Box::new(BitmapScan { column: 3 }),
            query("@4 = 'red'", "{@1, @2}"),
            0,
        ),
    ];
    for (path, q, pos) in &reads {
        let what = path.describe();
        let access = BlockAccess {
            cluster: &setup.cluster,
            block,
            replica: hosts[*pos],
            task_node: hosts[*pos],
            schema: &schema,
            query: q,
        };
        let mut emitted = 0;
        assert!(path.execute(&access, &mut |_| emitted += 1).is_err());
        assert!(emitted > 0, "{what}: the read failed after its rows");

        let planner = QueryPlanner::new(&setup.cluster);
        let plan = planner.plan(DatasetFormat::HailPax, &[block], q).unwrap();
        let mut records = vec![sentinel.clone()];
        let read = planner.execute_block_into(&plan, block, hosts[*pos], &schema, q, &mut records);
        assert!(read.is_err(), "{what}: every replica is damaged");
        assert_eq!(records, vec![sentinel.clone()], "{what}");
        let mut kept = 0;
        let read = planner.execute_block(&plan, block, hosts[*pos], &schema, q, &mut |_| kept += 1);
        assert!(read.is_err());
        assert_eq!(kept, 0, "{what}");
    }
}

/// The Hadoop++ row layout: the trojan scan verifies its header, index
/// and rows, the full scan the whole replica; both fail over.
#[test]
fn row_layout_reads_fail_over_too() {
    let tb = Testbed {
        scale: hail_bench::ExperimentScale {
            nodes: NODES,
            rows_per_node: ROWS,
            blocks_per_node: 1,
            index_partition_size: 16,
            replication: 3,
        },
        schema: schema(),
        texts: texts(),
        storage: StorageConfig::test_scale(1 << 20),
        spec: spec(),
    };
    let (mut setup, _) = setup_hpp(&tb, Some(0)).unwrap();
    let block = setup.dataset.blocks[0];
    let node = setup.cluster.namenode().get_hosts(block).unwrap()[0];
    let len = setup
        .cluster
        .datanode(node)
        .unwrap()
        .replica_len(block)
        .unwrap();
    let index_bytes = setup
        .cluster
        .namenode()
        .replica_info(block, node)
        .unwrap()
        .index
        .index_bytes;
    let cases: [(&str, Box<dyn AccessPath>, HailQuery); 2] = [
        (
            "trojan-index-scan",
            Box::new(TrojanIndexScan { column: 0 }),
            query("@1 >= -1", "{@1, @3, @5}"),
        ),
        (
            "full-scan",
            Box::new(FullScan::new(ScanLayout::RowLayout)),
            query("@5 >= -1.0", "{@1, @3, @5}"),
        ),
    ];
    let read = |cluster: &DfsCluster, q: &HailQuery, task_node| {
        let planner = QueryPlanner::new(cluster);
        let plan = planner
            .plan(DatasetFormat::HadoopPlusPlus, &[block], q)
            .unwrap();
        let mut rows = Vec::new();
        planner
            .execute_block(&plan, block, task_node, &schema(), q, &mut |r| {
                rows.push(record_string(&r))
            })
            .unwrap();
        rows.sort();
        rows
    };
    // The fixed header, the trojan index, a row, the bad lines' tail.
    let bytes = [
        2,
        20 + index_bytes / 2,
        (20 + index_bytes + len) / 2,
        len - 2,
    ];
    for (name, path, q) in &cases {
        let expected = read(&setup.cluster, q, node);
        for at in bytes {
            setup
                .cluster
                .datanode_mut(node)
                .unwrap()
                .corrupt_replica(block, at)
                .unwrap();
            let access = BlockAccess {
                cluster: &setup.cluster,
                block,
                replica: node,
                task_node: node,
                schema: &schema(),
                query: q,
            };
            let mut rows = 0;
            let err = path.execute(&access, &mut |_| rows += 1);
            assert!(err.is_err(), "{name}, byte {at}: read {rows} records");
            assert_eq!(read(&setup.cluster, q, node), expected, "{name}, byte {at}");
            setup
                .cluster
                .datanode_mut(node)
                .unwrap()
                .corrupt_replica(block, at)
                .unwrap();
        }
    }
}

/// The prune probe reads a holder's trailer, metadata and the probed
/// sidecar, and nothing else: damage to the PAX header or the clustered
/// index of every holder no longer stops a sound prune, and a damaged
/// zone map falls through to the next holder — with every holder's
/// damaged, nothing is pruned — and no row is ever dropped.
#[test]
fn the_prune_probe_reads_only_the_tail_and_its_sidecar() {
    let mut setup = setup();
    let block = setup.dataset.blocks[1];
    let mut hosts = setup.cluster.namenode().get_hosts(block).unwrap();
    hosts.sort_unstable();
    let absent = query("@1 >= 100000", "{@3}");
    let present = query("@1 = 5", "{@3}");
    let pruned = |cluster: &DfsCluster| {
        let config = PlannerConfig {
            synopsis_pruning: true,
            ..Default::default()
        };
        let plan = QueryPlanner::with_config(cluster, config)
            .plan_dataset(&setup.dataset, &absent)
            .unwrap();
        plan.block_plan(block).unwrap().pruned.clone()
    };
    let rows_are_the_oracles = |setup: &SystemSetup, queries: &[&HailQuery], what: &str| {
        for &q in queries {
            let format = PlannedInputFormat::new(setup.dataset.clone(), q.clone());
            let job = MapJob::collecting("probe", setup.dataset.blocks.clone(), &format);
            let run = run_map_job(&setup.cluster, &spec(), &job).unwrap();
            let oracle = canonical(&oracle_eval(&texts(), &schema(), q));
            assert_eq!(canonical(&run.output), oracle, "{what}: {q:?}");
        }
    };
    assert_eq!(pruned(&setup.cluster).unwrap().reason, PruneReason::Zone);
    let chunks = |r: &Range<usize>| r.start / CHUNK_SIZE..=(r.end - 1) / CHUNK_SIZE;

    for region in ["pax header", "clustered index"] {
        let mut flips = Vec::new();
        for &node in &hosts {
            let regions = regions(&setup.cluster, block, node);
            let Some((_, range)) = regions.iter().find(|(name, _)| name == region) else {
                continue; // the unsorted replica has no clustered index
            };
            let probed: Vec<_> = regions
                .iter()
                .filter(|(name, _)| {
                    ["zone-map(@1)", "bloom(@1)", "index metadata", "trailer"].contains(&&**name)
                })
                .map(|(_, r)| chunks(r))
                .collect();
            let at = range
                .clone()
                .find(|at| probed.iter().all(|c| !c.contains(&(at / CHUNK_SIZE))))
                .unwrap_or_else(|| panic!("{region} of DN{node} has a chunk of its own"));
            let dn = setup.cluster.datanode_mut(node).unwrap();
            dn.corrupt_replica(block, at).unwrap();
            flips.push((node, at));
        }
        assert!(flips.len() >= 2, "{region}");
        let what = format!("{region} damaged on every holder");
        assert!(pruned(&setup.cluster).is_some(), "{what}");
        // Only a pruned block is never read: every copy of it is damaged.
        rows_are_the_oracles(&setup, &[&absent], &what);
        for (node, at) in flips {
            let dn = setup.cluster.datanode_mut(node).unwrap();
            dn.corrupt_replica(block, at).unwrap();
        }
    }

    for damaged in 1..=hosts.len() {
        let mut flips = Vec::new();
        for &node in &hosts[..damaged] {
            let (_, range) = regions(&setup.cluster, block, node)
                .into_iter()
                .find(|(name, _)| name == "zone-map(@1)")
                .unwrap();
            let at = (range.start + range.end) / 2;
            let dn = setup.cluster.datanode_mut(node).unwrap();
            dn.corrupt_replica(block, at).unwrap();
            flips.push((node, at));
        }
        let what = format!("zone map damaged on {damaged} holder(s)");
        assert_eq!(
            pruned(&setup.cluster).is_some(),
            damaged < hosts.len(),
            "{what}"
        );
        rows_are_the_oracles(&setup, &[&absent, &present], &what);
        for (node, at) in flips {
            let dn = setup.cluster.datanode_mut(node).unwrap();
            dn.corrupt_replica(block, at).unwrap();
        }
    }
}
