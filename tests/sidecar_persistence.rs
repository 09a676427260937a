//! Sidecars persist with their replica and mirror into `Dir_rep`, and a
//! replica's sidecar directory fails closed: a descriptor whose kind
//! tag is unknown, or one of the retired tags 4 and 5 (the bitmap and
//! inverted-list sidecars this format no longer has), makes the replica
//! unreadable as `Corrupt` — never a panic, never a half-readable block
//! — and a read that meets such a replica fails over to another.
//!
//! The damaged replicas get freshly computed chunk checksums, so it is
//! the parser that rejects them, not the checksum check.

use hail::index::ReplicaTail;
use hail::pax::{chunk_checksums, ReplicaBytes};
use hail::prelude::*;
use hail::types::{BlockId, DatanodeId, HailError};
use hail::workloads::badness::inject_bad_records;

fn weblog_cluster(index_config: &ReplicaIndexConfig) -> (DfsCluster, Dataset, Schema, String) {
    let schema = bob_schema();
    let text = UserVisitsGenerator::default().node_text(0, 900);
    let mut storage = StorageConfig::test_scale(1 << 20); // one big block
    storage.index_partition_size = 32;
    let mut cluster = DfsCluster::new(3, storage);
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "uv",
        &[(0, text.clone())],
        index_config,
    )
    .unwrap();
    (cluster, dataset, schema, text)
}

/// One sidecar per replica — a zone map on `countryCode` — so its
/// descriptor is the metadata record's first sidecar entry.
fn one_sidecar() -> ReplicaIndexConfig {
    let country = bob_schema().index_of("countryCode").unwrap();
    ReplicaIndexConfig::first_indexed(3, &[2]).with_zone_map(country)
}

fn replica_bytes(cluster: &DfsCluster, block: BlockId, dn: DatanodeId) -> bytes::Bytes {
    let mut ledger = CostLedger::new();
    cluster
        .datanode(dn)
        .unwrap()
        .read_replica(block, &mut ledger)
        .unwrap()
}

/// `raw` with its first sidecar descriptor's kind tag set to `tag`. The
/// tag sits 20 bytes into the metadata record, which sits right before
/// the fixed 20-byte footer.
fn with_sidecar_tag(raw: &[u8], tag: u8) -> Vec<u8> {
    let meta_len = IndexedBlock::parse(bytes::Bytes::copy_from_slice(raw))
        .unwrap()
        .metadata()
        .to_bytes()
        .len();
    let mut out = raw.to_vec();
    let tag_pos = out.len() - 20 - meta_len + 20;
    out[tag_pos] = tag;
    out
}

/// A stored replica whose checksums vouch for every byte of `raw`.
fn checksummed(raw: &[u8]) -> ReplicaBytes {
    let raw = bytes::Bytes::copy_from_slice(raw);
    let sums = chunk_checksums(&raw);
    ReplicaBytes::new(raw, sums.into()).unwrap()
}

/// Upload with synopses over a block with bad records: every stored
/// replica parses back with them, each records the block's bad-record
/// count (which keeps the block from ever being pruned), and the
/// namenode's `Dir_rep` entry mirrors exactly what the replica stores.
#[test]
fn uploaded_sidecars_round_trip_and_mirror_dir_rep() {
    let schema = bob_schema();
    let country = schema.index_of("countryCode").unwrap();
    let clean = UserVisitsGenerator::default().node_text(0, 900);
    let (text, n_bad) = inject_bad_records(&clean, &schema, 0.05, 5);
    assert!(n_bad > 10);
    let mut storage = StorageConfig::test_scale(1 << 20); // one big block
    storage.index_partition_size = 32;
    let mut cluster = DfsCluster::new(3, storage);
    let config = ReplicaIndexConfig::first_indexed(3, &[2]).with_synopses(country);
    let dataset = upload_hail(&mut cluster, &schema, "uv", &[(0, text)], &config).unwrap();

    for &block in &dataset.blocks {
        for dn in cluster.namenode().get_hosts(block).unwrap() {
            let parsed = IndexedBlock::parse(replica_bytes(&cluster, block, dn)).unwrap();
            let (zone_meta, zone) = parsed.zone_map_sidecar(country).unwrap().unwrap();
            let (bloom_meta, bloom) = parsed.bloom_sidecar(country).unwrap().unwrap();
            assert_eq!(zone.bad_records(), n_bad);
            assert_eq!(bloom.bad_records(), n_bad);
            assert_eq!(zone_meta.sidecar_bytes, zone.to_bytes().unwrap().len());
            assert_eq!(bloom_meta.sidecar_bytes, bloom.to_bytes().len());
            let info = cluster.namenode().replica_info(block, dn).unwrap();
            assert_eq!(&info.index, parsed.metadata());
            assert_eq!(info.replica_bytes, parsed.byte_len());
        }
        let nn = cluster.namenode();
        assert_eq!(nn.get_hosts_with_zone_map(block, country).unwrap().len(), 3);
        assert_eq!(nn.get_hosts_with_bloom(block, country).unwrap().len(), 3);
    }
}

/// A corrupt sidecar directory entry — an unknown kind tag, or a
/// retired one — fails the replica parse, the full open and the tail
/// open alike, as `Corrupt`.
#[test]
fn corrupt_sidecar_tag_fails_replica_parse() {
    let (cluster, dataset, _, _) = weblog_cluster(&one_sidecar());
    let block = dataset.blocks[0];
    let dn = cluster.namenode().get_hosts(block).unwrap()[0];
    let raw = replica_bytes(&cluster, block, dn);
    assert!(ReplicaTail::open(checksummed(&raw)).is_ok());
    assert_eq!(
        IndexedBlock::parse(raw.clone())
            .unwrap()
            .metadata()
            .sidecars[0]
            .kind,
        IndexKind::ZoneMap {
            column: bob_schema().index_of("countryCode").unwrap()
        }
    );

    for tag in [4u8, 5, 250] {
        let damaged = with_sidecar_tag(&raw, tag);
        let corrupt = |what: &str, result: hail::types::Result<()>| match result {
            Err(HailError::Corrupt(msg)) => {
                assert!(
                    msg.contains("unknown index kind"),
                    "tag {tag}, {what}: {msg}"
                )
            }
            other => panic!("tag {tag}, {what}: {other:?}"),
        };
        corrupt(
            "parse",
            IndexedBlock::parse(bytes::Bytes::from(damaged.clone())).map(drop),
        );
        corrupt("open", IndexedBlock::open(checksummed(&damaged)).map(drop));
        corrupt("tail", ReplicaTail::open(checksummed(&damaged)).map(drop));
    }
}

/// A full-scan job over a cluster where one replica's sidecar directory
/// carries a retired tag returns the oracle's rows: the block read that
/// meets the damaged replica finds it corrupt and reads another.
#[test]
fn a_retired_sidecar_tag_fails_over_to_another_replica() {
    let (mut cluster, dataset, schema, text) = weblog_cluster(&one_sidecar());
    let block = dataset.blocks[0];
    let query = HailQuery::full_scan();
    let oracle = canonical(&oracle_eval(&[(0, text)], &schema, &query));
    let spec = ClusterSpec::new(3, HardwareProfile::physical());

    for tag in [4u8, 5] {
        for dn in cluster.namenode().get_hosts(block).unwrap() {
            let what = format!("tag {tag} on DN{dn}");
            let good = replica_bytes(&cluster, block, dn);
            let damaged = with_sidecar_tag(&good, tag);
            let sums = chunk_checksums(&damaged);
            cluster
                .datanode_mut(dn)
                .unwrap()
                .write_replica(block, bytes::Bytes::from(damaged), sums)
                .unwrap();

            // The block read runs on the damaged node, which a full scan
            // reads first, and fails over.
            let planner = QueryPlanner::new(&cluster);
            let plan = planner.plan_dataset(&dataset, &query).unwrap();
            let mut rows = Vec::new();
            planner
                .execute_block(&plan, block, dn, &schema, &query, &mut |r| {
                    if !r.bad {
                        rows.push(r.row);
                    }
                })
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(canonical(&rows), oracle, "{what}: block read");

            let format = PlannedInputFormat::new(dataset.clone(), query.clone());
            let job = MapJob::collecting("scan", dataset.blocks.clone(), &format);
            let run = run_map_job(&cluster, &spec, &job).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(canonical(&run.output), oracle, "{what}: job");

            let sums = chunk_checksums(&good);
            cluster
                .datanode_mut(dn)
                .unwrap()
                .write_replica(block, good, sums)
                .unwrap();
        }
    }
}
