//! Fault injection across the upload pipeline and storage layer:
//! corrupted packets, reordered ACKs, nodes dying mid-stream, corrupted
//! replicas at rest, and under-replicated clusters.

use hail::core::upload_hail_naive;
use hail::dfs::store_transformed_block;
use hail::dfs::FaultPlan;
use hail::index::IndexMetadata;
use hail::pax::blocks_from_text;
use hail::pax::checksum::{checksums_to_bytes, chunk_checksums};
use hail::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::VarChar),
    ])
    .unwrap()
}

fn pax_block(rows: usize) -> hail::pax::PaxBlock {
    let text: String = (0..rows)
        .map(|i| format!("{}|val{}\n", (i * 17) % 97, i))
        .collect();
    blocks_from_text(&text, &schema(), &StorageConfig::test_scale(1 << 30))
        .unwrap()
        .pop()
        .unwrap()
}

#[test]
fn corrupted_packet_at_every_hop_is_caught() {
    // Whichever hop corrupts the data, the chain tail's verification
    // must fail the upload (DN2 believes DN3, DN1 believes DN2...).
    let pax = pax_block(50);
    for hop in 0..3 {
        let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(1 << 20));
        let fault = FaultPlan {
            corrupt_after_hop: Some((hop, 0)),
            ..Default::default()
        };
        let err = hail_upload_block(
            &mut cluster,
            0,
            &pax,
            &ReplicaIndexConfig::unindexed(3),
            &fault,
        )
        .unwrap_err();
        assert!(
            matches!(err, HailError::ChecksumMismatch { .. }),
            "hop {hop}: expected checksum failure, got {err}"
        );
    }
}

#[test]
fn ack_reorder_fails_multi_packet_upload() {
    // Needs a block spanning several packets (> 64 KB).
    let pax = pax_block(20_000);
    assert!(pax.byte_len() > 64 * 1024);
    let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(1 << 20));
    let fault = FaultPlan {
        reorder_acks: true,
        ..Default::default()
    };
    let err = hail_upload_block(
        &mut cluster,
        0,
        &pax,
        &ReplicaIndexConfig::unindexed(3),
        &fault,
    )
    .unwrap_err();
    assert!(matches!(err, HailError::Pipeline(_)));
}

#[test]
fn node_death_mid_stream_aborts_cleanly() {
    let pax = pax_block(50);
    let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(1 << 20));
    let fault = FaultPlan {
        kill_datanode_at: Some((2, 0)),
        ..Default::default()
    };
    // Node 2 may or may not be in the chain for writer 0; find a chain
    // including it by writing from node 2 itself.
    let err = hail_upload_block(
        &mut cluster,
        2,
        &pax,
        &ReplicaIndexConfig::unindexed(3),
        &fault,
    )
    .unwrap_err();
    assert!(matches!(err, HailError::DeadDatanode(2)));
    // Subsequent uploads from other writers still work.
    let ok = hail_upload_block(
        &mut cluster,
        0,
        &pax,
        &ReplicaIndexConfig::unindexed(3),
        &FaultPlan::none(),
    );
    assert!(ok.is_ok());
}

/// An upload that fails while a datanode builds its replica leaves no
/// trace: position 0 used to be flushed and registered before position 1
/// found its sort column missing, so the namenode kept a block of which
/// two of three hosts held nothing.
#[test]
fn failed_replica_build_leaves_no_half_registered_block() {
    let pax = pax_block(50);
    let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(1 << 20));
    let bad_order = ReplicaIndexConfig::first_indexed(3, &[0, 99]);
    let bad_sidecar = ReplicaIndexConfig::first_indexed(3, &[0, 1]).with_bloom(99);
    for config in [bad_order, bad_sidecar] {
        let err = hail_upload_block(&mut cluster, 0, &pax, &config, &FaultPlan::none());
        assert!(matches!(err, Err(HailError::UnknownAttribute(100))));
        assert_eq!(cluster.namenode().block_count(), 0);
        assert_eq!(cluster.stored_bytes(), 0);
        assert_eq!(cluster.namenode().total_replica_bytes(), 0);
    }
    // A failure validation cannot foresee: a value of the block has lost
    // its terminator, which the unsorted head of the chain never looks at
    // and the sorting datanode behind it trips over.
    let mut raw = pax.bytes().to_vec();
    let at = raw.windows(6).position(|w| w == b"val49\0").unwrap();
    raw[at + 5] = b'!';
    let damaged = hail::pax::PaxBlock::parse(bytes::Bytes::from(raw)).unwrap();
    let second_sorts = ReplicaIndexConfig::new(vec![
        SortOrder::Unsorted,
        SortOrder::Clustered { column: 0 },
        SortOrder::Unsorted,
    ]);
    let err = hail_upload_block(&mut cluster, 0, &damaged, &second_sorts, &FaultPlan::none());
    assert!(matches!(err, Err(HailError::Corrupt(_))));
    assert_eq!(cluster.namenode().block_count(), 0);
    assert_eq!(cluster.stored_bytes(), 0);

    // Nothing is left in the way of a clean upload.
    let block = hail_upload_block(
        &mut cluster,
        0,
        &pax,
        &ReplicaIndexConfig::first_indexed(3, &[0, 1]),
        &FaultPlan::none(),
    )
    .unwrap();
    let hosts = cluster.namenode().get_hosts(block).unwrap();
    assert_eq!(hosts.len(), 3);
    for host in hosts {
        assert!(cluster.datanode(host).unwrap().has_replica(block));
    }
    assert_eq!(
        cluster.stored_bytes(),
        cluster.namenode().total_replica_bytes()
    );
}

/// A chain error wins over a build error, and a failed upload consumes
/// exactly one block id: a block that a sorting position cannot build
/// *and* whose packet is corrupted in the chain fails the checksum, not
/// the build, and the next clean upload gets the id after it.
#[test]
fn a_chain_error_beats_a_build_error_and_consumes_one_id() {
    let pax = pax_block(50);
    let mut raw = pax.bytes().to_vec();
    let at = raw.windows(6).position(|w| w == b"val49\0").unwrap();
    raw[at + 5] = b'!';
    let damaged = hail::pax::PaxBlock::parse(bytes::Bytes::from(raw)).unwrap();
    let sorts = ReplicaIndexConfig::first_indexed(3, &[0]);

    let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(1 << 20));
    let first = hail_upload_block(&mut cluster, 0, &pax, &sorts, &FaultPlan::none()).unwrap();
    for hop in 0..3 {
        let fault = FaultPlan {
            corrupt_after_hop: Some((hop, 0)),
            ..Default::default()
        };
        let err = hail_upload_block(&mut cluster, 0, &damaged, &sorts, &fault).unwrap_err();
        assert!(
            matches!(err, HailError::ChecksumMismatch { .. }),
            "hop {hop}: expected checksum failure, got {err}"
        );
    }
    // Without the corruption the same block fails its build.
    let err = hail_upload_block(&mut cluster, 0, &damaged, &sorts, &FaultPlan::none());
    assert!(matches!(err, Err(HailError::Corrupt(_))));
    assert_eq!(cluster.namenode().blocks(), vec![first]);

    // Four failed attempts, four ids consumed and abandoned.
    let next = hail_upload_block(&mut cluster, 0, &pax, &sorts, &FaultPlan::none()).unwrap();
    assert_eq!(next, first + 5);
    assert_eq!(cluster.namenode().blocks(), vec![first, next]);
    assert_eq!(
        cluster.stored_bytes(),
        cluster.namenode().total_replica_bytes()
    );
}

#[test]
fn at_rest_corruption_detected_and_other_replicas_serve() {
    let schema = schema();
    let text: String = (0..200).map(|i| format!("{}|v{}\n", i % 40, i)).collect();
    let mut storage = StorageConfig::test_scale(512);
    storage.index_partition_size = 4;
    let mut cluster = DfsCluster::new(4, storage);
    let ds = upload_hail(
        &mut cluster,
        &schema,
        "d",
        &[(0, text)],
        &ReplicaIndexConfig::first_indexed(3, &[0]),
    )
    .unwrap();

    let block = ds.blocks[0];
    let victim = cluster.namenode().get_hosts(block).unwrap()[1];
    cluster
        .datanode_mut(victim)
        .unwrap()
        .corrupt_replica(block, 100)
        .unwrap();

    // A direct full read of the corrupt replica fails its checksums…
    let mut ledger = CostLedger::new();
    assert!(matches!(
        cluster
            .datanode(victim)
            .unwrap()
            .read_replica(block, &mut ledger),
        Err(HailError::ChecksumMismatch { .. })
    ));
    // …but recovery (and hence failover) can still serve the block.
    let rows = recover_logical_rows(&cluster, block).unwrap();
    assert!(!rows.is_empty());
}

#[test]
fn insufficient_live_nodes_rejects_upload() {
    let mut cluster = DfsCluster::new(3, StorageConfig::test_scale(1 << 20));
    cluster.kill_node(1).unwrap();
    let pax = pax_block(10);
    let err = hail_upload_block(
        &mut cluster,
        0,
        &pax,
        &ReplicaIndexConfig::unindexed(3),
        &FaultPlan::none(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        HailError::InsufficientReplication {
            wanted: 3,
            alive: 2
        }
    ));
}

#[test]
fn replication_ten_needs_ten_nodes() {
    let mut storage = StorageConfig::test_scale(1 << 20);
    storage.replication = 10;
    let pax = pax_block(20);

    let mut small = DfsCluster::new(9, storage.clone());
    assert!(hail_upload_block(
        &mut small,
        0,
        &pax,
        &ReplicaIndexConfig::unindexed(10),
        &FaultPlan::none()
    )
    .is_err());

    let mut big = DfsCluster::new(10, storage);
    let block = hail_upload_block(
        &mut big,
        0,
        &pax,
        &ReplicaIndexConfig::unindexed(10),
        &FaultPlan::none(),
    )
    .unwrap();
    assert_eq!(big.namenode().get_hosts(block).unwrap().len(), 10);
}

#[test]
fn hdfs_baseline_upload_also_detects_corruption() {
    let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(1 << 20));
    let raw = bytes_of(8192);
    let fault = FaultPlan {
        corrupt_after_hop: Some((0, 0)),
        ..Default::default()
    };
    let err = hail::dfs::hdfs_upload_block(&mut cluster, 0, raw, &fault).unwrap_err();
    assert!(matches!(err, HailError::ChecksumMismatch { .. }));
}

fn bytes_of(n: usize) -> bytes::Bytes {
    bytes::Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

/// A varchar value of 64 KiB or more has no encoding as an index key or
/// a synopsis bound, which store a `u16` length. Indexing or zone-mapping
/// one fails the upload, the rewrite or the Hadoop++ indexing job with an
/// error, and registers nothing: it never panics, and never stores a
/// truncated key or bound.
#[test]
fn oversized_varchar_key_fails_the_build_cleanly() {
    let schema = Schema::new(vec![
        Field::new("s", DataType::VarChar),
        Field::new("n", DataType::Int),
    ])
    .unwrap();
    let texts = [(0, format!("{}|2\n", "x".repeat(70_000)))];
    let storage = StorageConfig::test_scale(1 << 20);
    let too_long = |err: HailError| assert!(err.to_string().contains("too long"), "{err}");

    for config in [
        ReplicaIndexConfig::first_indexed(3, &[0]),
        ReplicaIndexConfig::unindexed(3).with_zone_map(0),
    ] {
        let mut cluster = DfsCluster::new(3, storage.clone());
        too_long(upload_hail(&mut cluster, &schema, "long", &texts, &config).unwrap_err());
        assert_eq!(cluster.namenode().block_count(), 0);
        assert_eq!(cluster.stored_bytes(), 0);
        assert_eq!(cluster.namenode().total_replica_bytes(), 0);
    }

    // Stored unindexed, the value uploads; indexing it in place fails the
    // rewrite, which leaves the replica and the design as they were.
    let mut cluster = DfsCluster::new(3, storage.clone());
    let unindexed = ReplicaIndexConfig::unindexed(3);
    let dataset = upload_hail(&mut cluster, &schema, "long", &texts, &unindexed).unwrap();
    let block = dataset.blocks[0];
    let (stored, epoch) = (cluster.stored_bytes(), cluster.namenode().design_epoch());
    let clustered = SortOrder::Clustered { column: 0 };
    too_long(
        rewrite_replica(&mut cluster, block, 0, clustered, &SidecarSpec::default()).unwrap_err(),
    );
    assert_eq!(cluster.stored_bytes(), stored);
    assert_eq!(cluster.namenode().design_epoch(), epoch);
    assert!(cluster
        .namenode()
        .get_hosts_with_index(block, 0)
        .unwrap()
        .is_empty());

    // Hadoop++: the trojan index job fails, and the upload abandons the
    // staged text and binary copies it registered. The naive two-pass
    // upload fails its HAIL pass and abandons its staged text. Their
    // replica files stay on the datanodes as orphans.
    let abandoned = |cluster: &DfsCluster, err: HailError| {
        too_long(err);
        assert_eq!(cluster.namenode().block_count(), 0);
        assert_eq!(cluster.namenode().total_replica_bytes(), 0);
    };
    let mut cluster = DfsCluster::new(3, storage.clone());
    let spec = ClusterSpec::new(3, HardwareProfile::physical());
    let err = upload_hadoop_plus_plus(&mut cluster, &spec, &schema, "long", &texts, Some(0));
    abandoned(&cluster, err.unwrap_err());
    let mut cluster = DfsCluster::new(3, storage);
    let indexed = ReplicaIndexConfig::first_indexed(3, &[0]);
    let err = upload_hail_naive(&mut cluster, &schema, "long", &texts, &indexed);
    abandoned(&cluster, err.unwrap_err());
}

/// FNV-1a 64 of `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What an upload left on the cluster: every node's upload ledger and
/// client ledger as `[disk_read, disk_write, net_sent, parse_cpu,
/// sort_cpu, scan_cpu, seeks]`, the stored bytes, and per registered
/// block one digest of its replicas' data and checksum files, which all
/// of its replicas must share.
#[derive(Debug, PartialEq)]
struct Stored {
    upload: Vec<[u64; 7]>,
    client: Vec<[u64; 7]>,
    stored_bytes: u64,
    digests: Vec<u64>,
}

fn ledger_fields(l: &CostLedger) -> [u64; 7] {
    [
        l.disk_read,
        l.disk_write,
        l.net_sent,
        l.parse_cpu,
        l.sort_cpu,
        l.scan_cpu,
        l.seeks,
    ]
}

fn stored(cluster: &DfsCluster) -> Stored {
    let nodes = 0..cluster.node_count();
    let digests = cluster
        .namenode()
        .blocks()
        .into_iter()
        .map(|block| {
            let digests: Vec<u64> = cluster
                .namenode()
                .get_hosts(block)
                .unwrap()
                .into_iter()
                .map(|dn| {
                    let replica = cluster.datanode(dn).unwrap().open_replica(block).unwrap();
                    // A replica opens only with one checksum per chunk
                    // and verifies only if each is its chunk's CRC, so
                    // the verified list is the stored checksum file.
                    replica.verify(0..replica.len()).unwrap();
                    let checksums = chunk_checksums(replica.data());
                    fnv(
                        fnv(0xcbf2_9ce4_8422_2325, replica.data()),
                        &checksums_to_bytes(&checksums),
                    )
                })
                .collect();
            assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:x?}");
            digests[0]
        })
        .collect();
    Stored {
        upload: nodes
            .clone()
            .map(|n| ledger_fields(cluster.datanode(n).unwrap().upload_ledger()))
            .collect(),
        client: nodes
            .map(|n| ledger_fields(cluster.client_ledger(n)))
            .collect(),
        stored_bytes: cluster.stored_bytes(),
        digests,
    }
}

/// The identical-replica uploads — the HDFS text upload, the Hadoop++
/// binary rewrite, and one transformed block stored on its own — pinned
/// whole on one fixed text: every node's ledgers, the stored bytes, each
/// replica's data and checksum file, and the Hadoop++ report's priced
/// seconds (its phases reset the ledgers, so its own are left empty).
#[test]
fn identical_replica_uploads_are_pinned() {
    let text: String = (0..400)
        .map(|i| format!("{}|val{}\n", (i * 37) % 101, i))
        .collect();
    let texts = [(1, text)];
    let storage = StorageConfig::test_scale(2 * 1024);
    let idle = vec![[0; 7]; 4];
    let text_digests = [13205425142714896708, 12514606524785785302];

    let mut cluster = DfsCluster::new(4, storage.clone());
    upload_hadoop(&mut cluster, &schema(), "text", &texts).unwrap();
    assert_eq!(
        stored(&cluster),
        Stored {
            upload: vec![
                [0, 3886, 2088, 0, 0, 0, 4],
                [0, 3886, 3950, 0, 0, 0, 4],
                [0, 2056, 0, 0, 0, 0, 2],
                [0, 1830, 1862, 0, 0, 0, 2],
            ],
            client: vec![[0; 7], [3854, 0, 0, 0, 0, 0, 2], [0; 7], [0; 7]],
            stored_bytes: 11562,
            digests: text_digests.to_vec(),
        }
    );

    let mut cluster = DfsCluster::new(4, storage.clone());
    let spec = ClusterSpec::new(4, HardwareProfile::physical());
    let (_, report) =
        upload_hadoop_plus_plus(&mut cluster, &spec, &schema(), "hpp", &texts, Some(0)).unwrap();
    let mut digests = text_digests.to_vec();
    digests.extend([
        5944863995528154341,
        11346909552846653054,
        18055384705623007479,
        1675668231987970097,
    ]);
    assert_eq!(
        stored(&cluster),
        Stored {
            upload: idle.clone(),
            client: idle.clone(),
            stored_bytes: 47856,
            digests,
        }
    );
    let seconds: Vec<u64> = std::iter::once(report.text_upload_seconds)
        .chain(report.job_data_seconds)
        .chain(report.job_framework_seconds)
        .map(f64::to_bits)
        .collect();
    assert_eq!(
        seconds,
        [
            4584331127070927150,
            4584387275291301048,
            4584390666955119737,
            4622607247523761357,
            4622607247523761357,
        ]
    );

    let mut cluster = DfsCluster::new(4, storage);
    let payload = bytes::Bytes::from(texts[0].1.clone());
    store_transformed_block(&mut cluster, 3, payload, IndexMetadata::none()).unwrap();
    assert_eq!(
        stored(&cluster),
        Stored {
            upload: vec![
                [0, 3886, 3918, 0, 0, 0, 2],
                [0, 3886, 0, 0, 0, 0, 2],
                [0; 7],
                [0, 3886, 3918, 0, 0, 0, 2],
            ],
            client: idle,
            stored_bytes: 11562,
            digests: vec![16264797948433958710],
        }
    );
}
