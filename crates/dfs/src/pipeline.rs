//! The upload pipelines (Fig. 1).
//!
//! [`hdfs_upload_block`] is the standard HDFS path: the client streams a
//! block's raw bytes as packets through the chain DN1 → DN2 → DN3; every
//! datanode flushes chunk data and checksums *as packets arrive*; only
//! the chain tail verifies checksums; ACKs flow back through the chain
//! and must arrive in order.
//!
//! [`hail_upload_block`] is the HAIL path: the client ships an (already
//! binary PAX) block through the same chain, but datanodes buffer packets
//! in main memory instead of flushing, reassemble the block, sort it in
//! their replica-specific order, build the clustered index, recompute
//! *their own* checksums (each replica's bytes differ!), and only then
//! flush both files. The ACK semantics change from "received, validated,
//! and flushed" to "received and validated" — except the block's last
//! packet, which is only acknowledged after the flush completes.
//!
//! The HAIL path runs in two phases. [`prepare_hail_block`] is pure CPU
//! on one block — packetize, then sort, index and checksum every chain
//! position's replica — so an upload client can prepare many blocks at
//! once. [`commit_hail_block`] then takes `&mut DfsCluster`: it allocates
//! the block, streams the packets through the chain with every hop
//! charge and fault, and flushes and registers the prepared replicas.
//! Building before the chain is building from the bytes the datanodes
//! receive: the chain tail verifies every chunk, so a chain that
//! succeeds delivered exactly the client's bytes, and the chain checks
//! that once more before the commit flushes.
//!
//! Every position of a chain that succeeds received exactly the client's
//! packets, so the chain copies a packet only when a fault damages it on
//! the wire; identical (HDFS and transformed) replicas share one buffer
//! and one checksum list.

use crate::cluster::DfsCluster;
use bytes::Bytes;
use hail_index::{
    BlockPrep, HailBlockReplicaInfo, IndexMetadata, IndexedBlock, ReplicaIndexConfig, SidecarSpec,
    SortOrder,
};
use hail_pax::checksum::{chunk_checksums, packetize, reassemble, Packet};
use hail_pax::PaxBlock;
use hail_sim::CostLedger;
use hail_types::{BlockId, DatanodeId, HailError, Result};
use std::borrow::Cow;
use std::sync::Arc;

/// Fault-injection plan for upload tests.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Flip a byte of packet `seqno`'s payload after it leaves hop
    /// `hop` (0 = client → DN1). The chain tail must catch it.
    pub corrupt_after_hop: Option<(usize, u32)>,
    /// Deliver ACKs out of order — the client must fail the upload.
    pub reorder_acks: bool,
    /// Kill this datanode mid-stream, after it has received the given
    /// packet.
    pub kill_datanode_at: Option<(DatanodeId, u32)>,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }
}

/// Streams `packets` through the replica chain, applying faults, charging
/// network hops, and verifying checksums at the tail. Succeeds only if
/// the tail verified every packet and holds exactly what the client sent
/// — what every position of the chain then holds, since a corruption at
/// any hop travels on to the tail. A packet is copied only when a fault
/// damages it on the wire.
fn stream_chain(
    cluster: &mut DfsCluster,
    writer: DatanodeId,
    chain: &[DatanodeId],
    packets: &[Packet],
    fault: &FaultPlan,
) -> Result<()> {
    for packet in packets {
        let mut current = Cow::Borrowed(packet);
        for (hop, &dn) in chain.iter().enumerate() {
            // Charge the sender of this hop.
            let from_node = if hop == 0 { writer } else { chain[hop - 1] };
            if from_node != dn {
                let wire = current.wire_bytes() as u64;
                if hop == 0 {
                    cluster.client_ledger_mut(from_node).net_sent += wire;
                } else {
                    cluster.datanode_net(from_node, wire)?;
                }
            }
            // Fault: corrupt the payload after it leaves `hop`.
            if let Some((at_hop, seqno)) = fault.corrupt_after_hop {
                if at_hop == hop && current.seqno == seqno && !current.data.is_empty() {
                    current.to_mut().data[0] ^= 0xFF;
                }
            }
            // Fault: the datanode dies mid-stream.
            if let Some((dead_dn, at_seqno)) = fault.kill_datanode_at {
                if dead_dn == dn && current.seqno == at_seqno {
                    cluster.kill_node(dn)?;
                }
            }
            if !cluster.datanode(dn)?.is_alive() {
                return Err(HailError::DeadDatanode(dn));
            }
            // The chain tail verifies every chunk checksum (§3.2): DN2
            // believes DN3, DN1 believes DN2, CL believes DN1.
            if hop + 1 == chain.len() {
                current.verify()?;
            }
        }
        if let Cow::Owned(received) = &current {
            if received != packet {
                return Err(HailError::Pipeline(
                    "the chain tail holds other bytes than the client sent".into(),
                ));
            }
        }
    }
    // ACK chain: the client checks that ACKs arrive in order. We model
    // the ACK stream as the sequence of packet seqnos echoed back.
    let mut acks: Vec<u32> = packets.iter().map(|p| p.seqno).collect();
    if fault.reorder_acks && acks.len() >= 2 {
        acks.swap(0, 1);
    }
    for (i, &seq) in acks.iter().enumerate() {
        if seq as usize != i {
            return Err(HailError::Pipeline(format!(
                "ACK {seq} arrived out of order (expected {i}); upload failed"
            )));
        }
    }
    Ok(())
}

impl DfsCluster {
    /// Charges network bytes to a datanode's upload ledger.
    fn datanode_net(&mut self, node: DatanodeId, bytes: u64) -> Result<()> {
        // Datanode stores its ledger privately; route through a small
        // internal API.
        self.datanode_mut(node)?.add_net_sent(bytes);
        Ok(())
    }
}

/// Streams `payload` through the chain of the freshly allocated `block`
/// and flushes it as identical replicas on every position, registered
/// with `meta`: the shared tail of the HDFS upload and
/// [`store_transformed_block`]. A failed chain abandons the block, as
/// the HDFS client does.
fn upload_identical_replicas(
    cluster: &mut DfsCluster,
    writer: DatanodeId,
    (block, chain): (BlockId, Vec<DatanodeId>),
    payload: &[u8],
    meta: IndexMetadata,
    fault: &FaultPlan,
) -> Result<BlockId> {
    let packets = packetize(payload);
    if let Err(e) = stream_chain(cluster, writer, &chain, &packets, fault) {
        cluster.namenode_mut().abandon_block(block);
        return Err(e);
    }

    // HDFS datanodes flush chunk data and checksums as packets arrive;
    // the net effect is one data file + one checksum file, the same on
    // every position.
    let data = Bytes::from(reassemble(&packets)?);
    let checksums: Arc<[u32]> = packets
        .iter()
        .flat_map(|p| p.checksums.iter().copied())
        .collect();
    for dn in chain {
        cluster
            .datanode_mut(dn)?
            .write_replica(block, data.clone(), Arc::clone(&checksums))?;
        cluster
            .namenode_mut()
            .register_replica(HailBlockReplicaInfo::new(
                block,
                dn,
                meta.clone(),
                data.len(),
            ))?;
    }
    Ok(block)
}

/// Uploads one block the standard HDFS way: identical replicas, flushed
/// as received, no transformation. `raw` is whatever the file contains
/// (text lines for the Hadoop baseline).
pub fn hdfs_upload_block(
    cluster: &mut DfsCluster,
    writer: DatanodeId,
    raw: Bytes,
    fault: &FaultPlan,
) -> Result<BlockId> {
    let replication = cluster.config().replication;
    let allocated = cluster.allocate(writer, replication)?;
    // The client reads the source file from local disk.
    let ledger = cluster.client_ledger_mut(writer);
    ledger.disk_read += raw.len() as u64;
    ledger.seeks += 1;
    upload_identical_replicas(
        cluster,
        writer,
        allocated,
        &raw,
        IndexMetadata::none(),
        fault,
    )
}

/// Uploads one block the HAIL way (Fig. 1): the client ships the binary
/// PAX block; each datanode buffers, sorts in its own order, indexes,
/// builds the configured §3.5 sidecar extension indexes, re-checksums,
/// flushes, and registers its replica — sidecar directory included —
/// with the namenode.
///
/// `config.orders()[i]` is the sort order and `config.sidecar(i)` the
/// sidecar spec for the replica at chain position `i`; the config's
/// replication must equal the cluster's and its columns must exist in
/// the block's schema.
///
/// This is [`prepare_hail_block`] followed by [`commit_hail_block`]. A
/// config error is raised before any block id is allocated; an upload
/// that fails in the chain or in any position's build — a chain error
/// winning over a build error, the lowest position's build error over
/// the others — abandons the block with nothing written and nothing
/// registered.
pub fn hail_upload_block(
    cluster: &mut DfsCluster,
    writer: DatanodeId,
    pax: &PaxBlock,
    config: &ReplicaIndexConfig,
    fault: &FaultPlan,
) -> Result<BlockId> {
    check_replication(config.replication(), cluster.config().replication)?;
    let prepared = prepare_hail_block(pax, config)?;
    commit_hail_block(cluster, writer, prepared, fault)
}

fn check_replication(positions: usize, replication: usize) -> Result<()> {
    if positions == replication {
        Ok(())
    } else {
        Err(HailError::Job(format!(
            "{positions} sort orders for replication factor {replication}"
        )))
    }
}

/// One chain position's replica, built before the block enters the
/// chain: its data file, its checksum file, its `Dir_rep` metadata, and
/// the sort CPU (bytes streamed) its build charges the datanode.
#[derive(Debug)]
struct PreparedReplica {
    bytes: Bytes,
    checksums: Vec<u32>,
    meta: IndexMetadata,
    sort_cpu: u64,
}

/// A HAIL block ready for [`commit_hail_block`]: the client's packets
/// and, per chain position, the replica that position will flush — or
/// the lowest position's build error, which the commit reports only if
/// the chain itself succeeds.
#[derive(Debug)]
pub struct PreparedBlock {
    packets: Vec<Packet>,
    replicas: Result<Vec<PreparedReplica>>,
}

/// Phase one of [`hail_upload_block`], pure CPU on one block: validates
/// `config` against the block's schema, cuts the block into packets
/// (the client's checksums, reused on the wire, §3.2 step 4), and runs
/// steps 6 and 7 for every chain position — sort and index the block in
/// the position's order and recompute the checksums over its (unique)
/// bytes.
///
/// The positions' replicas are built through one [`BlockPrep`], so what
/// they have in common is computed once; each datanode's ledger is still
/// charged for its own copy of that work at commit. Only the validation
/// error is returned here; a build error travels inside the prepared
/// block, so that a chain error still wins over it.
pub fn prepare_hail_block(pax: &PaxBlock, config: &ReplicaIndexConfig) -> Result<PreparedBlock> {
    config.validate(pax.schema())?;
    let packets = packetize(pax.bytes());
    let mut prep = BlockPrep::new(pax);
    let replicas = (0..config.replication())
        .map(|pos| {
            let order = config.orders()[pos];
            let indexed = prep.build(order, config.sidecar(pos))?;
            Ok(PreparedReplica {
                bytes: indexed.bytes().clone(),
                checksums: chunk_checksums(indexed.bytes()),
                meta: indexed.metadata().clone(),
                // Sort + permute + index build all stream over the
                // binary block.
                sort_cpu: if order.column().is_some() {
                    pax.byte_len() as u64
                } else {
                    0
                },
            })
        })
        .collect();
    Ok(PreparedBlock { packets, replicas })
}

/// Phase two of [`hail_upload_block`]: allocates the block, streams the
/// prepared packets through its chain (hop charges, injected faults,
/// tail verification and the ACK check exactly as for any upload, and
/// the check that the tail holds the bytes the replicas were built
/// from), and then flushes and registers every position's replica.
///
/// A chain error wins over a build error; either abandons the allocated
/// block with nothing written and nothing registered.
pub fn commit_hail_block(
    cluster: &mut DfsCluster,
    writer: DatanodeId,
    prepared: PreparedBlock,
    fault: &FaultPlan,
) -> Result<BlockId> {
    let replication = cluster.config().replication;
    if let Ok(replicas) = &prepared.replicas {
        check_replication(replicas.len(), replication)?;
    }
    let (block, chain) = cluster.allocate(writer, replication)?;

    let replicas =
        stream_chain(cluster, writer, &chain, &prepared.packets, fault).and(prepared.replicas);
    let replicas = match replicas {
        Ok(r) => r,
        Err(e) => {
            cluster.namenode_mut().abandon_block(block);
            return Err(e);
        }
    };

    for (dn, replica) in chain.into_iter().zip(replicas) {
        // Step 7 was pure CPU on this datanode; charge the binary block
        // size for a sorted position.
        if replica.sort_cpu > 0 {
            cluster.datanode_mut(dn)?.add_sort_cpu(replica.sort_cpu);
        }
        // Building sidecars streams once over the indexed columns / bad
        // records; charge their serialized size as CPU.
        let sidecar_total = replica.meta.sidecar_bytes_total();
        if sidecar_total > 0 {
            cluster.datanode_mut(dn)?.add_sort_cpu(sidecar_total as u64);
        }

        // Flush data + checksum files.
        let replica_bytes = replica.bytes.len();
        cluster
            .datanode_mut(dn)?
            .write_replica(block, replica.bytes, replica.checksums)?;

        // Steps 11/14: each datanode informs the namenode about its new
        // replica — size, index, sort order.
        cluster
            .namenode_mut()
            .register_replica(HailBlockReplicaInfo::new(
                block,
                dn,
                replica.meta,
                replica_bytes,
            ))?;
    }
    Ok(block)
}

/// Rewrites one stored replica in place with a new sort order and
/// sidecar spec — the adaptive re-indexing path (the LIAH-style
/// follow-up to the paper's static upload-time design).
///
/// The datanode re-runs upload step 7 locally — no network hop, the
/// data is already on its disk: read the replica, take its logical PAX
/// payload, re-sort/re-index in main memory, re-checksum, and flush.
/// It then re-registers with the namenode, which overwrites this
/// `(block, datanode)`'s `Dir_rep` entry *atomically under `&mut`* and
/// bumps the design epoch — so a plan priced against the old metadata
/// no longer holds, and the next plan sees the new replica.
///
/// Because the whole rewrite holds `&mut DfsCluster`, no query can be
/// planning or reading while the design mutates: readers observe either
/// the old replica (before this call) or the new one (after), never a
/// half-registered hybrid.
///
/// Costs are charged like the upload's: the re-read, sort/index CPU and
/// flush all land on the datanode's upload ledger (it is background
/// maintenance work, not part of any query's read path).
pub fn rewrite_replica(
    cluster: &mut DfsCluster,
    block: BlockId,
    datanode: DatanodeId,
    order: SortOrder,
    spec: &SidecarSpec,
) -> Result<()> {
    // Read the stored replica back (background I/O: charged to the
    // node's own upload ledger, with checksum verification like any
    // full-replica read).
    let mut ledger = CostLedger::new();
    let bytes = cluster
        .datanode(datanode)?
        .read_replica(block, &mut ledger)?;
    let old = IndexedBlock::parse(bytes)?;

    // Step 7, locally: sort + index + sidecars over the logical rows.
    let rebuilt = IndexedBlock::build_with(old.pax(), order, spec)?;
    let node = cluster.datanode_mut(datanode)?;
    node.add_extra(&ledger);
    if order.column().is_some() {
        node.add_sort_cpu(old.pax().byte_len() as u64);
    }
    let sidecar_total = rebuilt.metadata().sidecar_bytes_total();
    if sidecar_total > 0 {
        node.add_sort_cpu(sidecar_total as u64);
    }

    // Flush the replacement files, then re-register: `Dir_rep` flips to
    // the new metadata and the design epoch bumps in the same exclusive
    // section.
    let checksums = chunk_checksums(rebuilt.bytes());
    let meta = rebuilt.metadata().clone();
    let replica_bytes = rebuilt.byte_len();
    node.write_replica(block, rebuilt.bytes().clone(), checksums)?;
    cluster
        .namenode_mut()
        .register_replica(HailBlockReplicaInfo::new(
            block,
            datanode,
            meta,
            replica_bytes,
        ))
}

/// Stores a block whose per-replica payloads were produced elsewhere
/// (the Hadoop++ post-upload indexing jobs use this to rewrite data as
/// binary-with-trojan-index; all replicas are identical).
pub fn store_transformed_block(
    cluster: &mut DfsCluster,
    writer: DatanodeId,
    payload: Bytes,
    meta: IndexMetadata,
) -> Result<BlockId> {
    let replication = cluster.config().replication;
    let allocated = cluster.allocate(writer, replication)?;
    upload_identical_replicas(
        cluster,
        writer,
        allocated,
        &payload,
        meta,
        &FaultPlan::none(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_index::{ReplicaIndexConfig, SidecarSpec, SortOrder};
    use hail_pax::blocks_from_text;
    use hail_types::{DataType, Field, Schema, StorageConfig, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("name", DataType::VarChar),
        ])
        .unwrap()
    }

    fn pax_block() -> PaxBlock {
        let text: String = [5, 3, 9, 1, 7, 2, 8]
            .iter()
            .map(|i| format!("{i}|name{i}\n"))
            .collect();
        blocks_from_text(&text, &schema(), &StorageConfig::test_scale(1 << 20))
            .unwrap()
            .pop()
            .unwrap()
    }

    fn cluster() -> DfsCluster {
        DfsCluster::new(4, StorageConfig::test_scale(1 << 20))
    }

    #[test]
    fn hdfs_upload_stores_identical_replicas() {
        let mut c = cluster();
        let raw = Bytes::from_static(b"1|a\n2|b\n3|c\n");
        let block = hdfs_upload_block(&mut c, 0, raw.clone(), &FaultPlan::none()).unwrap();
        let hosts = c.namenode().get_hosts(block).unwrap();
        assert_eq!(hosts.len(), 3);
        let mut ledger = hail_sim::CostLedger::new();
        for &dn in &hosts {
            let data = c
                .datanode(dn)
                .unwrap()
                .read_replica(block, &mut ledger)
                .unwrap();
            assert_eq!(data, raw);
        }
        // Client read the file once from local disk.
        assert_eq!(c.client_ledger(0).disk_read, raw.len() as u64);
    }

    #[test]
    fn hail_upload_creates_divergent_sorted_replicas() {
        let mut c = cluster();
        let pax = pax_block();
        let orders = ReplicaIndexConfig::first_indexed(3, &[0, 1]);
        let block = hail_upload_block(&mut c, 1, &pax, &orders, &FaultPlan::none()).unwrap();

        let hosts = c.namenode().get_hosts(block).unwrap();
        assert_eq!(hosts[0], 1, "writer holds the first replica");

        // Replica 0: clustered on column 0.
        let mut ledger = hail_sim::CostLedger::new();
        let r0 = c
            .datanode(hosts[0])
            .unwrap()
            .read_replica(block, &mut ledger)
            .unwrap();
        let b0 = IndexedBlock::parse(r0).unwrap();
        assert_eq!(b0.sort_order(), SortOrder::Clustered { column: 0 });
        assert_eq!(b0.pax().value(0, 0).unwrap(), Value::Int(1));
        assert!(b0.index().is_some());

        // Replica 1: clustered on column 1 (names).
        let r1 = c
            .datanode(hosts[1])
            .unwrap()
            .read_replica(block, &mut ledger)
            .unwrap();
        let b1 = IndexedBlock::parse(r1).unwrap();
        assert_eq!(b1.sort_order(), SortOrder::Clustered { column: 1 });

        // Replica 2: unsorted.
        let r2 = c
            .datanode(hosts[2])
            .unwrap()
            .read_replica(block, &mut ledger)
            .unwrap();
        let b2 = IndexedBlock::parse(r2).unwrap();
        assert_eq!(b2.sort_order(), SortOrder::Unsorted);
        assert_eq!(b2.pax().value(0, 0).unwrap(), Value::Int(5));

        // Namenode knows who has which index.
        assert_eq!(
            c.namenode().get_hosts_with_index(block, 0).unwrap(),
            vec![hosts[0]]
        );
        assert_eq!(
            c.namenode().get_hosts_with_index(block, 1).unwrap(),
            vec![hosts[1]]
        );
    }

    #[test]
    fn rewrite_replica_reindexes_in_place() {
        let mut c = cluster();
        let pax = pax_block();
        let orders = ReplicaIndexConfig::first_indexed(3, &[0]);
        let block = hail_upload_block(&mut c, 0, &pax, &orders, &FaultPlan::none()).unwrap();
        let hosts = c.namenode().get_hosts(block).unwrap();
        let target = hosts[2]; // the unsorted replica
        let epoch = c.namenode().design_epoch();

        rewrite_replica(
            &mut c,
            block,
            target,
            SortOrder::Clustered { column: 1 },
            &SidecarSpec::default(),
        )
        .unwrap();

        // Dir_rep flipped and the epoch bumped.
        assert!(c.namenode().design_epoch() > epoch);
        assert_eq!(
            c.namenode().get_hosts_with_index(block, 1).unwrap(),
            vec![target]
        );
        // The stored bytes really are the re-sorted, re-indexed block,
        // and checksums match the new content.
        let mut ledger = hail_sim::CostLedger::new();
        let bytes = c
            .datanode(target)
            .unwrap()
            .read_replica(block, &mut ledger)
            .unwrap();
        let rebuilt = IndexedBlock::parse(bytes).unwrap();
        assert_eq!(rebuilt.sort_order(), SortOrder::Clustered { column: 1 });
        assert!(rebuilt.index().is_some());
        // Logical content is untouched (same rows, new physical order).
        assert_eq!(rebuilt.pax().row_count(), pax.row_count());

        // Rewriting on a dead node refuses cleanly.
        c.kill_node(hosts[1]).unwrap();
        let err = rewrite_replica(
            &mut c,
            block,
            hosts[1],
            SortOrder::Clustered { column: 1 },
            &SidecarSpec::default(),
        )
        .unwrap_err();
        assert!(matches!(err, HailError::DeadDatanode(_)));
    }

    #[test]
    fn hail_checksums_differ_across_replicas() {
        let mut c = cluster();
        let pax = pax_block();
        let orders = ReplicaIndexConfig::first_indexed(3, &[0, 1]);
        let block = hail_upload_block(&mut c, 0, &pax, &orders, &FaultPlan::none()).unwrap();
        let hosts = c.namenode().get_hosts(block).unwrap();
        let mut ledger = hail_sim::CostLedger::new();
        let bytes: Vec<Bytes> = hosts
            .iter()
            .map(|&d| {
                c.datanode(d)
                    .unwrap()
                    .read_replica(block, &mut ledger)
                    .unwrap()
            })
            .collect();
        assert_ne!(bytes[0], bytes[1]);
        assert_ne!(bytes[1], bytes[2]);
    }

    #[test]
    fn corruption_in_chain_fails_upload() {
        let mut c = cluster();
        let pax = pax_block();
        let orders = ReplicaIndexConfig::unindexed(3);
        let fault = FaultPlan {
            corrupt_after_hop: Some((1, 0)),
            ..Default::default()
        };
        let err = hail_upload_block(&mut c, 0, &pax, &orders, &fault).unwrap_err();
        assert!(matches!(err, HailError::ChecksumMismatch { .. }));
        // The failed block was abandoned: the namenode has no trace of
        // it, and a subsequent clean upload succeeds.
        assert_eq!(c.namenode().block_count(), 0);
        let ok = hail_upload_block(&mut c, 0, &pax, &orders, &FaultPlan::none());
        assert!(ok.is_ok());
    }

    #[test]
    fn reordered_acks_fail_upload() {
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(256));
        // Enough data for ≥2 packets would need 64 KB; instead rely on a
        // larger block.
        let text: String = (0..20_000).map(|i| format!("{i}|n{i}\n")).collect();
        let pax = blocks_from_text(&text, &schema(), &StorageConfig::test_scale(1 << 30))
            .unwrap()
            .pop()
            .unwrap();
        let fault = FaultPlan {
            reorder_acks: true,
            ..Default::default()
        };
        let err = hail_upload_block(&mut c, 0, &pax, &ReplicaIndexConfig::unindexed(3), &fault)
            .unwrap_err();
        assert!(matches!(err, HailError::Pipeline(_)));
    }

    #[test]
    fn datanode_death_mid_stream_fails_upload() {
        let mut c = cluster();
        let pax = pax_block();
        let fault = FaultPlan {
            kill_datanode_at: Some((1, 0)),
            ..Default::default()
        };
        // Writer 1 is the first replica target; killing it mid-stream
        // aborts.
        let err = hail_upload_block(&mut c, 1, &pax, &ReplicaIndexConfig::unindexed(3), &fault)
            .unwrap_err();
        assert!(matches!(err, HailError::DeadDatanode(1)));
    }

    #[test]
    fn network_charged_for_remote_hops_only() {
        let mut c = cluster();
        let pax = pax_block();
        hail_upload_block(
            &mut c,
            0,
            &pax,
            &ReplicaIndexConfig::unindexed(3),
            &FaultPlan::none(),
        )
        .unwrap();
        // Writer-local first hop is free; the client sent nothing.
        assert_eq!(c.client_ledger(0).net_sent, 0);
        // DN chain hops were charged to the forwarding datanodes.
        let ledgers = c.upload_ledgers();
        let total_net: u64 = ledgers.iter().map(|l| l.net_sent).sum();
        assert!(total_net > 0);
    }

    #[test]
    fn sort_cpu_charged_per_indexed_replica() {
        let mut c = cluster();
        let pax = pax_block();
        hail_upload_block(
            &mut c,
            0,
            &pax,
            &ReplicaIndexConfig::first_indexed(3, &[0, 1, 0]),
            &FaultPlan::none(),
        )
        .unwrap();
        let total_sort: u64 = c.upload_ledgers().iter().map(|l| l.sort_cpu).sum();
        assert_eq!(total_sort, 3 * pax.byte_len() as u64);

        let mut c2 = cluster();
        hail_upload_block(
            &mut c2,
            0,
            &pax,
            &ReplicaIndexConfig::unindexed(3),
            &FaultPlan::none(),
        )
        .unwrap();
        let no_sort: u64 = c2.upload_ledgers().iter().map(|l| l.sort_cpu).sum();
        assert_eq!(no_sort, 0);
    }

    #[test]
    fn wrong_order_count_rejected() {
        let mut c = cluster();
        let pax = pax_block();
        let err = hail_upload_block(
            &mut c,
            0,
            &pax,
            &ReplicaIndexConfig::unindexed(2),
            &FaultPlan::none(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn transformed_block_round_trip() {
        let mut c = cluster();
        let payload = Bytes::from(vec![7u8; 5000]);
        let meta = IndexMetadata::none();
        let block = store_transformed_block(&mut c, 2, payload.clone(), meta).unwrap();
        let hosts = c.namenode().get_hosts(block).unwrap();
        let mut ledger = hail_sim::CostLedger::new();
        for &d in &hosts {
            assert_eq!(
                c.datanode(d)
                    .unwrap()
                    .read_replica(block, &mut ledger)
                    .unwrap(),
                payload
            );
        }
    }
}
