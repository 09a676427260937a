//! Failure injection and recovery invariants.
//!
//! HAIL's key fault-tolerance property (§2.3): all data reorganization is
//! *within* a block, so any single replica — whatever its sort order —
//! recovers the full logical block. This module provides the recovery
//! check used by tests and the failover experiment, plus helpers to
//! stage node failures at a work-progress fraction (§6.4.3's methodology:
//! "kill all Java processes on a random node after 50 % of work
//! progress").

use crate::cluster::DfsCluster;
use bytes::Bytes;
use hail_index::IndexedBlock;
use hail_sim::CostLedger;
use hail_types::{BlockId, HailError, Result, Row};

/// The paper's expiry interval: how long until a dead TaskTracker /
/// datanode is noticed (§6.4.3 sets it to 30 s).
pub const EXPIRY_INTERVAL_S: f64 = 30.0;

/// The logical content of one replica, in a canonical order: each good
/// row as its text line, each bad record prefixed `<bad>`, sorted — so
/// replicas with different physical sort orders compare equal. The rows
/// are put together from the block read one column at a time.
fn logical_rows(bytes: Bytes) -> Result<Vec<String>> {
    let indexed = IndexedBlock::parse(bytes)?;
    let pax = indexed.pax();
    let columns = pax.decode_all_columns()?;
    let mut rows = Vec::with_capacity(pax.row_count() + pax.bad_count());
    for r in 0..pax.row_count() {
        rows.push(Row::new(columns.iter().map(|c| c.value(r)).collect()).to_string());
    }
    for bad in pax.bad_records()? {
        rows.push(format!("<bad>{bad}"));
    }
    rows.sort();
    Ok(rows)
}

/// Recovers the logical rows of a block from any live replica,
/// returning them in a canonical (sorted-by-string) order so replicas
/// with different physical sort orders compare equal; bad records come
/// back prefixed `<bad>`. A block with no live replica is an error
/// naming a dead holder; one whose every live replica fails to read is
/// the last read's error.
pub fn recover_logical_rows(cluster: &DfsCluster, block: BlockId) -> Result<Vec<String>> {
    let namenode = cluster.namenode();
    let mut error = namenode.no_live_replica(block);
    let mut ledger = CostLedger::new();
    for dn in namenode.get_hosts(block)? {
        match cluster.datanode(dn)?.read_replica(block, &mut ledger) {
            Ok(bytes) => return logical_rows(bytes),
            Err(e) => error = e,
        }
    }
    Err(error)
}

/// Verifies that every live replica of every block recovers identical
/// logical content, bad records included — the failover invariant.
pub fn verify_replica_equivalence(cluster: &DfsCluster) -> Result<()> {
    let mut ledger = CostLedger::new();
    for block in cluster.namenode().blocks() {
        let hosts = cluster.namenode().get_hosts(block)?;
        let mut canonical: Option<Vec<String>> = None;
        for dn in hosts {
            let rows = logical_rows(cluster.datanode(dn)?.read_replica(block, &mut ledger)?)?;
            match &canonical {
                None => canonical = Some(rows),
                Some(c) => {
                    if c != &rows {
                        return Err(HailError::Internal(format!(
                            "replicas of block {block} diverge logically"
                        )));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{hail_upload_block, FaultPlan};
    use hail_index::ReplicaIndexConfig;
    use hail_pax::blocks_from_text;
    use hail_types::{DataType, Field, Schema, StorageConfig};

    fn uploaded_cluster() -> (DfsCluster, Vec<BlockId>) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
        ])
        .unwrap();
        let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(64));
        let text: String = (0..30)
            .map(|i| format!("{}|val{}\n", (i * 7) % 30, i))
            .collect();
        let blocks = blocks_from_text(&text, &schema, &StorageConfig::test_scale(64)).unwrap();
        let orders = ReplicaIndexConfig::first_indexed(3, &[0, 1]);
        let ids: Vec<BlockId> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                hail_upload_block(&mut cluster, i % 4, b, &orders, &FaultPlan::none()).unwrap()
            })
            .collect();
        (cluster, ids)
    }

    #[test]
    fn replicas_are_logically_equivalent() {
        let (cluster, _) = uploaded_cluster();
        verify_replica_equivalence(&cluster).unwrap();
    }

    /// A replica that holds the same good rows but other bad records is
    /// a divergent replica, to the check and to recovery alike.
    #[test]
    fn replicas_differing_only_in_bad_records_diverge() {
        use hail_index::SortOrder;
        use hail_pax::chunk_checksums;
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
        ])
        .unwrap();
        let storage = StorageConfig::test_scale(1 << 20);
        let block = |text: &str| blocks_from_text(text, &schema, &storage).unwrap().remove(0);
        let mut cluster = DfsCluster::new(4, storage.clone());
        let stored = block("2|b\nnot a row\n1|a\n");
        let orders = ReplicaIndexConfig::unindexed(3);
        let id = hail_upload_block(&mut cluster, 0, &stored, &orders, &FaultPlan::none()).unwrap();
        verify_replica_equivalence(&cluster).unwrap();
        let want = recover_logical_rows(&cluster, id).unwrap();
        assert_eq!(want, ["1|a", "2|b", "<bad>not a row"]);

        // The last replica of the chain now has another bad record.
        let hosts = cluster.namenode().get_hosts(id).unwrap();
        let twin = block("2|b\nnot a row either\n1|a\n");
        let replica = IndexedBlock::build(&twin, SortOrder::Unsorted).unwrap();
        let checksums = chunk_checksums(replica.bytes());
        let last = *hosts.last().unwrap();
        let node = cluster.datanode_mut(last).unwrap();
        node.write_replica(id, replica.bytes().clone(), checksums)
            .unwrap();
        assert!(matches!(
            verify_replica_equivalence(&cluster),
            Err(HailError::Internal(_))
        ));
        // Recovered from the last replica alone, the content differs.
        for &dn in &hosts[..hosts.len() - 1] {
            cluster.kill_node(dn).unwrap();
        }
        assert_eq!(
            recover_logical_rows(&cluster, id).unwrap(),
            ["1|a", "2|b", "<bad>not a row either"]
        );
    }

    #[test]
    fn recovery_survives_node_death() {
        let (mut cluster, ids) = uploaded_cluster();
        let before: Vec<Vec<String>> = ids
            .iter()
            .map(|&b| recover_logical_rows(&cluster, b).unwrap())
            .collect();
        cluster.kill_node(1).unwrap();
        for (i, &b) in ids.iter().enumerate() {
            let after = recover_logical_rows(&cluster, b).unwrap();
            assert_eq!(after, before[i], "block {b} changed after failure");
        }
    }

    #[test]
    fn two_node_deaths_still_recoverable() {
        let (mut cluster, ids) = uploaded_cluster();
        cluster.kill_node(0).unwrap();
        cluster.kill_node(2).unwrap();
        // With replication 3 on 4 nodes, at least one replica survives
        // any 2 failures... unless both dead nodes plus chain layout
        // conspire; verify each block individually and require at least
        // partial coverage.
        let mut recovered = 0;
        for &b in &ids {
            if recover_logical_rows(&cluster, b).is_ok() {
                recovered += 1;
            }
        }
        assert!(recovered > 0);
    }

    /// A block whose every holder is dead is lost, not unknown.
    #[test]
    fn a_lost_block_names_a_dead_holder() {
        let (mut cluster, ids) = uploaded_cluster();
        let holders = cluster.namenode().get_hosts(ids[0]).unwrap();
        for &dn in &holders {
            cluster.kill_node(dn).unwrap();
        }
        let error = recover_logical_rows(&cluster, ids[0]).unwrap_err();
        assert!(
            matches!(error, HailError::DeadDatanode(dn) if holders.contains(&dn)),
            "{error}"
        );
        assert_eq!(
            recover_logical_rows(&cluster, 999).unwrap_err(),
            HailError::UnknownBlock(999)
        );
    }

    #[test]
    fn corrupt_replica_detected_but_others_survive() {
        let (mut cluster, ids) = uploaded_cluster();
        let block = ids[0];
        let dn = cluster.namenode().get_hosts(block).unwrap()[0];
        cluster
            .datanode_mut(dn)
            .unwrap()
            .corrupt_replica(block, 40)
            .unwrap();
        // Recovery skips the corrupt replica (full-read checksum fails)
        // and serves from another one.
        let rows = recover_logical_rows(&cluster, block).unwrap();
        assert!(!rows.is_empty());
    }
}
