//! The distributed file system as a whole: namenode + datanodes +
//! placement + per-node client ledgers.

use crate::datanode::Datanode;
use crate::namenode::Namenode;
use crate::placement::PlacementPolicy;
use hail_sim::CostLedger;
use hail_types::{BlockId, DatanodeId, HailError, Result, StorageConfig};

/// An in-process DFS cluster.
///
/// Deterministic and single-threaded: upload "parallelism" is captured by
/// the cost model (per-node ledgers priced independently, cluster time =
/// slowest node), not by OS threads, so every experiment is reproducible.
#[derive(Debug)]
pub struct DfsCluster {
    namenode: Namenode,
    datanodes: Vec<Datanode>,
    placement: PlacementPolicy,
    config: StorageConfig,
    /// Per-node HDFS/HAIL *client* activity (file read, parse CPU,
    /// first-hop network) — each node uploads its local portion of the
    /// dataset, as in the paper's per-node data generation.
    client_ledgers: Vec<CostLedger>,
}

impl DfsCluster {
    /// Creates a cluster of `nodes` datanodes.
    pub fn new(nodes: usize, config: StorageConfig) -> Self {
        DfsCluster {
            namenode: Namenode::new(),
            datanodes: (0..nodes).map(Datanode::new).collect(),
            placement: PlacementPolicy::new(nodes),
            config,
            client_ledgers: vec![CostLedger::new(); nodes],
        }
    }

    /// Number of datanodes (dead ones included).
    pub fn node_count(&self) -> usize {
        self.datanodes.len()
    }

    /// The storage configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// The namenode.
    pub fn namenode(&self) -> &Namenode {
        &self.namenode
    }

    /// Abandons a block whose upload failed ([`Namenode::abandon_block`]).
    /// Replica files already flushed stay on their datanodes as orphans.
    pub fn abandon_block(&mut self, block: BlockId) {
        self.namenode.abandon_block(block);
    }

    /// Mutable namenode access (used by the upload pipelines).
    pub(crate) fn namenode_mut(&mut self) -> &mut Namenode {
        &mut self.namenode
    }

    /// A datanode by id.
    pub fn datanode(&self, id: DatanodeId) -> Result<&Datanode> {
        self.datanodes.get(id).ok_or(HailError::DeadDatanode(id))
    }

    /// Mutable datanode access.
    pub fn datanode_mut(&mut self, id: DatanodeId) -> Result<&mut Datanode> {
        self.datanodes
            .get_mut(id)
            .ok_or(HailError::DeadDatanode(id))
    }

    /// `Ok` when `writer` is one of this cluster's datanodes, alive or
    /// dead: every upload checks its writers before it allocates a block
    /// id or charges a client ledger.
    pub fn check_writer(&self, writer: DatanodeId) -> Result<()> {
        if writer < self.datanodes.len() {
            Ok(())
        } else {
            Err(HailError::Pipeline(format!(
                "writer DN{writer} is not one of the cluster's {} datanodes",
                self.datanodes.len()
            )))
        }
    }

    /// The client-side ledger of a node.
    pub fn client_ledger(&self, node: DatanodeId) -> &CostLedger {
        &self.client_ledgers[node]
    }

    /// Mutable client ledger (the upload client charges its parse/read
    /// work here).
    pub fn client_ledger_mut(&mut self, node: DatanodeId) -> &mut CostLedger {
        &mut self.client_ledgers[node]
    }

    /// Allocates a block: placement + namenode registration. Returns the
    /// block id and its replica chain (first entry = writer if alive). A
    /// writer outside the cluster is refused before any id is allocated.
    pub(crate) fn allocate(
        &mut self,
        writer: DatanodeId,
        replication: usize,
    ) -> Result<(BlockId, Vec<DatanodeId>)> {
        self.check_writer(writer)?;
        let datanodes = {
            let alive: Vec<bool> = self.datanodes.iter().map(Datanode::is_alive).collect();
            self.placement.place(writer, replication, |d| {
                alive.get(d).copied().unwrap_or(false)
            })?
        };
        let id = self.namenode.allocate_block(datanodes.clone())?;
        Ok((id, datanodes))
    }

    /// Kills a node: the datanode stops serving and the namenode marks it
    /// dead.
    pub fn kill_node(&mut self, node: DatanodeId) -> Result<()> {
        self.datanode_mut(node)?.kill();
        self.namenode.mark_dead(node);
        Ok(())
    }

    /// Ids of live datanodes.
    pub fn live_nodes(&self) -> Vec<DatanodeId> {
        self.datanodes
            .iter()
            .filter(|d| d.is_alive())
            .map(Datanode::id)
            .collect()
    }

    /// Combined per-node upload activity: client work + datanode work on
    /// the same physical machine. Entry `i` is node `i`'s total ledger.
    pub fn upload_ledgers(&self) -> Vec<CostLedger> {
        self.datanodes
            .iter()
            .zip(&self.client_ledgers)
            .map(|(dn, client)| {
                let mut l = *client;
                l.add(dn.upload_ledger());
                l
            })
            .collect()
    }

    /// Resets all ledgers (between experiment phases).
    pub fn reset_ledgers(&mut self) {
        for dn in &mut self.datanodes {
            dn.reset_ledger();
        }
        for l in &mut self.client_ledgers {
            *l = CostLedger::new();
        }
    }

    /// Total physical bytes stored on live nodes (data files only).
    pub fn stored_bytes(&self) -> u64 {
        self.datanodes
            .iter()
            .filter(|d| d.is_alive())
            .map(Datanode::stored_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let c = DfsCluster::new(5, StorageConfig::default());
        assert_eq!(c.node_count(), 5);
        assert_eq!(c.live_nodes().len(), 5);
        assert_eq!(c.stored_bytes(), 0);
    }

    #[test]
    fn kill_node_updates_both_views() {
        let mut c = DfsCluster::new(3, StorageConfig::default());
        c.kill_node(1).unwrap();
        assert_eq!(c.live_nodes(), vec![0, 2]);
        assert!(c.namenode().is_dead(1));
        assert!(!c.datanode(1).unwrap().is_alive());
    }

    #[test]
    fn allocate_prefers_writer() {
        let mut c = DfsCluster::new(4, StorageConfig::default());
        let (id, chain) = c.allocate(2, 3).unwrap();
        assert_eq!(chain[0], 2);
        assert_eq!(c.namenode().get_hosts(id).unwrap(), chain);
    }

    /// A writer outside the cluster is refused before a block id is
    /// allocated: the next allocation gets a fresh cluster's first id.
    #[test]
    fn allocate_refuses_a_writer_outside_the_cluster() {
        let mut c = DfsCluster::new(4, StorageConfig::default());
        assert!(c.allocate(99, 3).is_err());
        assert_eq!(c.namenode().block_count(), 0);
        let (id, _) = c.allocate(2, 3).unwrap();
        let mut fresh = DfsCluster::new(4, StorageConfig::default());
        assert_eq!(id, fresh.allocate(2, 3).unwrap().0);
    }

    #[test]
    fn allocate_fails_without_enough_nodes() {
        let mut c = DfsCluster::new(2, StorageConfig::default());
        assert!(c.allocate(0, 3).is_err());
    }

    #[test]
    fn ledger_merge() {
        let mut c = DfsCluster::new(2, StorageConfig::default());
        c.client_ledger_mut(0).parse_cpu = 100;
        let ledgers = c.upload_ledgers();
        assert_eq!(ledgers[0].parse_cpu, 100);
        assert_eq!(ledgers[1].parse_cpu, 0);
        c.reset_ledgers();
        assert_eq!(c.upload_ledgers()[0].parse_cpu, 0);
    }
}
