//! The HDFS namenode, extended with HAIL's per-replica directory (§3.3).
//!
//! Standard HDFS keeps `Dir_block: blockID → {datanodes}` and treats all
//! replicas of a block as byte-equivalent. HAIL adds
//! `Dir_rep: (blockID, datanode) → HailBlockReplicaInfo` so map tasks
//! can be routed to the replica carrying a suitable clustered index —
//! the per-replica metadata `hail-exec`'s `QueryPlanner` prices its
//! `(replica, access path)` candidates from. Every mutation of
//! `Dir_rep` — replica registration, datanode death, block abandonment
//! — bumps the [`Namenode::design_epoch`], the one signal that plans
//! derived from `Dir_rep` state no longer hold.

use hail_index::{HailBlockReplicaInfo, IndexMetadata};
use hail_types::{BlockId, DatanodeId, HailError, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide namenode instance ids, so consumers keeping
/// epoch-stamped state (`hail-exec`'s split-time plans) can tell two
/// namenodes' design epochs apart. Starts at 1; 0 is reserved as the
/// "no namenode" sentinel.
static NAMENODE_IDS: AtomicU64 = AtomicU64::new(1);

/// The central namenode directory.
///
/// Uses `BTreeMap` so iteration order — and therefore split order and
/// scheduling — is deterministic across runs.
#[derive(Debug)]
pub struct Namenode {
    /// `Dir_block`: logical block → datanodes holding a replica.
    dir_block: BTreeMap<BlockId, Vec<DatanodeId>>,
    /// `Dir_rep`: (block, datanode) → replica details (HAIL extension).
    dir_rep: BTreeMap<(BlockId, DatanodeId), HailBlockReplicaInfo>,
    /// Datanodes declared dead (expired heartbeats).
    dead: BTreeSet<DatanodeId>,
    /// Physical-design epoch: bumped on every mutation that can change
    /// what `Dir_rep` reports for some block — replica registration
    /// (upload), datanode death (failover), block abandonment. An
    /// unchanged epoch therefore proves an unchanged `Dir_rep`, which
    /// lets a split read execute the plan its split was cut from.
    design_epoch: u64,
    /// Process-unique instance id (≥ 1), qualifying `design_epoch`:
    /// epochs are only comparable between calls against the **same**
    /// namenode, and two in-process clusters can run the same format.
    instance_id: u64,
    next_block: BlockId,
}

impl Default for Namenode {
    fn default() -> Self {
        Namenode {
            dir_block: BTreeMap::new(),
            dir_rep: BTreeMap::new(),
            dead: BTreeSet::new(),
            design_epoch: 0,
            instance_id: NAMENODE_IDS.fetch_add(1, Ordering::Relaxed),
            next_block: 0,
        }
    }
}

impl Namenode {
    pub fn new() -> Self {
        Namenode::default()
    }

    /// Allocates a fresh block id and records the planned replica
    /// locations (what the client obtains before streaming, Fig. 1 step 3).
    pub fn allocate_block(&mut self, datanodes: Vec<DatanodeId>) -> Result<BlockId> {
        if datanodes.is_empty() {
            return Err(HailError::InsufficientReplication {
                wanted: 1,
                alive: 0,
            });
        }
        let id = self.next_block;
        self.next_block += 1;
        self.dir_block.insert(id, datanodes);
        Ok(id)
    }

    /// Registers a completed replica — each datanode reports its own
    /// replica including its HAIL block size, index and sort order
    /// (Fig. 1 steps 11/14).
    pub fn register_replica(&mut self, info: HailBlockReplicaInfo) -> Result<()> {
        let hosts = self
            .dir_block
            .get(&info.block)
            .ok_or(HailError::UnknownBlock(info.block))?;
        if !hosts.contains(&info.datanode) {
            return Err(HailError::Pipeline(format!(
                "datanode DN{} registered a replica of block {} it was never assigned",
                info.datanode + 1,
                info.block
            )));
        }
        self.dir_rep.insert((info.block, info.datanode), info);
        self.design_epoch += 1;
        Ok(())
    }

    /// Abandons a block whose upload failed: removes it (and any
    /// partially registered replicas) from both directories, as the
    /// HDFS client does when the pipeline errors out.
    pub fn abandon_block(&mut self, block: BlockId) {
        if self.dir_block.remove(&block).is_some() {
            self.design_epoch += 1;
        }
        self.dir_rep.retain(|(b, _), _| *b != block);
    }

    /// All block ids, in allocation order.
    pub fn blocks(&self) -> Vec<BlockId> {
        self.dir_block.keys().copied().collect()
    }

    /// Number of known blocks.
    pub fn block_count(&self) -> usize {
        self.dir_block.len()
    }

    /// `getHosts`: live datanodes holding a replica of the block.
    pub fn get_hosts(&self, block: BlockId) -> Result<Vec<DatanodeId>> {
        let hosts = self
            .dir_block
            .get(&block)
            .ok_or(HailError::UnknownBlock(block))?;
        Ok(hosts
            .iter()
            .copied()
            .filter(|d| !self.dead.contains(d))
            .collect())
    }

    /// The error for a read of `block` that finds no live replica:
    /// [`HailError::UnknownBlock`] when the namenode has no record of the
    /// block, else [`HailError::DeadDatanode`] naming its first dead
    /// holder — a lost block is not an unknown one.
    pub fn no_live_replica(&self, block: BlockId) -> HailError {
        let holders = self.dir_block.get(&block).into_iter().flatten();
        match holders.copied().find(|d| self.dead.contains(d)) {
            Some(holder) => HailError::DeadDatanode(holder),
            None => HailError::UnknownBlock(block),
        }
    }

    /// `getHostsWithIndex`: live datanodes whose replica of the block
    /// carries an index on the given 0-based column (the HAIL extension
    /// to `BlockLocation`, §4.3).
    pub fn get_hosts_with_index(&self, block: BlockId, column: usize) -> Result<Vec<DatanodeId>> {
        let hosts = self.get_hosts(block)?;
        Ok(hosts
            .into_iter()
            .filter(|&d| {
                self.dir_rep
                    .get(&(block, d))
                    .is_some_and(|info| info.index.serves_column(column))
            })
            .collect())
    }

    /// Live datanodes whose replica of the block stores a sidecar
    /// zone-map synopsis over the given 0-based column.
    ///
    /// Kept as frozen-suite residue: the `hail-bench` probe
    /// `dfs.dir_rep_lookup_ns` times it; the engine's prune pass finds
    /// synopsis holders through [`Namenode::live_replicas`] instead.
    pub fn get_hosts_with_zone_map(
        &self,
        block: BlockId,
        column: usize,
    ) -> Result<Vec<DatanodeId>> {
        let hosts = self.get_hosts(block)?;
        Ok(hosts
            .into_iter()
            .filter(|&d| {
                self.dir_rep
                    .get(&(block, d))
                    .is_some_and(|info| info.index.zone_map_on(column).is_some())
            })
            .collect())
    }

    /// Live datanodes whose replica of the block stores a sidecar
    /// Bloom-filter synopsis over the given 0-based column.
    ///
    /// Kept as frozen-suite residue: the `hail-bench` probe
    /// `dfs.dir_rep_lookup_ns` times it; the engine's prune pass finds
    /// synopsis holders through [`Namenode::live_replicas`] instead.
    pub fn get_hosts_with_bloom(&self, block: BlockId, column: usize) -> Result<Vec<DatanodeId>> {
        let hosts = self.get_hosts(block)?;
        Ok(hosts
            .into_iter()
            .filter(|&d| {
                self.dir_rep
                    .get(&(block, d))
                    .is_some_and(|info| info.index.bloom_on(column).is_some())
            })
            .collect())
    }

    /// Detailed replica info (one main-memory lookup per replica, §3.3).
    pub fn replica_info(
        &self,
        block: BlockId,
        datanode: DatanodeId,
    ) -> Result<&HailBlockReplicaInfo> {
        self.dir_rep
            .get(&(block, datanode))
            .ok_or(HailError::UnknownBlock(block))
    }

    /// Index metadata of a replica, if registered.
    pub fn replica_index(&self, block: BlockId, datanode: DatanodeId) -> Option<&IndexMetadata> {
        self.dir_rep.get(&(block, datanode)).map(|i| &i.index)
    }

    /// Marks a datanode dead (heartbeat expiry). Its replicas stop being
    /// returned by `get_hosts*` and `live_replicas`, and the first
    /// declaration bumps the [`Namenode::design_epoch`].
    pub fn mark_dead(&mut self, datanode: DatanodeId) {
        if self.dead.insert(datanode) {
            self.design_epoch += 1;
        }
    }

    /// The current physical-design epoch. Monotonically increasing;
    /// bumped by every replica registration, first-time datanode death,
    /// and block abandonment. Two equal epochs from the **same**
    /// namenode guarantee identical `Dir_rep` state, so a plan stamped
    /// with the epoch can be checked by comparing this one counter.
    pub fn design_epoch(&self) -> u64 {
        self.design_epoch
    }

    /// This namenode's process-unique instance id (≥ 1). Consumers
    /// stamping state with [`Namenode::design_epoch`] must store the
    /// pair `(instance_id, design_epoch)` — equal epochs from different
    /// namenodes prove nothing.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// True if the datanode has been marked dead.
    pub fn is_dead(&self, datanode: DatanodeId) -> bool {
        self.dead.contains(&datanode)
    }

    /// Replicas registered for a block (live datanodes only).
    pub fn live_replicas(&self, block: BlockId) -> Vec<&HailBlockReplicaInfo> {
        self.dir_rep
            .range((block, 0)..(block + 1, 0))
            .filter(|((_, d), _)| !self.dead.contains(d))
            .map(|(_, info)| info)
            .collect()
    }

    /// Total physical bytes stored across all live replicas — the disk
    /// footprint the replication experiment (Fig. 4c) reports.
    pub fn total_replica_bytes(&self) -> u64 {
        self.dir_rep
            .iter()
            .filter(|((_, d), _)| !self.dead.contains(d))
            .map(|(_, info)| info.replica_bytes as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_index::{IndexKind, IndexMetadata};

    fn meta_on(col: usize) -> IndexMetadata {
        IndexMetadata {
            kind: IndexKind::Clustered,
            key_column: Some(col),
            index_bytes: 128,
            index_offset: 1000,
            sidecars: Vec::new(),
        }
    }

    fn setup() -> (Namenode, BlockId) {
        let mut nn = Namenode::new();
        let b = nn.allocate_block(vec![0, 1, 2]).unwrap();
        for (dn, col) in [(0usize, 0usize), (1, 1), (2, 2)] {
            nn.register_replica(HailBlockReplicaInfo::new(b, dn, meta_on(col), 5000 + dn))
                .unwrap();
        }
        (nn, b)
    }

    #[test]
    fn allocate_and_get_hosts() {
        let (nn, b) = setup();
        assert_eq!(nn.get_hosts(b).unwrap(), vec![0, 1, 2]);
        assert!(nn.get_hosts(b + 1).is_err());
        assert_eq!(nn.block_count(), 1);
    }

    #[test]
    fn hosts_with_index_filters_by_column() {
        let (nn, b) = setup();
        assert_eq!(nn.get_hosts_with_index(b, 1).unwrap(), vec![1]);
        assert_eq!(nn.get_hosts_with_index(b, 9).unwrap(), Vec::<usize>::new());
    }

    #[test]
    fn dead_nodes_filtered_everywhere() {
        let (mut nn, b) = setup();
        nn.mark_dead(1);
        assert_eq!(nn.get_hosts(b).unwrap(), vec![0, 2]);
        assert!(nn.get_hosts_with_index(b, 1).unwrap().is_empty());
        assert_eq!(nn.live_replicas(b).len(), 2);
        assert!(nn.is_dead(1));
    }

    #[test]
    fn sidecar_lookups_filter_by_dir_rep() {
        use hail_index::SidecarMetadata;
        let mut nn = Namenode::new();
        let b = nn.allocate_block(vec![0, 1, 2]).unwrap();
        // DN0: zone map on column 5 + Bloom filter on column 2; DN1:
        // zone map only; DN2: no sidecars.
        let with_both = IndexMetadata {
            sidecars: vec![
                SidecarMetadata {
                    kind: IndexKind::ZoneMap { column: 5 },
                    sidecar_bytes: 100,
                    sidecar_offset: 0,
                },
                SidecarMetadata {
                    kind: IndexKind::Bloom { column: 2 },
                    sidecar_bytes: 50,
                    sidecar_offset: 100,
                },
            ],
            ..IndexMetadata::none()
        };
        let with_zone_map = IndexMetadata {
            sidecars: vec![SidecarMetadata {
                kind: IndexKind::ZoneMap { column: 5 },
                sidecar_bytes: 90,
                sidecar_offset: 0,
            }],
            ..IndexMetadata::none()
        };
        nn.register_replica(HailBlockReplicaInfo::new(b, 0, with_both, 1000))
            .unwrap();
        nn.register_replica(HailBlockReplicaInfo::new(b, 1, with_zone_map, 1000))
            .unwrap();
        nn.register_replica(HailBlockReplicaInfo::new(b, 2, IndexMetadata::none(), 1000))
            .unwrap();
        assert_eq!(nn.get_hosts_with_zone_map(b, 5).unwrap(), vec![0, 1]);
        assert_eq!(
            nn.get_hosts_with_zone_map(b, 4).unwrap(),
            Vec::<usize>::new()
        );
        assert_eq!(nn.get_hosts_with_bloom(b, 2).unwrap(), vec![0]);
        assert!(nn.get_hosts_with_bloom(b, 5).unwrap().is_empty());
        // Dead nodes drop out of sidecar lookups too.
        nn.mark_dead(0);
        assert_eq!(nn.get_hosts_with_zone_map(b, 5).unwrap(), vec![1]);
        assert!(nn.get_hosts_with_bloom(b, 2).unwrap().is_empty());
    }

    #[test]
    fn design_epoch_tracks_dir_rep_mutations() {
        let mut nn = Namenode::new();
        assert_eq!(nn.design_epoch(), 0);
        let b = nn.allocate_block(vec![0, 1]).unwrap();
        // Allocation alone registers no replica metadata.
        assert_eq!(nn.design_epoch(), 0);
        nn.register_replica(HailBlockReplicaInfo::new(b, 0, meta_on(0), 100))
            .unwrap();
        assert_eq!(nn.design_epoch(), 1);
        nn.register_replica(HailBlockReplicaInfo::new(b, 1, meta_on(1), 100))
            .unwrap();
        assert_eq!(nn.design_epoch(), 2);
        // Death bumps once per datanode.
        nn.mark_dead(1);
        nn.mark_dead(1);
        assert_eq!(nn.design_epoch(), 3);
        // Abandoning a known block bumps; a second abandon is a no-op.
        nn.abandon_block(b);
        assert_eq!(nn.design_epoch(), 4);
        nn.abandon_block(b);
        assert_eq!(nn.design_epoch(), 4);
    }

    #[test]
    fn register_requires_assignment() {
        let (mut nn, b) = setup();
        let err = nn.register_replica(HailBlockReplicaInfo::new(b, 7, meta_on(0), 100));
        assert!(err.is_err());
    }

    #[test]
    fn replica_info_lookup() {
        let (nn, b) = setup();
        let info = nn.replica_info(b, 2).unwrap();
        assert_eq!(info.index.key_column, Some(2));
        assert_eq!(info.replica_bytes, 5002);
        assert!(nn.replica_index(b, 9).is_none());
    }

    #[test]
    fn footprint_sums_live_replicas() {
        let (mut nn, b) = setup();
        assert_eq!(nn.total_replica_bytes(), 5000 + 5001 + 5002);
        nn.mark_dead(0);
        assert_eq!(nn.total_replica_bytes(), 5001 + 5002);
        let _ = b;
    }

    #[test]
    fn abandon_removes_block_and_replicas() {
        let (mut nn, b) = setup();
        nn.abandon_block(b);
        assert!(nn.get_hosts(b).is_err());
        assert_eq!(nn.block_count(), 0);
        assert!(nn.replica_info(b, 0).is_err());
    }

    #[test]
    fn block_ids_monotonic() {
        let mut nn = Namenode::new();
        let a = nn.allocate_block(vec![0]).unwrap();
        let b = nn.allocate_block(vec![1]).unwrap();
        assert!(b > a);
        assert_eq!(nn.blocks(), vec![a, b]);
    }

    #[test]
    fn empty_placement_rejected() {
        let mut nn = Namenode::new();
        assert!(nn.allocate_block(vec![]).is_err());
    }
}
