//! Datanodes: in-memory "disks" holding replica files plus checksum
//! files, with cost-accounted read/write paths.
//!
//! Every replica is two files, exactly as in HDFS (§3.2): a data file and
//! a checksum file holding one CRC-32 per 512-byte chunk. The datanode
//! charges all I/O to cost ledgers; reads charge the *caller's* ledger
//! (the record reader pays), writes charge the node's own upload ledger.
//!
//! Every read verifies what it returns. [`Datanode::read_replica`] checks
//! the whole replica and [`Datanode::read_range`] the chunks its range
//! overlaps. The access paths, which read a few regions of a replica and
//! price those reads themselves, [open](Datanode::open_replica) it
//! instead: the handle checks each chunk when a reader first touches it.

use bytes::Bytes;
use hail_pax::checksum::{verify_chunks, ReplicaBytes};
use hail_sim::CostLedger;
use hail_types::{BlockId, DatanodeId, HailError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One stored replica: data + per-chunk checksums.
#[derive(Debug, Clone)]
struct ReplicaFile {
    data: Bytes,
    checksums: Arc<[u32]>,
}

/// A datanode with an in-memory disk.
#[derive(Debug)]
pub struct Datanode {
    id: DatanodeId,
    replicas: BTreeMap<BlockId, ReplicaFile>,
    /// Physical activity of this node during upload.
    upload_ledger: CostLedger,
    alive: bool,
}

impl Datanode {
    pub fn new(id: DatanodeId) -> Self {
        Datanode {
            id,
            replicas: BTreeMap::new(),
            upload_ledger: CostLedger::new(),
            alive: true,
        }
    }

    /// This node's id.
    pub fn id(&self) -> DatanodeId {
        self.id
    }

    /// True until the node is killed.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Kills the node: data becomes unreachable, pending work is lost.
    pub fn kill(&mut self) {
        self.alive = false;
    }

    /// Revives the node (used by failover tests to model a restart; its
    /// stored replicas become readable again).
    pub fn revive(&mut self) {
        self.alive = true;
    }

    /// The node's accumulated upload activity.
    pub fn upload_ledger(&self) -> &CostLedger {
        &self.upload_ledger
    }

    /// Clears the upload ledger (between experiments).
    pub fn reset_ledger(&mut self) {
        self.upload_ledger = CostLedger::new();
    }

    /// Charges forwarded network bytes to this node's upload ledger
    /// (pipeline hops DN1 → DN2 → DN3).
    pub fn add_net_sent(&mut self, bytes: u64) {
        self.upload_ledger.net_sent += bytes;
    }

    /// Charges in-memory sort + index-build CPU work (HAIL upload step 7).
    pub fn add_sort_cpu(&mut self, bytes: u64) {
        self.upload_ledger.sort_cpu += bytes;
    }

    /// Merges an externally accumulated ledger into this node's upload
    /// ledger (used by post-upload indexing jobs like Hadoop++'s).
    pub fn add_extra(&mut self, ledger: &CostLedger) {
        self.upload_ledger.add(ledger);
    }

    /// Returns a replica's bytes *without* charging any cost or checking
    /// any checksum. Kept as frozen-suite residue: the `hail-bench`
    /// suite's probes time parsing apart from verification through it;
    /// nothing in the engine reads through it — readers go through
    /// [`Datanode::open_replica`].
    pub fn peek_replica(&self, block: BlockId) -> Result<Bytes> {
        Ok(self.replica(block)?.data.clone())
    }

    /// Opens a replica for reading: its bytes, its checksum file and no
    /// chunk verified yet ([`ReplicaBytes`]). Charges nothing — the reader
    /// prices what it reads via [`Datanode::charge_range_read`], so an
    /// index scan pays only for the index and the partitions it touches,
    /// and verifies only those chunks.
    pub fn open_replica(&self, block: BlockId) -> Result<ReplicaBytes> {
        let file = self.replica(block)?;
        ReplicaBytes::new(file.data.clone(), Arc::clone(&file.checksums))
    }

    fn check_alive(&self) -> Result<()> {
        if self.alive {
            Ok(())
        } else {
            Err(HailError::DeadDatanode(self.id))
        }
    }

    /// Flushes a replica: writes the data file and its checksum file,
    /// charging this node's upload ledger (data + checksum bytes, one
    /// seek per file). Identical replicas may share one `data` buffer and
    /// one checksum list.
    pub fn write_replica(
        &mut self,
        block: BlockId,
        data: Bytes,
        checksums: impl Into<Arc<[u32]>>,
    ) -> Result<()> {
        self.check_alive()?;
        let checksums = checksums.into();
        // The checksum file is a bare u32 array (`checksums_to_bytes`).
        let checksum_bytes = std::mem::size_of_val(&*checksums) as u64;
        self.upload_ledger.disk_write += data.len() as u64 + checksum_bytes;
        self.upload_ledger.seeks += 2;
        self.replicas.insert(block, ReplicaFile { data, checksums });
        Ok(())
    }

    /// True if this node stores a replica of the block.
    pub fn has_replica(&self, block: BlockId) -> bool {
        self.replicas.contains_key(&block)
    }

    /// Stored size of a replica's data file.
    pub fn replica_len(&self, block: BlockId) -> Result<usize> {
        Ok(self.replica(block)?.data.len())
    }

    fn replica(&self, block: BlockId) -> Result<&ReplicaFile> {
        self.check_alive()?;
        self.replicas
            .get(&block)
            .ok_or(HailError::UnknownBlock(block))
    }

    /// Reads a whole replica sequentially, charging the caller's ledger
    /// (one seek + all bytes) and verifying checksums.
    pub fn read_replica(&self, block: BlockId, ledger: &mut CostLedger) -> Result<Bytes> {
        let file = self.replica(block)?;
        ledger.seeks += 1;
        ledger.disk_read += file.data.len() as u64;
        verify_chunks(&file.data, &file.checksums)?;
        Ok(file.data.clone())
    }

    /// Reads a byte range of a replica, charging one seek + the range,
    /// and verifies the chunks the range overlaps — as HDFS does for
    /// positioned reads: the chunk index of a mismatch is the replica's.
    pub fn read_range(
        &self,
        block: BlockId,
        offset: usize,
        len: usize,
        ledger: &mut CostLedger,
    ) -> Result<Bytes> {
        let file = self.replica(block)?;
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= file.data.len())
            .ok_or_else(|| {
                HailError::Corrupt(format!(
                    "range read of {len} bytes at {offset} beyond replica of {} bytes",
                    file.data.len()
                ))
            })?;
        ledger.seeks += 1;
        ledger.disk_read += len as u64;
        let replica = ReplicaBytes::new(file.data.clone(), Arc::clone(&file.checksums))?;
        replica.verify(offset..end)?;
        Ok(file.data.slice(offset..end))
    }

    /// Charges a range read *without* materializing bytes — used when the
    /// caller already holds the block content (via `Bytes` sharing) and
    /// only the cost matters.
    pub fn charge_range_read(&self, len: usize, ledger: &mut CostLedger) -> Result<()> {
        self.check_alive()?;
        ledger.seeks += 1;
        ledger.disk_read += len as u64;
        Ok(())
    }

    /// Charges exactly what [`Datanode::read_replica`] would charge (one
    /// seek + the whole data file) *without* touching the bytes. The PAX
    /// full scan charges through this and verifies only the chunks its
    /// cursors read: the stored length is a property of the replica, so
    /// the charge is what a whole-replica read records. Fails like a
    /// real read if the node is dead or the replica unknown.
    pub fn charge_replica_read(&self, block: BlockId, ledger: &mut CostLedger) -> Result<()> {
        let file = self.replica(block)?;
        ledger.seeks += 1;
        ledger.disk_read += file.data.len() as u64;
        Ok(())
    }

    /// Corrupts one byte of a stored replica (failure-injection tests).
    pub fn corrupt_replica(&mut self, block: BlockId, byte: usize) -> Result<()> {
        let file = self
            .replicas
            .get_mut(&block)
            .ok_or(HailError::UnknownBlock(block))?;
        let mut data = file.data.to_vec();
        if byte >= data.len() {
            return Err(HailError::Corrupt("corruption offset out of range".into()));
        }
        data[byte] ^= 0xFF;
        file.data = Bytes::from(data);
        Ok(())
    }

    /// Blocks stored on this node.
    pub fn stored_blocks(&self) -> Vec<BlockId> {
        self.replicas.keys().copied().collect()
    }

    /// Total data bytes stored (excluding checksum files).
    pub fn stored_bytes(&self) -> u64 {
        self.replicas.values().map(|f| f.data.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_pax::checksum::chunk_checksums;
    use hail_types::config::CHUNK_SIZE as CHUNK;

    fn replica_bytes(n: usize) -> (Bytes, Vec<u32>) {
        let data: Vec<u8> = (0..n).map(|i| (i % 256) as u8).collect();
        let sums = chunk_checksums(&data);
        (Bytes::from(data), sums)
    }

    #[test]
    fn write_then_read() {
        let mut dn = Datanode::new(0);
        let (data, sums) = replica_bytes(2000);
        dn.write_replica(7, data.clone(), sums).unwrap();
        assert!(dn.has_replica(7));
        assert_eq!(dn.replica_len(7).unwrap(), 2000);

        let mut ledger = CostLedger::new();
        let read = dn.read_replica(7, &mut ledger).unwrap();
        assert_eq!(read, data);
        assert_eq!(ledger.disk_read, 2000);
        assert_eq!(ledger.seeks, 1);
    }

    #[test]
    fn write_charges_upload_ledger() {
        let mut dn = Datanode::new(0);
        let (data, sums) = replica_bytes(1024);
        let checksum_file = (sums.len() * 4) as u64;
        dn.write_replica(1, data, sums).unwrap();
        assert_eq!(dn.upload_ledger().disk_write, 1024 + checksum_file);
        assert_eq!(dn.upload_ledger().seeks, 2);
    }

    #[test]
    fn range_read() {
        let mut dn = Datanode::new(0);
        let (data, sums) = replica_bytes(1000);
        dn.write_replica(3, data.clone(), sums).unwrap();
        let mut ledger = CostLedger::new();
        let r = dn.read_range(3, 100, 50, &mut ledger).unwrap();
        assert_eq!(&r[..], &data[100..150]);
        assert_eq!(ledger.disk_read, 50);
        assert!(dn.read_range(3, 990, 20, &mut ledger).is_err());
    }

    /// A range whose end overflows `usize` is refused as corruption, never
    /// a panic, and charges nothing.
    #[test]
    fn range_read_past_usize_is_corrupt() {
        let mut dn = Datanode::new(0);
        let (data, sums) = replica_bytes(1000);
        dn.write_replica(3, data, sums).unwrap();
        let mut ledger = CostLedger::new();
        for (offset, len) in [(usize::MAX, 1), (1, usize::MAX), (usize::MAX, usize::MAX)] {
            assert!(matches!(
                dn.read_range(3, offset, len, &mut ledger),
                Err(HailError::Corrupt(_))
            ));
        }
        assert_eq!((ledger.seeks, ledger.disk_read), (0, 0));
    }

    #[test]
    fn range_read_verifies_the_chunks_it_overlaps() {
        let mut dn = Datanode::new(0);
        let (data, sums) = replica_bytes(CHUNK * 4 + 100);
        dn.write_replica(5, data, sums).unwrap();
        dn.corrupt_replica(5, CHUNK * 2 + 7).unwrap();
        let mut ledger = CostLedger::new();
        // A range ending in the corrupt chunk, and one starting in it.
        for (offset, len) in [(CHUNK + 10, CHUNK), (CHUNK * 3 - 1, 2)] {
            assert!(matches!(
                dn.read_range(5, offset, len, &mut ledger),
                Err(HailError::ChecksumMismatch { chunk_index: 2, .. })
            ));
        }
        // Ranges around it read cleanly.
        assert!(dn.read_range(5, 0, CHUNK * 2, &mut ledger).is_ok());
        assert!(dn
            .read_range(5, CHUNK * 3, CHUNK + 100, &mut ledger)
            .is_ok());
        // A replica opened for reading fails the same way, and only there.
        let replica = dn.open_replica(5).unwrap();
        replica.verify(0..CHUNK * 2).unwrap();
        assert!(matches!(
            replica.verify(CHUNK * 2..CHUNK * 2 + 1),
            Err(HailError::ChecksumMismatch { chunk_index: 2, .. })
        ));
    }

    #[test]
    fn corruption_detected_on_full_read() {
        let mut dn = Datanode::new(0);
        let (data, sums) = replica_bytes(4096);
        dn.write_replica(9, data, sums).unwrap();
        dn.corrupt_replica(9, 1000).unwrap();
        let mut ledger = CostLedger::new();
        let err = dn.read_replica(9, &mut ledger).unwrap_err();
        assert!(matches!(
            err,
            HailError::ChecksumMismatch { chunk_index: 1, .. }
        ));
    }

    #[test]
    fn dead_node_refuses_io() {
        let mut dn = Datanode::new(4);
        let (data, sums) = replica_bytes(100);
        dn.write_replica(1, data.clone(), sums.clone()).unwrap();
        dn.kill();
        assert!(!dn.is_alive());
        let mut ledger = CostLedger::new();
        assert!(matches!(
            dn.read_replica(1, &mut ledger),
            Err(HailError::DeadDatanode(4))
        ));
        assert!(dn.write_replica(2, data, sums).is_err());
        dn.revive();
        assert!(dn.read_replica(1, &mut ledger).is_ok());
    }

    #[test]
    fn missing_block() {
        let dn = Datanode::new(0);
        let mut ledger = CostLedger::new();
        assert!(matches!(
            dn.read_replica(42, &mut ledger),
            Err(HailError::UnknownBlock(42))
        ));
    }

    #[test]
    fn stored_accounting() {
        let mut dn = Datanode::new(0);
        for b in 0..3u64 {
            let (data, sums) = replica_bytes(100 * (b as usize + 1));
            dn.write_replica(b, data, sums).unwrap();
        }
        assert_eq!(dn.stored_blocks(), vec![0, 1, 2]);
        assert_eq!(dn.stored_bytes(), 100 + 200 + 300);
    }
}
