//! Upload- and storage-level configuration knobs shared across crates.

/// HDFS chunk size: checksums are computed per 512-byte chunk (§3.2).
pub const CHUNK_SIZE: usize = 512;

/// Maximum packet payload: chunks are collected into packets of up to
/// 64 KB including checksums and metadata (§3.2).
pub const PACKET_SIZE: usize = 64 * 1024;

/// The paper's index partition size: the sparse clustered index divides a
/// column into partitions of 1,024 values (§3.5, Fig. 2).
pub const INDEX_PARTITION_SIZE: usize = 1024;

/// Default HDFS block size (64 MB) — experiments run with a scaled-down
/// block size but the default mirrors Hadoop's.
pub const DEFAULT_BLOCK_SIZE: usize = 64 * 1024 * 1024;

/// Default replication factor.
pub const DEFAULT_REPLICATION: usize = 3;

/// Storage-level configuration for an upload.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Target logical block size in bytes. The HAIL client cuts blocks at
    /// row boundaries, so actual blocks may be slightly smaller.
    pub block_size: usize,
    /// Number of physical replicas per block.
    pub replication: usize,
    /// Field delimiter of the uploaded text files.
    pub delimiter: char,
    /// Values per index partition (1,024 in the paper).
    pub index_partition_size: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            block_size: DEFAULT_BLOCK_SIZE,
            replication: DEFAULT_REPLICATION,
            delimiter: '|',
            index_partition_size: INDEX_PARTITION_SIZE,
        }
    }
}

impl StorageConfig {
    /// A configuration scaled down for tests and laptop-scale experiments:
    /// small blocks, same structure.
    pub fn test_scale(block_size: usize) -> Self {
        StorageConfig {
            block_size,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = StorageConfig::default();
        assert_eq!(c.block_size, 64 * 1024 * 1024);
        assert_eq!(c.replication, 3);
        assert_eq!(c.index_partition_size, 1024);
        assert_eq!(CHUNK_SIZE, 512);
        assert_eq!(PACKET_SIZE, 65536);
    }

    #[test]
    fn builder_overrides() {
        let c = StorageConfig::test_scale(4096);
        assert_eq!(c.block_size, 4096);
        assert_eq!(c.replication, 3);
    }
}
