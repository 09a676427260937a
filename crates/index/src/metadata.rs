//! Index metadata: what each replica carries with its block and what the
//! namenode keeps in `Dir_rep` (§3.3).

use crate::sort::SortOrder;
use hail_types::bytes_util::{put_u32, ByteReader};
use hail_types::{BlockId, DatanodeId, HailError, Result};
use std::fmt;

/// The kind of index a replica carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// No index: plain (possibly still PAX) data.
    None,
    /// HAIL sparse clustered index over sorted data.
    Clustered,
    /// Hadoop++-style trojan index (per logical block, dense directory).
    Trojan,
    /// Sidecar zone-map synopsis (min/max) over a column, for block
    /// skipping.
    ZoneMap { column: usize },
    /// Sidecar Bloom-filter synopsis over a column, for equality-
    /// predicate block skipping.
    Bloom { column: usize },
}

impl IndexKind {
    /// The kind's stored tag. Tags 3, 4 and 5 are retired: they named an
    /// unclustered primary index and sidecar kinds this format no longer
    /// has, and decode as corrupt.
    fn tag(self) -> u8 {
        match self {
            IndexKind::None => 0,
            IndexKind::Clustered => 1,
            IndexKind::Trojan => 2,
            IndexKind::ZoneMap { .. } => 6,
            IndexKind::Bloom { .. } => 7,
        }
    }

    /// Reconstructs a kind from its tag; `column` feeds the kinds that
    /// carry one ([`IndexKind::ZoneMap`], [`IndexKind::Bloom`]). Unknown
    /// and retired tags are [`HailError::Corrupt`].
    fn from_tag(t: u8, column: usize) -> Result<Self> {
        Ok(match t {
            0 => IndexKind::None,
            1 => IndexKind::Clustered,
            2 => IndexKind::Trojan,
            6 => IndexKind::ZoneMap { column },
            7 => IndexKind::Bloom { column },
            other => return Err(HailError::Corrupt(format!("unknown index kind {other}"))),
        })
    }

    /// True for the sidecar kinds that ride along with a replica's
    /// primary (clustered/trojan) index.
    pub fn is_sidecar(self) -> bool {
        matches!(self, IndexKind::ZoneMap { .. } | IndexKind::Bloom { .. })
    }
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKind::None => f.write_str("none"),
            IndexKind::Clustered => f.write_str("clustered"),
            IndexKind::Trojan => f.write_str("trojan"),
            IndexKind::ZoneMap { column } => write!(f, "zone-map(@{})", column + 1),
            IndexKind::Bloom { column } => write!(f, "bloom(@{})", column + 1),
        }
    }
}

/// One sidecar synopsis stored with a replica, next to the PAX data and
/// the primary index: what it is, where it starts in the replica's file,
/// and how many bytes it occupies. Mirrored into the namenode's `Dir_rep`
/// so the planner finds a replica's synopses, and their sizes, without
/// touching the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SidecarMetadata {
    /// [`IndexKind::ZoneMap`] or [`IndexKind::Bloom`].
    pub kind: IndexKind,
    /// Serialized sidecar size in bytes.
    pub sidecar_bytes: usize,
    /// Byte offset of the sidecar within the replica's file.
    pub sidecar_offset: usize,
}

/// Fixed size of one serialized [`SidecarMetadata`] descriptor.
pub const SIDECAR_META_LEN: usize = 16;

impl SidecarMetadata {
    /// Fixed-size binary encoding (16 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SIDECAR_META_LEN);
        buf.push(self.kind.tag());
        buf.extend_from_slice(&[0u8; 3]); // padding
        let column = match self.kind {
            IndexKind::ZoneMap { column } | IndexKind::Bloom { column } => column,
            _ => 0,
        };
        put_u32(&mut buf, column as u32);
        put_u32(&mut buf, self.sidecar_bytes as u32);
        put_u32(&mut buf, self.sidecar_offset as u32);
        buf
    }

    /// Parses the 16-byte encoding, rejecting tags that do not name a
    /// sidecar kind.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8()?;
        r.u8()?;
        r.u8()?;
        r.u8()?;
        let column = r.u32()? as usize;
        let kind = IndexKind::from_tag(tag, column)?;
        if !kind.is_sidecar() {
            return Err(HailError::Corrupt(format!(
                "index kind `{kind}` is not a sidecar"
            )));
        }
        let sidecar_bytes = r.u32()? as usize;
        let sidecar_offset = r.u32()? as usize;
        Ok(SidecarMetadata {
            kind,
            sidecar_bytes,
            sidecar_offset,
        })
    }
}

/// Per-replica index description: stored inside the HAIL block (the
/// *Index Metadata* of Fig. 1) and mirrored in the namenode's `Dir_rep`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexMetadata {
    /// What kind of index the replica carries.
    pub kind: IndexKind,
    /// 0-based key column, when indexed.
    pub key_column: Option<usize>,
    /// Serialized index size in bytes (0 when unindexed).
    pub index_bytes: usize,
    /// Byte offset of the index region within the replica's file.
    pub index_offset: usize,
    /// Sidecar synopses (zone maps, Bloom filters) stored with this
    /// replica, in file order.
    pub sidecars: Vec<SidecarMetadata>,
}

impl IndexMetadata {
    /// Metadata for an unindexed replica.
    pub fn none() -> Self {
        IndexMetadata {
            kind: IndexKind::None,
            key_column: None,
            index_bytes: 0,
            index_offset: 0,
            sidecars: Vec::new(),
        }
    }

    /// The sidecar zone map over `column`, if this replica stores one.
    pub fn zone_map_on(&self, column: usize) -> Option<&SidecarMetadata> {
        self.sidecars
            .iter()
            .find(|s| s.kind == IndexKind::ZoneMap { column })
    }

    /// The sidecar Bloom filter over `column`, if this replica stores
    /// one.
    pub fn bloom_on(&self, column: usize) -> Option<&SidecarMetadata> {
        self.sidecars
            .iter()
            .find(|s| s.kind == IndexKind::Bloom { column })
    }

    /// Total bytes of all sidecars on this replica.
    pub fn sidecar_bytes_total(&self) -> usize {
        self.sidecars.iter().map(|s| s.sidecar_bytes).sum()
    }

    /// The sort order this metadata implies.
    pub fn sort_order(&self) -> SortOrder {
        match (self.kind, self.key_column) {
            (IndexKind::Clustered, Some(c)) => SortOrder::Clustered { column: c },
            _ => SortOrder::Unsorted,
        }
    }

    /// True if this replica can serve an index scan on `column`.
    pub fn serves_column(&self, column: usize) -> bool {
        self.kind != IndexKind::None && self.key_column == Some(column)
    }

    /// Binary encoding embedded in block trailers: a fixed 16-byte
    /// header (primary index), then a u32 sidecar count followed by one
    /// fixed-size [`SidecarMetadata`] descriptor per sidecar.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20 + self.sidecars.len() * SIDECAR_META_LEN);
        buf.push(self.kind.tag());
        buf.push(self.key_column.is_some() as u8);
        buf.extend_from_slice(&[0u8; 2]); // padding
        put_u32(&mut buf, self.key_column.unwrap_or(0) as u32);
        put_u32(&mut buf, self.index_bytes as u32);
        put_u32(&mut buf, self.index_offset as u32);
        put_u32(&mut buf, self.sidecars.len() as u32);
        for s in &self.sidecars {
            buf.extend_from_slice(&s.to_bytes());
        }
        buf
    }

    /// Parses the encoding produced by [`IndexMetadata::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8()?;
        let has_col = r.u8()? != 0;
        r.u8()?;
        r.u8()?;
        let col = r.u32()? as usize;
        let kind = IndexKind::from_tag(tag, col)?;
        // Sidecar kinds live in the sidecar directory, never in the
        // primary header — mirroring SidecarMetadata's reverse check.
        if kind.is_sidecar() {
            return Err(HailError::Corrupt(format!(
                "sidecar kind `{kind}` in primary index header"
            )));
        }
        let index_bytes = r.u32()? as usize;
        let index_offset = r.u32()? as usize;
        let n_sidecars = r.u32()? as usize;
        let mut sidecars = Vec::with_capacity(n_sidecars.min(64));
        for _ in 0..n_sidecars {
            let chunk = r.bytes(SIDECAR_META_LEN)?;
            sidecars.push(SidecarMetadata::from_bytes(chunk)?);
        }
        Ok(IndexMetadata {
            kind,
            key_column: has_col.then_some(col),
            index_bytes,
            index_offset,
            sidecars,
        })
    }
}

/// What the namenode stores per `(blockID, datanode)` in `Dir_rep`:
/// "detailed information about the types of available indexes for a
/// replica, i.e. indexing key, index type, size, start offsets, and so
/// on" (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HailBlockReplicaInfo {
    pub block: BlockId,
    pub datanode: DatanodeId,
    pub index: IndexMetadata,
    /// Physical size of this replica's data file — replicas of the same
    /// logical block differ in size once indexes are embedded.
    pub replica_bytes: usize,
}

impl HailBlockReplicaInfo {
    pub fn new(
        block: BlockId,
        datanode: DatanodeId,
        index: IndexMetadata,
        replica_bytes: usize,
    ) -> Self {
        HailBlockReplicaInfo {
            block,
            datanode,
            index,
            replica_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_round_trip() {
        let m = IndexMetadata {
            kind: IndexKind::Clustered,
            key_column: Some(3),
            index_bytes: 2048,
            index_offset: 123_456,
            sidecars: Vec::new(),
        };
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), 20);
        assert_eq!(IndexMetadata::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn sidecar_metadata_round_trip() {
        let m = IndexMetadata {
            kind: IndexKind::Clustered,
            key_column: Some(1),
            index_bytes: 512,
            index_offset: 9000,
            sidecars: vec![
                SidecarMetadata {
                    kind: IndexKind::ZoneMap { column: 5 },
                    sidecar_bytes: 321,
                    sidecar_offset: 9512,
                },
                SidecarMetadata {
                    kind: IndexKind::Bloom { column: 0 },
                    sidecar_bytes: 77,
                    sidecar_offset: 9833,
                },
            ],
        };
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), 20 + 2 * SIDECAR_META_LEN);
        let back = IndexMetadata::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.zone_map_on(5).unwrap().sidecar_bytes, 321);
        assert!(back.zone_map_on(0).is_none());
        assert_eq!(back.bloom_on(0).unwrap().sidecar_offset, 9833);
        assert!(back.bloom_on(5).is_none());
        assert_eq!(back.sidecar_bytes_total(), 321 + 77);
    }

    #[test]
    fn corrupt_sidecar_tag_rejected() {
        let good = SidecarMetadata {
            kind: IndexKind::ZoneMap { column: 2 },
            sidecar_bytes: 10,
            sidecar_offset: 100,
        };
        // Unknown tag.
        let mut bytes = good.to_bytes();
        bytes[0] = 200;
        assert!(SidecarMetadata::from_bytes(&bytes).is_err());
        // A valid *primary* kind tag is still corrupt as a sidecar.
        let mut bytes = good.to_bytes();
        bytes[0] = IndexKind::Clustered.tag();
        let err = SidecarMetadata::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("not a sidecar"), "{err}");
        // And a corrupt descriptor inside a full metadata record fails
        // the whole parse.
        let m = IndexMetadata {
            sidecars: vec![good],
            ..IndexMetadata::none()
        };
        let mut bytes = m.to_bytes();
        bytes[20] = 200; // first sidecar descriptor's tag byte
        assert!(IndexMetadata::from_bytes(&bytes).is_err());
    }

    #[test]
    fn sidecar_kinds_display_and_classify() {
        assert_eq!(IndexKind::ZoneMap { column: 1 }.to_string(), "zone-map(@2)");
        assert_eq!(IndexKind::Bloom { column: 2 }.to_string(), "bloom(@3)");
        assert!(IndexKind::ZoneMap { column: 0 }.is_sidecar());
        assert!(IndexKind::Bloom { column: 0 }.is_sidecar());
        assert!(!IndexKind::Clustered.is_sidecar());
        assert!(!IndexKind::None.is_sidecar());
    }

    /// Tag 3 named the retired unclustered primary index, tags 4 and 5
    /// the retired bitmap and inverted-list sidecars. A replica still
    /// carrying one is corrupt, in the sidecar directory and in the
    /// primary header alike; the synopsis tags 6 and 7 keep decoding.
    #[test]
    fn retired_sidecar_tags_are_corrupt() {
        let zone = SidecarMetadata {
            kind: IndexKind::ZoneMap { column: 3 },
            sidecar_bytes: 10,
            sidecar_offset: 100,
        };
        for tag in [3u8, 4, 5] {
            let mut bytes = zone.to_bytes();
            bytes[0] = tag;
            let err = SidecarMetadata::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, HailError::Corrupt(_)), "tag {tag}: {err}");
            assert!(err.to_string().contains("unknown index kind"), "{err}");

            let mut bytes = IndexMetadata::none().to_bytes();
            bytes[0] = tag;
            let err = IndexMetadata::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, HailError::Corrupt(_)), "tag {tag}: {err}");
        }
        for (tag, kind) in [
            (6u8, IndexKind::ZoneMap { column: 3 }),
            (7, IndexKind::Bloom { column: 3 }),
        ] {
            let mut bytes = zone.to_bytes();
            bytes[0] = tag;
            let back = SidecarMetadata::from_bytes(&bytes).unwrap();
            assert_eq!(back, SidecarMetadata { kind, ..zone });
        }
    }

    #[test]
    fn synopsis_sidecar_metadata_round_trip() {
        let m = IndexMetadata {
            kind: IndexKind::Clustered,
            key_column: Some(0),
            index_bytes: 256,
            index_offset: 4000,
            sidecars: vec![
                SidecarMetadata {
                    kind: IndexKind::ZoneMap { column: 2 },
                    sidecar_bytes: 40,
                    sidecar_offset: 4256,
                },
                SidecarMetadata {
                    kind: IndexKind::Bloom { column: 2 },
                    sidecar_bytes: 130,
                    sidecar_offset: 4296,
                },
            ],
        };
        let back = IndexMetadata::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.zone_map_on(2).unwrap().sidecar_bytes, 40);
        assert!(back.zone_map_on(1).is_none());
        assert_eq!(back.bloom_on(2).unwrap().sidecar_offset, 4296);
        assert!(back.bloom_on(0).is_none());
        assert_eq!(back.sidecar_bytes_total(), 170);
    }

    #[test]
    fn none_round_trip() {
        let m = IndexMetadata::none();
        assert_eq!(IndexMetadata::from_bytes(&m.to_bytes()).unwrap(), m);
        assert_eq!(m.sort_order(), SortOrder::Unsorted);
        assert!(!m.serves_column(0));
    }

    #[test]
    fn serves_column() {
        let m = IndexMetadata {
            kind: IndexKind::Clustered,
            key_column: Some(2),
            index_bytes: 10,
            index_offset: 0,
            sidecars: Vec::new(),
        };
        assert!(m.serves_column(2));
        assert!(!m.serves_column(1));
        assert_eq!(m.sort_order(), SortOrder::Clustered { column: 2 });
    }

    #[test]
    fn bad_kind_tag_rejected() {
        let mut bytes = IndexMetadata::none().to_bytes();
        bytes[0] = 9;
        assert!(IndexMetadata::from_bytes(&bytes).is_err());
    }

    #[test]
    fn sidecar_tag_in_primary_header_rejected() {
        // A flipped primary kind tag naming a sidecar kind is corruption,
        // exactly as an unknown tag is.
        for tag in [6u8, 7] {
            let mut bytes = IndexMetadata::none().to_bytes();
            bytes[0] = tag;
            let err = IndexMetadata::from_bytes(&bytes).unwrap_err();
            assert!(err.to_string().contains("primary index header"), "{err}");
        }
    }
}
