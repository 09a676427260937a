//! The HAIL block container: PAX data + embedded index + index metadata.
//!
//! This is the physical file each datanode flushes for one replica
//! (Fig. 1's *HAIL Block*): the (sorted) PAX block, followed by the
//! serialized clustered index, followed by the sidecar synopses (zone
//! maps and Bloom filters for block skipping), followed by a trailer
//! holding the index metadata — sidecar directory included — and layout
//! offsets.
//!
//! ```text
//! ┌──────────────────────────────┐
//! │ PAX block (sorted or not)    │
//! ├──────────────────────────────┤
//! │ index bytes (may be empty)   │
//! ├──────────────────────────────┤
//! │ sidecar region (may be empty)│
//! │   zone map(s) · bloom(s)     │
//! ├──────────────────────────────┤
//! │ IndexMetadata (variable:     │
//! │   primary + sidecar dir)     │
//! │ pax_len · index_len          │
//! │ sidecar_len · meta_len (u32) │
//! │ trailer magic u32            │
//! └──────────────────────────────┘
//! ```
//!
//! Reading one trusts only verified bytes. [`ReplicaTail::open`] takes a
//! replica together with its checksum file ([`ReplicaBytes`]) and
//! verifies and parses only the trailer and the metadata: that is all a
//! synopsis probe needs before it decodes one sidecar.
//! [`IndexedBlock::open`] starts from the tail and also verifies the PAX
//! header and directory and the clustered index before parsing them.
//! Every other region — columns, bad records, each sidecar — is verified
//! by the read that first needs it, chunk by chunk.
//!
//! Building one is upload step 7, the work of one datanode. The replicas
//! of a block differ only in row order, so what does not depend on row
//! order is computed once per block and borrowed by every replica's
//! build — the located varchar rows the sort gathers from
//! ([`hail_pax::BlockRows`]), each zone map and each Bloom filter: that
//! is [`BlockPrep`]. Per replica there remain the sort itself, the
//! clustered index over the sorted keys and the assembly. Every
//! structure is built from values borrowed from the block; nothing is
//! decoded into a `Vec<Value>`. Zone maps and Bloom filters read their
//! values off the rows already located for the sort
//! ([`BlockRows::values`]), and need only the bad-record count, not the
//! records.

use crate::clustered::ClusteredIndex;
use crate::infallible;
use crate::metadata::{IndexKind, IndexMetadata, SidecarMetadata};
use crate::sort::{SidecarSpec, SortOrder};
use crate::synopsis::{BloomSynopsis, ZoneMapSynopsis};
use bytes::Bytes;
use hail_pax::{BlockRows, PaxBlock, ReplicaBytes};
use hail_types::{HailError, Result};
use std::sync::Arc;

/// Trailer magic ("LIAH").
pub const TRAILER_MAGIC: u32 = 0x4841_494C;
/// Fixed-size footer closing every block: four section lengths + magic.
pub const TRAILER_LEN: usize = 5 * 4;

/// A replica's physical content, parsed: the PAX data plus its optional
/// clustered index. Sidecar synopses stay serialized in the replica and
/// decode lazily via [`IndexedBlock::zone_map`] /
/// [`IndexedBlock::bloom`].
#[derive(Debug, Clone)]
pub struct IndexedBlock {
    pax: PaxBlock,
    index: Option<ClusteredIndex>,
    tail: ReplicaTail,
}

/// A stored replica opened only as far as its tail: the trailer and the
/// index metadata, verified and parsed, with the sidecar directory
/// checked against the sidecar region. That is enough to decode any
/// sidecar, each verified chunk by chunk on access, so a synopsis probe
/// reads nothing else of the replica. [`IndexedBlock::open`] starts here
/// and goes on to the PAX header, directory and clustered index.
#[derive(Debug, Clone)]
pub struct ReplicaTail {
    meta: IndexMetadata,
    replica: Arc<ReplicaBytes>,
    pax_len: usize,
    index_len: usize,
}

/// One uploaded block, prepared for building its replicas: everything a
/// replica's build needs that does not depend on the replica's row
/// order, each computed at most once — on the first
/// [`BlockPrep::build`] that asks for it — and shared by the ones after.
///
/// Sharing is a property of this process's wall clock only: every
/// datanode of the chain still does (and is charged for) its own sort
/// and index build on the simulated clock.
#[derive(Debug)]
pub struct BlockPrep<'a> {
    block: &'a PaxBlock,
    rows: Option<BlockRows<'a>>,
    zone_maps: Vec<ZoneMapSynopsis>,
    blooms: Vec<BloomSynopsis>,
}

/// `rows`, located on first use.
fn located<'r, 'a>(
    rows: &'r mut Option<BlockRows<'a>>,
    block: &'a PaxBlock,
) -> Result<&'r BlockRows<'a>> {
    Ok(match rows {
        Some(rows) => rows,
        empty => empty.insert(BlockRows::locate(block)?),
    })
}

impl<'a> BlockPrep<'a> {
    /// Prepares `block`, the *unsorted* PAX block as uploaded.
    pub fn new(block: &'a PaxBlock) -> BlockPrep<'a> {
        BlockPrep {
            block,
            rows: None,
            zone_maps: Vec::new(),
            blooms: Vec::new(),
        }
    }

    /// Builds one replica's content: sorts (if requested), builds the
    /// clustered index over the sorted key column and the sidecar
    /// synopses the spec asks for, and serializes the container.
    pub fn build(&mut self, order: SortOrder, spec: &SidecarSpec) -> Result<IndexedBlock> {
        let block = self.block;
        let (pax, index) = match order {
            SortOrder::Unsorted => (block.clone(), None),
            SortOrder::Clustered { column } => {
                block.schema().field(column)?;
                let (sorted, _perm) = located(&mut self.rows, block)?.sorted_on(column)?;
                let index = ClusteredIndex::over_sorted(&sorted, column)?;
                (sorted, Some(index))
            }
        };
        // Zone maps and Bloom filters summarize the same rows in every
        // replica, read off the located block; both persist the
        // bad-record count so the prune pass can back off on any block
        // that would still emit bad records.
        let bad_count = block.bad_count();
        for &column in &spec.zone_map_columns {
            if !self.zone_maps.iter().any(|z| z.column() == column) {
                let values = located(&mut self.rows, block)?.values(column)?;
                let zone_map = ZoneMapSynopsis::from_refs(column, values.map(Ok), bad_count);
                self.zone_maps.push(infallible(zone_map));
            }
        }
        for &column in &spec.bloom_columns {
            if !self.blooms.iter().any(|b| b.column() == column) {
                let values = located(&mut self.rows, block)?.values(column)?;
                let bloom = BloomSynopsis::from_refs(column, values.map(Ok), bad_count);
                self.blooms.push(infallible(bloom));
            }
        }
        IndexedBlock::assemble_with(
            pax,
            index,
            &wanted(
                &self.zone_maps,
                &spec.zone_map_columns,
                ZoneMapSynopsis::column,
            ),
            &wanted(&self.blooms, &spec.bloom_columns, BloomSynopsis::column),
        )
    }
}

/// The built synopses over `columns`, in `columns` order, each once.
fn wanted<'s, S>(built: &'s [S], columns: &[usize], column_of: fn(&S) -> usize) -> Vec<&'s S> {
    let mut out: Vec<&S> = Vec::with_capacity(columns.len());
    for &column in columns {
        if !out.iter().any(|s| column_of(s) == column) {
            out.extend(built.iter().find(|s| column_of(s) == column));
        }
    }
    out
}

impl IndexedBlock {
    /// Builds a replica's content from an *unsorted* PAX block and the
    /// replica's sort order: sorts (if requested), builds the clustered
    /// index over the sorted key column, and serializes the container.
    ///
    /// This is exactly the per-datanode work of upload step 7.
    pub fn build(block: &PaxBlock, order: SortOrder) -> Result<IndexedBlock> {
        Self::build_with(block, order, &SidecarSpec::default())
    }

    /// Like [`IndexedBlock::build`], but additionally builds the sidecar
    /// synopses the spec asks for: [`BlockPrep::build`]
    /// for a block of which only this one replica is built.
    pub fn build_with(
        block: &PaxBlock,
        order: SortOrder,
        spec: &SidecarSpec,
    ) -> Result<IndexedBlock> {
        BlockPrep::new(block).build(order, spec)
    }

    /// Serializes PAX data, an optional clustered index, and the built
    /// sidecar synopses into the container format.
    pub fn assemble_with(
        pax: PaxBlock,
        index: Option<ClusteredIndex>,
        zone_maps: &[&ZoneMapSynopsis],
        blooms: &[&BloomSynopsis],
    ) -> Result<IndexedBlock> {
        let index_bytes = index
            .as_ref()
            .map(ClusteredIndex::to_bytes)
            .transpose()?
            .unwrap_or_default();

        // Sidecar region: the zone maps, then the Bloom filters, each in
        // configuration order; offsets are absolute within the replica
        // file.
        let sidecar_base = pax.byte_len() + index_bytes.len();
        let mut sidecar_region = Vec::new();
        let mut sidecars = Vec::new();
        let zone_maps = zone_maps.iter().map(|z| {
            let kind = IndexKind::ZoneMap { column: z.column() };
            Ok((kind, z.to_bytes()?))
        });
        let blooms = blooms.iter().map(|b| {
            let kind = IndexKind::Bloom { column: b.column() };
            Ok((kind, b.to_bytes()))
        });
        for encoded in zone_maps.chain(blooms) {
            let (kind, encoded) = encoded?;
            sidecars.push(SidecarMetadata {
                kind,
                sidecar_bytes: encoded.len(),
                sidecar_offset: sidecar_base + sidecar_region.len(),
            });
            sidecar_region.extend_from_slice(&encoded);
        }

        let meta = match &index {
            Some(idx) => IndexMetadata {
                kind: IndexKind::Clustered,
                key_column: Some(idx.key_column()),
                index_bytes: index_bytes.len(),
                index_offset: pax.byte_len(),
                sidecars,
            },
            None => IndexMetadata {
                sidecars,
                ..IndexMetadata::none()
            },
        };
        let meta_bytes = meta.to_bytes();
        let mut buf = Vec::with_capacity(
            pax.byte_len()
                + index_bytes.len()
                + sidecar_region.len()
                + meta_bytes.len()
                + TRAILER_LEN,
        );
        buf.extend_from_slice(pax.bytes());
        buf.extend_from_slice(&index_bytes);
        buf.extend_from_slice(&sidecar_region);
        buf.extend_from_slice(&meta_bytes);
        buf.extend_from_slice(&(pax.byte_len() as u32).to_le_bytes());
        buf.extend_from_slice(&(index_bytes.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(sidecar_region.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(meta_bytes.len() as u32).to_le_bytes());
        buf.extend_from_slice(&TRAILER_MAGIC.to_le_bytes());
        Ok(IndexedBlock {
            tail: ReplicaTail {
                meta,
                replica: Arc::new(ReplicaBytes::trusted(Bytes::from(buf))),
                pax_len: pax.byte_len(),
                index_len: index_bytes.len(),
            },
            pax,
            index,
        })
    }

    /// Parses a serialized HAIL block from bytes the caller vouches for:
    /// [`IndexedBlock::open`] over [`ReplicaBytes::trusted`].
    pub fn parse(bytes: Bytes) -> Result<IndexedBlock> {
        IndexedBlock::open(ReplicaBytes::trusted(bytes))
    }

    /// Opens a stored replica: verifies and parses its tail
    /// ([`ReplicaTail::open`]), then the clustered index and the PAX
    /// header and directory. Everything else is verified by the reads
    /// that need it.
    pub fn open(replica: ReplicaBytes) -> Result<IndexedBlock> {
        let tail = ReplicaTail::open(replica)?;
        let (pax_len, index_len) = (tail.pax_len, tail.index_len);
        let index = if tail.meta.kind == IndexKind::Clustered && index_len > 0 {
            let range = pax_len..pax_len + index_len;
            tail.replica.verify(range.clone())?;
            Some(ClusteredIndex::from_bytes(&tail.replica.data()[range])?)
        } else {
            None
        };
        Ok(IndexedBlock {
            pax: PaxBlock::open(Arc::clone(&tail.replica), pax_len)?,
            index,
            tail,
        })
    }

    /// The PAX data of this replica.
    pub fn pax(&self) -> &PaxBlock {
        &self.pax
    }

    /// The clustered index, if the replica has one.
    pub fn index(&self) -> Option<&ClusteredIndex> {
        self.index.as_ref()
    }

    /// The sidecar zone map over `column` with its directory entry
    /// ([`ReplicaTail::zone_map_sidecar`]).
    pub fn zone_map_sidecar(
        &self,
        column: usize,
    ) -> Result<Option<(SidecarMetadata, ZoneMapSynopsis)>> {
        self.tail.zone_map_sidecar(column)
    }

    /// Decodes the sidecar zone map over `column`, if stored.
    pub fn zone_map(&self, column: usize) -> Result<Option<ZoneMapSynopsis>> {
        Ok(self.zone_map_sidecar(column)?.map(|(_, z)| z))
    }

    /// The sidecar Bloom filter over `column` with its directory entry
    /// ([`ReplicaTail::bloom_sidecar`]).
    pub fn bloom_sidecar(&self, column: usize) -> Result<Option<(SidecarMetadata, BloomSynopsis)>> {
        self.tail.bloom_sidecar(column)
    }

    /// Decodes the sidecar Bloom filter over `column`, if stored.
    pub fn bloom(&self, column: usize) -> Result<Option<BloomSynopsis>> {
        Ok(self.bloom_sidecar(column)?.map(|(_, b)| b))
    }

    /// The replica's index metadata.
    pub fn metadata(&self) -> &IndexMetadata {
        &self.tail.meta
    }

    /// The full serialized file content, verified or not.
    pub fn bytes(&self) -> &Bytes {
        self.tail.replica.data()
    }

    /// The replica the block was opened from, with its verified chunks.
    pub fn replica(&self) -> &ReplicaBytes {
        &self.tail.replica
    }

    /// Physical file size in bytes.
    pub fn byte_len(&self) -> usize {
        self.tail.replica.len()
    }

    /// The sort order of this replica.
    pub fn sort_order(&self) -> SortOrder {
        self.tail.meta.sort_order()
    }
}

impl ReplicaTail {
    /// Opens a stored replica as far as its tail: verifies and parses the
    /// trailer and the index metadata, and checks that every sidecar the
    /// directory lists lies inside the sidecar region. Nothing before the
    /// sidecar region is read.
    pub fn open(replica: ReplicaBytes) -> Result<ReplicaTail> {
        let len = replica.len();
        if len < TRAILER_LEN {
            return Err(HailError::Corrupt(format!(
                "block of {len} bytes is smaller than the trailer"
            )));
        }
        let t = len - TRAILER_LEN;
        replica.verify(t..len)?;
        let bytes = replica.data();
        let word =
            |i: usize| u32::from_le_bytes(bytes[t + 4 * i..t + 4 * i + 4].try_into().unwrap());
        let pax_len = word(0) as usize;
        let index_len = word(1) as usize;
        let sidecar_len = word(2) as usize;
        let meta_len = word(3) as usize;
        let magic = word(4);
        if magic != TRAILER_MAGIC {
            return Err(HailError::Corrupt(format!(
                "bad trailer magic {magic:#010x}"
            )));
        }
        if pax_len + index_len + sidecar_len + meta_len + TRAILER_LEN != len {
            return Err(HailError::Corrupt(format!(
                "trailer lengths ({pax_len} + {index_len} + {sidecar_len} + {meta_len}) \
                 inconsistent with block of {len} bytes"
            )));
        }
        let meta_start = pax_len + index_len + sidecar_len;
        replica.verify(meta_start..t)?;
        let meta = IndexMetadata::from_bytes(&bytes[meta_start..t])?;
        // The sidecar *contents* are verified and decoded on access, so
        // reads that never touch a sidecar never pay for it.
        for s in &meta.sidecars {
            let start = s.sidecar_offset;
            let end = start.saturating_add(s.sidecar_bytes);
            if start < pax_len + index_len || end > meta_start {
                return Err(HailError::Corrupt(format!(
                    "sidecar `{}` at {start}..{end} outside sidecar region {}..{meta_start}",
                    s.kind,
                    pax_len + index_len,
                )));
            }
        }
        Ok(ReplicaTail {
            meta,
            replica: Arc::new(replica),
            pax_len,
            index_len,
        })
    }

    /// The raw bytes of one sidecar, verified (the directory was checked
    /// against the sidecar region when the tail was opened).
    fn sidecar_raw(&self, s: &SidecarMetadata) -> Result<&[u8]> {
        let range = s.sidecar_offset..s.sidecar_offset + s.sidecar_bytes;
        self.replica.verify(range.clone())?;
        Ok(&self.replica.data()[range])
    }

    /// Decodes the sidecar `s` names, if this replica stores it: one
    /// directory lookup, then the sidecar's chunks verified and decoded.
    /// Errors only on a corrupt stored sidecar.
    fn decode<T>(
        &self,
        s: Option<&SidecarMetadata>,
        from_bytes: fn(&[u8]) -> Result<T>,
    ) -> Result<Option<(SidecarMetadata, T)>> {
        s.map(|s| Ok((*s, from_bytes(self.sidecar_raw(s)?)?)))
            .transpose()
    }

    /// The sidecar zone map over `column` together with its directory
    /// entry (stored size and offset), if this replica stores one.
    pub fn zone_map_sidecar(
        &self,
        column: usize,
    ) -> Result<Option<(SidecarMetadata, ZoneMapSynopsis)>> {
        self.decode(self.meta.zone_map_on(column), ZoneMapSynopsis::from_bytes)
    }

    /// The sidecar Bloom filter over `column` together with its
    /// directory entry, if stored.
    pub fn bloom_sidecar(&self, column: usize) -> Result<Option<(SidecarMetadata, BloomSynopsis)>> {
        self.decode(self.meta.bloom_on(column), BloomSynopsis::from_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_pax::blocks_from_text;
    use hail_types::{DataType, Field, Schema, StorageConfig, Value};

    fn pax_block() -> PaxBlock {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
        ])
        .unwrap();
        let text = "5|five\n3|three\n9|nine\n1|one\n7|seven\n";
        blocks_from_text(text, &schema, &StorageConfig::test_scale(1 << 20))
            .unwrap()
            .pop()
            .unwrap()
    }

    #[test]
    fn unsorted_replica_round_trip() {
        let b = IndexedBlock::build(&pax_block(), SortOrder::Unsorted).unwrap();
        assert!(b.index().is_none());
        assert_eq!(b.metadata().kind, IndexKind::None);
        let parsed = IndexedBlock::parse(b.bytes().clone()).unwrap();
        assert_eq!(parsed.pax().row_count(), 5);
        // Upload order preserved.
        assert_eq!(parsed.pax().value(0, 0).unwrap(), Value::Int(5));
    }

    #[test]
    fn clustered_replica_sorts_and_indexes() {
        let b = IndexedBlock::build(&pax_block(), SortOrder::Clustered { column: 0 }).unwrap();
        let idx = b.index().expect("index");
        assert_eq!(idx.key_column(), 0);
        assert_eq!(idx.row_count(), 5);
        assert_eq!(b.metadata().kind, IndexKind::Clustered);
        assert_eq!(b.metadata().key_column, Some(0));
        assert_eq!(b.pax().value(0, 0).unwrap(), Value::Int(1));
        assert_eq!(b.pax().value(1, 0).unwrap(), Value::Str("one".into()));
        assert_eq!(b.pax().value(0, 4).unwrap(), Value::Int(9));
    }

    #[test]
    fn parse_round_trip_with_index() {
        let b = IndexedBlock::build(&pax_block(), SortOrder::Clustered { column: 0 }).unwrap();
        let parsed = IndexedBlock::parse(b.bytes().clone()).unwrap();
        assert_eq!(parsed.index().unwrap(), b.index().unwrap());
        assert_eq!(parsed.metadata(), b.metadata());
        assert_eq!(parsed.sort_order(), SortOrder::Clustered { column: 0 });
    }

    #[test]
    fn sidecars_round_trip_with_clustered_index() {
        let spec = SidecarSpec {
            zone_map_columns: vec![1],
            bloom_columns: vec![0],
        };
        let b = IndexedBlock::build_with(&pax_block(), SortOrder::Clustered { column: 0 }, &spec)
            .unwrap();
        assert!(
            b.index().is_some(),
            "sidecars coexist with the primary index"
        );
        assert_eq!(b.metadata().sidecars.len(), 2);
        assert!(b.metadata().zone_map_on(1).is_some());
        assert!(b.metadata().bloom_on(0).is_some());

        let parsed = IndexedBlock::parse(b.bytes().clone()).unwrap();
        assert_eq!(parsed.index().unwrap(), b.index().unwrap());
        assert_eq!(parsed.zone_map(1).unwrap(), b.zone_map(1).unwrap());
        assert_eq!(parsed.bloom(0).unwrap(), b.bloom(0).unwrap());
        assert_eq!(parsed.metadata(), b.metadata());
        // The varchar zone map sees every name, whatever the row order.
        let zm = parsed.zone_map(1).unwrap().unwrap();
        let (lo, hi) = (Value::Str("five".into()), Value::Str("three".into()));
        assert_eq!(zm.bounds(), Some((&lo, &hi)));
        assert!(parsed
            .bloom(0)
            .unwrap()
            .unwrap()
            .might_contain(&Value::Int(7)));
    }

    #[test]
    fn duplicate_synopsis_columns_store_one_sidecar() {
        let spec = SidecarSpec {
            zone_map_columns: vec![0, 0, 0],
            bloom_columns: vec![1, 1],
        };
        let b = IndexedBlock::build_with(&pax_block(), SortOrder::Unsorted, &spec).unwrap();
        assert_eq!(b.metadata().sidecars.len(), 2);
        assert!(b.zone_map(0).unwrap().is_some());
        assert!(b.bloom(1).unwrap().is_some());
    }

    #[test]
    fn synopsis_sidecars_round_trip() {
        use crate::clustered::KeyBounds;
        let spec = SidecarSpec {
            zone_map_columns: vec![0],
            bloom_columns: vec![0, 1],
        };
        let b = IndexedBlock::build_with(&pax_block(), SortOrder::Clustered { column: 0 }, &spec)
            .unwrap();
        assert_eq!(b.metadata().sidecars.len(), 3);

        let parsed = IndexedBlock::parse(b.bytes().clone()).unwrap();
        let zm = parsed.zone_map(0).unwrap().expect("zone map");
        // Keys are 1,3,5,7,9 — the zone map sees the sorted block.
        assert_eq!(zm.bounds(), Some((&Value::Int(1), &Value::Int(9))));
        assert_eq!(zm.row_count(), 5);
        assert_eq!(zm.bad_records(), 0);
        assert!(!zm.overlaps(&KeyBounds::at_least(Value::Int(10))));
        assert!(zm.overlaps(&KeyBounds::point(Value::Int(5))));
        assert!(parsed.zone_map(1).unwrap().is_none());

        let bl = parsed.bloom(1).unwrap().expect("bloom");
        assert!(bl.might_contain(&Value::Str("seven".into())));
        assert!(parsed.bloom(0).unwrap().is_some());
        assert_eq!(parsed.metadata(), b.metadata());
        assert_eq!(
            b.metadata().sidecar_bytes_total(),
            b.metadata().sidecars.iter().map(|s| s.sidecar_bytes).sum()
        );
    }

    /// Opening a stored replica verifies its head and its tail — header,
    /// directory, clustered index, metadata, trailer — and a synopsis
    /// probe adds only its sidecar's chunks; a prune decision over the
    /// tail alone reads the trailer, the metadata and that sidecar and
    /// nothing else; a damaged column fails only the reads of it.
    #[test]
    fn opening_and_probing_verify_only_what_they_read() {
        use crate::clustered::KeyBounds;
        use hail_pax::chunk_checksums;
        use hail_types::config::CHUNK_SIZE;

        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
        ])
        .unwrap();
        let text: String = (0..3_000)
            .map(|i| format!("{}|value-{}\n", (i * 7) % 3_000, i))
            .collect();
        let mut storage = StorageConfig::test_scale(1 << 20);
        storage.index_partition_size = 8;
        let block = blocks_from_text(&text, &schema, &storage)
            .unwrap()
            .pop()
            .unwrap();
        let spec = SidecarSpec {
            zone_map_columns: vec![0],
            ..SidecarSpec::default()
        };
        let built =
            IndexedBlock::build_with(&block, SortOrder::Clustered { column: 0 }, &spec).unwrap();
        let bytes = built.bytes().to_vec();
        let sums = chunk_checksums(&bytes);
        let chunks =
            |range: std::ops::Range<usize>| range.start / CHUNK_SIZE..=(range.end - 1) / CHUNK_SIZE;
        let meta = built.metadata();
        let zone = meta.zone_map_on(0).unwrap();
        let zone = chunks(zone.sidecar_offset..zone.sidecar_offset + zone.sidecar_bytes);
        let index = chunks(meta.index_offset..meta.index_offset + meta.index_bytes);
        let tail = chunks(bytes.len() - TRAILER_LEN - meta.to_bytes().len()..bytes.len());
        let count = |ranges: &[std::ops::RangeInclusive<usize>]| {
            let mut set: Vec<usize> = ranges.iter().cloned().flatten().collect();
            set.sort_unstable();
            set.dedup();
            set.len()
        };
        let expected = |with_zone: bool| {
            let mut ranges = vec![0..=0, index.clone(), tail.clone()];
            ranges.extend(with_zone.then(|| zone.clone()));
            count(&ranges)
        };
        let stored = |raw: Vec<u8>| ReplicaBytes::new(raw.into(), sums.clone().into()).unwrap();
        let open = |raw: Vec<u8>| IndexedBlock::open(stored(raw));

        let opened = open(bytes.clone()).unwrap();
        assert_eq!(opened.replica().verified_chunks(), expected(false));
        assert!(opened.zone_map(0).unwrap().is_some());
        assert_eq!(opened.replica().verified_chunks(), expected(true));
        assert!(expected(true) * 4 < bytes.len().div_ceil(CHUNK_SIZE));

        // A prune decision reads the tail and the probed sidecar only —
        // so damage to the PAX header or the clustered index, which
        // fails a full open, leaves the decision sound.
        let past_every_key = KeyBounds::at_least(Value::Int(3_000));
        let probe = |raw: Vec<u8>| {
            let opened = ReplicaTail::open(stored(raw)).unwrap();
            assert_eq!(
                opened.replica.verified_chunks(),
                count(std::slice::from_ref(&tail))
            );
            let (_, zm) = opened.zone_map_sidecar(0).unwrap().unwrap();
            assert!(!zm.overlaps(&past_every_key), "the block is provably empty");
            assert_eq!(
                opened.replica.verified_chunks(),
                count(&[tail.clone(), zone.clone()])
            );
        };
        probe(bytes.clone());
        let unprobed = |at: &usize| !zone.contains(&(at / CHUNK_SIZE));
        let in_index = (meta.index_offset..meta.index_offset + meta.index_bytes)
            .find(unprobed)
            .expect("the index has a chunk of its own");
        for at in [10, in_index] {
            let mut raw = bytes.clone();
            raw[at] ^= 1;
            assert!(open(raw.clone()).is_err(), "byte {at} fails a full open");
            probe(raw);
        }

        // A damaged byte in the varchar column: opening and the probe
        // never read it; the column's reader does.
        let mut raw = bytes.clone();
        raw[block.byte_len() / 2] ^= 1;
        let damaged = open(raw).unwrap();
        assert!(damaged.zone_map(0).unwrap().is_some());
        let mut cursor = damaged.pax().cursor(1).unwrap();
        let read: hail_types::Result<Vec<_>> =
            (0..3_000).map(|r| cursor.get(r).map(|_| ())).collect();
        assert!(matches!(read, Err(HailError::ChecksumMismatch { .. })));

        // A damaged zone map fails its probe — or the open, when it
        // shares a chunk with the metadata.
        let mut raw = bytes;
        raw[meta.zone_map_on(0).unwrap().sidecar_offset + 2] ^= 1;
        assert!(matches!(
            open(raw).and_then(|b| b.zone_map(0)),
            Err(HailError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn replicas_differ_physically() {
        let pax = pax_block();
        let r0 = IndexedBlock::build(&pax, SortOrder::Clustered { column: 0 }).unwrap();
        let r1 = IndexedBlock::build(&pax, SortOrder::Clustered { column: 1 }).unwrap();
        let r2 = IndexedBlock::build(&pax, SortOrder::Unsorted).unwrap();
        assert_ne!(r0.bytes(), r1.bytes());
        assert_ne!(r0.bytes(), r2.bytes());
        // ...but all recover the same logical rows (failover property).
        let mut rows0: Vec<String> = (0..5)
            .map(|r| r0.pax().reconstruct_full(r).unwrap().to_string())
            .collect();
        let mut rows1: Vec<String> = (0..5)
            .map(|r| r1.pax().reconstruct_full(r).unwrap().to_string())
            .collect();
        rows0.sort();
        rows1.sort();
        assert_eq!(rows0, rows1);
    }

    #[test]
    fn parse_rejects_corrupt_trailer() {
        let b = IndexedBlock::build(&pax_block(), SortOrder::Unsorted).unwrap();
        let mut raw = b.bytes().to_vec();
        let n = raw.len();
        raw[n - 1] ^= 0xFF; // clobber magic
        assert!(IndexedBlock::parse(Bytes::from(raw)).is_err());
    }

    #[test]
    fn parse_rejects_corrupt_sidecar_directory() {
        let spec = SidecarSpec {
            zone_map_columns: vec![0],
            ..SidecarSpec::default()
        };
        let b = IndexedBlock::build_with(&pax_block(), SortOrder::Unsorted, &spec).unwrap();
        let meta_len = b.metadata().to_bytes().len();
        let mut raw = b.bytes().to_vec();
        // The sidecar descriptor's kind tag sits 20 bytes into the
        // metadata record, which precedes the fixed footer.
        let tag_pos = raw.len() - TRAILER_LEN - meta_len + 20;
        raw[tag_pos] = 200;
        assert!(IndexedBlock::parse(Bytes::from(raw)).is_err());
    }

    /// A count read from disk sizes nothing beyond what the bytes behind
    /// it could hold: each decoder fails on the short input instead of
    /// allocating for four billion entries first.
    #[test]
    fn decoders_bound_what_a_count_allocates_by_their_bytes() {
        use crate::trojan::TrojanIndex;
        let words = |ws: &[u32]| -> Vec<u8> { ws.iter().flat_map(|w| w.to_le_bytes()).collect() };
        let huge = u32::MAX;
        // column, rows, bad records, words
        assert!(BloomSynopsis::from_bytes(&words(&[0, 9, 0, huge, 1])).is_err());
        // key type, key column, partition size (granularity), rows, keys
        for index in [
            ClusteredIndex::from_bytes(&[&[0][..], &words(&[0, 1, huge, huge, 5])].concat())
                .is_err(),
            TrojanIndex::from_bytes(&[&[0][..], &words(&[0, 1, huge, huge, 5])].concat()).is_err(),
        ] {
            assert!(index);
        }
    }

    #[test]
    fn parse_rejects_truncation() {
        let b = IndexedBlock::build(&pax_block(), SortOrder::Clustered { column: 0 }).unwrap();
        let raw = b.bytes().to_vec();
        assert!(IndexedBlock::parse(Bytes::from(raw[..10].to_vec())).is_err());
    }
}
