//! The serialized PAX block format and its reader.
//!
//! A PAX block (§3.1, \[2\]) stores all rows of one HDFS block grouped by
//! column ("minipages"), preceded by *Block Metadata* (schema, row count,
//! column directory) and followed by a *bad record* section holding raw
//! lines that did not match the schema.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            u32   0x4C494148 ("HAIL")
//! version          u8
//! num_fields       u16
//! fields           num_fields × { tag u8, name (u16-len string) }
//! row_count        u32
//! partition_size   u32
//! bad_count        u32
//! column directory num_fields × { offset u32, length u32 }
//! bad directory    { offset u32, length u32 }
//! columns…         (fixed: dense values; varchar: offset list ++ values)
//! bad section      bad_count zero-terminated raw lines
//! ```
//!
//! Variable-size columns follow §3.5 *Accessing Variable-size Attributes*:
//! values are zero-terminated and only every `partition_size`-th offset is
//! stored, in front of the value data. Random access to row `r` seeks the
//! partition `r / partition_size` and scans forward in memory.
//!
//! A block is the prefix of its replica's file, so a byte's chunk index in
//! the replica's checksum file is its offset in the block divided by 512.
//! Every read of a block verifies the chunks it lands in first
//! ([`ReplicaBytes::verify`]): opening one verifies the header and the
//! directory, and each reader verifies the region, partition or value it
//! reads — never more.

use crate::checksum::ReplicaBytes;
use crate::column::ColumnData;
use bytes::Bytes;
use hail_types::bytes_util::{put_str, put_u32, u32_at, ByteReader};
use hail_types::{DataType, Field, HailError, Result, Row, Schema, Value};
use std::ops::Range;
use std::sync::Arc;

/// Magic number at the start of every PAX block ("HAIL" in LE order).
pub const PAX_MAGIC: u32 = 0x4C49_4148;
/// Current format version.
pub const PAX_VERSION: u8 = 1;

/// Writes a block front to back — header, a directory patched at the end,
/// then one region after the other — so that the layout above is spelled
/// out once for [`encode_block`], the builder and the sort gather.
pub(crate) struct BlockWriter {
    buf: Vec<u8>,
    dir_pos: usize,
    /// Finished regions, in order: the columns, then the bad section.
    directory: Vec<(usize, usize)>,
    /// Where the open region starts.
    region_start: usize,
    row_count: usize,
    partition_size: usize,
    bad_count: usize,
}

impl BlockWriter {
    /// Starts a block whose regions will take `body_len` bytes in all.
    pub(crate) fn new(
        schema: &Schema,
        row_count: usize,
        partition_size: usize,
        bad_count: usize,
        body_len: usize,
    ) -> Result<BlockWriter> {
        let partition_size_u32 = u32::try_from(partition_size)
            .ok()
            .filter(|&p| p > 0)
            .ok_or_else(|| HailError::Schema("partition size must be a positive u32".into()))?;
        let names: usize = schema.fields().iter().map(|f| 3 + f.name.len()).sum();
        let dir_pos = 4 + 1 + 2 + names + 12;
        let head_len = dir_pos + (schema.len() + 1) * 8;
        let mut buf = Vec::with_capacity(head_len + body_len);
        put_u32(&mut buf, PAX_MAGIC);
        buf.push(PAX_VERSION);
        buf.extend_from_slice(&(schema.len() as u16).to_le_bytes());
        for f in schema.fields() {
            buf.push(f.data_type.tag());
            put_str(&mut buf, &f.name)?;
        }
        // Neither count exceeds the block's size, which `finish` holds
        // to a u32.
        put_u32(&mut buf, row_count as u32);
        put_u32(&mut buf, partition_size_u32);
        put_u32(&mut buf, bad_count as u32);
        debug_assert_eq!(buf.len(), dir_pos);
        buf.resize(head_len, 0);
        Ok(BlockWriter {
            buf,
            dir_pos,
            directory: Vec::with_capacity(schema.len() + 1),
            region_start: head_len,
            row_count,
            partition_size,
            bad_count,
        })
    }

    /// The bytes written so far; the open region is their tail.
    pub(crate) fn buf(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Closes the open region: everything written since the last one.
    pub(crate) fn end_region(&mut self) {
        self.directory
            .push((self.region_start, self.buf.len() - self.region_start));
        self.region_start = self.buf.len();
    }

    /// Writes the finished regions' offsets and lengths into the
    /// directory.
    fn patch_directory(&mut self) -> Result<()> {
        // Every offset, length and count of the format is a u32, and
        // none of them exceeds the block's size.
        if u32::try_from(self.buf.len()).is_err() {
            return Err(HailError::Schema(
                "block too large for the PAX format".into(),
            ));
        }
        for (i, &(off, len)) in self.directory.iter().enumerate() {
            let at = self.dir_pos + i * 8;
            self.buf[at..at + 4].copy_from_slice(&(off as u32).to_le_bytes());
            self.buf[at + 4..at + 8].copy_from_slice(&(len as u32).to_le_bytes());
        }
        Ok(())
    }

    /// The finished block's bytes.
    fn into_bytes(mut self) -> Result<Bytes> {
        self.patch_directory()?;
        Ok(Bytes::from(self.buf))
    }

    /// The finished block, without parsing back what was just written:
    /// the caller vouches that the regions hold `row_count` values each
    /// and `bad_count` terminated records, as [`PaxBlock::parse`] checks.
    pub(crate) fn into_block(mut self, schema: Schema) -> Result<PaxBlock> {
        debug_assert_eq!(self.directory.len(), schema.len() + 1);
        self.patch_directory()?;
        let bytes = Bytes::from(self.buf);
        Ok(PaxBlock {
            schema,
            row_count: self.row_count,
            partition_size: self.partition_size,
            bad_count: self.bad_count,
            directory: self.directory,
            replica: Arc::new(ReplicaBytes::trusted(bytes.clone())),
            bytes,
        })
    }
}

/// Serializes columns + bad records into the PAX block format.
///
/// The naive encoder, from fully decoded columns: the upload and rewrite
/// paths write their bytes directly ([`crate::builder`],
/// [`crate::reorg`]) and are tested against this one.
pub fn encode_block(
    schema: &Schema,
    columns: &[ColumnData],
    bad_records: &[String],
    partition_size: usize,
) -> Result<Bytes> {
    if columns.len() != schema.len() {
        return Err(HailError::Schema(format!(
            "{} columns for schema of {} fields",
            columns.len(),
            schema.len()
        )));
    }
    let row_count = columns.first().map_or(0, ColumnData::len);
    for (i, c) in columns.iter().enumerate() {
        if c.len() != row_count {
            return Err(HailError::Internal(format!(
                "column {i} has {} values, expected {row_count}",
                c.len()
            )));
        }
        if c.data_type() != schema.fields()[i].data_type {
            return Err(HailError::Schema(format!(
                "column {i} type {} does not match schema type {}",
                c.data_type(),
                schema.fields()[i].data_type
            )));
        }
    }
    let mut w = BlockWriter::new(schema, row_count, partition_size, bad_records.len(), 0)?;
    for col in columns {
        let buf = w.buf();
        match col {
            ColumnData::Int(v) | ColumnData::Date(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Long(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Float(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            ColumnData::Str(v) => {
                // Sparse offset list: one entry per partition, relative to
                // the start of the value data.
                let mut pos = 0u32;
                for (i, s) in v.iter().enumerate() {
                    if i % partition_size == 0 {
                        put_u32(buf, pos);
                    }
                    pos += s.len() as u32 + 1;
                }
                for s in v {
                    buf.extend_from_slice(s.as_bytes());
                    buf.push(0);
                }
            }
        }
        w.end_region();
    }
    for line in bad_records {
        w.buf().extend_from_slice(line.as_bytes());
        w.buf().push(0);
    }
    w.end_region();
    w.into_bytes()
}

/// A parsed PAX block: header fields plus a shared handle on the raw
/// bytes and on the replica they are the prefix of. Cloning is O(1)
/// (`Bytes` and the replica are reference-counted), which models replicas
/// cheaply in tests while the DFS layer still charges full byte costs.
#[derive(Debug, Clone)]
pub struct PaxBlock {
    schema: Schema,
    row_count: usize,
    partition_size: usize,
    bad_count: usize,
    /// Per-column (offset, length), with a final entry for the bad section.
    directory: Vec<(usize, usize)>,
    bytes: Bytes,
    /// The replica `bytes` begin: its checksums and verified chunks.
    replica: Arc<ReplicaBytes>,
}

impl PaxBlock {
    /// Parses a serialized PAX block from bytes the caller vouches for —
    /// built in memory, or read whole and verified: [`PaxBlock::open`]
    /// over [`ReplicaBytes::trusted`].
    pub fn parse(bytes: Bytes) -> Result<PaxBlock> {
        let len = bytes.len();
        PaxBlock::open(Arc::new(ReplicaBytes::trusted(bytes)), len)
    }

    /// Opens the PAX block held by the first `len` bytes of `replica`,
    /// verifying each chunk of the header and the directory before
    /// reading it. The regions are verified by the reads that need them.
    pub fn open(replica: Arc<ReplicaBytes>, len: usize) -> Result<PaxBlock> {
        if len > replica.len() {
            return Err(HailError::Corrupt(format!(
                "PAX block of {len} bytes in a replica of {} bytes",
                replica.len()
            )));
        }
        let bytes = replica.data().slice(0..len);
        let mut verified = 0;
        let mut need = |end: usize| -> Result<()> {
            let end = end.min(len);
            if end > verified {
                replica.verify(verified..end)?;
                verified = end;
            }
            Ok(())
        };
        let mut r = ByteReader::new(&bytes);
        need(7)?;
        let magic = r.u32()?;
        if magic != PAX_MAGIC {
            return Err(HailError::Corrupt(format!(
                "bad magic {magic:#010x}, expected {PAX_MAGIC:#010x}"
            )));
        }
        let version = r.u8()?;
        if version != PAX_VERSION {
            return Err(HailError::Corrupt(format!("unsupported version {version}")));
        }
        let n_fields = u16::from_le_bytes([r.u8()?, r.u8()?]) as usize;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            need(r.position() + 3)?;
            let tag = r.u8()?;
            let name_len = u16::from_le_bytes([r.u8()?, r.u8()?]) as usize;
            need(r.position() + name_len)?;
            let name = std::str::from_utf8(r.bytes(name_len)?)
                .map_err(|_| HailError::Corrupt("invalid UTF-8 in a field name".into()))?;
            fields.push(Field::new(name, DataType::from_tag(tag)?));
        }
        let schema = Schema::new(fields)?;
        need(r.position() + 12 + (n_fields + 1) * 8)?;
        let row_count = r.u32()? as usize;
        let partition_size = r.u32()? as usize;
        let bad_count = r.u32()? as usize;
        if partition_size == 0 {
            return Err(HailError::Corrupt("zero partition size".into()));
        }
        let mut directory = Vec::with_capacity(n_fields + 1);
        for _ in 0..n_fields + 1 {
            let off = r.u32()? as usize;
            let len = r.u32()? as usize;
            if off + len > bytes.len() {
                return Err(HailError::Corrupt(format!(
                    "directory entry ({off}, {len}) beyond block of {} bytes",
                    bytes.len()
                )));
            }
            directory.push((off, len));
        }
        let block = PaxBlock {
            schema,
            row_count,
            partition_size,
            bad_count,
            directory,
            bytes,
            replica,
        };
        block.validate_regions()?;
        Ok(block)
    }

    /// Holds every region's length to the header's counts, so that readers
    /// can index a region without re-checking it per row: a fixed-width
    /// region is exactly `row_count × width` bytes; a varchar region has
    /// room for its whole sparse offset list; the bad section has room for
    /// `bad_count` records. Only the directory is read: the offsets
    /// themselves are checked by `varchar_offsets` when a reader first
    /// needs them.
    fn validate_regions(&self) -> Result<()> {
        for (col, field) in self.schema.fields().iter().enumerate() {
            let (_, len) = self.region(col)?;
            let corrupt = |what: String| {
                HailError::Corrupt(format!(
                    "column {col} ({} rows, region of {len} bytes): {what}",
                    self.row_count,
                ))
            };
            match field.data_type.fixed_width() {
                Some(w) => {
                    if len != self.row_count * w {
                        return Err(corrupt(format!("expected {w} bytes per row")));
                    }
                }
                None => {
                    let partitions = self.partition_count();
                    if len < partitions * 4 {
                        return Err(corrupt(format!("no room for {partitions} offsets")));
                    }
                }
            }
        }
        // Every bad record ends in its own terminator, which bounds what
        // `bad_records` allocates for a count read from disk.
        let (_, bad_len) = self.directory[self.schema.len()];
        if self.bad_count > bad_len {
            return Err(HailError::Corrupt(format!(
                "{} bad records in a section of {bad_len} bytes",
                self.bad_count
            )));
        }
        Ok(())
    }

    /// The block's schema (from Block Metadata).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of good rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of bad records in the bad section.
    pub fn bad_count(&self) -> usize {
        self.bad_count
    }

    /// Values per index partition.
    pub fn partition_size(&self) -> usize {
        self.partition_size
    }

    /// Total serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw serialized bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Number of index partitions covering the rows.
    pub fn partition_count(&self) -> usize {
        self.row_count.div_ceil(self.partition_size)
    }

    /// Where column `col`'s region lies in the block, as (offset,
    /// length): its directory entry, with no region byte read.
    pub(crate) fn region(&self, col: usize) -> Result<(usize, usize)> {
        self.directory
            .get(col)
            .copied()
            .ok_or(HailError::UnknownAttribute(col + 1))
    }

    /// The replica this block is the prefix of.
    pub(crate) fn replica(&self) -> &ReplicaBytes {
        &self.replica
    }

    /// Verifies `range` of the block and lends its bytes.
    fn verified(&self, range: Range<usize>) -> Result<&[u8]> {
        self.replica.verify(range.clone())?;
        Ok(&self.bytes[range])
    }

    /// Column `col`'s whole region, verified.
    pub(crate) fn column_slice(&self, col: usize) -> Result<&[u8]> {
        let (off, len) = self.region(col)?;
        self.verified(off..off + len)
    }

    /// The sparse offset list of varchar column `col`, verified, with
    /// every offset checked to point into the value data behind it; and
    /// where that value data lies in the block, as (offset, length).
    pub(crate) fn varchar_offsets(&self, col: usize) -> Result<(&[u8], (usize, usize))> {
        let (off, len) = self.region(col)?;
        let list = self.partition_count() * 4;
        let offsets = self.verified(off..off + list)?;
        let data_len = len - list;
        for p in 0..self.partition_count() {
            let start = u32_at(offsets, p)? as usize;
            if start >= data_len {
                return Err(HailError::Corrupt(format!(
                    "column {col}: partition {p} starts at {start}, past {data_len} value bytes"
                )));
            }
        }
        Ok((offsets, (off + list, data_len)))
    }

    /// Byte length of one column's region (offset list included for
    /// varchar columns). Used by the cost model.
    pub fn column_byte_len(&self, col: usize) -> Result<usize> {
        Ok(self.region(col)?.1)
    }

    /// Reads a single value. Fixed-size attributes are read by direct
    /// offset arithmetic; variable-size attributes locate the partition
    /// via the sparse offset list and scan forward (§3.5). What is
    /// verified is the value's own bytes, or its partition's.
    pub fn value(&self, col: usize, row: usize) -> Result<Value> {
        if row >= self.row_count {
            return Err(HailError::Corrupt(format!(
                "row {row} out of range ({} rows)",
                self.row_count
            )));
        }
        let dtype = self.schema.field(col)?.data_type;
        let (off, _) = self.region(col)?;
        let fixed = |w: usize| self.verified(off + row * w..off + (row + 1) * w);
        match dtype {
            DataType::Int | DataType::Date => {
                let v = i32::from_le_bytes(fixed(4)?.try_into().expect("a 4-byte value"));
                Ok(if dtype == DataType::Int {
                    Value::Int(v)
                } else {
                    Value::Date(v)
                })
            }
            DataType::Long => Ok(Value::Long(i64::from_le_bytes(
                fixed(8)?.try_into().expect("an 8-byte value"),
            ))),
            DataType::Float => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                fixed(8)?.try_into().expect("an 8-byte value"),
            )))),
            DataType::VarChar => {
                let bytes = self.varlen_bytes(col, row)?;
                String::from_utf8(bytes.to_vec())
                    .map(Value::Str)
                    .map_err(|_| HailError::Corrupt("invalid UTF-8 in varchar value".into()))
            }
        }
    }

    /// Raw bytes of a variable-size value: partition seek + in-partition
    /// scan, exactly the paper's `rowID / 1024` walk, within the
    /// partition's value range.
    fn varlen_bytes(&self, col: usize, row: usize) -> Result<&[u8]> {
        let (offsets, (data_off, data_len)) = self.varchar_offsets(col)?;
        let values = partition_values(offsets, row / self.partition_size, data_len)?;
        let mut r = ByteReader::new(self.verified(data_off + values.start..data_off + values.end)?);
        for _ in 0..row % self.partition_size {
            r.cstr()?;
        }
        r.cstr()
    }

    /// Decodes a whole column into its typed in-memory form.
    pub fn decode_column(&self, col: usize) -> Result<ColumnData> {
        let dtype = self.schema.field(col)?.data_type;
        let slice = self.column_slice(col)?;
        let n = self.row_count;
        Ok(match dtype {
            DataType::Int | DataType::Date => {
                let mut v = Vec::with_capacity(n);
                for i in 0..n {
                    v.push(i32::from_le_bytes(
                        slice[i * 4..i * 4 + 4].try_into().unwrap(),
                    ));
                }
                if dtype == DataType::Int {
                    ColumnData::Int(v)
                } else {
                    ColumnData::Date(v)
                }
            }
            DataType::Long => {
                let mut v = Vec::with_capacity(n);
                for i in 0..n {
                    v.push(i64::from_le_bytes(
                        slice[i * 8..i * 8 + 8].try_into().unwrap(),
                    ));
                }
                ColumnData::Long(v)
            }
            DataType::Float => {
                let mut v = Vec::with_capacity(n);
                for i in 0..n {
                    v.push(f64::from_bits(u64::from_le_bytes(
                        slice[i * 8..i * 8 + 8].try_into().unwrap(),
                    )));
                }
                ColumnData::Float(v)
            }
            DataType::VarChar => {
                let offsets_len = self.partition_count() * 4;
                let data = &slice[offsets_len..];
                let mut r = ByteReader::new(data);
                // Every value ends in its own terminator.
                let mut v = Vec::with_capacity(n.min(data.len()));
                for _ in 0..n {
                    let bytes = r.cstr()?;
                    v.push(String::from_utf8(bytes.to_vec()).map_err(|_| {
                        HailError::Corrupt("invalid UTF-8 in varchar column".into())
                    })?);
                }
                ColumnData::Str(v)
            }
        })
    }

    /// Decodes every column.
    pub fn decode_all_columns(&self) -> Result<Vec<ColumnData>> {
        (0..self.schema.len())
            .map(|c| self.decode_column(c))
            .collect()
    }

    /// Reconstructs one row, projected to the given 0-based column
    /// indexes (tuple reconstruction, PAX → row layout).
    pub fn reconstruct(&self, row: usize, projection: &[usize]) -> Result<Row> {
        let mut values = Vec::with_capacity(projection.len());
        for &col in projection {
            values.push(self.value(col, row)?);
        }
        Ok(Row::new(values))
    }

    /// Reconstructs one row with all attributes.
    pub fn reconstruct_full(&self, row: usize) -> Result<Row> {
        let all: Vec<usize> = (0..self.schema.len()).collect();
        self.reconstruct(row, &all)
    }

    /// The bad section, verified: `bad_count` raw lines, each
    /// zero-terminated.
    pub(crate) fn bad_section(&self) -> Result<&[u8]> {
        let (off, len) = self.directory[self.schema.len()];
        self.verified(off..off + len)
    }

    /// The raw bad-record lines stored in the bad section.
    pub fn bad_records(&self) -> Result<Vec<String>> {
        let mut r = ByteReader::new(self.bad_section()?);
        let mut out = Vec::with_capacity(self.bad_count);
        for _ in 0..self.bad_count {
            let bytes = r.cstr()?;
            out.push(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| HailError::Corrupt("invalid UTF-8 in bad record".into()))?,
            );
        }
        Ok(out)
    }

    /// Bytes that must be read from "disk" to scan the rows of the given
    /// partition range for the given columns — what an index scan touches.
    ///
    /// For fixed columns this is an exact window; for varchar columns the
    /// window is derived from the sparse offset list.
    pub fn partition_scan_bytes(
        &self,
        columns: &[usize],
        first_partition: usize,
        last_partition: usize,
    ) -> Result<usize> {
        if self.row_count == 0 || first_partition > last_partition {
            return Ok(0);
        }
        if last_partition >= self.partition_count() {
            return Err(HailError::Corrupt(format!(
                "partition {last_partition} out of range ({} partitions)",
                self.partition_count()
            )));
        }
        let mut total = 0usize;
        for &col in columns {
            match self.schema.field(col)?.data_type.fixed_width() {
                Some(w) => {
                    let start_row = first_partition * self.partition_size;
                    let end_row = ((last_partition + 1) * self.partition_size).min(self.row_count);
                    total += end_row.saturating_sub(start_row) * w;
                }
                None => {
                    // Only the two sparse offsets bounding the window are
                    // needed, and only the offset list is verified.
                    let (offsets, (_, data_len)) = self.varchar_offsets(col)?;
                    let start = u32_at(offsets, first_partition)? as usize;
                    let end = if last_partition + 1 < self.partition_count() {
                        u32_at(offsets, last_partition + 1)? as usize
                    } else {
                        data_len
                    };
                    total += end.saturating_sub(start);
                }
            }
        }
        Ok(total)
    }
}

/// Where partition `partition`'s values lie in a varchar column's value
/// data of `data_len` bytes: from its sparse offset up to the next
/// partition's, or to the end of the data for the last one. Offsets that
/// run backwards are corrupt.
pub(crate) fn partition_values(
    offsets: &[u8],
    partition: usize,
    data_len: usize,
) -> Result<Range<usize>> {
    let start = u32_at(offsets, partition)? as usize;
    let end = if partition + 1 < offsets.len() / 4 {
        u32_at(offsets, partition + 1)? as usize
    } else {
        data_len
    };
    if start > end || end > data_len {
        return Err(HailError::Corrupt(format!(
            "partition {partition} holds value bytes {start}..{end} of {data_len}"
        )));
    }
    Ok(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_types::parse_line_strict;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("ip", DataType::VarChar),
            Field::new("visitDate", DataType::Date),
            Field::new("revenue", DataType::Float),
            Field::new("duration", DataType::Int),
        ])
        .unwrap()
    }

    fn build(rows: &[&str], bad: &[&str], partition_size: usize) -> PaxBlock {
        let s = schema();
        let mut cols: Vec<ColumnData> = s
            .fields()
            .iter()
            .map(|f| ColumnData::new(f.data_type))
            .collect();
        for line in rows {
            let row = parse_line_strict(line, &s, '|').unwrap();
            for (c, v) in cols.iter_mut().zip(row.values()) {
                c.push(v).unwrap();
            }
        }
        let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
        let bytes = encode_block(&s, &cols, &bad, partition_size).unwrap();
        PaxBlock::parse(bytes).unwrap()
    }

    #[test]
    fn round_trip_values() {
        let b = build(
            &[
                "1.2.3.4|1999-01-05|1.5|10",
                "5.6.7.8|2000-06-30|2.5|20",
                "9.9.9.9|2011-12-31|3.5|30",
            ],
            &[],
            2,
        );
        assert_eq!(b.row_count(), 3);
        assert_eq!(b.value(0, 0).unwrap(), Value::Str("1.2.3.4".into()));
        assert_eq!(b.value(0, 2).unwrap(), Value::Str("9.9.9.9".into()));
        assert_eq!(b.value(2, 1).unwrap(), Value::Float(2.5));
        assert_eq!(b.value(3, 2).unwrap(), Value::Int(30));
        assert_eq!(b.value(1, 0).unwrap().to_string(), "1999-01-05".to_string());
    }

    #[test]
    fn varlen_partition_walk() {
        // Partition size 2 with 5 rows → 3 partitions; access every row.
        let rows: Vec<String> = (0..5)
            .map(|i| format!("host-{i}-{}|1999-01-01|1.0|{i}", "x".repeat(i)))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let b = build(&refs, &[], 2);
        for (i, line) in rows.iter().enumerate() {
            let expected = line.split('|').next().unwrap();
            assert_eq!(b.value(0, i).unwrap(), Value::Str(expected.into()));
        }
    }

    #[test]
    fn reconstruct_projection() {
        let b = build(&["a|1999-01-01|1.0|7", "b|1999-01-02|2.0|8"], &[], 1024);
        let r = b.reconstruct(1, &[3, 0]).unwrap();
        assert_eq!(r.values(), &[Value::Int(8), Value::Str("b".into())]);
        let full = b.reconstruct_full(0).unwrap();
        assert_eq!(full.len(), 4);
    }

    #[test]
    fn bad_records_round_trip() {
        let b = build(
            &["a|1999-01-01|1.0|7"],
            &["totally|broken", "another bad line"],
            1024,
        );
        assert_eq!(b.bad_count(), 2);
        assert_eq!(
            b.bad_records().unwrap(),
            vec!["totally|broken".to_string(), "another bad line".to_string()]
        );
    }

    #[test]
    fn decode_columns_round_trip() {
        let b = build(
            &[
                "a|1999-01-01|1.0|7",
                "bb|1999-01-02|2.0|8",
                "ccc|1999-01-03|3.0|9",
            ],
            &[],
            2,
        );
        let cols = b.decode_all_columns().unwrap();
        assert_eq!(cols[0].value(2), Value::Str("ccc".into()));
        assert_eq!(cols[3].value(0), Value::Int(7));
    }

    #[test]
    fn empty_block() {
        let b = build(&[], &[], 1024);
        assert_eq!(b.row_count(), 0);
        assert_eq!(b.partition_count(), 0);
        assert!(b.value(0, 0).is_err());
        assert_eq!(b.bad_records().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn rejects_bad_magic() {
        let b = build(&["a|1999-01-01|1.0|7"], &[], 1024);
        let mut raw = b.bytes().to_vec();
        raw[0] ^= 0xFF;
        assert!(PaxBlock::parse(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_truncated() {
        let b = build(&["a|1999-01-01|1.0|7"], &[], 1024);
        let raw = b.bytes().to_vec();
        let truncated = Bytes::from(raw[..raw.len() / 2].to_vec());
        // Either header parse fails or a directory bound check fails.
        assert!(PaxBlock::parse(truncated).is_err());
    }

    /// Byte offset of the column directory in a block of [`schema`].
    fn directory_pos() -> usize {
        let fields: usize = schema().fields().iter().map(|f| 3 + f.name.len()).sum();
        4 + 1 + 2 + fields + 12
    }

    fn patch_u32(raw: &mut [u8], at: usize, f: impl Fn(u32) -> u32) {
        let old = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap());
        raw[at..at + 4].copy_from_slice(&f(old).to_le_bytes());
    }

    /// Every read a corrupt-but-parseable block could be asked for.
    fn read_everything(b: &PaxBlock) {
        let partitions = b.partition_count();
        for col in 0..b.schema().len() {
            let mut cursor = b.cursor(col);
            for row in 0..b.row_count() {
                let _ = b.value(col, row);
                if let Ok(cursor) = &mut cursor {
                    let _ = cursor.get(row);
                }
            }
            let _ = b.decode_column(col);
            for first in 0..partitions {
                let _ = b.partition_scan_bytes(&[col], first, partitions - 1);
            }
            let _ = b.partition_scan_bytes(&[col], 0, partitions);
            // The write path reads blocks back too (`rewrite_replica`).
            let _ = crate::reorg::sort_block(b, col);
        }
        let _ = b.bad_records();
    }

    #[test]
    fn rejects_column_regions_that_contradict_the_row_count() {
        let rows: Vec<String> = (0..10)
            .map(|i| format!("host{i}|1999-01-01|1.0|{i}"))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let good = build(&refs, &["bad"], 4).bytes().to_vec();
        let dir = directory_pos();
        // Region lengths are checked when the block is opened; the sparse
        // offsets inside a varchar region when a reader first needs them.
        let corrupt = |patch: &dyn Fn(&mut [u8])| {
            let mut raw = good.clone();
            patch(&mut raw);
            match PaxBlock::parse(Bytes::from(raw)) {
                Err(e) => matches!(e, HailError::Corrupt(_)),
                Ok(b) => {
                    matches!(b.cursor(0), Err(HailError::Corrupt(_)))
                        && matches!(b.value(0, 0), Err(HailError::Corrupt(_)))
                        && matches!(
                            b.partition_scan_bytes(&[0], 0, 0),
                            Err(HailError::Corrupt(_))
                        )
                }
            }
        };
        // Header row count one more than the regions hold.
        assert!(corrupt(&|raw| patch_u32(raw, dir - 12, |n| n + 1)));
        // A fixed-width region one value short, and one value long.
        assert!(corrupt(
            &|raw| patch_u32(raw, dir + 3 * 8 + 4, |len| len - 4)
        ));
        assert!(corrupt(&|raw| patch_u32(raw, dir + 8 + 4, |len| len + 4)));
        // A varchar region too short for its three sparse offsets.
        assert!(corrupt(&|raw| patch_u32(raw, dir + 4, |_| 8)));
        // Sparse offsets at and past the end of the value data.
        let ip = u32::from_le_bytes(good[dir..dir + 4].try_into().unwrap()) as usize;
        let ip_len = u32::from_le_bytes(good[dir + 4..dir + 8].try_into().unwrap());
        assert!(corrupt(&|raw| patch_u32(raw, ip + 8, |_| ip_len - 12)));
        assert!(corrupt(&|raw| patch_u32(raw, ip + 4, |_| u32::MAX)));
        // The last value's own offset is the largest the parser accepts.
        let mut raw = good.clone();
        patch_u32(&mut raw, ip + 8, |_| ip_len - 12 - 6);
        let b = PaxBlock::parse(Bytes::from(raw)).unwrap();
        assert_eq!(b.value(0, 8).unwrap(), Value::Str("host9".into()));
        assert!(b.value(0, 9).is_err());
        read_everything(&b);
    }

    /// Any single damaged header or directory byte is `Err` at parse or
    /// at the read that meets it — never a panic.
    #[test]
    fn damaged_metadata_never_panics() {
        let rows: Vec<String> = (0..23)
            .map(|i| format!("h{}|1999-01-01|1.0|{i}", "é".repeat(i % 5)))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let good = build(&refs, &["bad", "worse"], 4).bytes().to_vec();
        let ip = u32::from_le_bytes(good[directory_pos()..][..4].try_into().unwrap()) as usize;
        // Header, directory, and the varchar column's sparse offsets.
        let metadata_end = ip + 6 * 4;
        for at in 0..metadata_end {
            for mask in [0x01, 0x04, 0x10, 0x80, 0xFF] {
                let mut raw = good.clone();
                raw[at] ^= mask;
                if let Ok(b) = PaxBlock::parse(Bytes::from(raw)) {
                    // Row and partition counts are pinned by the
                    // validated regions, so this terminates quickly.
                    assert!(b.row_count() <= 23 && b.partition_count() <= 23);
                    read_everything(&b);
                }
            }
        }
    }

    /// What only a walk over the values can find is still found by the
    /// sort gather, as `Corrupt`: a varchar region with a terminator
    /// missing, invalid UTF-8 in a value — of the key column or any
    /// other — and the same in the bad section.
    #[test]
    fn sort_block_rejects_damaged_values() {
        use crate::reorg::sort_block;
        let rows: Vec<String> = (0..9)
            .map(|i| format!("host{i}|1999-01-0{}|1.0|{i}", 9 - i))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let good = build(&refs, &["bad", "worse"], 4);
        assert!((0..4).all(|col| sort_block(&good, col).is_ok()));
        let damaged = |needle: &[u8], with: u8| {
            let mut raw = good.bytes().to_vec();
            let at = raw.windows(needle.len()).position(|w| w == needle).unwrap();
            raw[at + needle.len() - 1] = with;
            PaxBlock::parse(Bytes::from(raw)).unwrap()
        };
        for block in [
            damaged(b"host8\0", b'!'),
            damaged(b"host3", 0xFF),
            damaged(b"worse\0", b'!'),
            damaged(b"bad", 0xC3),
        ] {
            for col in 0..4 {
                assert!(
                    matches!(sort_block(&block, col), Err(HailError::Corrupt(_))),
                    "sorted on column {col}"
                );
            }
            read_everything(&block);
        }
    }

    #[test]
    fn scan_bytes_fixed_and_varlen() {
        let rows: Vec<String> = (0..10)
            .map(|i| format!("v{i}|1999-01-01|1.0|{i}"))
            .collect();
        let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
        let b = build(&refs, &[], 4); // 3 partitions: rows 0-3, 4-7, 8-9
                                      // Fixed col 3 (Int): partition 1 covers rows 4..8 → 16 bytes.
        assert_eq!(b.partition_scan_bytes(&[3], 1, 1).unwrap(), 16);
        // Last partition has 2 rows → 8 bytes.
        assert_eq!(b.partition_scan_bytes(&[3], 2, 2).unwrap(), 8);
        // Whole varchar column partitions 0..=2 = all value bytes.
        let all = b.partition_scan_bytes(&[0], 0, 2).unwrap();
        let expected: usize = rows
            .iter()
            .map(|r| r.split('|').next().unwrap().len() + 1)
            .sum();
        assert_eq!(all, expected);
        // Empty range.
        assert_eq!(b.partition_scan_bytes(&[0], 2, 1).unwrap(), 0);
    }

    #[test]
    fn encode_rejects_ragged_columns() {
        let s = schema();
        let mut cols: Vec<ColumnData> = s
            .fields()
            .iter()
            .map(|f| ColumnData::new(f.data_type))
            .collect();
        cols[0].push(&Value::Str("a".into())).unwrap();
        let err = encode_block(&s, &cols, &[], 1024);
        assert!(err.is_err());
    }
}
