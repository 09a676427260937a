//! The Hadoop++ baseline (\[12\], §5): trojan indexes created *after*
//! upload by two additional MapReduce jobs, one identical clustered
//! index per logical block on every replica, binary **row** layout.
//!
//! The paper's comparison hinges on three structural properties, all
//! modeled here:
//!
//! 1. **Expensive index creation.** After the normal HDFS text upload,
//!    job 1 re-reads everything and rewrites it in binary (replicated
//!    3×, with a shuffle materialization), and job 2 re-reads the binary
//!    data, sorts each block, attaches the trojan index and rewrites it
//!    again — plus two full rounds of per-task scheduling overhead.
//! 2. **One index only, same on every replica**: filters on any other
//!    attribute full-scan.
//! 3. **Header reads at split time**: the JobClient fetches each block's
//!    (≈150× larger than HAIL's) index header before it can create
//!    splits, delaying job start.

use crate::dataset::{Dataset, DatasetFormat};
use crate::upload::{abandon_on_error, upload_hadoop, upload_seconds};
use bytes::Bytes;
use hail_dfs::{store_transformed_block, DfsCluster};
use hail_index::{IndexKind, IndexMetadata, TrojanIndex};
use hail_pax::ReplicaBytes;
use hail_sim::{ClusterSpec, CostLedger};
use hail_types::bytes_util::{put_u32, ByteReader};
use hail_types::{
    parse_line, BlockId, DataType, DatanodeId, HailError, ParsedRecord, Result, Row, Schema, Value,
};
use std::ops::Range;
use std::sync::Arc;

/// Magic for the Hadoop++ row-layout block ("HPP1").
pub const HPP_MAGIC: u32 = 0x3150_5048;

/// A binary row-layout block with an optional trojan index header.
///
/// Layout: magic, key column (+1, 0 = unindexed), row/bad counts, index
/// length, index bytes, dense per-row u32 offsets, row data (fixed
/// values little-endian, varchars zero-terminated), bad lines.
///
/// Like a PAX block, it reads only verified bytes: opening one verifies
/// the header and the trojan index, and each row, offset and the bad
/// section are verified when first read.
#[derive(Debug, Clone)]
pub struct RowBlock {
    key_column: Option<usize>,
    index: Option<TrojanIndex>,
    row_count: usize,
    offsets_start: usize,
    rows_start: usize,
    bad_count: usize,
    replica: Arc<ReplicaBytes>,
}

/// Serializes rows (already sorted if `index` is present) into the
/// Hadoop++ block format.
pub fn encode_row_block(
    schema: &Schema,
    rows: &[Row],
    bad: &[String],
    key_column: Option<usize>,
) -> Result<Bytes> {
    let index_bytes = match key_column {
        Some(col) => {
            let keys: Vec<Value> = rows
                .iter()
                .map(|r| {
                    r.get(col)
                        .cloned()
                        .ok_or(HailError::UnknownAttribute(col + 1))
                })
                .collect::<Result<_>>()?;
            let dtype = schema.field(col)?.data_type;
            TrojanIndex::build(col, dtype, &keys).to_bytes()?
        }
        None => Vec::new(),
    };

    let mut buf = Vec::new();
    put_u32(&mut buf, HPP_MAGIC);
    put_u32(&mut buf, key_column.map(|c| c as u32 + 1).unwrap_or(0));
    put_u32(&mut buf, rows.len() as u32);
    put_u32(&mut buf, bad.len() as u32);
    put_u32(&mut buf, index_bytes.len() as u32);
    buf.extend_from_slice(&index_bytes);

    // Dense row offsets (what makes random access in row layout cheap).
    let offsets_pos = buf.len();
    for _ in rows {
        put_u32(&mut buf, 0);
    }
    let rows_start = buf.len();
    for (i, row) in rows.iter().enumerate() {
        let off = (buf.len() - rows_start) as u32;
        buf[offsets_pos + i * 4..offsets_pos + i * 4 + 4].copy_from_slice(&off.to_le_bytes());
        for v in row.values() {
            match v {
                Value::Int(x) | Value::Date(x) => buf.extend_from_slice(&x.to_le_bytes()),
                Value::Long(x) => buf.extend_from_slice(&x.to_le_bytes()),
                Value::Float(x) => buf.extend_from_slice(&x.to_bits().to_le_bytes()),
                Value::Str(s) => {
                    buf.extend_from_slice(s.as_bytes());
                    buf.push(0);
                }
            }
        }
    }
    for line in bad {
        buf.extend_from_slice(line.as_bytes());
        buf.push(0);
    }
    Ok(Bytes::from(buf))
}

impl RowBlock {
    /// Parses a serialized Hadoop++ block from bytes the caller vouches
    /// for: [`RowBlock::open`] over [`ReplicaBytes::trusted`].
    pub fn parse(bytes: Bytes) -> Result<RowBlock> {
        RowBlock::open(ReplicaBytes::trusted(bytes))
    }

    /// Opens a stored block, verifying and parsing its header and trojan
    /// index.
    pub fn open(replica: ReplicaBytes) -> Result<RowBlock> {
        let len = replica.len();
        replica.verify(0..len.min(20))?;
        let bytes = replica.data();
        let mut r = ByteReader::new(bytes);
        let magic = r.u32()?;
        if magic != HPP_MAGIC {
            return Err(HailError::Corrupt(format!("bad HPP magic {magic:#010x}")));
        }
        let key_raw = r.u32()? as usize;
        let key_column = key_raw.checked_sub(1);
        let row_count = r.u32()? as usize;
        let bad_count = r.u32()? as usize;
        let index_len = r.u32()? as usize;
        let index_start = r.position();
        if index_start + index_len > len {
            return Err(HailError::Corrupt("truncated trojan index".into()));
        }
        let index = if index_len > 0 {
            replica.verify(index_start..index_start + index_len)?;
            Some(TrojanIndex::from_bytes(
                &bytes[index_start..index_start + index_len],
            )?)
        } else {
            None
        };
        let offsets_start = index_start + index_len;
        let rows_start = offsets_start + row_count * 4;
        if rows_start > len {
            return Err(HailError::Corrupt("truncated row offsets".into()));
        }
        Ok(RowBlock {
            key_column,
            index,
            row_count,
            offsets_start,
            rows_start,
            bad_count,
            replica: Arc::new(replica),
        })
    }

    pub fn row_count(&self) -> usize {
        self.row_count
    }

    pub fn bad_count(&self) -> usize {
        self.bad_count
    }

    pub fn key_column(&self) -> Option<usize> {
        self.key_column
    }

    pub fn index(&self) -> Option<&TrojanIndex> {
        self.index.as_ref()
    }

    /// Size of the header the JobClient must read at split time (index +
    /// fixed fields).
    pub fn header_bytes(&self) -> usize {
        self.offsets_start
    }

    /// Total serialized size.
    pub fn byte_len(&self) -> usize {
        self.replica.len()
    }

    /// Verifies `range` of the block and lends its bytes.
    fn verified(&self, range: Range<usize>) -> Result<&[u8]> {
        self.replica.verify(range.clone())?;
        Ok(&self.replica.data()[range])
    }

    /// Where row `row` starts in the block (`row < row_count`).
    fn row_offset(&self, row: usize) -> Result<usize> {
        let at = self.offsets_start + row * 4;
        let offset = u32::from_le_bytes(self.verified(at..at + 4)?.try_into().expect("4 bytes"));
        Ok(self.rows_start + offset as usize)
    }

    /// The bytes from row `row`'s start to the next row's — or, for the
    /// last row, to the end of the block, bad section included.
    fn row_bytes(&self, row: usize) -> Result<&[u8]> {
        let start = self.row_offset(row)?;
        let end = if row + 1 < self.row_count {
            self.row_offset(row + 1)?
        } else {
            self.replica.len()
        };
        if start > end {
            return Err(HailError::Corrupt(format!(
                "row {row} spans bytes {start}..{end}"
            )));
        }
        self.verified(start..end)
    }

    /// Decodes one full row.
    pub fn row(&self, schema: &Schema, row: usize) -> Result<Row> {
        if row >= self.row_count {
            return Err(HailError::Corrupt(format!("row {row} out of range")));
        }
        let mut r = ByteReader::new(self.row_bytes(row)?);
        let mut values = Vec::with_capacity(schema.len());
        for f in schema.fields() {
            values.push(match f.data_type {
                DataType::Int => Value::Int(r.i32()?),
                DataType::Date => Value::Date(r.i32()?),
                DataType::Long => Value::Long(r.i64()?),
                DataType::Float => Value::Float(r.f64()?),
                DataType::VarChar => Value::Str(
                    String::from_utf8(r.cstr()?.to_vec())
                        .map_err(|_| HailError::Corrupt("bad UTF-8 in row".into()))?,
                ),
            });
        }
        Ok(Row::new(values))
    }

    /// Byte length of the row range `[start, end)` — what an index scan
    /// reads from disk.
    pub fn row_range_bytes(&self, schema: &Schema, start: usize, end: usize) -> Result<usize> {
        if start >= end || start >= self.row_count {
            return Ok(0);
        }
        let end = end.min(self.row_count);
        let from = self.row_offset(start)?;
        let to = if end == self.row_count {
            self.rows_end(schema)?
        } else {
            self.row_offset(end)?
        };
        Ok(to.saturating_sub(from))
    }

    /// Offset one past the last row (= bad-section start).
    fn rows_end(&self, schema: &Schema) -> Result<usize> {
        let Some(last) = self.row_count.checked_sub(1) else {
            return Ok(self.rows_start);
        };
        // Walk the last row.
        let start = self.row_offset(last)?;
        let mut r = ByteReader::new(self.row_bytes(last)?);
        for f in schema.fields() {
            match f.data_type {
                DataType::Int | DataType::Date => {
                    r.i32()?;
                }
                DataType::Long => {
                    r.i64()?;
                }
                DataType::Float => {
                    r.f64()?;
                }
                DataType::VarChar => {
                    r.cstr()?;
                }
            }
        }
        Ok(start + r.position())
    }

    /// The stored bad-record lines.
    pub fn bad_records(&self, schema: &Schema) -> Result<Vec<String>> {
        let start = self.rows_end(schema)?;
        let bad = self.verified(start..self.replica.len())?;
        let mut r = ByteReader::new(bad);
        // Every record ends in its own terminator: no more records than
        // bytes, whatever the header's count says.
        let mut out = Vec::with_capacity(self.bad_count.min(bad.len()));
        for _ in 0..self.bad_count {
            out.push(
                String::from_utf8(r.cstr()?.to_vec())
                    .map_err(|_| HailError::Corrupt("bad UTF-8 in bad record".into()))?,
            );
        }
        Ok(out)
    }
}

/// Breakdown of a Hadoop++ upload: text upload plus the indexing jobs.
#[derive(Debug, Clone)]
pub struct HppUploadReport {
    pub text_upload_seconds: f64,
    /// Data-movement seconds of each post-upload MR job.
    pub job_data_seconds: Vec<f64>,
    /// Framework seconds (task scheduling waves) of each job.
    pub job_framework_seconds: Vec<f64>,
}

impl HppUploadReport {
    pub fn total_seconds(&self) -> f64 {
        self.text_upload_seconds
            + self.job_data_seconds.iter().sum::<f64>()
            + self.job_framework_seconds.iter().sum::<f64>()
    }
}

/// Framework time of one MR job over `blocks` tasks: startup plus map
/// and reduce scheduling waves.
fn job_framework_seconds(spec: &ClusterSpec, blocks: usize) -> f64 {
    let slots = spec.total_map_slots().max(1);
    let waves = (blocks as f64 / slots as f64).ceil();
    // Map wave + reduce wave, both paying per-task overhead.
    spec.profile.job_startup_s + 2.0 * waves * spec.profile.task_overhead_s
}

/// Uploads a dataset the Hadoop++ way: HDFS text upload, then two
/// MapReduce jobs (binary conversion; sorting + trojan-index creation).
/// With `key_column = None` only the conversion job runs (the paper's
/// "0 indexes" Hadoop++ configuration).
///
/// The staged text and binary copies stay registered after a successful
/// upload. A failed one abandons every block it registered, staged or
/// final, so the namenode names none of them; their replica files stay
/// on the datanodes as orphans, which HDFS deletes later.
pub fn upload_hadoop_plus_plus(
    cluster: &mut DfsCluster,
    spec: &ClusterSpec,
    schema: &Schema,
    name: &str,
    node_texts: &[(DatanodeId, String)],
    key_column: Option<usize>,
) -> Result<(Dataset, HppUploadReport)> {
    abandon_on_error(cluster, |cluster| {
        // Phase 0: plain HDFS upload of the text.
        let text_ds = upload_hadoop(cluster, schema, name, node_texts)?;
        let text_upload_seconds = upload_seconds(cluster, spec);
        cluster.reset_ledgers();

        // Job 1: convert every block to binary row layout (unsorted, no
        // index yet), written back with full replication + shuffle
        // materialization.
        let delimiter = cluster.config().delimiter;
        let mut binary_blocks: Vec<BlockId> = Vec::new();
        for &text_block in &text_ds.blocks {
            let hosts = cluster.namenode().get_hosts(text_block)?;
            let reader = hosts[0];
            let mut ledger = CostLedger::new();
            let raw = cluster
                .datanode(reader)?
                .read_replica(text_block, &mut ledger)?;
            ledger.parse_cpu += raw.len() as u64;
            let text = std::str::from_utf8(&raw)
                .map_err(|_| HailError::Corrupt("text block is not UTF-8".into()))?;
            let mut rows = Vec::new();
            let mut bad = Vec::new();
            for line in text.lines() {
                match parse_line(line, schema, delimiter) {
                    ParsedRecord::Good(r) => rows.push(r),
                    ParsedRecord::Bad { line, .. } => bad.push(line),
                }
            }
            let payload = encode_row_block(schema, &rows, &bad, None)?;
            // Shuffle materialization: map output hits local disk, crosses
            // the network, and is merge-read by the reducer.
            ledger.disk_write += payload.len() as u64;
            ledger.net_sent += payload.len() as u64;
            ledger.disk_read += payload.len() as u64;
            ledger.sort_cpu += payload.len() as u64;
            cluster.datanode_mut(reader)?.add_extra(&ledger);
            binary_blocks.push(store_transformed_block(
                cluster,
                reader,
                payload,
                IndexMetadata::none(),
            )?);
        }
        let mut job_data_seconds = vec![upload_seconds(cluster, spec)];
        let mut job_framework_seconds_v = vec![job_framework_seconds(spec, text_ds.blocks.len())];
        cluster.reset_ledgers();

        // Job 2 (optional): sort each block on the key and attach the trojan
        // index.
        let final_blocks = match key_column {
            None => binary_blocks,
            Some(key) => {
                let mut indexed_blocks = Vec::new();
                for &bin_block in &binary_blocks {
                    let hosts = cluster.namenode().get_hosts(bin_block)?;
                    let reader = hosts[0];
                    let mut ledger = CostLedger::new();
                    let raw = cluster
                        .datanode(reader)?
                        .read_replica(bin_block, &mut ledger)?;
                    let block = RowBlock::parse(raw)?;
                    let mut rows: Vec<Row> = (0..block.row_count())
                        .map(|i| block.row(schema, i))
                        .collect::<Result<_>>()?;
                    let bad = block.bad_records(schema)?;
                    rows.sort_by(|a, b| a.get(key).unwrap().cmp(b.get(key).unwrap()));
                    let payload = encode_row_block(schema, &rows, &bad, Some(key))?;
                    // The index length is the header field just written.
                    let mut header = ByteReader::new(&payload);
                    header.seek(16)?;
                    let index_len = header.u32()? as usize;
                    // Sorting + shuffle materialization.
                    ledger.sort_cpu += payload.len() as u64;
                    ledger.disk_write += payload.len() as u64;
                    ledger.net_sent += payload.len() as u64;
                    ledger.disk_read += payload.len() as u64;
                    cluster.datanode_mut(reader)?.add_extra(&ledger);
                    let meta = IndexMetadata {
                        kind: IndexKind::Trojan,
                        key_column: Some(key),
                        index_bytes: index_len,
                        index_offset: 20,
                        sidecars: Vec::new(),
                    };
                    indexed_blocks.push(store_transformed_block(cluster, reader, payload, meta)?);
                }
                job_data_seconds.push(upload_seconds(cluster, spec));
                job_framework_seconds_v.push(job_framework_seconds(spec, binary_blocks.len()));
                cluster.reset_ledgers();
                indexed_blocks
            }
        };

        Ok((
            Dataset::new(
                name,
                schema.clone(),
                final_blocks,
                DatasetFormat::HadoopPlusPlus,
            ),
            HppUploadReport {
                text_upload_seconds,
                job_data_seconds,
                job_framework_seconds: job_framework_seconds_v,
            },
        ))
    })
}

/// Header size the JobClient reads per block during split computation.
pub fn trojan_header_bytes(cluster: &DfsCluster, block: BlockId) -> Result<usize> {
    let hosts = cluster.namenode().get_hosts(block)?;
    let Some(&h) = hosts.first() else {
        return Err(HailError::UnknownBlock(block));
    };
    let info = cluster.namenode().replica_info(block, h)?;
    // Fixed header fields + the trojan index itself.
    Ok(20 + info.index.index_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_sim::HardwareProfile;
    use hail_types::{Field, StorageConfig};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("ip", DataType::VarChar),
            Field::new("visitDate", DataType::Date),
            Field::new("revenue", DataType::Float),
        ])
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Str(format!("10.0.0.{}", i % 200)),
                    Value::Date((i % 1000) as i32),
                    Value::Float(i as f64 / 10.0),
                ])
            })
            .collect()
    }

    #[test]
    fn row_block_round_trip() {
        let s = schema();
        let rs = rows(50);
        let bytes = encode_row_block(&s, &rs, &["oops".into()], None).unwrap();
        let block = RowBlock::parse(bytes).unwrap();
        assert_eq!(block.row_count(), 50);
        assert_eq!(block.bad_count(), 1);
        assert!(block.index().is_none());
        for (i, expected) in rs.iter().enumerate() {
            assert_eq!(&block.row(&s, i).unwrap(), expected);
        }
        assert_eq!(block.bad_records(&s).unwrap(), vec!["oops".to_string()]);
    }

    #[test]
    fn indexed_row_block() {
        let s = schema();
        let mut rs = rows(100);
        rs.sort_by(|a, b| a.get(1).unwrap().cmp(b.get(1).unwrap()));
        let bytes = encode_row_block(&s, &rs, &[], Some(1)).unwrap();
        let block = RowBlock::parse(bytes).unwrap();
        let idx = block.index().expect("trojan index");
        assert_eq!(idx.key_column(), 1);
        assert!(block.header_bytes() > 20);
    }

    #[test]
    fn row_range_bytes_are_monotonic() {
        let s = schema();
        let rs = rows(40);
        let bytes = encode_row_block(&s, &rs, &[], None).unwrap();
        let block = RowBlock::parse(bytes).unwrap();
        let b1 = block.row_range_bytes(&s, 0, 10).unwrap();
        let b2 = block.row_range_bytes(&s, 0, 20).unwrap();
        assert!(b2 > b1);
        assert_eq!(block.row_range_bytes(&s, 5, 5).unwrap(), 0);
        let all = block.row_range_bytes(&s, 0, 40).unwrap();
        assert!(all < block.byte_len());
    }

    fn node_texts(nodes: usize, rows_per_node: usize) -> Vec<(DatanodeId, String)> {
        (0..nodes)
            .map(|n| {
                let t: String = (0..rows_per_node)
                    .map(|i| {
                        format!(
                            "10.{n}.0.{}|19{:02}-0{}-01|{}.25\n",
                            i % 250,
                            70 + (i % 29),
                            1 + (i % 9),
                            i % 50
                        )
                    })
                    .collect();
                (n, t)
            })
            .collect()
    }

    #[test]
    fn upload_produces_indexed_dataset_and_costs_more() {
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let texts = node_texts(4, 150);

        let mut plain = DfsCluster::new(4, StorageConfig::test_scale(4096));
        upload_hadoop(&mut plain, &schema(), "uv", &texts).unwrap();
        let t_hadoop = upload_seconds(&plain, &spec);

        let mut hpp = DfsCluster::new(4, StorageConfig::test_scale(4096));
        let (ds, report) =
            upload_hadoop_plus_plus(&mut hpp, &spec, &schema(), "uv", &texts, Some(0)).unwrap();
        assert_eq!(ds.format, DatasetFormat::HadoopPlusPlus);
        assert!(!ds.blocks.is_empty());
        assert!(
            report.total_seconds() > 2.0 * t_hadoop,
            "Hadoop++ upload ({:.2}s) must far exceed Hadoop ({t_hadoop:.2}s)",
            report.total_seconds()
        );
        assert_eq!(report.job_data_seconds.len(), 2);

        // Every block's replicas carry the same trojan index on column 0.
        for &b in &ds.blocks {
            let hosts = hpp.namenode().get_hosts(b).unwrap();
            for h in hosts {
                let info = hpp.namenode().replica_info(b, h).unwrap();
                assert_eq!(info.index.kind, IndexKind::Trojan);
                assert_eq!(info.index.key_column, Some(0));
            }
        }
    }

    #[test]
    fn header_bytes_reported() {
        let spec = ClusterSpec::new(4, HardwareProfile::physical());
        let mut c = DfsCluster::new(4, StorageConfig::test_scale(4096));
        let (ds, _) =
            upload_hadoop_plus_plus(&mut c, &spec, &schema(), "uv", &node_texts(2, 200), Some(1))
                .unwrap();
        for &b in &ds.blocks {
            let h = trojan_header_bytes(&c, b).unwrap();
            assert!(h > 20, "header must include the index: {h}");
        }
    }
}
