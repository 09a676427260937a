//! Block reorganization: computing sort permutations and rewriting a PAX
//! block in a new sort order.
//!
//! This is the in-memory work each datanode performs during upload
//! (§3.5): sort the key column, derive a *sort index* (permutation), apply
//! it to every other minipage, and write the sorted block. Data is only
//! ever reorganized *within* a block, never across blocks — the property
//! that keeps HAIL's failover identical to HDFS's.
//!
//! [`sort_block`] works on the serialized bytes. Only the key column is
//! read as values (fixed-width keys into a `Vec`, varchar keys as `&str`
//! slices of the block); every other cell is *gathered*: fixed-width
//! cells are copied by the permutation straight into the output region,
//! varchar cells as `value ++ 0` byte slices found through a per-column
//! row-offset table, with the sparse partition offsets emitted on the
//! way. The sorted block is wrapped as a [`PaxBlock`] without parsing
//! back the bytes just written.
//!
//! The row-offset tables do not depend on the sort order, so
//! [`BlockRows`] builds them once per block and every replica's sort
//! borrows them. The naive route over decoded columns —
//! [`PaxBlock::decode_all_columns`], [`sort_permutation`],
//! [`ColumnData::permute`], [`encode_block`](crate::encode_block) — is
//! what the gather is tested against, byte for byte.

use crate::block::{BlockWriter, PaxBlock};
use crate::column::ColumnData;
use crate::cursor::row_starts;
use hail_types::{DataType, HailError, Result, ValueRef};

/// Computes the permutation that stably sorts the given column ascending.
///
/// `perm[i]` is the input row index that lands at output position `i`.
/// Floats use total ordering; the sort is stable so ties keep upload
/// order, which makes re-uploads deterministic.
pub fn sort_permutation(column: &ColumnData) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..column.len()).collect();
    match column {
        ColumnData::Int(v) | ColumnData::Date(v) => {
            perm.sort_by_key(|&i| v[i]);
        }
        ColumnData::Long(v) => perm.sort_by_key(|&i| v[i]),
        ColumnData::Float(v) => perm.sort_by(|&a, &b| v[a].total_cmp(&v[b])),
        ColumnData::Str(v) => perm.sort_by(|&a, &b| v[a].cmp(&v[b])),
    }
    perm
}

/// The rows of one varchar column, located: row `r` is
/// `text[starts[r]..starts[r + 1] - 1]`, and the byte after it its
/// terminator.
#[derive(Debug)]
struct VarcharRows<'a> {
    /// The value data up to the end of the last row, validated once.
    text: &'a str,
    /// `row_count + 1` offsets into `text`.
    starts: Vec<u32>,
}

impl<'a> VarcharRows<'a> {
    /// One terminator pass and one UTF-8 validation over `values`.
    fn locate(values: &'a [u8], rows: usize, what: &str) -> Result<VarcharRows<'a>> {
        let starts = row_starts(values, rows)?;
        let end = starts[rows] as usize;
        let text = std::str::from_utf8(&values[..end])
            .map_err(|_| HailError::Corrupt(format!("invalid UTF-8 in {what}")))?;
        Ok(VarcharRows { text, starts })
    }

    fn value(&self, row: usize) -> &'a str {
        &self.text[self.starts[row] as usize..self.starts[row + 1] as usize - 1]
    }
}

/// A block with every row of every varchar column located — the part of a
/// sort that does not depend on the sort order, so the replicas of one
/// block share it ([`BlockRows::sorted_on`] per replica).
///
/// Locating reads the value data the way [`PaxBlock::decode_column`]
/// does, front to back, and is as strict: a varchar region with fewer
/// terminators than rows, invalid UTF-8 in a value or a damaged bad
/// section is [`HailError::Corrupt`].
#[derive(Debug)]
pub struct BlockRows<'a> {
    block: &'a PaxBlock,
    /// Per column; `None` for the fixed-width ones.
    varchar: Vec<Option<VarcharRows<'a>>>,
    /// The bad section's `bad_count` records, terminators included.
    bad: &'a str,
}

impl<'a> BlockRows<'a> {
    /// Locates the rows of `block`.
    pub fn locate(block: &'a PaxBlock) -> Result<BlockRows<'a>> {
        let rows = block.row_count();
        let offsets_len = block.partition_count() * 4;
        let mut varchar = Vec::with_capacity(block.schema().len());
        for (col, field) in block.schema().fields().iter().enumerate() {
            varchar.push(match field.data_type.fixed_width() {
                Some(_) => None,
                None => Some(VarcharRows::locate(
                    &block.column_slice(col)?[offsets_len..],
                    rows,
                    "varchar column",
                )?),
            });
        }
        let bad = VarcharRows::locate(block.bad_section()?, block.bad_count(), "bad record")?.text;
        Ok(BlockRows {
            block,
            varchar,
            bad,
        })
    }

    /// The stable ascending permutation of the key column: `perm[i]` is
    /// the input row that lands at output position `i`.
    fn permutation(&self, column: usize) -> Result<Vec<usize>> {
        /// Sorting `(key, row)` pairs by key and then row is the stable
        /// sort by key, without the indirection of sorting row numbers.
        fn by_key<K: Copy>(
            keys: impl Iterator<Item = K>,
            cmp: impl Fn(&K, &K) -> std::cmp::Ordering,
        ) -> Vec<usize> {
            let mut pairs: Vec<(K, usize)> = keys.zip(0..).collect();
            pairs.sort_unstable_by(|a, b| cmp(&a.0, &b.0).then(a.1.cmp(&b.1)));
            pairs.into_iter().map(|(_, row)| row).collect()
        }
        let region = self.block.column_slice(column)?;
        Ok(match self.block.schema().field(column)?.data_type {
            DataType::Int | DataType::Date => by_key(
                region
                    .as_chunks::<4>()
                    .0
                    .iter()
                    .map(|c| i32::from_le_bytes(*c)),
                i32::cmp,
            ),
            DataType::Long => by_key(
                region
                    .as_chunks::<8>()
                    .0
                    .iter()
                    .map(|c| i64::from_le_bytes(*c)),
                i64::cmp,
            ),
            DataType::Float => by_key(
                region
                    .as_chunks::<8>()
                    .0
                    .iter()
                    .map(|c| f64::from_bits(u64::from_le_bytes(*c))),
                f64::total_cmp,
            ),
            DataType::VarChar => {
                let rows = self.varchar_rows(column);
                by_key(
                    (0..self.block.row_count()).map(|r| rows.value(r)),
                    |a, b| a.cmp(b),
                )
            }
        })
    }

    /// Column `column` in row order, each value borrowed from the block:
    /// a fixed-width value read off its region, a varchar one off its
    /// located row. Nothing is verified, walked or copied again.
    pub fn values(
        &self,
        column: usize,
    ) -> Result<impl ExactSizeIterator<Item = ValueRef<'a>> + '_> {
        let data_type = self.block.schema().field(column)?.data_type;
        let region = self.block.column_slice(column)?;
        let (fours, eights) = (region.as_chunks::<4>().0, region.as_chunks::<8>().0);
        Ok((0..self.block.row_count()).map(move |row| match data_type {
            DataType::Int => ValueRef::Int(i32::from_le_bytes(fours[row])),
            DataType::Date => ValueRef::Date(i32::from_le_bytes(fours[row])),
            DataType::Long => ValueRef::Long(i64::from_le_bytes(eights[row])),
            DataType::Float => ValueRef::Float(f64::from_bits(u64::from_le_bytes(eights[row]))),
            DataType::VarChar => ValueRef::Str(self.varchar_rows(column).value(row)),
        }))
    }

    fn varchar_rows(&self, column: usize) -> &VarcharRows<'a> {
        self.varchar[column]
            .as_ref()
            .expect("every varchar column is located")
    }

    /// The block with its rows sorted on the given 0-based column, and
    /// the permutation that was applied. Bad records are carried over
    /// verbatim — they have no sort key.
    pub fn sorted_on(&self, column: usize) -> Result<(PaxBlock, Vec<usize>)> {
        let block = self.block;
        let (rows, partition_size) = (block.row_count(), block.partition_size());
        let perm = self.permutation(column)?;
        let offsets_len = block.partition_count() * 4;
        let mut body_len = self.bad.len();
        for (col, varchar) in self.varchar.iter().enumerate() {
            body_len += match varchar {
                None => block.column_byte_len(col)?,
                Some(v) => offsets_len + v.text.len(),
            };
        }
        let mut w = BlockWriter::new(
            block.schema(),
            rows,
            partition_size,
            block.bad_count(),
            body_len,
        )?;
        for (col, field) in block.schema().fields().iter().enumerate() {
            let region = block.column_slice(col)?;
            let out = w.buf();
            match field.data_type {
                DataType::Int | DataType::Date => {
                    gather_fixed(region.as_chunks::<4>().0, &perm, out)
                }
                DataType::Long | DataType::Float => {
                    gather_fixed(region.as_chunks::<8>().0, &perm, out)
                }
                DataType::VarChar => {
                    let v = self.varchar_rows(col);
                    // The sparse offsets sit in front of the values they
                    // point into: leave room, fill it on the way.
                    let offsets_at = out.len();
                    out.resize(offsets_at + offsets_len, 0);
                    let values_at = out.len();
                    let text = v.text.as_bytes();
                    for (p, partition) in perm.chunks(partition_size).enumerate() {
                        let pos = (out.len() - values_at) as u32;
                        out[offsets_at + p * 4..][..4].copy_from_slice(&pos.to_le_bytes());
                        for &row in partition {
                            let (start, end) = (v.starts[row] as usize, v.starts[row + 1] as usize);
                            out.extend_from_slice(&text[start..end]);
                        }
                    }
                }
            }
            w.end_region();
        }
        w.buf().extend_from_slice(self.bad.as_bytes());
        w.end_region();
        Ok((w.into_block(block.schema().clone())?, perm))
    }
}

/// Copies the `W`-byte cells of a fixed-width region in `perm` order.
fn gather_fixed<const W: usize>(cells: &[[u8; W]], perm: &[usize], out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + perm.len() * W, 0);
    for (cell, &row) in out[at..].as_chunks_mut::<W>().0.iter_mut().zip(perm) {
        *cell = cells[row];
    }
}

/// Rewrites a block with its rows sorted on the given 0-based column.
///
/// Returns the sorted block and the permutation that was applied (the
/// clustered-index builder reads the sorted key column from the new
/// block directly). One sort of one block; replicas of the same block
/// share a [`BlockRows`].
pub fn sort_block(block: &PaxBlock, sort_column: usize) -> Result<(PaxBlock, Vec<usize>)> {
    if sort_column >= block.schema().len() {
        return Err(HailError::UnknownAttribute(sort_column + 1));
    }
    BlockRows::locate(block)?.sorted_on(sort_column)
}

/// Verifies that a block is sorted ascending on the given column.
/// Used in tests and by the (debug-only) upload pipeline assertions.
pub fn is_sorted_on(block: &PaxBlock, column: usize) -> Result<bool> {
    let col = block.decode_column(column)?;
    for i in 1..col.len() {
        if col.value(i - 1) > col.value(i) {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::blocks_from_text;
    use hail_types::{DataType, Field, Schema, StorageConfig, Value};

    fn block() -> PaxBlock {
        let schema = Schema::new(vec![
            Field::new("name", DataType::VarChar),
            Field::new("score", DataType::Int),
            Field::new("weight", DataType::Float),
        ])
        .unwrap();
        let text = "carol|3|0.3\nalice|1|0.1\neve|5|0.5\nbob|2|0.2\ndave|4|0.4\n";
        blocks_from_text(text, &schema, &StorageConfig::test_scale(1 << 20))
            .unwrap()
            .pop()
            .unwrap()
    }

    #[test]
    fn permutation_sorts() {
        let c = ColumnData::Int(vec![3, 1, 5, 2, 4]);
        assert_eq!(sort_permutation(&c), vec![1, 3, 0, 4, 2]);
    }

    #[test]
    fn permutation_is_stable() {
        let c = ColumnData::Int(vec![2, 1, 2, 1]);
        assert_eq!(sort_permutation(&c), vec![1, 3, 0, 2]);
    }

    #[test]
    fn sort_block_reorders_all_columns() {
        let b = block();
        let (sorted, perm) = sort_block(&b, 1).unwrap();
        assert_eq!(perm, vec![1, 3, 0, 4, 2]);
        assert!(is_sorted_on(&sorted, 1).unwrap());
        // Row integrity: name/score/weight stay together.
        for r in 0..sorted.row_count() {
            let score = match sorted.value(1, r).unwrap() {
                Value::Int(v) => v,
                _ => unreachable!(),
            };
            let name = sorted.value(0, r).unwrap().to_string();
            let expected = ["alice", "bob", "carol", "dave", "eve"][(score - 1) as usize];
            assert_eq!(name, expected);
            let w = sorted.value(2, r).unwrap().as_f64().unwrap();
            assert!((w - score as f64 / 10.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sort_on_varchar() {
        let b = block();
        let (sorted, _) = sort_block(&b, 0).unwrap();
        assert!(is_sorted_on(&sorted, 0).unwrap());
        assert_eq!(sorted.value(0, 0).unwrap(), Value::Str("alice".into()));
        assert_eq!(sorted.value(0, 4).unwrap(), Value::Str("eve".into()));
    }

    #[test]
    fn sort_on_float_total_order() {
        let b = block();
        let (sorted, _) = sort_block(&b, 2).unwrap();
        assert!(is_sorted_on(&sorted, 2).unwrap());
    }

    #[test]
    fn sort_preserves_bad_records() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        let text = "3|30\nnot-a-row\n1|10\n2|20\n";
        let b = blocks_from_text(text, &schema, &StorageConfig::test_scale(1 << 20))
            .unwrap()
            .pop()
            .unwrap();
        let (sorted, _) = sort_block(&b, 0).unwrap();
        assert_eq!(sorted.bad_records().unwrap(), vec!["not-a-row".to_string()]);
        assert!(is_sorted_on(&sorted, 0).unwrap());
    }

    #[test]
    fn sort_unknown_column_errors() {
        let b = block();
        assert!(sort_block(&b, 9).is_err());
    }

    #[test]
    fn unsorted_detected() {
        let b = block();
        assert!(!is_sorted_on(&b, 1).unwrap());
    }
}
