//! Bitmap index for low-cardinality domains — one of the paper's
//! explicit extension directions (§3.5: "an interesting direction for
//! future work would be to extend HAIL to support additional indexes …
//! including bitmap indexes for low cardinality domains").
//!
//! One bitmap per distinct value, bits addressed by rowid in the
//! (unsorted or sorted) block. Because a bitmap index needs no
//! particular sort order, it can complement the clustered index on a
//! replica: the clustered index serves its own column, bitmaps serve
//! low-cardinality secondary columns (e.g. `countryCode`,
//! `languageCode`) at a few bits per row.

use crate::{display_str, infallible};
use hail_types::bytes_util::{put_str, put_u32, ByteReader};
use hail_types::{HailError, Result, Value, ValueRef};
use std::collections::BTreeMap;

/// Maximum number of distinct values a column may have before bitmap
/// indexing it stops making sense (the encoded size approaches one word
/// per row-value pair).
pub const DEFAULT_CARDINALITY_LIMIT: usize = 64;

/// A bitmap index over one column of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BitmapIndex {
    column: usize,
    row_count: usize,
    /// Distinct value (as its display string) → bitmap; BTreeMap keeps
    /// serialization deterministic.
    bitmaps: BTreeMap<String, Vec<u64>>,
}

fn words_for(rows: usize) -> usize {
    rows.div_ceil(64)
}

impl BitmapIndex {
    /// Builds the index from a column's values; refuses columns whose
    /// cardinality exceeds `cardinality_limit`.
    pub fn build(column: usize, values: &[Value], cardinality_limit: usize) -> Result<BitmapIndex> {
        Self::build_if_low_cardinality(column, values, cardinality_limit).ok_or_else(|| {
            HailError::Schema(format!(
                "column @{} exceeds bitmap cardinality limit {cardinality_limit}",
                column + 1
            ))
        })
    }

    /// Like [`BitmapIndex::build`], but a column exceeding the
    /// cardinality limit yields `None` instead of an error — the upload
    /// pipeline's fallback when a configured column turns out not to be
    /// low-cardinality after all.
    pub fn build_if_low_cardinality(
        column: usize,
        values: &[Value],
        cardinality_limit: usize,
    ) -> Option<BitmapIndex> {
        infallible(Self::from_refs(
            column,
            values.iter().map(|v| Ok(v.as_ref())),
            cardinality_limit,
        ))
    }

    /// Builds the index from a column's values as a reader hands them
    /// out, in rowid order — borrowed from their block, each read
    /// fallible. `None` when the column has more than
    /// `cardinality_limit` distinct values. A display string is only
    /// allocated for the first row of each distinct value.
    pub fn from_refs<'a, E>(
        column: usize,
        values: impl ExactSizeIterator<Item = std::result::Result<ValueRef<'a>, E>>,
        cardinality_limit: usize,
    ) -> std::result::Result<Option<BitmapIndex>, E> {
        let mut bitmaps: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let row_count = values.len();
        let words = words_for(row_count);
        let mut scratch = String::new();
        for (row, v) in values.enumerate() {
            let key = display_str(v?, &mut scratch);
            if !bitmaps.contains_key(key) {
                if bitmaps.len() >= cardinality_limit {
                    return Ok(None);
                }
                bitmaps.insert(key.to_string(), vec![0u64; words]);
            }
            let bm = bitmaps.get_mut(key).expect("present or just inserted");
            bm[row / 64] |= 1 << (row % 64);
        }
        Ok(Some(BitmapIndex {
            column,
            row_count,
            bitmaps,
        }))
    }

    /// The indexed 0-based column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Number of distinct values.
    pub fn cardinality(&self) -> usize {
        self.bitmaps.len()
    }

    /// Number of indexed rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Rowids whose value equals `v` (ascending).
    pub fn rows_equal(&self, v: &Value) -> Vec<usize> {
        match self.bitmaps.get(&v.to_string()) {
            None => Vec::new(),
            Some(bm) => bits_set(bm, self.row_count),
        }
    }

    /// Rowids whose value is any of `values` (bitmap OR, ascending).
    pub fn rows_in(&self, values: &[Value]) -> Vec<usize> {
        let words = words_for(self.row_count);
        let mut acc = vec![0u64; words];
        for v in values {
            if let Some(bm) = self.bitmaps.get(&v.to_string()) {
                for (a, b) in acc.iter_mut().zip(bm) {
                    *a |= b;
                }
            }
        }
        bits_set(&acc, self.row_count)
    }

    /// Rowids matching `a` AND (in another bitmap index over the same
    /// block) `b` — the classic bitmap-intersection query.
    pub fn rows_and(&self, a: &Value, other: &BitmapIndex, b: &Value) -> Result<Vec<usize>> {
        if self.row_count != other.row_count {
            return Err(HailError::Internal(
                "bitmap indexes cover different blocks".into(),
            ));
        }
        let empty = vec![0u64; words_for(self.row_count)];
        let bm_a = self.bitmaps.get(&a.to_string()).unwrap_or(&empty);
        let bm_b = other.bitmaps.get(&b.to_string()).unwrap_or(&empty);
        let acc: Vec<u64> = bm_a.iter().zip(bm_b).map(|(x, y)| x & y).collect();
        Ok(bits_set(&acc, self.row_count))
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes the index.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, self.column as u32);
        put_u32(&mut buf, self.row_count as u32);
        put_u32(&mut buf, self.bitmaps.len() as u32);
        for (key, bm) in &self.bitmaps {
            put_str(&mut buf, key).expect("bitmap key too long");
            for w in bm {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
        buf
    }

    /// Parses a serialized bitmap index.
    pub fn from_bytes(bytes: &[u8]) -> Result<BitmapIndex> {
        let mut r = ByteReader::new(bytes);
        let column = r.u32()? as usize;
        let row_count = r.u32()? as usize;
        let n = r.u32()? as usize;
        let words = words_for(row_count);
        let mut bitmaps = BTreeMap::new();
        for _ in 0..n {
            let key = r.str()?;
            // A count read from disk: no more words than bytes to hold them.
            let mut bm = Vec::with_capacity(words.min(r.remaining() / 8));
            for _ in 0..words {
                bm.push(r.u64()?);
            }
            bitmaps.insert(key, bm);
        }
        Ok(BitmapIndex {
            column,
            row_count,
            bitmaps,
        })
    }
}

fn bits_set(bm: &[u64], row_count: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for (wi, &w) in bm.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            let row = wi * 64 + b;
            if row < row_count {
                out.push(row);
            }
            bits &= bits - 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn country_col(n: usize) -> Vec<Value> {
        const C: [&str; 4] = ["USA", "DEU", "FRA", "BRA"];
        (0..n).map(|i| Value::Str(C[i % 4].into())).collect()
    }

    #[test]
    fn equality_lookup() {
        let idx = BitmapIndex::build(5, &country_col(10), 64).unwrap();
        assert_eq!(idx.cardinality(), 4);
        assert_eq!(idx.rows_equal(&Value::Str("USA".into())), vec![0, 4, 8]);
        assert_eq!(idx.rows_equal(&Value::Str("BRA".into())), vec![3, 7]);
        assert!(idx.rows_equal(&Value::Str("JPN".into())).is_empty());
    }

    #[test]
    fn in_list_is_union() {
        let idx = BitmapIndex::build(5, &country_col(8), 64).unwrap();
        let rows = idx.rows_in(&[Value::Str("USA".into()), Value::Str("DEU".into())]);
        assert_eq!(rows, vec![0, 1, 4, 5]);
    }

    #[test]
    fn and_is_intersection() {
        // Column A: country repeats every 4; column B: parity.
        let a = BitmapIndex::build(0, &country_col(12), 64).unwrap();
        let parity: Vec<Value> = (0..12).map(|i| Value::Int(i % 2)).collect();
        let b = BitmapIndex::build(1, &parity, 64).unwrap();
        // USA rows: 0,4,8 — all even → intersect with parity 0 keeps all.
        let rows = a
            .rows_and(&Value::Str("USA".into()), &b, &Value::Int(0))
            .unwrap();
        assert_eq!(rows, vec![0, 4, 8]);
        let none = a
            .rows_and(&Value::Str("USA".into()), &b, &Value::Int(1))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn cardinality_limit_enforced() {
        let values: Vec<Value> = (0..100).map(Value::Int).collect();
        assert!(BitmapIndex::build(0, &values, 64).is_err());
        assert!(BitmapIndex::build(0, &values, 128).is_ok());
    }

    #[test]
    fn serialization_round_trip() {
        let idx = BitmapIndex::build(6, &country_col(100), 64).unwrap();
        let back = BitmapIndex::from_bytes(&idx.to_bytes()).unwrap();
        assert_eq!(back, idx);
        assert_eq!(idx.byte_len(), idx.to_bytes().len());
    }

    #[test]
    fn compact_for_low_cardinality() {
        // 10,000 rows, 4 distinct values: ~4 bitmaps of 10k bits ≈ 5 KB —
        // far below one rowid per row (40 KB).
        let idx = BitmapIndex::build(0, &country_col(10_000), 64).unwrap();
        assert!(idx.byte_len() < 6 * 1024, "{} bytes", idx.byte_len());
    }

    #[test]
    fn row_boundaries_at_word_edges() {
        // Rows 63, 64, 127, 128 exercise word boundaries.
        let values: Vec<Value> = (0..130)
            .map(|i| Value::Int((i == 63 || i == 64 || i == 127 || i == 128) as i32))
            .collect();
        let idx = BitmapIndex::build(0, &values, 4).unwrap();
        assert_eq!(idx.rows_equal(&Value::Int(1)), vec![63, 64, 127, 128]);
    }

    #[test]
    fn mismatched_blocks_rejected() {
        let a = BitmapIndex::build(0, &country_col(8), 64).unwrap();
        let b = BitmapIndex::build(1, &country_col(9), 64).unwrap();
        assert!(a
            .rows_and(&Value::Str("USA".into()), &b, &Value::Str("USA".into()))
            .is_err());
    }
}
