//! The Hadoop++ trojan index baseline (§5, \[12\]).
//!
//! Hadoop++ creates one clustered *trojan index* per **logical** block —
//! identical on every replica — and pays for it dearly: after the normal
//! upload, two additional MapReduce jobs re-read the whole dataset,
//! convert it to binary, co-partition, sort and write it back with an
//! index header per block.
//!
//! Structurally the trojan index differs from HAIL's in two ways the
//! paper measures:
//!
//! 1. **Dense directory.** The trojan index stores an entry every
//!    [`TROJAN_GRANULARITY`] values instead of every 1,024, which makes
//!    it two orders of magnitude larger (304 KB vs 2 KB in §6.4.2) —
//!    slower to read before a lookup.
//! 2. **Header reads at split time.** Hadoop++ stores the index in a
//!    block *header* that the JobClient must fetch for every block while
//!    computing splits, delaying job start (§6.4.1: "HAIL does not have
//!    to read any block header to compute input splits while Hadoop++
//!    does").

use crate::clustered::{encode_runs, encoded_len, read_key, KeyBounds};
use hail_types::bytes_util::ByteReader;
use hail_types::{DataType, HailError, Result, Value};

/// Values per trojan-index entry. Chosen so that the trojan index over a
/// paper-scale block (≈670 K values) is ≈150× larger than HAIL's sparse
/// index, matching the measured 304 KB vs 2 KB ratio.
pub const TROJAN_GRANULARITY: usize = 8;

/// A per-logical-block trojan index: a dense sorted directory over the
/// key attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct TrojanIndex {
    key_column: usize,
    key_type: DataType,
    granularity: usize,
    row_count: usize,
    /// First key of every `granularity`-sized run.
    keys: Vec<Value>,
}

impl TrojanIndex {
    /// Builds the index from the block's *sorted* key column, one entry
    /// every [`TROJAN_GRANULARITY`] values.
    pub fn build(key_column: usize, key_type: DataType, sorted_keys: &[Value]) -> TrojanIndex {
        debug_assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
        TrojanIndex {
            key_column,
            key_type,
            granularity: TROJAN_GRANULARITY,
            row_count: sorted_keys.len(),
            keys: sorted_keys
                .iter()
                .step_by(TROJAN_GRANULARITY)
                .cloned()
                .collect(),
        }
    }

    pub fn key_column(&self) -> usize {
        self.key_column
    }

    pub fn granularity(&self) -> usize {
        self.granularity
    }

    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Resolves the inclusive *row* range that may contain qualifying
    /// keys, or `None`.
    pub fn lookup_rows(&self, bounds: &KeyBounds) -> Option<std::ops::Range<usize>> {
        if self.keys.is_empty() {
            return None;
        }
        let first_run = match &bounds.lo {
            std::ops::Bound::Unbounded => 0,
            std::ops::Bound::Included(lo) => self.keys[1..].partition_point(|k| k < lo),
            std::ops::Bound::Excluded(lo) => self.keys[1..].partition_point(|k| k <= lo),
        };
        let last_run = match &bounds.hi {
            std::ops::Bound::Unbounded => self.keys.len() - 1,
            std::ops::Bound::Included(hi) => {
                let p = self.keys.partition_point(|k| k <= hi);
                if p == 0 {
                    return None;
                }
                p - 1
            }
            std::ops::Bound::Excluded(hi) => {
                let p = self.keys.partition_point(|k| k < hi);
                if p == 0 {
                    return None;
                }
                p - 1
            }
        };
        if first_run > last_run {
            return None;
        }
        let start = first_run * self.granularity;
        let end = ((last_run + 1) * self.granularity).min(self.row_count);
        Some(start..end)
    }

    /// Serialized (header) size in bytes. The JobClient reads this much
    /// per block while computing splits.
    pub fn byte_len(&self) -> usize {
        encoded_len(&self.keys)
    }

    /// Serializes the index header; a varchar key longer than
    /// `u16::MAX` bytes has none.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        encode_runs(
            self.key_type,
            self.key_column,
            self.granularity,
            self.row_count,
            &self.keys,
        )
    }

    /// Parses a serialized header.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let key_type = DataType::from_tag(r.u8()?)?;
        let key_column = r.u32()? as usize;
        let granularity = r.u32()? as usize;
        if granularity == 0 {
            return Err(HailError::Corrupt("zero granularity".into()));
        }
        let row_count = r.u32()? as usize;
        let n = r.u32()? as usize;
        if n != row_count.div_ceil(granularity) {
            return Err(HailError::Corrupt(
                "trojan key count inconsistent with row count".into(),
            ));
        }
        // A count read from disk: every key takes at least two bytes.
        let mut keys = Vec::with_capacity(n.min(r.remaining() / 2));
        for _ in 0..n {
            keys.push(read_key(&mut r, key_type)?);
        }
        Ok(TrojanIndex {
            key_column,
            key_type,
            granularity,
            row_count,
            keys,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustered::ClusteredIndex;

    fn keys(n: usize) -> Vec<Value> {
        (0..n as i32).map(Value::Int).collect()
    }

    #[test]
    fn lookup_narrows_to_runs() {
        let idx = TrojanIndex::build(0, DataType::Int, &keys(100));
        let r = idx.lookup_rows(&KeyBounds::point(Value::Int(42))).unwrap();
        assert!(r.contains(&42));
        assert!(r.len() <= 8);
        assert!(idx.lookup_rows(&KeyBounds::point(Value::Int(-1))).is_none());
    }

    #[test]
    fn denser_than_hail_index() {
        let ks = keys(100_000);
        let trojan = TrojanIndex::build(0, DataType::Int, &ks);
        let hail = ClusteredIndex::build(0, DataType::Int, 1024, &ks).unwrap();
        let ratio = trojan.byte_len() as f64 / hail.byte_len() as f64;
        assert!(
            ratio > 50.0,
            "trojan/hail index size ratio {ratio:.0} should be large"
        );
    }

    #[test]
    fn serialization_round_trip() {
        let idx = TrojanIndex::build(2, DataType::Int, &keys(1000));
        let bytes = idx.to_bytes().unwrap();
        let back = TrojanIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
        assert_eq!(idx.byte_len(), bytes.len());
    }

    #[test]
    fn range_lookup() {
        let idx = TrojanIndex::build(0, DataType::Int, &keys(64));
        let r = idx
            .lookup_rows(&KeyBounds::between(Value::Int(10), Value::Int(20)))
            .unwrap();
        assert!(r.start <= 10 && r.end > 20);
        assert!(r.len() <= 24, "range should span at most 3 runs");
    }

    #[test]
    fn empty_index_lookup() {
        let idx = TrojanIndex::build(0, DataType::Int, &[]);
        assert!(idx.lookup_rows(&KeyBounds::point(Value::Int(0))).is_none());
    }
}
