//! Unclustered index — built only for the §3.5 ablation.
//!
//! The paper rejects unclustered indexes for HAIL: they are dense by
//! definition (one entry **per row**), cost 10–20 % extra space
//! (footnote 4), and for non-selective queries their random row accesses
//! lose badly against a clustered scan. This module exists so the
//! ablation bench can measure exactly that trade-off.

use crate::clustered::KeyBounds;
use hail_types::{DataType, HailError, Result, Value};

/// A dense unclustered index: all `(key, rowid)` pairs sorted by key,
/// over a block that stays in upload order.
#[derive(Debug, Clone, PartialEq)]
pub struct UnclusteredIndex {
    key_column: usize,
    key_type: DataType,
    /// Sorted by key; rowid points into the *unsorted* block.
    entries: Vec<(Value, u32)>,
}

impl UnclusteredIndex {
    /// Builds the index from an (unsorted) key column.
    pub fn build(key_column: usize, key_type: DataType, keys: &[Value]) -> Result<Self> {
        if keys.len() > u32::MAX as usize {
            return Err(HailError::Schema("block too large for u32 rowids".into()));
        }
        let mut entries: Vec<(Value, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        Ok(UnclusteredIndex {
            key_column,
            key_type,
            entries,
        })
    }

    pub fn key_column(&self) -> usize {
        self.key_column
    }

    pub fn key_type(&self) -> DataType {
        self.key_type
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rowids (in the unsorted block) of all rows whose key satisfies the
    /// bounds. These accesses are *random I/O* — the cost the paper's
    /// design avoids.
    pub fn lookup_rowids(&self, bounds: &KeyBounds) -> Vec<usize> {
        // Binary search the lower edge, then scan while within bounds.
        let start = match &bounds.lo {
            std::ops::Bound::Unbounded => 0,
            std::ops::Bound::Included(lo) => self.entries.partition_point(|(k, _)| k < lo),
            std::ops::Bound::Excluded(lo) => self.entries.partition_point(|(k, _)| k <= lo),
        };
        self.entries[start..]
            .iter()
            .take_while(|(k, _)| match &bounds.hi {
                std::ops::Bound::Unbounded => true,
                std::ops::Bound::Included(hi) => k <= hi,
                std::ops::Bound::Excluded(hi) => k < hi,
            })
            .map(|(_, r)| *r as usize)
            .collect()
    }

    /// Dense index size: one key + 4-byte rowid per row. The ablation
    /// bench compares this against the sparse clustered index.
    pub fn byte_len(&self) -> usize {
        let key_bytes: usize = self.entries.iter().map(|(k, _)| k.encoded_len()).sum();
        key_bytes + self.entries.len() * 4
    }

    /// Number of distinct disk "seeks" a retrieval of the given rowids
    /// costs, merging adjacent rowids into one sequential run. Already
    /// sorted input (the common case: rowids found by a scan are ascending) is
    /// counted in place without copying.
    pub fn seek_count(rowids: &[usize]) -> usize {
        if rowids.is_empty() {
            return 0;
        }
        if rowids.windows(2).all(|w| w[0] <= w[1]) {
            return 1 + rowids.windows(2).filter(|w| w[1] != w[0] + 1).count();
        }
        let mut sorted = rowids.to_vec();
        sorted.sort_unstable();
        Self::seek_count(&sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustered::ClusteredIndex;

    #[test]
    fn lookup_finds_all_matches() {
        let keys: Vec<Value> = [5, 1, 3, 5, 2, 5].iter().map(|&v| Value::Int(v)).collect();
        let idx = UnclusteredIndex::build(0, DataType::Int, &keys).unwrap();
        let mut hits = idx.lookup_rowids(&KeyBounds::point(Value::Int(5)));
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 3, 5]);
        assert!(idx
            .lookup_rowids(&KeyBounds::point(Value::Int(9)))
            .is_empty());
    }

    #[test]
    fn range_lookup() {
        let keys: Vec<Value> = (0..20).rev().map(Value::Int).collect();
        let idx = UnclusteredIndex::build(0, DataType::Int, &keys).unwrap();
        let hits = idx.lookup_rowids(&KeyBounds::between(Value::Int(3), Value::Int(6)));
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn dense_and_larger_than_clustered() {
        let keys: Vec<Value> = (0..10_000).map(Value::Int).collect();
        let unclustered = UnclusteredIndex::build(0, DataType::Int, &keys).unwrap();
        let clustered = ClusteredIndex::build(0, DataType::Int, 1024, &keys).unwrap();
        assert!(unclustered.byte_len() > 100 * clustered.byte_len());
    }

    #[test]
    fn seek_count_merges_runs() {
        assert_eq!(UnclusteredIndex::seek_count(&[]), 0);
        assert_eq!(UnclusteredIndex::seek_count(&[5]), 1);
        assert_eq!(UnclusteredIndex::seek_count(&[1, 2, 3]), 1);
        assert_eq!(UnclusteredIndex::seek_count(&[1, 3, 4, 9]), 3);
        assert_eq!(UnclusteredIndex::seek_count(&[9, 1, 2]), 2);
    }
}
