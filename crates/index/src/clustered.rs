//! The HAIL sparse clustered index (§3.5, Fig. 2).
//!
//! After a block is sorted on the key attribute, the index is a *single
//! large root directory*: one entry per partition of 1,024 values, holding
//! the first key of that partition. All leaves (the partitions of the
//! sorted data column) are contiguous on disk, so all but the first child
//! pointer are implicit — partition `p` starts at `p × partition_bytes`.
//!
//! A range query resolves the first and the last qualifying partition
//! entirely in main memory (steps 1 and 2 in Fig. 2), then reads only
//! those partitions and post-filters — never the full range.
//!
//! The structure resembles a CSB+-tree but is deliberately single-level:
//! for block sizes below ~5 GB a second level would cost an extra disk
//! seek and never pays off (§3.5 "Why not a multi-level tree?").

use hail_pax::PaxBlock;
use hail_types::bytes_util::{put_str, put_u32, ByteReader};
use hail_types::{DataType, HailError, Result, Value, ValueRef};
use std::cmp::Ordering;
use std::ops::Bound;

/// Bounds on the clustered key, as extracted from a query predicate.
///
/// `lo`/`hi` use [`std::ops::Bound`]; a full scan corresponds to
/// `(Unbounded, Unbounded)`.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyBounds {
    pub lo: Bound<Value>,
    pub hi: Bound<Value>,
}

impl KeyBounds {
    /// An exact-match bound (`key = v`).
    pub fn point(v: Value) -> Self {
        KeyBounds {
            lo: Bound::Included(v.clone()),
            hi: Bound::Included(v),
        }
    }

    /// An inclusive range bound (`lo ≤ key ≤ hi`), the paper's
    /// `between(x, y)`.
    pub fn between(lo: Value, hi: Value) -> Self {
        KeyBounds {
            lo: Bound::Included(lo),
            hi: Bound::Included(hi),
        }
    }

    /// `key ≥ v`.
    pub fn at_least(v: Value) -> Self {
        KeyBounds {
            lo: Bound::Included(v),
            hi: Bound::Unbounded,
        }
    }

    /// `key ≤ v`.
    pub fn at_most(v: Value) -> Self {
        KeyBounds {
            lo: Bound::Unbounded,
            hi: Bound::Included(v),
        }
    }

    /// Intersects two bounds: the tightest range satisfying both.
    pub fn intersect(&self, other: &KeyBounds) -> KeyBounds {
        fn tighter_lo(a: &Bound<Value>, b: &Bound<Value>) -> Bound<Value> {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
                (Bound::Included(x), Bound::Included(y)) => Bound::Included(x.max(y).clone()),
                (Bound::Excluded(x), Bound::Excluded(y)) => Bound::Excluded(x.max(y).clone()),
                (Bound::Included(i), Bound::Excluded(e))
                | (Bound::Excluded(e), Bound::Included(i)) => {
                    if e >= i {
                        Bound::Excluded(e.clone())
                    } else {
                        Bound::Included(i.clone())
                    }
                }
            }
        }
        fn tighter_hi(a: &Bound<Value>, b: &Bound<Value>) -> Bound<Value> {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
                (Bound::Included(x), Bound::Included(y)) => Bound::Included(x.min(y).clone()),
                (Bound::Excluded(x), Bound::Excluded(y)) => Bound::Excluded(x.min(y).clone()),
                (Bound::Included(i), Bound::Excluded(e))
                | (Bound::Excluded(e), Bound::Included(i)) => {
                    if e <= i {
                        Bound::Excluded(e.clone())
                    } else {
                        Bound::Included(i.clone())
                    }
                }
            }
        }
        KeyBounds {
            lo: tighter_lo(&self.lo, &other.lo),
            hi: tighter_hi(&self.hi, &other.hi),
        }
    }

    /// True if a key value satisfies the bounds.
    pub fn contains(&self, v: &Value) -> bool {
        self.contains_ref(v.as_ref())
    }

    /// [`KeyBounds::contains`] for a value still borrowed from its block.
    #[inline]
    pub fn contains_ref(&self, v: ValueRef<'_>) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(b) => v.total_cmp(b.as_ref()) != Ordering::Less,
            Bound::Excluded(b) => v.total_cmp(b.as_ref()) == Ordering::Greater,
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(b) => v.total_cmp(b.as_ref()) != Ordering::Greater,
            Bound::Excluded(b) => v.total_cmp(b.as_ref()) == Ordering::Less,
        };
        lo_ok && hi_ok
    }
}

/// The sparse clustered index over one sorted block replica.
///
/// `keys[p]` is the first key value of partition `p`. With the paper's
/// parameters (64 MB block, 4-byte keys, 1,024-value partitions) the whole
/// structure is ≈2 KB — small enough that the record reader reads it
/// entirely into memory before a lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredIndex {
    /// 0-based column the data is sorted and clustered on.
    key_column: usize,
    key_type: DataType,
    /// Values per partition (1,024 in the paper).
    partition_size: usize,
    /// Total number of indexed rows.
    row_count: usize,
    /// First key of each partition, ascending.
    keys: Vec<Value>,
}

impl ClusteredIndex {
    /// Builds the index from a *sorted* key column.
    ///
    /// `sorted_keys` must be the block's key column after the sort step;
    /// this is checked in debug builds.
    pub fn build(
        key_column: usize,
        key_type: DataType,
        partition_size: usize,
        sorted_keys: &[Value],
    ) -> Result<Self> {
        if partition_size == 0 {
            return Err(HailError::Schema("partition size must be positive".into()));
        }
        debug_assert!(
            sorted_keys.windows(2).all(|w| w[0] <= w[1]),
            "clustered index requires sorted keys"
        );
        let keys = sorted_keys
            .iter()
            .step_by(partition_size)
            .cloned()
            .collect();
        Ok(ClusteredIndex {
            key_column,
            key_type,
            partition_size,
            row_count: sorted_keys.len(),
            keys,
        })
    }

    /// Builds the index over a block that is sorted on `key_column`,
    /// reading only the first key of each partition.
    pub fn over_sorted(sorted: &PaxBlock, key_column: usize) -> Result<Self> {
        let mut cursor = sorted.cursor(key_column)?;
        let keys = (0..sorted.row_count())
            .step_by(sorted.partition_size())
            .map(|row| cursor.get(row).map(ValueRef::to_value))
            .collect::<Result<_>>()?;
        Ok(ClusteredIndex {
            key_column,
            key_type: sorted.schema().field(key_column)?.data_type,
            partition_size: sorted.partition_size(),
            row_count: sorted.row_count(),
            keys,
        })
    }

    /// The 0-based key column.
    pub fn key_column(&self) -> usize {
        self.key_column
    }

    /// The key's data type.
    pub fn key_type(&self) -> DataType {
        self.key_type
    }

    /// Number of partitions (index entries).
    pub fn partition_count(&self) -> usize {
        self.keys.len()
    }

    /// Values per partition.
    pub fn partition_size(&self) -> usize {
        self.partition_size
    }

    /// Number of indexed rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Resolves the partitions that may contain keys within `bounds`,
    /// returning an inclusive partition range, or `None` when no
    /// partition can qualify. Pure main-memory binary search.
    pub fn lookup(&self, bounds: &KeyBounds) -> Option<(usize, usize)> {
        if self.keys.is_empty() {
            return None;
        }
        let n = self.keys.len();
        // First partition that may hold a qualifying key. Partition `p`
        // has no key ≥ lo exactly when the *next* partition's first key is
        // still below lo (duplicate first keys across partitions make the
        // naive "last partition starting ≤ lo" wrong).
        let first = match &bounds.lo {
            Bound::Unbounded => 0,
            Bound::Included(lo) => self.keys[1..].partition_point(|k| k < lo),
            Bound::Excluded(lo) => self.keys[1..].partition_point(|k| k <= lo),
        };
        // Last partition: the last one whose first key ≤ hi (inclusive) or
        // < hi (exclusive) — later partitions start beyond the bound.
        let last = match &bounds.hi {
            Bound::Unbounded => n - 1,
            Bound::Included(hi) => {
                let p = self.keys.partition_point(|k| k <= hi);
                if p == 0 {
                    return None; // even partition 0 starts beyond hi
                }
                p - 1
            }
            Bound::Excluded(hi) => {
                let p = self.keys.partition_point(|k| k < hi);
                if p == 0 {
                    return None;
                }
                p - 1
            }
        };
        (first <= last).then_some((first, last))
    }

    /// Inclusive row range covered by a partition range.
    pub fn partition_rows(&self, first: usize, last: usize) -> std::ops::Range<usize> {
        let start = first * self.partition_size;
        let end = ((last + 1) * self.partition_size).min(self.row_count);
        start..end
    }

    /// Serializes the index to its on-disk form; a varchar key longer
    /// than `u16::MAX` bytes has none.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        encode_runs(
            self.key_type,
            self.key_column,
            self.partition_size,
            self.row_count,
            &self.keys,
        )
    }

    /// Parses an index serialized by [`ClusteredIndex::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let key_type = DataType::from_tag(r.u8()?)?;
        let key_column = r.u32()? as usize;
        let partition_size = r.u32()? as usize;
        if partition_size == 0 {
            return Err(HailError::Corrupt("zero partition size in index".into()));
        }
        let row_count = r.u32()? as usize;
        let n_keys = r.u32()? as usize;
        if n_keys != row_count.div_ceil(partition_size) {
            return Err(HailError::Corrupt(format!(
                "index key count {n_keys} inconsistent with {row_count} rows / {partition_size}"
            )));
        }
        // A count read from disk: every key takes at least two bytes.
        let mut keys = Vec::with_capacity(n_keys.min(r.remaining() / 2));
        for _ in 0..n_keys {
            keys.push(read_key(&mut r, key_type)?);
        }
        Ok(ClusteredIndex {
            key_column,
            key_type,
            partition_size,
            row_count,
            keys,
        })
    }

    /// Serialized size in bytes — the "index read" cost of a lookup.
    pub fn byte_len(&self) -> usize {
        encoded_len(&self.keys)
    }
}

/// Serializes a clustered or trojan index, which share one encoding: the
/// key type, the key column, the run length (partition size or
/// granularity), the row count and the first key of every run.
///
/// A varchar key longer than `u16::MAX` bytes has no encoding: it is an
/// error, never a truncated key, so a replica or Hadoop++ block holding
/// such a value fails its build instead of storing a wrong index.
pub(crate) fn encode_runs(
    key_type: DataType,
    key_column: usize,
    run: usize,
    row_count: usize,
    keys: &[Value],
) -> Result<Vec<u8>> {
    let mut buf = Vec::new();
    buf.push(key_type.tag());
    put_u32(&mut buf, key_column as u32);
    put_u32(&mut buf, run as u32);
    put_u32(&mut buf, row_count as u32);
    put_u32(&mut buf, keys.len() as u32);
    for k in keys {
        match k {
            Value::Int(v) | Value::Date(v) => buf.extend_from_slice(&v.to_le_bytes()),
            Value::Long(v) => buf.extend_from_slice(&v.to_le_bytes()),
            Value::Float(v) => buf.extend_from_slice(&v.to_bits().to_le_bytes()),
            Value::Str(s) => put_str(&mut buf, s)?,
        }
    }
    Ok(buf)
}

/// The length of [`encode_runs`] over `keys`, counted without encoding.
pub(crate) fn encoded_len(keys: &[Value]) -> usize {
    let key_bytes: usize = keys
        .iter()
        .map(|k| match k {
            Value::Int(_) | Value::Date(_) => 4,
            Value::Long(_) | Value::Float(_) => 8,
            Value::Str(s) => 2 + s.len(),
        })
        .sum();
    1 + 4 * 4 + key_bytes
}

/// Reads one key of an [`encode_runs`] encoding.
pub(crate) fn read_key(r: &mut ByteReader<'_>, key_type: DataType) -> Result<Value> {
    Ok(match key_type {
        DataType::Int => Value::Int(r.i32()?),
        DataType::Date => Value::Date(r.i32()?),
        DataType::Long => Value::Long(r.i64()?),
        DataType::Float => Value::Float(r.f64()?),
        DataType::VarChar => Value::Str(r.str()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_over(values: &[i32], partition_size: usize) -> ClusteredIndex {
        let keys: Vec<Value> = values.iter().map(|&v| Value::Int(v)).collect();
        ClusteredIndex::build(0, DataType::Int, partition_size, &keys).unwrap()
    }

    #[test]
    fn figure2_example() {
        // Recreate Fig. 2: partitions of 1024 with first keys
        // 42, 1077, 3033, 7080, 9073.
        let firsts = [42, 1077, 3033, 7080, 9073];
        let mut values = Vec::new();
        for (p, &f) in firsts.iter().enumerate() {
            let next = firsts.get(p + 1).copied().unwrap_or(f + 2000);
            for i in 0..1024 {
                // Spread values between this first key and the next.
                values.push(f + ((next - f - 1) as i64 * i as i64 / 1024) as i32);
            }
        }
        let idx = index_over(&values, 1024);
        assert_eq!(idx.partition_count(), 5);
        // Query 1248 < @0 < 2496 (Fig. 2): must touch partitions 1..=1
        // ... first key 1077 ≤ 1248 so partition 1 is the start; 2496 <
        // 3033 so partition 1 is also the end.
        let bounds = KeyBounds {
            lo: Bound::Excluded(Value::Int(1248)),
            hi: Bound::Excluded(Value::Int(2496)),
        };
        assert_eq!(idx.lookup(&bounds), Some((1, 1)));
    }

    #[test]
    fn point_lookup() {
        let values: Vec<i32> = (0..100).map(|i| i * 2).collect(); // 0,2,..198
        let idx = index_over(&values, 10);
        assert_eq!(idx.partition_count(), 10);
        // Key 42 lives in partition 2 (values 40..58).
        assert_eq!(idx.lookup(&KeyBounds::point(Value::Int(42))), Some((2, 2)));
        // Key below all data → partition 0 still must be checked (first
        // key is 0 ≤ -5 is false → p==0 → None).
        assert_eq!(idx.lookup(&KeyBounds::point(Value::Int(-5))), None);
        // Key above all data → last partition checked.
        assert_eq!(idx.lookup(&KeyBounds::point(Value::Int(500))), Some((9, 9)));
    }

    #[test]
    fn range_lookup_spans_partitions() {
        let values: Vec<i32> = (0..100).collect();
        let idx = index_over(&values, 10);
        let b = KeyBounds::between(Value::Int(15), Value::Int(34));
        assert_eq!(idx.lookup(&b), Some((1, 3)));
        assert_eq!(idx.partition_rows(1, 3), 10..40);
    }

    #[test]
    fn unbounded_lookups() {
        let values: Vec<i32> = (0..25).collect();
        let idx = index_over(&values, 10);
        assert_eq!(idx.partition_count(), 3);
        assert_eq!(
            idx.lookup(&KeyBounds::at_least(Value::Int(12))),
            Some((1, 2))
        );
        assert_eq!(idx.lookup(&KeyBounds::at_most(Value::Int(5))), Some((0, 0)));
        let full = KeyBounds {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        };
        assert_eq!(idx.lookup(&full), Some((0, 2)));
        // Last partial partition rows.
        assert_eq!(idx.partition_rows(2, 2), 20..25);
    }

    #[test]
    fn empty_index() {
        let idx = index_over(&[], 10);
        assert_eq!(idx.partition_count(), 0);
        assert_eq!(idx.lookup(&KeyBounds::point(Value::Int(1))), None);
    }

    #[test]
    fn duplicates_across_partition_boundary() {
        // 25 copies of the same key with partition size 10: all three
        // partitions may contain it.
        let values = vec![7i32; 25];
        let idx = index_over(&values, 10);
        assert_eq!(
            idx.lookup(&KeyBounds::point(Value::Int(7))),
            Some((0, 2)),
            "all partitions share first key 7"
        );
    }

    #[test]
    fn serialization_round_trip_int() {
        let values: Vec<i32> = (0..100).map(|i| i * 3).collect();
        let idx = index_over(&values, 16);
        let bytes = idx.to_bytes().unwrap();
        let back = ClusteredIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
        assert_eq!(idx.byte_len(), bytes.len());
    }

    #[test]
    fn serialization_round_trip_varchar() {
        let keys: Vec<Value> = ["alpha", "beta", "gamma", "zeta"]
            .iter()
            .map(|s| Value::Str(s.to_string()))
            .collect();
        let idx = ClusteredIndex::build(2, DataType::VarChar, 2, &keys).unwrap();
        let bytes = idx.to_bytes().unwrap();
        let back = ClusteredIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, idx);
        assert_eq!(idx.byte_len(), bytes.len());
        assert_eq!(
            back.lookup(&KeyBounds::point(Value::Str("beta".into()))),
            Some((0, 0))
        );
    }

    #[test]
    fn from_bytes_rejects_inconsistent_counts() {
        let values: Vec<i32> = (0..30).collect();
        let idx = index_over(&values, 10);
        let mut bytes = idx.to_bytes().unwrap();
        // Corrupt the row count field (offset 1+4+4 = 9).
        bytes[9] ^= 0xFF;
        assert!(ClusteredIndex::from_bytes(&bytes).is_err());
    }

    #[test]
    fn index_is_small() {
        // 1M rows, 4-byte keys, 1024-partition → ~1000 entries ≈ 4 KB +
        // header: the paper's "typically a few KB".
        let values: Vec<i32> = (0..1_000_000).collect();
        let idx = index_over(&values, 1024);
        assert!(
            idx.byte_len() < 8 * 1024,
            "index is {} bytes",
            idx.byte_len()
        );
    }

    #[test]
    fn bounds_contains() {
        let b = KeyBounds::between(Value::Int(1), Value::Int(10));
        assert!(b.contains(&Value::Int(1)));
        assert!(b.contains(&Value::Int(10)));
        assert!(!b.contains(&Value::Int(0)));
        assert!(!b.contains(&Value::Int(11)));
        let e = KeyBounds {
            lo: Bound::Excluded(Value::Int(1)),
            hi: Bound::Excluded(Value::Int(10)),
        };
        assert!(!e.contains(&Value::Int(1)));
        assert!(e.contains(&Value::Int(2)));
        assert!(!e.contains(&Value::Int(10)));
    }
}
