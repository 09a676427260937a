//! Per-block, per-column synopses for block skipping: **zone maps**
//! (min/max) and **Bloom filters**.
//!
//! They are the persisted sidecar kinds: tiny summaries built once at
//! upload, stored next to a replica's primary index, and consulted
//! by the execution layer *before* candidate enumeration, so a block
//! that provably contains no match is never priced and never read —
//! the "decouple the skip decision from the read path" idea from
//! provenance-based data skipping, grafted onto HAIL's per-replica
//! sidecar machinery.
//!
//! Pruning is strictly conservative. Both synopses persist the block's
//! bad-record count alongside the summarized rows: every access path
//! emits bad records unconditionally, so a block with *any* bad
//! records can never be skipped — its synopsis says so and the prune
//! pass backs off. Likewise a missing or unparsable synopsis means "no
//! prune", never "no match".

use crate::clustered::KeyBounds;
use crate::{display_str, infallible};
use hail_types::bytes_util::{put_f64, put_i32, put_i64, put_str, put_u32, ByteReader};
use hail_types::{HailError, Result, Value, ValueRef};
use std::cmp::Ordering;
use std::ops::Bound;

/// Bloom hash count: a fixed `k` keeps the encoding self-describing
/// without tuning knobs; 7 hashes suit ~10 bits/row (false-positive
/// rate under 1%).
const BLOOM_HASHES: u32 = 7;

/// Target Bloom density in bits per summarized row.
const BLOOM_BITS_PER_ROW: usize = 10;

/// Floor on the Bloom bit-array size, so tiny blocks still get a
/// filter with a meaningful false-positive rate.
const BLOOM_MIN_BITS: usize = 64;

/// Serializes one [`Value`] with a leading type tag, the synopsis
/// codec's only polymorphic field. A string longer than `u16::MAX`
/// bytes has no encoding: an error, never a truncated bound, which
/// could prove a block empty that holds a match.
fn put_value(buf: &mut Vec<u8>, v: &Value) -> Result<()> {
    match v {
        Value::Int(x) => {
            buf.push(0);
            put_i32(buf, *x);
        }
        Value::Long(x) => {
            buf.push(1);
            put_i64(buf, *x);
        }
        Value::Float(x) => {
            buf.push(2);
            put_f64(buf, *x);
        }
        Value::Date(x) => {
            buf.push(3);
            put_i32(buf, *x);
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s)?;
        }
    }
    Ok(())
}

/// Parses one tagged [`Value`] written by [`put_value`].
fn read_value(r: &mut ByteReader<'_>) -> Result<Value> {
    match r.u8()? {
        0 => Ok(Value::Int(r.i32()?)),
        1 => Ok(Value::Long(r.i64()?)),
        2 => Ok(Value::Float(r.f64()?)),
        3 => Ok(Value::Date(r.i32()?)),
        4 => Ok(Value::Str(r.str()?)),
        t => Err(HailError::Corrupt(format!("bad synopsis value tag {t}"))),
    }
}

/// A zone map over one column of one block: the column's min and max,
/// plus the row and bad-record counts the prune pass needs to skip
/// soundly.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMapSynopsis {
    column: usize,
    /// `None` iff the block has zero (parsed) rows.
    bounds: Option<(Value, Value)>,
    row_count: usize,
    /// Bad records in the block. Access paths emit bad records
    /// unconditionally, so a nonzero count forbids pruning.
    bad_records: usize,
}

impl ZoneMapSynopsis {
    /// Builds the zone map from a column's (parsed) values.
    pub fn build(column: usize, values: &[Value], bad_records: usize) -> ZoneMapSynopsis {
        infallible(Self::from_refs(
            column,
            values.iter().map(|v| Ok(v.as_ref())),
            bad_records,
        ))
    }

    /// Builds the zone map from a column's values as a reader hands them
    /// out — borrowed from their block, each read fallible. Min and max
    /// do not depend on row order, so one zone map serves every replica
    /// of a block.
    pub fn from_refs<'a, E>(
        column: usize,
        values: impl Iterator<Item = std::result::Result<ValueRef<'a>, E>>,
        bad_records: usize,
    ) -> std::result::Result<ZoneMapSynopsis, E> {
        let mut bounds: Option<(ValueRef<'a>, ValueRef<'a>)> = None;
        let mut row_count = 0;
        for v in values {
            let v = v?;
            row_count += 1;
            bounds = Some(match bounds {
                None => (v, v),
                Some((lo, hi)) => (
                    if v.total_cmp(lo) == Ordering::Less {
                        v
                    } else {
                        lo
                    },
                    if v.total_cmp(hi) == Ordering::Less {
                        hi
                    } else {
                        v
                    },
                ),
            });
        }
        Ok(ZoneMapSynopsis {
            column,
            bounds: bounds.map(|(lo, hi)| (lo.to_value(), hi.to_value())),
            row_count,
            bad_records,
        })
    }

    /// The summarized 0-based column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Number of summarized rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Bad records in the summarized block.
    pub fn bad_records(&self) -> usize {
        self.bad_records
    }

    /// The column's `(min, max)`, or `None` for an empty block.
    pub fn bounds(&self) -> Option<(&Value, &Value)> {
        self.bounds.as_ref().map(|(lo, hi)| (lo, hi))
    }

    /// Whether any summarized value *may* satisfy `bounds` — `false`
    /// means the block provably contains no matching row (on this
    /// column). An empty block overlaps nothing.
    pub fn overlaps(&self, bounds: &KeyBounds) -> bool {
        let Some((min, max)) = &self.bounds else {
            return false;
        };
        let above_lo = match &bounds.lo {
            Bound::Unbounded => true,
            Bound::Included(l) => l <= max,
            Bound::Excluded(l) => l < max,
        };
        let below_hi = match &bounds.hi {
            Bound::Unbounded => true,
            Bound::Included(h) => h >= min,
            Bound::Excluded(h) => h > min,
        };
        above_lo && below_hi
    }

    /// Serializes the zone map; a varchar bound longer than `u16::MAX`
    /// bytes has no encoding.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        put_u32(&mut buf, self.column as u32);
        put_u32(&mut buf, self.row_count as u32);
        put_u32(&mut buf, self.bad_records as u32);
        match &self.bounds {
            None => buf.push(0),
            Some((lo, hi)) => {
                buf.push(1);
                put_value(&mut buf, lo)?;
                put_value(&mut buf, hi)?;
            }
        }
        Ok(buf)
    }

    /// Parses a serialized zone map.
    pub fn from_bytes(bytes: &[u8]) -> Result<ZoneMapSynopsis> {
        let mut r = ByteReader::new(bytes);
        let column = r.u32()? as usize;
        let row_count = r.u32()? as usize;
        let bad_records = r.u32()? as usize;
        let bounds = match r.u8()? {
            0 => None,
            1 => {
                let lo = read_value(&mut r)?;
                let hi = read_value(&mut r)?;
                Some((lo, hi))
            }
            t => {
                return Err(HailError::Corrupt(format!(
                    "bad zone-map bounds marker {t}"
                )))
            }
        };
        Ok(ZoneMapSynopsis {
            column,
            bounds,
            row_count,
            bad_records,
        })
    }
}

/// FNV-1a over `bytes` — a deterministic, dependency-free hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A Bloom filter over one column of one block, for equality and token
/// predicates. Values are hashed by their display string, with double
/// hashing `g_i = h1 + i·h2` deriving `BLOOM_HASHES` probes from two
/// base hashes.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomSynopsis {
    column: usize,
    bits: Vec<u64>,
    row_count: usize,
    /// Bad records in the block; nonzero forbids pruning.
    bad_records: usize,
}

impl BloomSynopsis {
    /// Builds the filter from a column's (parsed) values, sized at
    /// ~`BLOOM_BITS_PER_ROW` bits per row.
    pub fn build(column: usize, values: &[Value], bad_records: usize) -> BloomSynopsis {
        infallible(Self::from_refs(
            column,
            values.iter().map(|v| Ok(v.as_ref())),
            bad_records,
        ))
    }

    /// Builds the filter from a column's values as a reader hands them
    /// out — borrowed from their block, each read fallible. The set bits
    /// do not depend on row order, so one filter serves every replica of
    /// a block.
    pub fn from_refs<'a, E>(
        column: usize,
        values: impl ExactSizeIterator<Item = std::result::Result<ValueRef<'a>, E>>,
        bad_records: usize,
    ) -> std::result::Result<BloomSynopsis, E> {
        let row_count = values.len();
        let bits = (row_count * BLOOM_BITS_PER_ROW).max(BLOOM_MIN_BITS);
        let mut filter = BloomSynopsis {
            column,
            bits: vec![0u64; bits.div_ceil(64)],
            row_count,
            bad_records,
        };
        let mut scratch = String::new();
        for v in values {
            for bit in filter.probes(fnv1a(display_str(v?, &mut scratch).as_bytes())) {
                filter.bits[bit / 64] |= 1 << (bit % 64);
            }
        }
        Ok(filter)
    }

    /// The bit positions of a value whose display string hashes to `h1`:
    /// `(h1 + i·h2) mod 2^64 mod m` for `i` in `0..BLOOM_HASHES`, with `m`
    /// the filter's bit count.
    fn probes(&self, h1: u64) -> impl Iterator<Item = usize> {
        // A second independent base hash: re-fold the first through
        // FNV-1a and force it odd so every probe stride visits all
        // word offsets.
        let h2 = fnv1a(&h1.to_le_bytes()) | 1;
        let m = (self.bits.len() * 64) as u64;
        // Each probe from the one before, without a division: add `h2`
        // mod `m`, and where `h1 + i·h2` wraps past 2^64, take 2^64 mod
        // `m` away again.
        let (step, wrap) = (h2 % m, (u64::MAX % m + 1) % m);
        let (mut x, mut r) = (h1, h1 % m);
        (0..BLOOM_HASHES).map(move |_| {
            let probe = r as usize;
            let carry;
            (x, carry) = x.overflowing_add(h2);
            r += step;
            if r >= m {
                r -= m;
            }
            if carry {
                r = if r >= wrap { r - wrap } else { r + m - wrap };
            }
            probe
        })
    }

    /// The summarized 0-based column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Number of summarized rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Bad records in the summarized block.
    pub fn bad_records(&self) -> usize {
        self.bad_records
    }

    /// Whether `v` *may* be in the summarized column — `false` means it
    /// is provably absent. An empty block contains nothing.
    pub fn might_contain(&self, v: &Value) -> bool {
        if self.row_count == 0 {
            return false;
        }
        self.probes(fnv1a(
            display_str(v.as_ref(), &mut String::new()).as_bytes(),
        ))
        .all(|bit| self.bits[bit / 64] & (1 << (bit % 64)) != 0)
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, self.column as u32);
        put_u32(&mut buf, self.row_count as u32);
        put_u32(&mut buf, self.bad_records as u32);
        put_u32(&mut buf, self.bits.len() as u32);
        for w in &self.bits {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    /// Parses a serialized Bloom filter.
    pub fn from_bytes(bytes: &[u8]) -> Result<BloomSynopsis> {
        let mut r = ByteReader::new(bytes);
        let column = r.u32()? as usize;
        let row_count = r.u32()? as usize;
        let bad_records = r.u32()? as usize;
        let words = r.u32()? as usize;
        // A count read from disk: no more words than bytes to hold them.
        let mut bits = Vec::with_capacity(words.min(r.remaining() / 8));
        for _ in 0..words {
            bits.push(r.u64()?);
        }
        if bits.is_empty() {
            return Err(HailError::Corrupt("empty Bloom bit array".into()));
        }
        Ok(BloomSynopsis {
            column,
            bits,
            row_count,
            bad_records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stepping from probe to probe lands where the product form does,
    /// for filter sizes that do and do not divide 2^64 and hashes whose
    /// probes wrap past it.
    #[test]
    fn probes_are_the_product_form() {
        let mut h = 0x5EED_B100_0F17_7E55u64;
        for words in [1, 2, 3, 5, 7, 63, 100, 1 << 10, 12_345, 1 << 20] {
            let filter = BloomSynopsis {
                column: 0,
                bits: vec![0; words],
                row_count: 1,
                bad_records: 0,
            };
            let m = words as u64 * 64;
            for k in 0..2_000u64 {
                h = fnv1a(&h.to_le_bytes()).rotate_left(k as u32 % 64);
                for h1 in [h, u64::MAX - k, k, h | 1 << 63] {
                    let h2 = fnv1a(&h1.to_le_bytes()) | 1;
                    let want: Vec<usize> = (0..BLOOM_HASHES as u64)
                        .map(|i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
                        .collect();
                    assert_eq!(
                        filter.probes(h1).collect::<Vec<_>>(),
                        want,
                        "{h1:#x} mod {m}"
                    );
                }
            }
        }
    }

    fn ints(xs: &[i32]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    #[test]
    fn zone_map_bounds_and_counts() {
        let z = ZoneMapSynopsis::build(2, &ints(&[5, -3, 9, 0]), 1);
        assert_eq!(z.column(), 2);
        assert_eq!(z.row_count(), 4);
        assert_eq!(z.bad_records(), 1);
        assert_eq!(z.bounds(), Some((&Value::Int(-3), &Value::Int(9))));
    }

    #[test]
    fn zone_map_overlap_logic() {
        let z = ZoneMapSynopsis::build(0, &ints(&[10, 20, 30]), 0);
        // Disjoint below and above.
        assert!(!z.overlaps(&KeyBounds::at_most(Value::Int(9))));
        assert!(!z.overlaps(&KeyBounds::at_least(Value::Int(31))));
        // Touching endpoints overlap (Included).
        assert!(z.overlaps(&KeyBounds::at_most(Value::Int(10))));
        assert!(z.overlaps(&KeyBounds::at_least(Value::Int(30))));
        // Excluded endpoints at the boundary do not.
        assert!(!z.overlaps(&KeyBounds {
            lo: Bound::Unbounded,
            hi: Bound::Excluded(Value::Int(10)),
        }));
        assert!(!z.overlaps(&KeyBounds {
            lo: Bound::Excluded(Value::Int(30)),
            hi: Bound::Unbounded,
        }));
        // Interior ranges and points.
        assert!(z.overlaps(&KeyBounds::between(Value::Int(15), Value::Int(25))));
        assert!(z.overlaps(&KeyBounds::point(Value::Int(20))));
        // Note: a point *between* stored values still overlaps — zone
        // maps only prove disjointness, the Bloom filter handles gaps.
        assert!(z.overlaps(&KeyBounds::point(Value::Int(15))));
        // Unbounded never prunes.
        assert!(z.overlaps(&KeyBounds {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }));
    }

    #[test]
    fn empty_zone_map_overlaps_nothing() {
        let z = ZoneMapSynopsis::build(0, &[], 0);
        assert_eq!(z.bounds(), None);
        assert!(!z.overlaps(&KeyBounds::point(Value::Int(0))));
        assert!(!z.overlaps(&KeyBounds {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }));
    }

    #[test]
    fn zone_map_round_trip_all_value_types() {
        for values in [
            ints(&[3, 1, 4]),
            vec![Value::Long(-7), Value::Long(1 << 40)],
            vec![Value::Float(0.5), Value::Float(-2.25)],
            vec![Value::Date(100), Value::Date(200)],
            vec![Value::Str("beta".into()), Value::Str("alpha".into())],
            vec![],
        ] {
            let z = ZoneMapSynopsis::build(1, &values, 2);
            let back = ZoneMapSynopsis::from_bytes(&z.to_bytes().unwrap()).unwrap();
            assert_eq!(back, z);
        }
    }

    #[test]
    fn zone_map_rejects_corrupt_bytes() {
        let z = ZoneMapSynopsis::build(0, &ints(&[1, 2]), 0);
        let mut raw = z.to_bytes().unwrap();
        raw[12] = 9; // bounds marker
        assert!(ZoneMapSynopsis::from_bytes(&raw).is_err());
        let mut raw2 = z.to_bytes().unwrap();
        raw2[13] = 250; // value type tag
        assert!(ZoneMapSynopsis::from_bytes(&raw2).is_err());
        assert!(ZoneMapSynopsis::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn bloom_no_false_negatives() {
        let values: Vec<Value> = (0..500).map(|i| Value::Int(i * 3)).collect();
        let b = BloomSynopsis::build(0, &values, 0);
        for v in &values {
            assert!(b.might_contain(v), "false negative for {v:?}");
        }
    }

    #[test]
    fn bloom_rejects_most_absent_values() {
        let values: Vec<Value> = (0..1000).map(Value::Int).collect();
        let b = BloomSynopsis::build(0, &values, 0);
        let false_positives = (1000..3000)
            .filter(|&i| b.might_contain(&Value::Int(i)))
            .count();
        // ~10 bits/row, k=7 → expected rate well under 1%.
        assert!(false_positives < 60, "{false_positives} false positives");
    }

    #[test]
    fn bloom_empty_block_contains_nothing() {
        let b = BloomSynopsis::build(0, &[], 0);
        assert!(!b.might_contain(&Value::Int(0)));
        assert_eq!(b.row_count(), 0);
    }

    #[test]
    fn bloom_round_trip() {
        let values: Vec<Value> = (0..100).map(|i| Value::Str(format!("w{i}"))).collect();
        let b = BloomSynopsis::build(3, &values, 5);
        let back = BloomSynopsis::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.column(), 3);
        assert_eq!(back.bad_records(), 5);
        assert_eq!(b.byte_len(), b.to_bytes().len());
    }

    #[test]
    fn bloom_rejects_corrupt_bytes() {
        assert!(BloomSynopsis::from_bytes(&[0, 1]).is_err());
        // A zero-word bit array is structurally impossible.
        let mut raw = Vec::new();
        put_u32(&mut raw, 0);
        put_u32(&mut raw, 0);
        put_u32(&mut raw, 0);
        put_u32(&mut raw, 0);
        assert!(BloomSynopsis::from_bytes(&raw).is_err());
    }

    #[test]
    fn bloom_is_compact() {
        let values: Vec<Value> = (0..10_000).map(Value::Int).collect();
        let b = BloomSynopsis::build(0, &values, 0);
        // ~10 bits/row → ~12.5 KB plus header.
        assert!(b.byte_len() < 14 * 1024, "{} bytes", b.byte_len());
    }
}
