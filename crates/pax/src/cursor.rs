//! Per-column cursors: the scan kernel's way into a [`PaxBlock`].
//!
//! [`PaxBlock::value`] answers "column `c` of row `r`" from scratch every
//! time, which for a variable-size attribute means seeking the row's
//! partition and walking up to `partition_size - 1` zero-terminated
//! values (§3.5) — per predicate, per projected column, per row. A scan
//! asks for rows in ascending order, so a [`ColumnCursor`] remembers where
//! the last answer ended: it jumps to a partition's sparse offset once and
//! from then on only walks forward, and it hands out a borrowed
//! [`ValueRef`] instead of allocating a `String` per varchar value.
//!
//! A cursor reads only bytes it has verified against the replica's chunk
//! checksums, and verifies only what it reads: a varchar cursor verifies
//! and checks the column's sparse offset list when it opens and a
//! partition's value range when it enters the partition; a fixed-width
//! cursor verifies a chunk when a value first lands in it. Between those
//! points a read costs one range comparison.
//!
//! The cursor trusts the region lengths [`PaxBlock::open`] validated — a
//! fixed-width region is exactly `row_count × width` bytes, a varchar
//! region holds its whole sparse offset list — so the only per-row
//! failures left are the ones only a walk can find: a row past the end, an
//! unterminated value, invalid UTF-8, a chunk that fails its checksum.

use crate::block::{partition_values, PaxBlock};
use crate::checksum::ReplicaBytes;
use hail_types::config::CHUNK_SIZE;
use hail_types::{DataType, HailError, Result, Value, ValueRef};

/// Reads one column of a [`PaxBlock`], a row at a time
/// ([`ColumnCursor::get`]) or a selection of rows at a time
/// ([`ColumnCursor::decode_into`]). Rows may be asked for in any order;
/// ascending order is the cheap one.
#[derive(Debug, Clone)]
pub struct ColumnCursor<'a> {
    dtype: DataType,
    replica: &'a ReplicaBytes,
    /// The column's whole region (fixed width), or the value data behind
    /// its sparse offset list (varchar).
    data: &'a [u8],
    /// Where `data` starts in the replica.
    base: usize,
    /// Varchar only: the sparse offset list, verified and checked when the
    /// cursor opened.
    offsets: &'a [u8],
    row_count: usize,
    partition_size: usize,
    /// `data[checked_start..checked_end]` is verified: the chunks around
    /// the last fixed-width value read, or the value range of the varchar
    /// partition the cursor stands in.
    checked_start: usize,
    checked_end: usize,
    /// Varchar only: the value of row `next_row` starts at byte `pos` of
    /// `data`, inside the partition that ends before row `partition_end`
    /// — before row 0 until the first `get` seeks.
    next_row: usize,
    partition_end: usize,
    pos: usize,
}

impl PaxBlock {
    /// A cursor over column `col` (0-based).
    pub fn cursor(&self, col: usize) -> Result<ColumnCursor<'_>> {
        let dtype = self.schema().field(col)?.data_type;
        let (offsets, (base, len)) = match dtype.fixed_width() {
            Some(_) => (&[][..], self.region(col)?),
            None => self.varchar_offsets(col)?,
        };
        Ok(ColumnCursor {
            dtype,
            replica: self.replica(),
            data: &self.bytes()[base..base + len],
            base,
            offsets,
            row_count: self.row_count(),
            partition_size: self.partition_size(),
            checked_start: 0,
            checked_end: 0,
            next_row: 0,
            partition_end: 0,
            pos: 0,
        })
    }
}

impl<'a> ColumnCursor<'a> {
    /// The value of `row`, borrowed from the block.
    #[inline]
    pub fn get(&mut self, row: usize) -> Result<ValueRef<'a>> {
        self.check_row(row)?;
        Ok(match self.dtype {
            DataType::Int => ValueRef::Int(i32::from_le_bytes(self.fixed(row)?)),
            DataType::Date => ValueRef::Date(i32::from_le_bytes(self.fixed(row)?)),
            DataType::Long => ValueRef::Long(i64::from_le_bytes(self.fixed(row)?)),
            DataType::Float => {
                ValueRef::Float(f64::from_bits(u64::from_le_bytes(self.fixed(row)?)))
            }
            DataType::VarChar => ValueRef::Str(self.varchar(row)?),
        })
    }

    /// Appends the owned values of `rows`, in the order given, to `out`:
    /// the column-at-a-time decode of tuple reconstruction. The column's
    /// type is matched once per call, not once per value, and every row
    /// is read exactly as [`ColumnCursor::get`] reads it — a fixed-width
    /// value through the verified chunk window, a varchar value by
    /// entering its partition through the sparse offset, verifying the
    /// partition's value range, walking forward and checking the value's
    /// UTF-8. The first row that `get` would fail on — past the end,
    /// unterminated, invalid UTF-8, in a chunk that fails its checksum —
    /// fails the call with `get`'s error, leaving the values decoded
    /// before it in `out`.
    pub fn decode_into(&mut self, rows: &[u32], out: &mut Vec<Value>) -> Result<()> {
        out.reserve(rows.len());
        match self.dtype {
            DataType::Int => self.decode_fixed(rows, out, |b| Value::Int(i32::from_le_bytes(b))),
            DataType::Date => self.decode_fixed(rows, out, |b| Value::Date(i32::from_le_bytes(b))),
            DataType::Long => self.decode_fixed(rows, out, |b| Value::Long(i64::from_le_bytes(b))),
            DataType::Float => self.decode_fixed(rows, out, |b| {
                Value::Float(f64::from_bits(u64::from_le_bytes(b)))
            }),
            DataType::VarChar => rows.iter().try_for_each(|&row| {
                let row = row as usize;
                self.check_row(row)?;
                out.push(Value::Str(self.varchar(row)?.to_owned()));
                Ok(())
            }),
        }
    }

    /// [`ColumnCursor::decode_into`] for a `W`-byte type.
    #[inline]
    fn decode_fixed<const W: usize>(
        &mut self,
        rows: &[u32],
        out: &mut Vec<Value>,
        value: impl Fn([u8; W]) -> Value,
    ) -> Result<()> {
        rows.iter().try_for_each(|&row| {
            let row = row as usize;
            self.check_row(row)?;
            out.push(value(self.fixed(row)?));
            Ok(())
        })
    }

    /// A row past the end of the block is corruption, not a panic.
    #[inline]
    fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.row_count {
            return Err(HailError::Corrupt(format!("row {row} out of range")));
        }
        Ok(())
    }

    /// The `row`-th `W`-byte value of a dense fixed-width region, whose
    /// length [`PaxBlock::open`] held to `row_count × W`.
    #[inline]
    fn fixed<const W: usize>(&mut self, row: usize) -> Result<[u8; W]> {
        let start = row * W;
        if start < self.checked_start || start + W > self.checked_end {
            self.check_chunks(start, start + W)?;
        }
        Ok(self.data[start..start + W]
            .try_into()
            .expect("a W-byte slice"))
    }

    /// Verifies the chunks `data[start..end]` lies in and makes them the
    /// checked window.
    #[cold]
    fn check_chunks(&mut self, start: usize, end: usize) -> Result<()> {
        let (from, to) = (self.base + start, self.base + end);
        self.replica.verify(from..to)?;
        let chunks_start = from / CHUNK_SIZE * CHUNK_SIZE;
        let chunks_end = to.div_ceil(CHUNK_SIZE) * CHUNK_SIZE;
        self.checked_start = chunks_start.saturating_sub(self.base);
        self.checked_end = (chunks_end - self.base).min(self.data.len());
        Ok(())
    }

    /// Enters `row`'s partition through its sparse offset — unless the
    /// cursor already stands inside it, at or before `row` — walks forward
    /// to `row`, and validates only the value asked for: exactly the bytes
    /// [`PaxBlock::value`] would return, found without starting over.
    fn varchar(&mut self, row: usize) -> Result<&'a str> {
        if row < self.next_row || row >= self.partition_end {
            let partition = row / self.partition_size;
            let values = partition_values(self.offsets, partition, self.data.len())?;
            self.replica
                .verify(self.base + values.start..self.base + values.end)?;
            (self.checked_start, self.checked_end) = (values.start, values.end);
            self.pos = values.start;
            self.next_row = partition * self.partition_size;
            self.partition_end = self.next_row + self.partition_size;
        }
        self.skip_terminators(row - self.next_row)?;
        self.next_row = row;
        let start = self.pos;
        self.skip_terminators(1)?;
        self.next_row = row + 1;
        std::str::from_utf8(&self.data[start..self.pos - 1])
            .map_err(|_| HailError::Corrupt("invalid UTF-8 in varchar value".into()))
    }

    /// Moves `pos` just past the `n`-th zero byte at or after it, within
    /// the partition, eight bytes per step: the walk over values nobody
    /// asked for is the bulk of a selective scan's work on a varchar
    /// column.
    fn skip_terminators(&mut self, mut n: usize) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let rest = &self.data[self.pos..self.checked_end];
        let mut words = rest.chunks_exact(8);
        let mut skipped = 0;
        for word in &mut words {
            let word = u64::from_le_bytes(
                word.try_into()
                    .expect("chunks_exact(8) yields 8-byte chunks"),
            );
            let mut zeros = zero_bytes(word);
            let count = zeros.count_ones() as usize;
            if count >= n {
                for _ in 1..n {
                    zeros &= zeros - 1;
                }
                self.pos += skipped + zeros.trailing_zeros() as usize / 8 + 1;
                return Ok(());
            }
            n -= count;
            skipped += 8;
        }
        for (i, &b) in words.remainder().iter().enumerate() {
            if b == 0 {
                n -= 1;
                if n == 0 {
                    self.pos += skipped + i + 1;
                    return Ok(());
                }
            }
        }
        Err(HailError::Corrupt(
            "unterminated zero-terminated value".into(),
        ))
    }
}

/// Where each of the first `rows` zero-terminated values of `values`
/// starts, and where the last of them ends: `rows + 1` offsets, one pass
/// over the bytes, eight per step. Fewer terminators than rows is
/// corruption.
pub(crate) fn row_starts(values: &[u8], rows: usize) -> Result<Vec<u32>> {
    // A count read from disk: no more values than bytes to hold them.
    let mut starts = Vec::with_capacity(rows.min(values.len()) + 1);
    starts.push(0u32);
    let mut words = values.chunks_exact(8);
    let mut base = 0;
    for word in &mut words {
        if starts.len() > rows {
            return Ok(starts);
        }
        let word = u64::from_le_bytes(
            word.try_into()
                .expect("chunks_exact(8) yields 8-byte chunks"),
        );
        let mut zeros = zero_bytes(word);
        while zeros != 0 && starts.len() <= rows {
            starts.push((base + zeros.trailing_zeros() as usize / 8 + 1) as u32);
            zeros &= zeros - 1;
        }
        base += 8;
    }
    for (i, &b) in words.remainder().iter().enumerate() {
        if b == 0 && starts.len() <= rows {
            starts.push((base + i + 1) as u32);
        }
    }
    if starts.len() <= rows {
        return Err(HailError::Corrupt(format!(
            "{} zero-terminated values where {rows} are expected",
            starts.len() - 1
        )));
    }
    Ok(starts)
}

/// Bit 7 of every byte of `word` that is zero, and no other bit.
#[inline]
fn zero_bytes(word: u64) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    // Per byte: adding 0x7F to the low seven bits carries into bit 7
    // unless they are all zero, and never into the next byte.
    !(((word & LOW7) + LOW7) | word | LOW7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::encode_block;
    use crate::column::ColumnData;
    use hail_types::{Field, Schema};

    fn block(rows: usize, partition_size: usize) -> PaxBlock {
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("l", DataType::Long),
            Field::new("f", DataType::Float),
            Field::new("d", DataType::Date),
            Field::new("s", DataType::VarChar),
        ])
        .unwrap();
        let words = [
            "",
            "a",
            "żółw",
            "a much longer value than eight bytes",
            "日本",
        ];
        let columns = [
            ColumnData::Int((0..rows as i32).map(|i| i * 7 - 50).collect()),
            ColumnData::Long((0..rows as i64).map(|i| i << 33).collect()),
            ColumnData::Float((0..rows).map(|i| i as f64 / 4.0).collect()),
            ColumnData::Date((0..rows as i32).map(|i| 10_000 - i).collect()),
            ColumnData::Str(
                (0..rows)
                    .map(|i| format!("{}{i}", words[i % words.len()]))
                    .collect(),
            ),
        ];
        let bytes = encode_block(&schema, &columns, &[], partition_size).unwrap();
        PaxBlock::parse(bytes).unwrap()
    }

    /// Whatever order rows are asked for in, a cursor answers what
    /// `PaxBlock::value` answers.
    #[test]
    fn cursor_agrees_with_value_in_any_order() {
        for partition_size in [1, 4, 64] {
            let b = block(151, partition_size);
            let n = b.row_count();
            let orders: [Vec<usize>; 4] = [
                (0..n).collect(),
                (0..n).step_by(7).collect(),
                (0..n).rev().collect(),
                (0..n).map(|i| i * 37 % n).collect(),
            ];
            for col in 0..b.schema().len() {
                for order in &orders {
                    let mut cursor = b.cursor(col).unwrap();
                    for &row in order {
                        assert_eq!(
                            cursor.get(row).unwrap().to_value(),
                            b.value(col, row).unwrap(),
                            "partition size {partition_size}, column {col}, row {row}"
                        );
                        // Asking again is answered again.
                        assert_eq!(
                            cursor.get(row).unwrap().to_value(),
                            b.value(col, row).unwrap()
                        );
                    }
                    assert!(cursor.get(n).is_err());
                }
            }
        }
        assert!(block(0, 4).cursor(4).unwrap().get(0).is_err());
        assert!(block(0, 4).cursor(5).is_err());
    }

    /// A partition is always entered through its sparse offset, also when
    /// the walk arrives at its first row, and is walked only up to the
    /// next partition's offset — so where an offset and the walk
    /// disagree, cursor and `value` still read the same bytes, and the
    /// row the moved offset leaves no room for fails in both.
    #[test]
    fn cursor_enters_every_partition_through_its_offset() {
        let good = block(12, 4);
        let mut raw = good.bytes().to_vec();
        let region = raw.len() - good.column_byte_len(4).unwrap();
        // Partition 1 now starts at row 5's value instead of row 4's.
        let second = u32::from_le_bytes(raw[region + 4..region + 8].try_into().unwrap());
        let row4_len = good.value(4, 4).unwrap().encoded_len() as u32;
        raw[region + 4..region + 8].copy_from_slice(&(second + row4_len).to_le_bytes());
        let b = PaxBlock::parse(bytes::Bytes::from(raw)).unwrap();
        assert_eq!(b.value(4, 4).unwrap(), good.value(4, 5).unwrap());
        let mut cursor = b.cursor(4).unwrap();
        for row in 0..12 {
            let got = cursor.get(row).map(ValueRef::to_value).ok();
            assert_eq!(got, b.value(4, row).ok(), "row {row}");
            assert_eq!(got.is_none(), row == 7, "row {row}");
        }
    }

    /// A cursor reads only chunks it verified, and verifies only the
    /// chunks it reads: a damaged chunk fails exactly the reads that land
    /// in it, and fails them every time.
    #[test]
    fn cursor_verifies_only_the_chunks_it_reads() {
        use crate::checksum::{chunk_checksums, ReplicaBytes};
        use hail_types::config::CHUNK_SIZE;
        use std::sync::Arc;

        let good = block(2_000, 64);
        let bytes = good.bytes().to_vec();
        let (off, len) = good.region(1).unwrap(); // the Long column
        let damaged = off + len / 2;
        let mut raw = bytes.clone();
        raw[damaged] ^= 0x10;
        let replica = Arc::new(
            ReplicaBytes::new(bytes::Bytes::from(raw), chunk_checksums(&bytes).into()).unwrap(),
        );
        let b = PaxBlock::open(Arc::clone(&replica), bytes.len()).unwrap();
        let opened = replica.verified_chunks();
        assert!(opened <= 2, "opening verified {opened} chunks");

        // The rows of the damaged chunk fail; the ones around it read.
        let chunk = damaged / CHUNK_SIZE;
        let in_chunk =
            |row: usize| (off + row * 8..off + row * 8 + 8).any(|at| at / CHUNK_SIZE == chunk);
        let mut longs = b.cursor(1).unwrap();
        for row in 0..b.row_count() {
            match longs.get(row) {
                Ok(v) => {
                    assert!(!in_chunk(row), "row {row}");
                    assert_eq!(v.to_value(), good.value(1, row).unwrap());
                }
                Err(e) => {
                    assert!(in_chunk(row), "row {row}: {e}");
                    assert!(matches!(
                        e,
                        HailError::ChecksumMismatch { chunk_index, .. } if chunk_index == chunk
                    ));
                }
            }
        }
        // One varchar value: the offset list and one partition.
        let before = replica.verified_chunks();
        let mut strings = b.cursor(4).unwrap();
        assert_eq!(
            strings.get(1_000).unwrap().to_value(),
            good.value(4, 1_000).unwrap()
        );
        let (_, varchar_len) = b.region(4).unwrap();
        assert!(replica.verified_chunks() - before < varchar_len / CHUNK_SIZE / 4);
        assert!(replica.verified_chunks() < bytes.len().div_ceil(CHUNK_SIZE));
    }

    /// What a per-row `get` loop over `rows` yields: the values up to
    /// the first failing row, and that row's error.
    fn per_row(cursor: &mut ColumnCursor<'_>, rows: &[u32]) -> (Vec<Value>, Option<String>) {
        let mut values = Vec::new();
        for &row in rows {
            match cursor.get(row as usize) {
                Ok(v) => values.push(v.to_value()),
                Err(e) => return (values, Some(e.to_string())),
            }
        }
        (values, None)
    }

    /// The same through one `decode_into` call.
    fn bulk(cursor: &mut ColumnCursor<'_>, rows: &[u32]) -> (Vec<Value>, Option<String>) {
        let mut values = Vec::new();
        let err = cursor.decode_into(rows, &mut values).err();
        (values, err.map(|e| e.to_string()))
    }

    /// A seeded ascending selection of about one row in `step`.
    fn sparse(rows: usize, step: u64, seed: u64) -> Vec<u32> {
        let mut state = seed;
        (0..rows as u32)
            .filter(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 33).is_multiple_of(step)
            })
            .collect()
    }

    /// The selections the differential tests decode, each named.
    fn selections(n: usize, partition_size: usize, seed: u64) -> Vec<(&'static str, Vec<u32>)> {
        let n32 = n as u32;
        let edge = (2 * partition_size).min(n);
        vec![
            ("empty", vec![]),
            ("all", (0..n32).collect()),
            (
                "run across partition edges",
                (edge.saturating_sub(3)..(edge + partition_size + 3).min(n))
                    .map(|r| r as u32)
                    .collect(),
            ),
            ("sparse", sparse(n, 7, seed)),
            ("last row", vec![n32 - 1]),
            ("past the end", vec![n32]),
            ("rows, then past the end", vec![0, n32 / 2, n32 - 1, n32, 0]),
        ]
    }

    /// One bulk decode answers what a `get` per row answers — the same
    /// values, or the same error after the same prefix — for every
    /// column type, partition size and selection shape.
    #[test]
    fn decode_into_agrees_with_get() {
        for (seed, partition_size) in [(11, 1), (12, 4), (13, 64)] {
            let b = block(151, partition_size);
            for col in 0..b.schema().len() {
                for (name, rows) in selections(b.row_count(), partition_size, seed) {
                    let want = per_row(&mut b.cursor(col).unwrap(), &rows);
                    let got = bulk(&mut b.cursor(col).unwrap(), &rows);
                    assert_eq!(
                        got, want,
                        "partition size {partition_size}, column {col}, {name}"
                    );
                    assert_eq!(
                        want.1.is_some(),
                        name.contains("past the end"),
                        "{name} fails exactly when it runs past the end"
                    );
                }
                // A cursor that has already decoded decodes again.
                let mut cursor = b.cursor(col).unwrap();
                let all: Vec<u32> = (0..b.row_count() as u32).collect();
                let first = bulk(&mut cursor, &all);
                assert_eq!(bulk(&mut cursor, &all), first);
                assert_eq!(
                    bulk(&mut cursor, &[3, 1]),
                    per_row(&mut b.cursor(col).unwrap(), &[3, 1])
                );
            }
        }
    }

    /// With one damaged chunk in every column, a decode fails exactly
    /// when one of its rows is read from that chunk — a fixed-width row
    /// whose bytes lie in it, a varchar row whose partition's value range
    /// does — and the error names that chunk.
    #[test]
    fn decode_into_fails_exactly_on_the_damaged_chunk() {
        use crate::block::partition_values;
        use crate::checksum::{chunk_checksums, ReplicaBytes};
        use std::sync::Arc;

        let good = block(2_000, 64);
        let bytes = good.bytes().to_vec();
        let mut raw = bytes.clone();
        let columns = good.schema().len();
        let damaged: Vec<usize> = (0..columns)
            .map(|col| {
                let (off, len) = good.region(col).unwrap();
                let at = off + len * 3 / 4;
                raw[at] ^= 0x10;
                at / CHUNK_SIZE
            })
            .collect();
        let replica = Arc::new(
            ReplicaBytes::new(bytes::Bytes::from(raw), chunk_checksums(&bytes).into()).unwrap(),
        );
        let b = PaxBlock::open(replica, bytes.len()).unwrap();
        let n = b.row_count();
        for (col, &chunk) in damaged.iter().enumerate() {
            let touches = |row: u32| -> bool {
                let row = row as usize;
                let bytes = match good.schema().field(col).unwrap().data_type.fixed_width() {
                    Some(w) => {
                        let (off, _) = good.region(col).unwrap();
                        off + row * w..off + (row + 1) * w
                    }
                    None => {
                        let (offsets, (base, len)) = good.varchar_offsets(col).unwrap();
                        let values = partition_values(offsets, row / 64, len).unwrap();
                        base + values.start..base + values.end
                    }
                };
                bytes.start / CHUNK_SIZE <= chunk && chunk < bytes.end.div_ceil(CHUNK_SIZE)
            };
            let mut cases = selections(n, 64, 40 + col as u64);
            cases.retain(|(name, _)| !name.contains("past the end"));
            let hit = (0..n as u32).find(|&r| touches(r)).unwrap();
            cases.push(("the damaged chunk's first row", vec![hit]));
            cases.push((
                "every row but the damaged ones",
                (0..n as u32).filter(|&r| !touches(r)).collect(),
            ));
            for (name, rows) in cases {
                let mut values = Vec::new();
                let got = b.cursor(col).unwrap().decode_into(&rows, &mut values);
                let expect_fail = rows.iter().any(|&r| touches(r));
                match got {
                    Ok(()) => {
                        assert!(
                            !expect_fail,
                            "column {col}, {name}: decoded the damaged chunk"
                        );
                        let want: Vec<Value> = rows
                            .iter()
                            .map(|&r| good.value(col, r as usize).unwrap())
                            .collect();
                        assert_eq!(values, want, "column {col}, {name}");
                    }
                    Err(e) => {
                        assert!(expect_fail, "column {col}, {name}: {e}");
                        assert!(
                            matches!(e, HailError::ChecksumMismatch { chunk_index, .. } if chunk_index == chunk),
                            "column {col}, {name}: {e}"
                        );
                    }
                }
                assert_eq!(
                    bulk(&mut b.cursor(col).unwrap(), &rows),
                    per_row(&mut b.cursor(col).unwrap(), &rows),
                    "column {col}, {name}"
                );
            }
        }
    }

    /// Where a moved sparse offset leaves a row no room, a bulk decode
    /// fails that row and no other, exactly as `get` does.
    #[test]
    fn decode_into_fails_the_row_a_moved_offset_breaks() {
        let good = block(12, 4);
        let mut raw = good.bytes().to_vec();
        let region = raw.len() - good.column_byte_len(4).unwrap();
        let second = u32::from_le_bytes(raw[region + 4..region + 8].try_into().unwrap());
        let row4_len = good.value(4, 4).unwrap().encoded_len() as u32;
        raw[region + 4..region + 8].copy_from_slice(&(second + row4_len).to_le_bytes());
        let b = PaxBlock::parse(bytes::Bytes::from(raw)).unwrap();
        for row in 0..12u32 {
            let got = bulk(&mut b.cursor(4).unwrap(), &[row]);
            assert_eq!(got, per_row(&mut b.cursor(4).unwrap(), &[row]), "row {row}");
            assert_eq!(got.1.is_some(), row == 7, "row {row}");
        }
        let all: Vec<u32> = (0..12).collect();
        let (values, err) = bulk(&mut b.cursor(4).unwrap(), &all);
        assert!(err.is_some());
        assert_eq!(values.len(), 7);
        assert_eq!((values, err), per_row(&mut b.cursor(4).unwrap(), &all));
    }

    #[test]
    fn zero_bytes_marks_exactly_the_zero_bytes() {
        for (word, want) in [
            (0u64, 0x8080_8080_8080_8080u64),
            (u64::MAX, 0),
            (0x0100_0001_8000_FF7F, 0x0080_8000_0080_0000),
            (0x0101_0101_0101_0100, 0x80),
        ] {
            assert_eq!(zero_bytes(word), want, "{word:#018x}");
        }
    }
}
