//! Per-column cursors: the scan kernel's way into a [`PaxBlock`].
//!
//! [`PaxBlock::value`] answers "column `c` of row `r`" from scratch every
//! time, which for a variable-size attribute means seeking the row's
//! partition and walking up to `partition_size - 1` zero-terminated
//! values (§3.5) — per predicate, per projected column, per row. A
//! [`ColumnCursor`] reads a varchar column a partition at a time instead:
//! it enters a partition through its sparse offset and locates where its
//! values start with one terminator pass, eight bytes per step, into a
//! buffer it reuses for the next partition (`find_terminators`, the
//! finder [`crate::BlockRows::locate`] uses too). The pass is lazy — it
//! extends only as far as the rows asked for — and any row of the
//! partition it has located, an earlier one too, is answered from the
//! buffer. UTF-8 is checked once over a stretch of located values, not
//! once per value, and values are handed out as borrowed [`ValueRef`]s
//! instead of a `String` each.
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
//! failures left are a row past the end, a chunk that fails its
//! checksum, and the ones only locating can find: a value the partition
//! holds no terminator for, and invalid UTF-8. Those two fail exactly
//! the reads of the values they damage. A missing terminator leaves the
//! partition one value short, so the rows before it read as before and a
//! row the pass finds no terminator for fails; a stretch that is not
//! valid UTF-8 makes the cursor check each of its values on its own,
//! so a value nobody asks for fails nothing.

use crate::block::{partition_values, PaxBlock};
use crate::checksum::ReplicaBytes;
use hail_types::config::CHUNK_SIZE;
use hail_types::{DataType, HailError, Result, Value, ValueRef};

/// Reads one column of a [`PaxBlock`], a row at a time
/// ([`ColumnCursor::get`]) or a selection of rows at a time
/// ([`ColumnCursor::decode_into`], [`ColumnCursor::retain`]). Rows may be
/// asked for in any order; ascending order is the cheap one.
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
    /// Varchar only: the cursor stands in the partition of rows
    /// `first_row..partition_end` — in none until the first read enters
    /// one.
    first_row: usize,
    partition_end: usize,
    /// Varchar only: where the partition's values located so far start,
    /// as offsets into `data` — value `k` of the partition is
    /// `data[starts[k]..starts[k + 1] - 1]` — and where the terminator
    /// pass that found them stopped.
    starts: Vec<u32>,
    scanned: usize,
    /// Varchar only: a stretch of located values checked as valid UTF-8
    /// at once, which starts at `data[text_start]`. A value inside it is
    /// sliced out of it; any other value is checked when it is asked for.
    text: &'a str,
    text_start: usize,
    /// Varchar only: a located stretch of the partition failed the
    /// check, so its values are checked one at a time from here on.
    text_failed: bool,
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
            first_row: 0,
            partition_end: 0,
            starts: Vec::new(),
            scanned: 0,
            text: "",
            text_start: 0,
            text_failed: false,
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
    /// the column-at-a-time decode of tuple reconstruction. The type is
    /// matched and the rows are checked against the row count once per
    /// call, and a varchar column is read a partition at a time — see
    /// the module docs — but every value is the one
    /// [`ColumnCursor::get`] returns. The first row that `get` would fail
    /// on — past the end, unterminated, invalid UTF-8, in a chunk that
    /// fails its checksum — fails the call with `get`'s error, leaving the
    /// values decoded before it in `out`.
    pub fn decode_into(&mut self, rows: &[u32], out: &mut Vec<Value>) -> Result<()> {
        out.reserve(rows.len());
        self.visit(rows, |_, value| out.push(value.to_value()))
    }

    /// Keeps the rows of `selection` whose value `admits`, in order: a
    /// selection-vector filter, read as [`ColumnCursor::decode_into`]
    /// reads. The first row that [`ColumnCursor::get`] would fail on
    /// fails the call with `get`'s error and leaves `selection` as it
    /// was.
    pub fn retain(
        &mut self,
        selection: &mut Vec<u32>,
        mut admits: impl FnMut(ValueRef<'a>) -> bool,
    ) -> Result<()> {
        let mut kept = Vec::with_capacity(selection.len());
        self.visit(selection, |row, value| {
            if admits(value) {
                kept.push(row);
            }
        })?;
        *selection = kept;
        Ok(())
    }

    /// Calls `f` with each of `rows` and its value, in the order given,
    /// reading every value exactly as [`ColumnCursor::get`] reads it and
    /// failing on the first row `get` would fail on, with `get`'s error.
    /// The type is matched and the rows are checked against the row
    /// count once per call. A varchar column is read a run of rows at a
    /// time: the rows that ascend within one partition are located with
    /// one terminator pass, up to the last of them, and their UTF-8 is
    /// checked as one stretch.
    fn visit(&mut self, rows: &[u32], mut f: impl FnMut(u32, ValueRef<'a>)) -> Result<()> {
        let in_range = rows
            .iter()
            .position(|&row| row as usize >= self.row_count)
            .unwrap_or(rows.len());
        let (rows, past_end) = rows.split_at(in_range);
        match self.dtype {
            DataType::Int => {
                self.visit_fixed(rows, |row, b| f(row, ValueRef::Int(i32::from_le_bytes(b))))
            }
            DataType::Date => {
                self.visit_fixed(rows, |row, b| f(row, ValueRef::Date(i32::from_le_bytes(b))))
            }
            DataType::Long => {
                self.visit_fixed(rows, |row, b| f(row, ValueRef::Long(i64::from_le_bytes(b))))
            }
            DataType::Float => self.visit_fixed(rows, |row, b| {
                f(row, ValueRef::Float(f64::from_bits(u64::from_le_bytes(b))))
            }),
            DataType::VarChar => self.visit_varchar(rows, |row, s| f(row, ValueRef::Str(s))),
        }?;
        past_end
            .first()
            .map_or(Ok(()), |&row| self.check_row(row as usize))
    }

    /// [`ColumnCursor::visit`] for a `W`-byte type.
    #[inline]
    fn visit_fixed<const W: usize>(
        &mut self,
        rows: &[u32],
        mut f: impl FnMut(u32, [u8; W]),
    ) -> Result<()> {
        rows.iter().try_for_each(|&row| {
            f(row, self.fixed(row as usize)?);
            Ok(())
        })
    }

    /// [`ColumnCursor::visit`] for a varchar column.
    #[inline]
    fn visit_varchar(&mut self, rows: &[u32], mut f: impl FnMut(u32, &'a str)) -> Result<()> {
        let mut run = 0;
        while let Some(&first) = rows.get(run) {
            if !(self.first_row..self.partition_end).contains(&(first as usize)) {
                self.enter(first as usize)?;
            }
            let mut end = run + 1;
            while rows
                .get(end)
                .is_some_and(|&row| row >= rows[end - 1] && (row as usize) < self.partition_end)
            {
                end += 1;
            }
            self.locate(rows[end - 1] as usize - self.first_row);
            for &row in &rows[run..end] {
                f(row, self.located(row as usize - self.first_row)?);
            }
            run = end;
        }
        Ok(())
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

    /// The value of `row`: exactly the bytes [`PaxBlock::value`] would
    /// return, found without starting over.
    fn varchar(&mut self, row: usize) -> Result<&'a str> {
        if !(self.first_row..self.partition_end).contains(&row) {
            self.enter(row)?;
        }
        let k = row - self.first_row;
        self.locate(k);
        self.located(k)
    }

    /// Enters `row`'s partition through its sparse offset — also when the
    /// cursor stood in the partition before it — and verifies the
    /// partition's value range. Nothing is located yet.
    fn enter(&mut self, row: usize) -> Result<()> {
        let partition = row / self.partition_size;
        let values = partition_values(self.offsets, partition, self.data.len())?;
        self.replica
            .verify(self.base + values.start..self.base + values.end)?;
        (self.checked_start, self.checked_end) = (values.start, values.end);
        self.first_row = partition * self.partition_size;
        self.partition_end = self.first_row + self.partition_size;
        self.starts.clear();
        self.starts.push(values.start as u32);
        self.scanned = values.start;
        self.text = "";
        self.text_start = values.start;
        self.text_failed = false;
        Ok(())
    }

    /// Extends the terminator pass over the partition's value range until
    /// value `k` of the partition is located, or the range ends.
    #[inline]
    fn locate(&mut self, k: usize) {
        if self.starts.len() <= k + 1 {
            self.scanned = find_terminators(
                &self.data[..self.checked_end],
                self.scanned,
                &mut self.starts,
                k + 2,
            );
        }
    }

    /// Value `k` of the partition, as far as [`ColumnCursor::locate`]
    /// got: a value it found no terminator for is corruption, and so is
    /// a value that is not valid UTF-8. A value past the checked stretch
    /// starts a new one, from the value to the last terminator located;
    /// zero bytes are character boundaries, so every value inside a
    /// valid stretch is valid. Where the stretch is not valid, each value
    /// is checked on its own — a value nobody asks for fails nothing.
    #[inline]
    fn located(&mut self, k: usize) -> Result<&'a str> {
        let (Some(&start), Some(&next)) = (self.starts.get(k), self.starts.get(k + 1)) else {
            return Err(HailError::Corrupt(
                "unterminated zero-terminated value".into(),
            ));
        };
        let (start, end) = (start as usize, next as usize - 1);
        if end >= self.text_start + self.text.len() && !self.text_failed {
            let last = *self
                .starts
                .last()
                .expect("entering locates the first start") as usize;
            match std::str::from_utf8(&self.data[start..last]) {
                Ok(text) => (self.text, self.text_start) = (text, start),
                Err(_) => self.text_failed = true,
            }
        }
        if self.text_start <= start && end < self.text_start + self.text.len() {
            return Ok(&self.text[start - self.text_start..end - self.text_start]);
        }
        std::str::from_utf8(&self.data[start..end])
            .map_err(|_| HailError::Corrupt("invalid UTF-8 in varchar value".into()))
    }
}

/// The terminator finder every varchar read shares: appends to `starts`
/// where the value after each zero byte of `bytes[from..]` starts, in
/// order, until `starts` holds `want` entries or the bytes end, and
/// returns where the pass stopped, so that a later call can go on from
/// there. It reads eight bytes per step and finishes the step it is in,
/// so it may append up to seven entries more than `want`. A step writes
/// its first terminator whether it holds one or not and counts how many
/// it holds; only a step with two or more loops over them.
pub(crate) fn find_terminators(
    bytes: &[u8],
    from: usize,
    starts: &mut Vec<u32>,
    want: usize,
) -> usize {
    let mut found = starts.len();
    if found >= want {
        return from;
    }
    // Room for a whole step past `want` — or past one value per byte
    // left, where `want` is a count read from disk.
    let most = want.min(found + bytes.len() - from);
    starts.resize(most + 8, 0);
    let (words, tail) = bytes[from..].as_chunks::<8>();
    // A value starts one byte past its predecessor's terminator.
    let mut next = from + 1;
    for word in words {
        if found >= want {
            break;
        }
        let zeros = zero_bytes(u64::from_le_bytes(*word));
        // With no zero byte, the top bit stands in: the write is not
        // counted.
        starts[found] = (next + (zeros | 1 << 63).trailing_zeros() as usize / 8) as u32;
        // Bit 7 of each zero byte, moved to bit 0 and summed into the top
        // byte: a count without a population-count instruction.
        let count = ((zeros >> 7).wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize;
        if count > 1 {
            let mut rest = zeros & (zeros - 1);
            for slot in &mut starts[found + 1..found + count] {
                *slot = (next + rest.trailing_zeros() as usize / 8) as u32;
                rest &= rest - 1;
            }
        }
        found += count;
        next += 8;
    }
    starts.truncate(found);
    let mut pos = next - 1;
    if found < want {
        for (i, &b) in tail.iter().enumerate() {
            if b == 0 {
                starts.push((pos + i + 1) as u32);
            }
        }
        pos = bytes.len();
    }
    pos
}

/// Where each of the first `rows` zero-terminated values of `values`
/// starts, and where the last of them ends: `rows + 1` offsets, one pass
/// of [`find_terminators`]. Fewer terminators than rows is corruption.
pub(crate) fn row_starts(values: &[u8], rows: usize) -> Result<Vec<u32>> {
    // A count read from disk: no more values than bytes to hold them.
    let mut starts = Vec::with_capacity(rows.min(values.len()) + 9);
    starts.push(0u32);
    find_terminators(values, 0, &mut starts, rows + 1);
    if starts.len() <= rows {
        return Err(HailError::Corrupt(format!(
            "{} zero-terminated values where {rows} are expected",
            starts.len() - 1
        )));
    }
    starts.truncate(rows + 1);
    Ok(starts)
}

/// Bit 7 of every byte of `word` that is zero, and no other bit.
#[inline]
pub(crate) fn zero_bytes(word: u64) -> u64 {
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

    /// A block like [`block`]'s whose varchar values are seeded: empty
    /// ones, runs of empty ones (a whole step of terminators), one- to
    /// four-byte characters, and values from one byte to past a step.
    fn seeded_block(rows: usize, partition_size: usize, seed: u64) -> PaxBlock {
        const CHARS: [&str; 8] = ["a", "Z", "7", "-", "é", "ж", "日", "🐘"];
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let mut empty_run = 0;
        let strings: Vec<String> = (0..rows)
            .map(|_| {
                if empty_run > 0 {
                    empty_run -= 1;
                    return String::new();
                }
                match next(10) {
                    0 => String::new(),
                    1 => {
                        empty_run = next(12) as usize;
                        String::new()
                    }
                    _ => {
                        let len = next(20) as usize + 1;
                        (0..len).map(|_| CHARS[next(8) as usize]).collect()
                    }
                }
            })
            .collect();
        let schema = Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("l", DataType::Long),
            Field::new("f", DataType::Float),
            Field::new("d", DataType::Date),
            Field::new("s", DataType::VarChar),
        ])
        .unwrap();
        let columns = [
            ColumnData::Int((0..rows as i32).map(|i| i * 7 - 50).collect()),
            ColumnData::Long((0..rows as i64).map(|i| i << 33).collect()),
            ColumnData::Float((0..rows).map(|i| i as f64 / 4.0).collect()),
            ColumnData::Date((0..rows as i32).map(|i| 10_000 - i).collect()),
            ColumnData::Str(strings),
        ];
        let bytes = encode_block(&schema, &columns, &[], partition_size).unwrap();
        PaxBlock::parse(bytes).unwrap()
    }

    /// A seeded predicate on a value, for `retain`.
    fn keeps(value: &Value, seed: u64) -> bool {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (value.to_string(), seed).hash(&mut h);
        !h.finish().is_multiple_of(3)
    }

    /// Seeded: every way a cursor reads a column — `get` a row at a time,
    /// `decode_into` and `retain` a selection at a time — answers what
    /// `PaxBlock::value` answers, for every column type; at partition
    /// sizes 1, 4 and 64, each with a short last partition; over empty,
    /// multibyte and step-long values; for dense, sparse, run-across-edge
    /// and descending selections, on a fresh cursor and on one cursor
    /// that has read every selection before.
    #[test]
    fn every_read_agrees_with_value() {
        for (seed, partition_size) in [(21, 1), (22, 4), (23, 64)] {
            let b = seeded_block(151, partition_size, seed);
            let n = b.row_count();
            let mut shapes = selections(n, partition_size, seed);
            shapes.retain(|(name, _)| !name.contains("past the end"));
            shapes.push(("descending", (0..n as u32).rev().collect()));
            shapes.push((
                "sparse, descending",
                sparse(n, 5, seed).into_iter().rev().collect(),
            ));
            shapes.push((
                "every partition's last row, then its first",
                (0..n)
                    .step_by(partition_size)
                    .flat_map(|p| [(p + partition_size).min(n) - 1, p])
                    .map(|r| r as u32)
                    .collect(),
            ));
            for col in 0..b.schema().len() {
                let value = |r: &u32| b.value(col, *r as usize).unwrap();
                let mut shared = b.cursor(col).unwrap();
                for (name, rows) in &shapes {
                    let at = format!("partition size {partition_size}, column {col}, {name}");
                    let want: Vec<Value> = rows.iter().map(value).collect();
                    let kept: Vec<u32> = rows
                        .iter()
                        .copied()
                        .filter(|r| keeps(&value(r), seed))
                        .collect();
                    for cursor in [&mut b.cursor(col).unwrap(), &mut shared] {
                        let got: Vec<Value> = rows
                            .iter()
                            .map(|&r| cursor.get(r as usize).unwrap().to_value())
                            .collect();
                        assert_eq!(got, want, "get, {at}");
                        let mut out = Vec::new();
                        cursor.decode_into(rows, &mut out).unwrap();
                        assert_eq!(out, want, "decode_into, {at}");
                        let mut selection = rows.clone();
                        cursor
                            .retain(&mut selection, |v| keeps(&v.to_value(), seed))
                            .unwrap();
                        assert_eq!(selection, kept, "retain, {at}");
                    }
                }
            }
        }
    }

    /// Where varchar value `row` of column `col` lies in the block's
    /// bytes, without its terminator.
    fn value_range(b: &PaxBlock, col: usize, row: usize) -> std::ops::Range<usize> {
        let (offsets, (base, len)) = b.varchar_offsets(col).unwrap();
        let first = row / b.partition_size() * b.partition_size();
        let start = base
            + partition_values(offsets, row / b.partition_size(), len)
                .unwrap()
                .start
            + (first..row)
                .map(|r| b.value(col, r).unwrap().encoded_len())
                .sum::<usize>();
        start..start + b.value(col, row).unwrap().encoded_len() - 1
    }

    /// Each row read alone on a fresh cursor, each on one cursor that
    /// reads them in order, and what `PaxBlock::value` says: the three
    /// must agree, value or error.
    fn read_alone_and_in_order(
        b: &PaxBlock,
        col: usize,
    ) -> Vec<std::result::Result<Value, String>> {
        let mut in_order = b.cursor(col).unwrap();
        (0..b.row_count())
            .map(|row| {
                let want = b.value(col, row).map_err(|e| e.to_string());
                let alone = b.cursor(col).unwrap().get(row).map(ValueRef::to_value);
                assert_eq!(alone.map_err(|e| e.to_string()), want, "row {row} alone");
                let ordered = in_order.get(row).map(ValueRef::to_value);
                assert_eq!(
                    ordered.map_err(|e| e.to_string()),
                    want,
                    "row {row} in order"
                );
                want
            })
            .collect()
    }

    /// A partition's value range is checked as UTF-8 at once, but an
    /// invalid value fails exactly the reads that ask for it: its
    /// neighbours in the same partition still read — alone, in order,
    /// in a batch that skips it, and after it failed.
    #[test]
    fn invalid_utf8_fails_only_the_reads_of_its_value() {
        let good = block(300, 64);
        let damaged = 100; // inside partition 1, with neighbours on both sides
        let mut raw = good.bytes().to_vec();
        raw[value_range(&good, 4, damaged).start] = 0xFF;
        let b = PaxBlock::parse(bytes::Bytes::from(raw)).unwrap();
        for (row, read) in read_alone_and_in_order(&b, 4).into_iter().enumerate() {
            match read {
                Ok(v) => {
                    assert_ne!(row, damaged);
                    assert_eq!(v, good.value(4, row).unwrap(), "row {row}");
                }
                Err(e) => {
                    assert_eq!(row, damaged);
                    assert!(e.contains("invalid UTF-8"), "{e}");
                }
            }
        }
        let n = b.row_count() as u32;
        let all: Vec<u32> = (0..n).collect();
        let but_damaged: Vec<u32> = (0..n).filter(|&r| r != damaged as u32).collect();
        let want: Vec<Value> = but_damaged
            .iter()
            .map(|&r| good.value(4, r as usize).unwrap())
            .collect();
        // A batch that asks for it fails on it, after the rows before it.
        let (values, err) = bulk(&mut b.cursor(4).unwrap(), &all);
        assert!(err.unwrap().contains("invalid UTF-8"));
        assert_eq!(values[..], want[..damaged]);
        let mut selection = all.clone();
        assert!(b
            .cursor(4)
            .unwrap()
            .retain(&mut selection, |_| true)
            .is_err());
        assert_eq!(selection, all, "a failed retain leaves the selection");
        // One that does not ask for it reads everything else, also on a
        // cursor whose read of it just failed.
        let mut cursor = b.cursor(4).unwrap();
        assert!(cursor.get(damaged).is_err());
        assert_eq!(bulk(&mut cursor, &but_damaged), (want.clone(), None));
        assert_eq!(
            bulk(&mut cursor, &[damaged as u32 + 1, damaged as u32 - 1]),
            (
                vec![
                    good.value(4, damaged + 1).unwrap(),
                    good.value(4, damaged - 1).unwrap()
                ],
                None
            )
        );
        let mut selection = but_damaged.clone();
        cursor.retain(&mut selection, |_| true).unwrap();
        assert_eq!(selection, but_damaged);
    }

    /// A terminator turned into another byte joins two values, so the
    /// partition holds one value fewer than it has rows: the rows before
    /// it read as before, the others read as `PaxBlock::value` reads
    /// them, and the partition's last row fails. No other partition is
    /// touched — also when the lost terminator is the block's last.
    #[test]
    fn missing_terminator_fails_only_rows_at_or_after_it() {
        let good = block(300, 64);
        let n = good.row_count();
        for lost in [100, 127, 64, n - 1] {
            let mut raw = good.bytes().to_vec();
            raw[value_range(&good, 4, lost).end] = b'x';
            let b = PaxBlock::parse(bytes::Bytes::from(raw)).unwrap();
            let partition = lost / 64 * 64..(lost / 64 * 64 + 64).min(n);
            for (row, read) in read_alone_and_in_order(&b, 4).into_iter().enumerate() {
                if row < lost || !partition.contains(&row) {
                    assert_eq!(
                        read,
                        Ok(good.value(4, row).unwrap()),
                        "lost {lost}, row {row}"
                    );
                } else if row == partition.end - 1 {
                    let e = read.unwrap_err();
                    assert!(e.contains("unterminated"), "lost {lost}: {e}");
                } else {
                    assert!(read.is_ok(), "lost {lost}, row {row}");
                }
            }
            let all: Vec<u32> = (0..n as u32).collect();
            let (values, err) = bulk(&mut b.cursor(4).unwrap(), &all);
            assert_eq!(values.len(), partition.end - 1, "lost {lost}");
            assert!(err.unwrap().contains("unterminated"));
            let before: Vec<u32> = (0..lost as u32).collect();
            let mut selection = before.clone();
            b.cursor(4)
                .unwrap()
                .retain(&mut selection, |_| true)
                .unwrap();
            assert_eq!(selection, before);
        }
    }

    /// A batch `retain` that lands in a chunk failing its checksum fails
    /// with the error `get` fails with, naming the same chunk; one that
    /// does not keeps exactly the rows `value` would.
    #[test]
    fn retain_fails_on_the_damaged_chunk_as_get_does() {
        use crate::checksum::{chunk_checksums, ReplicaBytes};
        use std::sync::Arc;

        let good = block(2_000, 64);
        let bytes = good.bytes().to_vec();
        let mut raw = bytes.clone();
        let columns = good.schema().len();
        for col in 0..columns {
            let (off, len) = good.region(col).unwrap();
            raw[off + len / 3] ^= 0x10;
        }
        let replica = Arc::new(
            ReplicaBytes::new(bytes::Bytes::from(raw), chunk_checksums(&bytes).into()).unwrap(),
        );
        let b = PaxBlock::open(replica, bytes.len()).unwrap();
        let n = b.row_count() as u32;
        for col in 0..columns {
            for rows in [
                (0..n).collect::<Vec<u32>>(),
                sparse(n as usize, 9, col as u64),
            ] {
                let (_, want) = per_row(&mut b.cursor(col).unwrap(), &rows);
                let mut selection = rows.clone();
                let got = b
                    .cursor(col)
                    .unwrap()
                    .retain(&mut selection, |v| keeps(&v.to_value(), 5));
                match (got, want) {
                    (Err(e), Some(want)) => {
                        assert!(matches!(e, HailError::ChecksumMismatch { .. }), "{e}");
                        assert_eq!(e.to_string(), want, "column {col}");
                        assert_eq!(selection, rows);
                    }
                    (Ok(()), None) => {
                        let kept: Vec<u32> = rows
                            .iter()
                            .copied()
                            .filter(|&r| keeps(&good.value(col, r as usize).unwrap(), 5))
                            .collect();
                        assert_eq!(selection, kept, "column {col}");
                    }
                    (got, want) => panic!("column {col}: retain {got:?}, get {want:?}"),
                }
            }
        }
    }

    #[test]
    fn finder_appends_every_terminator_once_however_it_is_resumed() {
        let mut state = 99u64;
        for len in 0..80 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    // Zeros about one byte in three, in runs too.
                    if (state >> 33).is_multiple_of(3) {
                        0
                    } else {
                        b'a'
                    }
                })
                .collect();
            let all: Vec<u32> = std::iter::once(0)
                .chain((0..len).filter(|&i| bytes[i] == 0).map(|i| i as u32 + 1))
                .collect();
            for want in 1..all.len() + 3 {
                for step in 1..4 {
                    // Resumed `step` entries at a time until `want`.
                    let mut starts = vec![0u32];
                    let mut pos = 0;
                    let mut asked = 1;
                    while asked < want {
                        asked = (asked + step).min(want);
                        pos = find_terminators(&bytes, pos, &mut starts, asked);
                    }
                    assert!(
                        starts.len() >= want.min(all.len()),
                        "len {len}, want {want}"
                    );
                    assert_eq!(starts[..], all[..starts.len()], "len {len}, want {want}");
                    assert!(starts.len() < want + 8);
                    assert!(pos <= bytes.len());
                    if starts.len() < want {
                        assert_eq!(pos, bytes.len());
                    }
                }
            }
        }
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
