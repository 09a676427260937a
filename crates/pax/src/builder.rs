//! Content-aware block building.
//!
//! The HAIL client cuts the uploaded file into blocks at *row boundaries*
//! (§3.1 step 1): it scans for end-of-line symbols and never splits a row
//! across two blocks — in contrast to standard HDFS, which cuts after a
//! constant number of bytes. Each block's rows are parsed against the
//! user schema; rows that fail to parse become bad records inside the same
//! block.
//!
//! The builder keeps no row and no string. A line is read once, eight
//! bytes at a time, for where its fields end and for a NUL; a line with
//! the wrong number of fields is a bad record before any field is
//! parsed. Each field is then validated by [`Value::parse`], the one
//! definition of a field, and appended in its binary form to one byte
//! buffer per column (a line that turns out bad is cut off the buffers
//! again); [`PaxBlockBuilder::finish`] stitches the buffers into the
//! block. The route over owned values — [`hail_types::parse_line`] →
//! [`ColumnData`](crate::ColumnData) → [`encode_block`](crate::encode_block)
//! — is what it is tested against: same good/bad split, same bytes.
//!
//! [`block_spans`] finds, without parsing, where a builder fed a text's
//! lines fills up: the upload cuts its blocks there before any of them
//! is built.

use crate::block::{BlockWriter, PaxBlock};
use crate::cursor::zero_bytes;
use hail_types::{DataType, HailError, Result, Row, Schema, StorageConfig, Value};

/// One column of the block under construction, already in its on-disk
/// form.
#[derive(Debug, Default)]
struct ColumnBuf {
    /// Fixed width: the dense values. Varchar: `value ++ 0` per row.
    values: Vec<u8>,
    /// How much of `values` belongs to whole rows; what lies behind is
    /// the row being appended.
    committed: usize,
    /// Varchar only: where every `partition_size`-th row starts.
    sparse_offsets: Vec<u32>,
}

impl ColumnBuf {
    /// Validates one field of a text line as [`Value::parse`] does and
    /// appends it. The caller has ruled out NUL, so every varchar token
    /// is valid.
    fn push_token(&mut self, token: &str, data_type: DataType) -> bool {
        if data_type == DataType::VarChar {
            self.push_str(token);
            return true;
        }
        match Value::parse(token, data_type) {
            Ok(value) => {
                self.push_value(&value);
                true
            }
            Err(_) => false,
        }
    }

    fn push_value(&mut self, value: &Value) {
        match value {
            Value::Int(v) | Value::Date(v) => self.values.extend_from_slice(&v.to_le_bytes()),
            Value::Long(v) => self.values.extend_from_slice(&v.to_le_bytes()),
            Value::Float(v) => self.values.extend_from_slice(&v.to_bits().to_le_bytes()),
            Value::Str(s) => self.push_str(s),
        }
    }

    fn push_str(&mut self, value: &str) {
        self.values.extend_from_slice(value.as_bytes());
        self.values.push(0);
    }

    /// Makes the appended value a row of the column.
    fn commit(&mut self, data_type: DataType, starts_partition: bool) {
        if starts_partition && data_type == DataType::VarChar {
            self.sparse_offsets.push(self.committed as u32);
        }
        self.committed = self.values.len();
    }
}

/// Accumulates parsed rows until a block is full, then serializes a
/// [`PaxBlock`].
#[derive(Debug)]
pub struct PaxBlockBuilder {
    schema: Schema,
    config: StorageConfig,
    columns: Vec<ColumnBuf>,
    /// The bad section: raw lines, each zero-terminated.
    bad: Vec<u8>,
    bad_count: usize,
    row_count: usize,
    /// Bytes of *original text* consumed so far — the fullness criterion,
    /// so HAIL's logical blocks cover the same data range as HDFS blocks
    /// would.
    text_bytes: usize,
    /// Where each field of the line being pushed ends; reused from line
    /// to line.
    field_ends: Vec<usize>,
}

impl PaxBlockBuilder {
    pub fn new(schema: Schema, config: StorageConfig) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|_| ColumnBuf::default())
            .collect();
        PaxBlockBuilder {
            schema,
            config,
            columns,
            bad: Vec::new(),
            bad_count: 0,
            row_count: 0,
            text_bytes: 0,
            field_ends: Vec::new(),
        }
    }

    /// Number of good rows currently buffered.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of bad records currently buffered.
    pub fn bad_count(&self) -> usize {
        self.bad_count
    }

    /// True once the accumulated original-text volume — each line plus
    /// one for its terminator — reaches the configured block size.
    /// [`block_spans`] applies the same rule to a whole text.
    pub fn is_full(&self) -> bool {
        self.text_bytes >= self.config.block_size
    }

    /// True if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0 && self.bad_count == 0
    }

    /// Parses one text line (without trailing newline) and buffers it as a
    /// good row or bad record.
    ///
    /// A line containing NUL is an error, not a bad record: values and
    /// bad records are stored zero-terminated, so the block could not
    /// give the line back.
    pub fn push_line(&mut self, line: &str) -> Result<()> {
        let mut delimiter = [0; 4];
        let delimiter = self.config.delimiter.encode_utf8(&mut delimiter).as_bytes();
        if !field_ends(line.as_bytes(), delimiter, &mut self.field_ends) {
            return Err(HailError::BadRecord {
                line: line.to_string(),
                reason: "line contains NUL, which a zero-terminated PAX block cannot store".into(),
            });
        }
        self.text_bytes += line.len() + 1;
        // Field-count mismatches and per-field parse failures both make
        // the line a bad record, as in `hail_types::parse_line`.
        let good = self.field_ends.len() == self.columns.len() && {
            let mut start = 0;
            let fields = self.columns.iter_mut().zip(self.schema.fields());
            fields.zip(&self.field_ends).all(|((column, field), &end)| {
                let token = &line[start..end];
                start = end + delimiter.len();
                column.push_token(token, field.data_type)
            })
        };
        if good {
            self.commit_row();
        } else {
            for column in &mut self.columns {
                column.values.truncate(column.committed);
            }
            self.bad.extend_from_slice(line.as_bytes());
            self.bad.push(0);
            self.bad_count += 1;
        }
        Ok(())
    }

    fn commit_row(&mut self) {
        let starts_partition = self
            .row_count
            .is_multiple_of(self.config.index_partition_size);
        for (column, field) in self.columns.iter_mut().zip(self.schema.fields()) {
            column.commit(field.data_type, starts_partition);
        }
        self.row_count += 1;
    }

    /// Buffers an already-parsed row (used by generators that skip the
    /// text round trip; text size is estimated from the row).
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(HailError::Schema(format!(
                "row of {} values for schema of {} fields",
                row.len(),
                self.schema.len()
            )));
        }
        for (value, field) in row.values().iter().zip(self.schema.fields()) {
            if value.data_type() != field.data_type {
                return Err(HailError::Schema(format!(
                    "cannot push {} value into {} column",
                    value.data_type(),
                    field.data_type
                )));
            }
            if value.as_str().is_some_and(|s| s.as_bytes().contains(&0)) {
                return Err(HailError::Schema("VARCHAR may not contain NUL".into()));
            }
        }
        self.text_bytes += row.text_len();
        for (column, value) in self.columns.iter_mut().zip(row.values()) {
            column.push_value(value);
        }
        self.commit_row();
        Ok(())
    }

    /// Serializes the buffered rows into a PAX block and resets the
    /// builder for the next block.
    pub fn finish(&mut self) -> Result<PaxBlock> {
        let body_len = self.bad.len()
            + self
                .columns
                .iter()
                .map(|c| c.sparse_offsets.len() * 4 + c.values.len())
                .sum::<usize>();
        let mut w = BlockWriter::new(
            &self.schema,
            self.row_count,
            self.config.index_partition_size,
            self.bad_count,
            body_len,
        )?;
        for column in &mut self.columns {
            for offset in column.sparse_offsets.drain(..) {
                w.buf().extend_from_slice(&offset.to_le_bytes());
            }
            w.buf().append(&mut column.values);
            column.committed = 0;
            w.end_region();
        }
        w.buf().append(&mut self.bad);
        w.end_region();
        self.row_count = 0;
        self.bad_count = 0;
        self.text_bytes = 0;
        w.into_block(self.schema.clone())
    }
}

/// Finds the fields of one line in one pass: sets `ends` to where each
/// field ends — at every occurrence of `delimiter`, and at the end of the
/// line — or returns false if the line holds a NUL. Eight bytes at a
/// time, the pass looks for NUL and for the delimiter's first byte; the
/// delimiter's other bytes, if any, are confirmed at each hit. UTF-8
/// never starts one character inside another, so every confirmed hit is
/// a delimiter `str::split` would find.
fn field_ends(line: &[u8], delimiter: &[u8], ends: &mut Vec<usize>) -> bool {
    ends.clear();
    let first = u64::from_ne_bytes([delimiter[0]; 8]);
    let (words, tail) = line.as_chunks::<8>();
    let mut last = [0; 8];
    last[..tail.len()].copy_from_slice(tail);
    // Each step's position, its eight bytes, and which of them are the
    // line's: all of a whole word's, the tail's own of the padded tail.
    let steps = (words.iter().enumerate()).map(|(i, word)| (i * 8, u64::from_le_bytes(*word), !0));
    let tail = (
        words.len() * 8,
        u64::from_le_bytes(last),
        !(!0 << (tail.len() * 8)),
    );
    for (at, word, own) in steps.chain([tail]) {
        if zero_bytes(word) & own != 0 {
            return false;
        }
        let mut marks = zero_bytes(word ^ first) & own;
        while marks != 0 {
            let pos = at + marks.trailing_zeros() as usize / 8;
            // The first byte matched; the rest, if any, must follow.
            let mut rest = delimiter[1..].iter().enumerate();
            if rest.all(|(k, &b)| line.get(pos + 1 + k) == Some(&b)) {
                ends.push(pos);
            }
            marks &= marks - 1;
        }
    }
    ends.push(line.len());
    true
}

/// Cuts `text` where a [`PaxBlockBuilder`] fed its lines in order fills
/// up ([`PaxBlockBuilder::is_full`]): after the first line that brings a
/// block's text bytes (each line plus one for its terminator) to
/// `block_size`, and at the end. Each block comes back as the slice of
/// `text` holding its lines, so its `lines()` are the lines the builder
/// would have taken.
///
/// A line's text bytes are its raw bytes, `\n` included, less one for a
/// `\r\n` end, so no line that ends before `block_size - 1` bytes past
/// the block's start can fill it: the search jumps there and takes the
/// next newline. If the `\r\n` ends up to it leave the block short, it
/// jumps again by what is missing. Only the bytes of a jump's last line
/// are searched for a newline; the others are only counted for `\r\n`.
pub fn block_spans(text: &str, block_size: usize) -> Vec<&str> {
    let bytes = text.as_bytes();
    // Every line brings at least one byte, so a block size of 0 cuts
    // after every line, as 1 does.
    let block_size = block_size.max(1);
    let mut spans = Vec::new();
    let mut start = 0;
    // Where the next jump starts (always a line start), and the text
    // bytes the block still needs from there.
    let (mut from, mut need) = (0usize, block_size);
    while let Some(newline) = bytes
        .get(from.saturating_add(need - 1)..)
        .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
    {
        let end = from + need + newline;
        let filled = end - from - crlf_count(&bytes[from..end]);
        if filled >= need {
            spans.push(&text[start..end]);
            (start, need) = (end, block_size);
        } else {
            need -= filled;
        }
        from = end;
    }
    // A last line without a newline ends the last block, full or not.
    if start < bytes.len() {
        spans.push(&text[start..]);
    }
    spans
}

/// How many `\r\n` pairs `run` holds: each byte against the next, 255
/// at a time, so that the count of a stretch fits a byte and the
/// compiler can compare many bytes at once.
fn crlf_count(run: &[u8]) -> usize {
    let Some(next) = run.get(1..) else {
        return 0;
    };
    (run.chunks(255).zip(next.chunks(255)))
        .map(|(this, next)| {
            let pairs = this.iter().zip(next);
            pairs.fold(0u8, |n, (&cr, &lf)| {
                n + u8::from((cr == b'\r') & (lf == b'\n'))
            })
        })
        .map(usize::from)
        .sum()
}

/// Splits a text corpus into content-aware PAX blocks.
///
/// Convenience wrapper used by tests and examples; the real upload
/// pipeline drives [`PaxBlockBuilder`] incrementally.
pub fn blocks_from_text(
    text: &str,
    schema: &Schema,
    config: &StorageConfig,
) -> Result<Vec<PaxBlock>> {
    let mut builder = PaxBlockBuilder::new(schema.clone(), config.clone());
    let mut out = Vec::new();
    for line in text.lines() {
        builder.push_line(line)?;
        if builder.is_full() {
            out.push(builder.finish()?);
        }
    }
    if !builder.is_empty() {
        out.push(builder.finish()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_types::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("word", DataType::VarChar),
            Field::new("count", DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn builds_single_block() {
        let cfg = StorageConfig::test_scale(1 << 20);
        let text = "alpha|1\nbeta|2\ngamma|3\n";
        let blocks = blocks_from_text(text, &schema(), &cfg).unwrap();
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.row_count(), 3);
        assert_eq!(b.value(0, 1).unwrap(), Value::Str("beta".into()));
        assert_eq!(b.value(1, 2).unwrap(), Value::Int(3));
    }

    #[test]
    fn cuts_blocks_at_row_boundaries() {
        // Block size of 16 bytes forces a cut every ~2 small rows, but
        // never mid-row.
        let cfg = StorageConfig::test_scale(16);
        let text: String = (0..10).map(|i| format!("w{i}|{i}\n")).collect();
        let blocks = blocks_from_text(&text, &schema(), &cfg).unwrap();
        assert!(blocks.len() > 1);
        let total: usize = blocks.iter().map(|b| b.row_count()).sum();
        assert_eq!(total, 10);
        // Every row is intact in some block.
        let mut words = Vec::new();
        for b in &blocks {
            for r in 0..b.row_count() {
                words.push(b.value(0, r).unwrap().to_string());
            }
        }
        words.sort();
        let mut expected: Vec<String> = (0..10).map(|i| format!("w{i}")).collect();
        expected.sort();
        assert_eq!(words, expected);
    }

    #[test]
    fn bad_records_go_to_bad_section() {
        let cfg = StorageConfig::test_scale(1 << 20);
        let text = "good|1\nbad-line-no-delim\nanother|x\nfine|2\n";
        let blocks = blocks_from_text(text, &schema(), &cfg).unwrap();
        assert_eq!(blocks.len(), 1);
        let b = &blocks[0];
        assert_eq!(b.row_count(), 2);
        assert_eq!(b.bad_count(), 2);
        let bad = b.bad_records().unwrap();
        assert!(bad.contains(&"bad-line-no-delim".to_string()));
        assert!(bad.contains(&"another|x".to_string()));
    }

    /// Values and bad records are stored zero-terminated, so a line with
    /// a NUL cannot be stored as either: it used to be cut in two at the
    /// NUL inside the bad section, silently losing the record after it.
    #[test]
    fn line_with_nul_is_an_error_naming_the_line() {
        let cfg = StorageConfig::test_scale(1 << 20);
        // Inside a varchar field of an otherwise good line, and inside a
        // line that is malformed anyway.
        for (text, culprit) in [
            ("a|1\nb\0c|2\nd|3\n", "b\0c|2"),
            ("a|1\nxx\0yy|zz|q\nb|2\n", "xx\0yy|zz|q"),
            ("a|1\0\n", "a|1\0"),
        ] {
            match blocks_from_text(text, &schema(), &cfg) {
                Err(HailError::BadRecord { line, .. }) => assert_eq!(line, culprit),
                other => panic!("expected a BadRecord error, got {other:?}"),
            }
        }
        // NUL-free input is stored as before, bad records and all.
        let blocks = blocks_from_text("1|a\nxx|zz|q\nw|3\n", &schema(), &cfg).unwrap();
        assert_eq!(blocks[0].bad_records().unwrap(), ["1|a", "xx|zz|q"]);
        assert_eq!(blocks[0].row_count(), 1);

        let mut builder = PaxBlockBuilder::new(schema(), cfg);
        let row = Row::new(vec![Value::Str("a\0b".into()), Value::Int(1)]);
        assert!(builder.push_row(row).is_err());
        assert!(builder.push_row(Row::new(vec![Value::Int(1)])).is_err());
        assert!(builder.is_empty());
    }

    /// A date field with a sign is a bad record here exactly as it is in
    /// `hail_types::parse_line`, the oracle every format is checked
    /// against: it would load, but not print back as its text.
    #[test]
    fn signed_date_fields_are_bad_records_as_in_parse_line() {
        let schema = Schema::new(vec![
            Field::new("word", DataType::VarChar),
            Field::new("day", DataType::Date),
        ])
        .unwrap();
        let lines = [
            "a|+999-01-01",
            "b|2000-+1-01",
            "c|2000-01-+1",
            "d|2000-01-01",
        ];
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let cfg = StorageConfig::test_scale(1 << 20);
        let blocks = blocks_from_text(&text, &schema, &cfg).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].bad_records().unwrap(), &lines[..3]);
        assert_eq!(blocks[0].row_count(), 1);
        for line in lines {
            let parsed = hail_types::parse_line(line, &schema, cfg.delimiter);
            assert_eq!(
                matches!(parsed, hail_types::ParsedRecord::Good(_)),
                line == "d|2000-01-01",
                "{line}"
            );
        }
    }

    /// The one-pass field finder ends fields where `str::split` does, for
    /// delimiters of one to four UTF-8 bytes next to characters that share
    /// their first byte, and finds a NUL at any position in or after the
    /// eight-byte steps.
    #[test]
    fn field_ends_agree_with_split() {
        let pieces = [
            "", "a", "¦", "|", "©", "日", "本", "😀", "😃", " ", "12345678", "é",
        ];
        let mut x = 0x0F1E_1D5Eu64;
        let mut ends = Vec::new();
        for _ in 0..20_000 {
            let mut line = String::new();
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mut bits = x;
            for _ in 0..(x >> 60) {
                line.push_str(pieces[(bits % pieces.len() as u64) as usize]);
                bits /= pieces.len() as u64;
            }
            for delimiter in ['|', '¦', '日', '😀'] {
                let mut d = [0; 4];
                let d = delimiter.encode_utf8(&mut d).as_bytes();
                assert!(field_ends(line.as_bytes(), d, &mut ends), "{line:?}");
                let mut want = Vec::new();
                let mut at = 0;
                for field in line.split(delimiter) {
                    at += field.len();
                    want.push(at);
                    at += d.len();
                }
                assert_eq!(ends, want, "{line:?} split on {delimiter:?}");
            }
        }
        for len in 1..20 {
            for at in 0..len {
                let mut line = vec![b'|'; len];
                line[at] = 0;
                assert!(!field_ends(&line, b"|", &mut ends), "NUL at {at} of {len}");
            }
        }
    }

    /// The line walk [`block_spans`] must agree with: every line's text
    /// bytes added up one line at a time, as the builder counts them.
    fn spans_by_line_walk(text: &str, block_size: usize) -> Vec<&str> {
        let bytes = text.as_bytes();
        let mut spans = Vec::new();
        let (mut start, mut line_start, mut filled) = (0, 0, 0);
        for at in (0..bytes.len()).filter(|&at| bytes[at] == b'\n') {
            let cr = at > line_start && bytes[at - 1] == b'\r';
            filled += at - line_start - usize::from(cr) + 1;
            line_start = at + 1;
            if filled >= block_size {
                spans.push(&text[start..line_start]);
                (start, filled) = (line_start, 0);
            }
        }
        if start < bytes.len() {
            spans.push(&text[start..]);
        }
        spans
    }

    /// Seeded texts of random lines — short and long, empty, `\r\n` and
    /// `\n` ends, stray `\r`s inside lines, with and without a final
    /// newline — cut at every block size from 1 to twice the longest
    /// line: the jump search cuts where the line walk does, and where
    /// the builder fills up.
    #[test]
    fn block_spans_agree_with_the_line_walk() {
        let mut x = 0x5EED_B10Cu64;
        let mut next = |bound: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % bound
        };
        for _ in 0..150 {
            let mut text = String::new();
            let mut longest = 0;
            for _ in 0..next(40) {
                let len = match next(8) {
                    0 => 0,
                    1 => 40 + next(120) as usize,
                    _ => next(12) as usize,
                };
                let line: String = (0..len)
                    .map(|_| match next(16) {
                        0 => '\r',
                        1 => '|',
                        _ => 'a',
                    })
                    .collect();
                longest = longest.max(len + 2);
                text.push_str(&line);
                text.push_str(if next(2) == 0 { "\r\n" } else { "\n" });
            }
            if next(2) == 0 {
                text.push_str("tail|1");
            }
            for block_size in 0..=2 * longest {
                let spans = block_spans(&text, block_size);
                assert_eq!(
                    spans,
                    spans_by_line_walk(&text, block_size),
                    "{text:?} at {block_size}"
                );
                assert_eq!(spans.concat(), text);
            }
            // Each span is a block the builder cuts where it fills up.
            let cfg = StorageConfig::test_scale(1 + next(2 * longest as u64 + 1) as usize);
            let mut builder = PaxBlockBuilder::new(schema(), cfg.clone());
            let mut fills = Vec::new();
            let mut taken = 0;
            for line in text.lines() {
                builder.push_line(line).unwrap();
                taken += 1;
                if builder.is_full() {
                    builder.finish().unwrap();
                    fills.push(taken);
                }
            }
            let cuts: Vec<usize> = block_spans(&text, cfg.block_size)
                .iter()
                .scan(0, |lines, span| {
                    *lines += span.lines().count();
                    Some(*lines)
                })
                .collect();
            assert_eq!(cuts[..fills.len()], fills, "{text:?}");
        }
    }

    #[test]
    fn push_row_direct() {
        let cfg = StorageConfig::test_scale(1 << 20);
        let mut builder = PaxBlockBuilder::new(schema(), cfg);
        builder
            .push_row(Row::new(vec![Value::Str("x".into()), Value::Int(1)]))
            .unwrap();
        assert_eq!(builder.row_count(), 1);
        let b = builder.finish().unwrap();
        assert_eq!(b.row_count(), 1);
        assert!(builder.is_empty());
    }

    #[test]
    fn finish_resets_builder() {
        let cfg = StorageConfig::test_scale(8);
        let mut builder = PaxBlockBuilder::new(schema(), cfg);
        builder.push_line("abcdefgh|1").unwrap();
        assert!(builder.is_full());
        let b1 = builder.finish().unwrap();
        assert_eq!(b1.row_count(), 1);
        assert!(!builder.is_full());
        builder.push_line("x|2").unwrap();
        let b2 = builder.finish().unwrap();
        assert_eq!(b2.row_count(), 1);
        assert_eq!(b2.value(0, 0).unwrap(), Value::Str("x".into()));
    }
}
