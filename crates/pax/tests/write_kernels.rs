//! The byte-level write path against the naive one it replaced, over
//! seeded random inputs:
//!
//! - `sort_block` (row offsets located once, cells gathered as bytes) vs
//!   `decode_all_columns` → `sort_permutation` → `permute` →
//!   `encode_block`: same permutation, same bytes;
//! - `PaxBlockBuilder` (fields appended to per-column byte buffers) vs
//!   `parse_line` → `ColumnData` → `encode_block`: same good/bad split,
//!   same bytes.

use hail_pax::{
    encode_block, sort_block, sort_permutation, BlockRows, ColumnData, PaxBlock, PaxBlockBuilder,
};
use hail_types::{
    parse_line, DataType, Field, HailError, ParsedRecord, Schema, StorageConfig, Value,
};

/// SplitMix64: a few lines of deterministic randomness, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Long,
    DataType::Float,
    DataType::Date,
    DataType::VarChar,
];

/// Small domains, so sort ties are the rule; empty and multi-byte strings.
const WORDS: [&str; 8] = [
    "",
    "a",
    "ab",
    "żółw",
    "日本語",
    "a b",
    "Z",
    "elephant-elephant",
];

fn random_schema(rng: &mut Rng) -> Schema {
    let fields = (0..1 + rng.below(6))
        .map(|i| Field::new(format!("c{i}"), rng.pick(&TYPES)))
        .collect();
    Schema::new(fields).unwrap()
}

fn random_value(rng: &mut Rng, data_type: DataType, domain: usize) -> Value {
    let k = rng.below(domain);
    match data_type {
        DataType::Int => Value::Int(k as i32 * 7 - 20),
        DataType::Long => Value::Long((k as i64 - 3) << 33),
        DataType::Float => {
            Value::Float([0.0, -0.0, 1.5, -2.25, 1e300, 0.1][k % 6] * (1 + k / 6) as f64)
        }
        DataType::Date => Value::Date(10_000 - k as i32 * 31),
        DataType::VarChar => Value::Str(format!("{}{}", WORDS[k % 8], "x".repeat(k / 8))),
    }
}

fn oracle_sort(block: &PaxBlock, column: usize) -> (Vec<u8>, Vec<usize>) {
    let columns = block.decode_all_columns().unwrap();
    let perm = sort_permutation(&columns[column]);
    let sorted: Vec<ColumnData> = columns.iter().map(|c| c.permute(&perm)).collect();
    let bytes = encode_block(
        block.schema(),
        &sorted,
        &block.bad_records().unwrap(),
        block.partition_size(),
    )
    .unwrap();
    (bytes.to_vec(), perm)
}

#[test]
fn gather_sort_equals_decode_permute_encode() {
    let mut rng = Rng(0x5027_B10C);
    for case in 0..300 {
        let schema = random_schema(&mut rng);
        // 0 and 1 rows, then whatever; a domain of 1 makes every key equal.
        let rows = match case % 10 {
            0 => 0,
            1 => 1,
            _ => rng.below(150),
        };
        let domain = rng.pick(&[1, 3, 12, 40]);
        let mut columns: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|f| ColumnData::new(f.data_type))
            .collect();
        for _ in 0..rows {
            for (column, field) in columns.iter_mut().zip(schema.fields()) {
                column
                    .push(&random_value(&mut rng, field.data_type, domain))
                    .unwrap();
            }
        }
        let bad: Vec<String> = (0..rng.below(4))
            .map(|i| {
                format!(
                    "bad {} {i}|{}",
                    WORDS[rng.below(8)],
                    "y".repeat(rng.below(9))
                )
            })
            .collect();
        let partition_size = rng.pick(&[1, 7, 64, 1 << 20]);
        let block = PaxBlock::parse(encode_block(&schema, &columns, &bad, partition_size).unwrap())
            .unwrap();

        let located = BlockRows::locate(&block).unwrap();
        for column in 0..schema.len() {
            let what = format!(
                "case {case}: {rows} rows, partitions of {partition_size}, sorted on column \
                 {column} ({})",
                schema.fields()[column].data_type
            );
            let (want_bytes, want_perm) = oracle_sort(&block, column);
            let (sorted, perm) = sort_block(&block, column).unwrap();
            assert_eq!(perm, want_perm, "{what}");
            assert_eq!(sorted.bytes().as_slice(), want_bytes, "{what}");
            // Not re-parsed, yet indistinguishable from a parsed block.
            let parsed = PaxBlock::parse(sorted.bytes().clone()).unwrap();
            assert_eq!(format!("{parsed:?}"), format!("{sorted:?}"), "{what}");
            // One located block serves every sort of it.
            let (shared, shared_perm) = located.sorted_on(column).unwrap();
            assert_eq!(shared.bytes(), sorted.bytes(), "{what}");
            assert_eq!(shared_perm, perm, "{what}");
        }
        assert!(matches!(
            sort_block(&block, schema.len()),
            Err(HailError::UnknownAttribute(_))
        ));
    }
}

/// Number tokens at the edges of `Value::parse`'s fast paths: signs and
/// `-0`, leading zeros, the `i32` and `i64` bounds ±1, 15 to 17
/// significant digits and a halfway case, forms only `str::parse` takes
/// or rejects, and ASCII and Unicode padding (U+00A0 shares its first
/// UTF-8 byte with the delimiter `¦`).
const NUMBER_TOKENS: [&str; 36] = [
    "-0",
    "+0",
    "007",
    "-007",
    "2147483647",
    "2147483648",
    "-2147483648",
    "-2147483649",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "999999999",
    "1000000000",
    "999999999999999999",
    "1000000000000000000",
    "123456789012345",
    "1234567890123456",
    "12345678901234567",
    "9007199254740993",
    "0.1",
    "123.45",
    "-0.0",
    ".5",
    "5.",
    "1e5",
    "1_0",
    "0x10",
    " 42",
    "42 ",
    "\t7",
    "\u{a0}3",
    "\u{3000}4.5",
    "0.0000000000000000000001",
    "0.00000000000000000000001",
    "-99.999999999999",
];

/// One text line for `schema`, good or damaged in one of the ways a real
/// file is: a field short, a field long, a number that is not one.
fn random_line(rng: &mut Rng, schema: &Schema, delimiter: char) -> String {
    let mut tokens: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| match random_value(rng, f.data_type, 40) {
            // A word never contains the delimiter of its line, but may
            // contain characters that share its first byte.
            Value::Str(s) if rng.below(4) == 0 => format!("{s}©\u{a0}").replace(delimiter, ";"),
            Value::Str(s) => s.replace(delimiter, ";"),
            // Numbers may come padded: the parser trims them.
            v if rng.below(8) == 0 => format!(" {v} "),
            _ if rng.below(4) == 0 => rng.pick(&NUMBER_TOKENS).to_string(),
            v => v.to_string(),
        })
        .collect();
    match rng.below(12) {
        0 => {
            tokens.pop();
        }
        1 => tokens.push(rng.pick(&WORDS).to_string()),
        2 => {
            let at = rng.below(tokens.len());
            tokens[at] = rng
                .pick(&[
                    "",
                    "x",
                    "1.5.2",
                    "12a",
                    "inf",
                    "NaN",
                    "1999-02-30",
                    "99999999999999999999",
                ])
                .to_string();
        }
        3 => return String::new(),
        _ => {}
    }
    tokens.join(&delimiter.to_string())
}

#[test]
fn builder_equals_parse_line_then_encode_block() {
    let mut rng = Rng(0x0B01_1DE2);
    for case in 0..200 {
        let schema = random_schema(&mut rng);
        let delimiter = rng.pick(&['|', ',', '¦']);
        let config = StorageConfig {
            block_size: 1 << 30,
            replication: 3,
            delimiter,
            index_partition_size: rng.pick(&[1, 7, 64, 1 << 20]),
        };
        // One builder, several blocks: `finish` must leave nothing behind.
        let mut builder = PaxBlockBuilder::new(schema.clone(), config.clone());
        for block_no in 0..3 {
            let lines: Vec<String> = (0..rng.below(120))
                .map(|_| random_line(&mut rng, &schema, delimiter))
                .collect();
            let mut columns: Vec<ColumnData> = schema
                .fields()
                .iter()
                .map(|f| ColumnData::new(f.data_type))
                .collect();
            let mut bad = Vec::new();
            for line in &lines {
                builder.push_line(line).unwrap();
                match parse_line(line, &schema, delimiter) {
                    ParsedRecord::Good(row) => {
                        for (column, value) in columns.iter_mut().zip(row.values()) {
                            column.push(value).unwrap();
                        }
                    }
                    ParsedRecord::Bad { line, .. } => bad.push(line),
                }
            }
            let what = format!("case {case}, block {block_no}, {} lines", lines.len());
            assert_eq!(builder.row_count(), columns[0].len(), "{what}");
            assert_eq!(builder.bad_count(), bad.len(), "{what}");
            assert_eq!(builder.is_empty(), lines.is_empty(), "{what}");
            let want = encode_block(&schema, &columns, &bad, config.index_partition_size).unwrap();
            let block = builder.finish().unwrap();
            assert_eq!(block.bytes(), &want, "{what}");
            let parsed = PaxBlock::parse(want).unwrap();
            assert_eq!(format!("{parsed:?}"), format!("{block:?}"), "{what}");
            assert!(builder.is_empty() && !builder.is_full(), "{what}");
        }
    }
}
