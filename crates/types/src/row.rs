//! Rows and text-line parsing.
//!
//! The HAIL client parses each uploaded line against the user-declared
//! schema (§3.1). Lines that do not match are *bad records*: they are not
//! dropped but routed to a dedicated section of the block, and at query
//! time handed to the map function with a bad-record flag.

use crate::error::{HailError, Result};
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A parsed row: one [`Value`] per schema attribute.
///
/// A row is immutable and its values are shared: cloning one bumps a
/// reference count instead of copying every value. A row is a view of
/// `len` values from `start` of a shared batch, so the rows a block read
/// returns can all live in one allocation ([`Row::batch_from_columns`]). Equality,
/// hashing and `Debug` see only the row's own values, never the batch.
#[derive(Clone)]
pub struct Row {
    batch: Arc<[Value]>,
    start: u32,
    len: u32,
}

/// Collects the values into one allocation when the iterator knows its
/// length (e.g. a `Vec`'s drain).
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Row::whole(values.into_iter().collect())
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Row {}

/// Hashes exactly as the value slice does.
impl std::hash::Hash for Row {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row")
            .field("values", &self.values())
            .finish()
    }
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row::whole(values.into())
    }

    /// A row over all of `batch`.
    ///
    /// # Panics
    ///
    /// If `batch` holds more than `u32::MAX` values.
    fn whole(batch: Arc<[Value]>) -> Self {
        let len = u32::try_from(batch.len()).expect("a row batch holds at most u32::MAX values");
        Row {
            batch,
            start: 0,
            len,
        }
    }

    /// Interleaves `columns` — each one value per row, `rows` long — into
    /// `rows` rows that share one allocation: row `i` holds the `i`-th
    /// value of every column, in column order. The values move straight
    /// from the columns into the batch, which is allocated once at its
    /// final size. No columns yields `rows` empty rows.
    ///
    /// # Panics
    ///
    /// If a column is not `rows` long, or the batch would hold more than
    /// `u32::MAX` values.
    pub fn batch_from_columns(
        columns: Vec<Vec<Value>>,
        rows: usize,
    ) -> impl ExactSizeIterator<Item = Row> {
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "a batch of equally long columns"
        );
        let width = columns.len();
        let mut columns: Vec<_> = columns.into_iter().map(Vec::into_iter).collect();
        let mut column = 0;
        // A mapped range knows its exact length, so `collect` writes the
        // values into one allocation of the batch's size.
        let all = Row::whole(
            (0..rows * width)
                .map(|_| {
                    let value = columns[column].next().expect("every column is `rows` long");
                    column = if column + 1 == width { 0 } else { column + 1 };
                    value
                })
                .collect(),
        );
        // Every start and width is at most the batch's length, which
        // `whole` holds to `u32`.
        (0..rows).map(move |i| Row {
            batch: Arc::clone(&all.batch),
            start: (i * width) as u32,
            len: width as u32,
        })
    }

    pub fn values(&self) -> &[Value] {
        let start = self.start as usize;
        &self.batch[start..start + self.len as usize]
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value at 0-based column index.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values().get(idx)
    }

    /// Projects the row to the given 0-based column indexes.
    pub fn project(&self, indexes: &[usize]) -> Row {
        let values = self.values();
        indexes.iter().map(|&i| values[i].clone()).collect()
    }

    /// Total binary encoding size of the row in bytes.
    pub fn encoded_len(&self) -> usize {
        self.values().iter().map(Value::encoded_len).sum()
    }

    /// Size of the row as a delimiter-separated text line including the
    /// trailing newline, as it would appear in the original upload.
    pub fn text_len(&self) -> usize {
        let seps = self.len().saturating_sub(1);
        self.values().iter().map(Value::text_len).sum::<usize>() + seps + 1
    }

    /// Renders the row as a delimited text line (no trailing newline).
    pub fn to_line(&self, delimiter: char) -> String {
        let mut out = String::with_capacity(self.text_len());
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                out.push(delimiter);
            }
            // Avoid format! allocation per field.
            use std::fmt::Write as _;
            let _ = write!(out, "{v}");
        }
        out
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line('|'))
    }
}

/// The outcome of parsing one text line: a good row or a bad record
/// carrying the raw line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedRecord {
    Good(Row),
    /// The raw line plus the reason it failed to parse. HAIL stores these
    /// verbatim in the bad-record section of the block.
    Bad {
        line: String,
        reason: String,
    },
}

/// Parses one delimited text line against a schema.
///
/// Field-count mismatches and per-field parse failures both yield
/// [`ParsedRecord::Bad`]; this function never errors, mirroring HAIL's
/// upload path which must ingest arbitrary files.
pub fn parse_line(line: &str, schema: &Schema, delimiter: char) -> ParsedRecord {
    let mut values = Vec::with_capacity(schema.len());
    let mut fields = line.split(delimiter);
    for field_def in schema.fields() {
        let Some(token) = fields.next() else {
            return ParsedRecord::Bad {
                line: line.to_string(),
                reason: format!("expected {} fields, found {}", schema.len(), values.len()),
            };
        };
        match Value::parse(token, field_def.data_type) {
            Ok(v) => values.push(v),
            Err(e) => {
                return ParsedRecord::Bad {
                    line: line.to_string(),
                    reason: e.to_string(),
                }
            }
        }
    }
    if fields.next().is_some() {
        return ParsedRecord::Bad {
            line: line.to_string(),
            reason: format!("more than {} fields", schema.len()),
        };
    }
    ParsedRecord::Good(Row::new(values))
}

/// Strict variant of [`parse_line`] for callers that must not see bad
/// records (e.g. tests and oracle evaluators).
pub fn parse_line_strict(line: &str, schema: &Schema, delimiter: char) -> Result<Row> {
    match parse_line(line, schema, delimiter) {
        ParsedRecord::Good(r) => Ok(r),
        ParsedRecord::Bad { line, reason } => Err(HailError::BadRecord { line, reason }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("ip", DataType::VarChar),
            Field::new("visitDate", DataType::Date),
            Field::new("revenue", DataType::Float),
            Field::new("duration", DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn parses_good_line() {
        let r = parse_line("1.2.3.4|1999-06-01|3.5|12", &schema(), '|');
        let ParsedRecord::Good(row) = r else {
            panic!("bad row: {r:?}");
        };
        assert_eq!(row.get(0).unwrap().as_str(), Some("1.2.3.4"));
        assert_eq!(row.get(3).unwrap().as_i32(), Some(12));
    }

    #[test]
    fn too_few_fields_is_bad() {
        let r = parse_line("1.2.3.4|1999-06-01", &schema(), '|');
        assert!(matches!(r, ParsedRecord::Bad { .. }));
    }

    #[test]
    fn too_many_fields_is_bad() {
        let r = parse_line("a|1999-06-01|1.0|2|extra", &schema(), '|');
        assert!(matches!(r, ParsedRecord::Bad { .. }));
    }

    #[test]
    fn type_mismatch_is_bad() {
        let r = parse_line("a|not-a-date|1.0|2", &schema(), '|');
        match r {
            ParsedRecord::Bad { reason, .. } => assert!(reason.contains("DATE")),
            _ => panic!("expected bad record"),
        }
    }

    #[test]
    fn strict_parse_errors() {
        assert!(parse_line_strict("x", &schema(), '|').is_err());
        assert!(parse_line_strict("a|1999-06-01|1.0|2", &schema(), '|').is_ok());
    }

    #[test]
    fn line_round_trip() {
        let line = "1.2.3.4|1999-06-01|3.5|12";
        let row = parse_line_strict(line, &schema(), '|').unwrap();
        assert_eq!(row.to_line('|'), line);
    }

    #[test]
    fn projection() {
        let row = parse_line_strict("a|1999-06-01|1.5|9", &schema(), '|').unwrap();
        let p = row.project(&[3, 0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(0).unwrap().as_i32(), Some(9));
        assert_eq!(p.get(1).unwrap().as_str(), Some("a"));
    }

    /// A clone shares the values; a collected row equals the row built
    /// from the same values.
    #[test]
    fn clones_share_values() {
        let row = parse_line_strict("a|1999-06-01|1.5|9", &schema(), '|').unwrap();
        let copy = row.clone();
        assert!(std::ptr::eq(row.values(), copy.values()));
        let collected: Row = row.values().iter().cloned().collect();
        assert_eq!(collected, row);
        assert_eq!(collected, Row::new(row.values().to_vec()));
    }

    fn hash_of(row: &Row) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        row.hash(&mut hasher);
        hasher.finish()
    }

    /// A row of a batch is its values: equal, hashed and printed as the
    /// row `Row::new` builds over them, wherever in the batch it sits.
    #[test]
    fn batch_rows_equal_rows_built_alone() {
        let lines = [
            "a|1999-06-01|1.5|9",
            "b|2000-01-31|-0.0|-3",
            "|1970-01-01|1e300|0",
        ];
        let rows: Vec<Row> = lines
            .iter()
            .map(|l| parse_line_strict(l, &schema(), '|').unwrap())
            .collect();
        let columns: Vec<Vec<Value>> = (0..4)
            .map(|c| rows.iter().map(|r| r.values()[c].clone()).collect())
            .collect();
        let batch: Vec<Row> = Row::batch_from_columns(columns, rows.len()).collect();
        assert_eq!(batch.len(), rows.len());
        for (got, want) in batch.iter().zip(&rows) {
            let alone = Row::new(want.values().to_vec());
            assert_eq!(got, &alone);
            assert_eq!(hash_of(got), hash_of(&alone));
            assert_eq!(format!("{got:?}"), format!("{alone:?}"));
            assert_eq!(got.to_line('|'), alone.to_line('|'));
            assert_eq!(got.len(), 4);
        }
        assert_ne!(batch[0], batch[1]);
        assert!(format!("{:?}", batch[1]).starts_with("Row { values: [Str(\"b\")"));
        // One allocation: each row's values follow the previous row's.
        let base = batch[0].values().as_ptr();
        for (i, row) in batch.iter().enumerate() {
            assert!(std::ptr::eq(
                row.values().as_ptr(),
                base.wrapping_add(4 * i)
            ));
        }
    }

    /// A zero-width batch is as many empty rows as asked for; a batch
    /// whose columns differ in length is refused.
    #[test]
    fn zero_width_and_ragged_batches() {
        let empty: Vec<Row> = Row::batch_from_columns(Vec::new(), 3).collect();
        assert_eq!(empty.len(), 3);
        assert!(empty
            .iter()
            .all(|r| r.is_empty() && *r == Row::new(Vec::new())));
        assert_eq!(Row::batch_from_columns(Vec::new(), 0).count(), 0);
        assert_eq!(Row::batch_from_columns(vec![Vec::new()], 0).count(), 0);
        for ragged in [
            vec![vec![Value::Int(1)]],
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]],
        ] {
            let refused = std::panic::catch_unwind(|| Row::batch_from_columns(ragged, 2).count());
            assert!(refused.is_err());
        }
    }

    #[test]
    fn text_len_matches_rendered() {
        let row = parse_line_strict("abc|1999-06-01|1.5|9", &schema(), '|').unwrap();
        assert_eq!(row.text_len(), row.to_line('|').len() + 1);
    }
}
