//! The `@HailQuery` annotation language (§4.1).
//!
//! Bob annotates his map function with a selection predicate and a
//! projection list:
//!
//! ```text
//! @HailQuery(filter="@3 between(1999-01-01, 2000-01-01)", projection={@1})
//! ```
//!
//! `@k` addresses the k-th attribute (1-based). Supported predicates:
//! `=`, `!=`, `<`, `<=`, `>`, `>=`, and `between(lo, hi)` (inclusive),
//! combined with `and`. Literals are parsed against the schema's
//! attribute type, so `1999-01-01` becomes a date when `@3` is a DATE.

use hail_index::KeyBounds;
use hail_types::{HailError, Result, Row, Schema, Value};
use std::fmt;
use std::ops::Bound;

/// A comparison operator in a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        use std::cmp::Ordering::*;
        let ord = lhs.total_cmp(rhs);
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One predicate over a single attribute, with typed operands.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `@col op literal`.
    Cmp {
        column: usize,
        op: CmpOp,
        value: Value,
    },
    /// `@col between(lo, hi)`, inclusive on both ends.
    Between { column: usize, lo: Value, hi: Value },
}

impl Predicate {
    /// The 0-based column this predicate filters.
    pub fn column(&self) -> usize {
        match self {
            Predicate::Cmp { column, .. } | Predicate::Between { column, .. } => *column,
        }
    }

    /// Evaluates the predicate against a full row.
    pub fn matches(&self, row: &Row) -> bool {
        match self {
            Predicate::Cmp { column, op, value } => {
                row.get(*column).map(|v| op.eval(v, value)).unwrap_or(false)
            }
            Predicate::Between { column, lo, hi } => row
                .get(*column)
                .map(|v| v >= lo && v <= hi)
                .unwrap_or(false),
        }
    }

    /// Evaluates the predicate against a single attribute value.
    pub fn matches_value(&self, v: &Value) -> bool {
        match self {
            Predicate::Cmp { op, value, .. } => op.eval(v, value),
            Predicate::Between { lo, hi, .. } => v >= lo && v <= hi,
        }
    }

    /// The key bounds this predicate induces on its column, used to drive
    /// a clustered-index lookup. `!=` gives an unbounded range (the index
    /// cannot help).
    pub fn key_bounds(&self) -> KeyBounds {
        match self {
            Predicate::Between { lo, hi, .. } => KeyBounds::between(lo.clone(), hi.clone()),
            Predicate::Cmp { op, value, .. } => match op {
                CmpOp::Eq => KeyBounds::point(value.clone()),
                CmpOp::Le => KeyBounds::at_most(value.clone()),
                CmpOp::Lt => KeyBounds {
                    lo: Bound::Unbounded,
                    hi: Bound::Excluded(value.clone()),
                },
                CmpOp::Ge => KeyBounds::at_least(value.clone()),
                CmpOp::Gt => KeyBounds {
                    lo: Bound::Excluded(value.clone()),
                    hi: Bound::Unbounded,
                },
                CmpOp::Ne => KeyBounds {
                    lo: Bound::Unbounded,
                    hi: Bound::Unbounded,
                },
            },
        }
    }

    /// True if this predicate can be accelerated by a clustered index on
    /// its column.
    pub fn index_friendly(&self) -> bool {
        !matches!(self, Predicate::Cmp { op: CmpOp::Ne, .. })
    }
}

/// A parsed `@HailQuery` annotation: a conjunction of predicates plus a
/// projection list (0-based columns; empty = all attributes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HailQuery {
    pub predicates: Vec<Predicate>,
    pub projection: Vec<usize>,
}

impl HailQuery {
    /// Parses the `filter` and `projection` annotation strings against a
    /// schema. Either may be empty.
    pub fn parse(filter: &str, projection: &str, schema: &Schema) -> Result<HailQuery> {
        let predicates = if filter.trim().is_empty() {
            Vec::new()
        } else {
            parse_filter(filter, schema)?
        };
        let projection = if projection.trim().is_empty() {
            Vec::new()
        } else {
            parse_projection(projection, schema)?
        };
        Ok(HailQuery {
            predicates,
            projection,
        })
    }

    /// A full-scan query (no filter, all attributes).
    pub fn full_scan() -> HailQuery {
        HailQuery::default()
    }

    /// True if every predicate matches the row.
    pub fn matches(&self, row: &Row) -> bool {
        self.predicates.iter().all(|p| p.matches(row))
    }

    /// The projected 0-based columns; `None` means all attributes.
    pub fn projected_columns(&self, schema: &Schema) -> Vec<usize> {
        if self.projection.is_empty() {
            (0..schema.len()).collect()
        } else {
            self.projection.clone()
        }
    }

    /// Columns the reader must materialize: projected ∪ filtered.
    pub fn needed_columns(&self, schema: &Schema) -> Vec<usize> {
        let mut cols = self.projected_columns(schema);
        for p in &self.predicates {
            if !cols.contains(&p.column()) {
                cols.push(p.column());
            }
        }
        cols
    }

    /// The intersected key bounds of *all* index-friendly predicates on
    /// `column` — `@4 >= 1 and @4 <= 10` yields the tight `[1, 10]`
    /// range, not just the first conjunct's half-open one.
    pub fn bounds_on(&self, column: usize) -> Option<KeyBounds> {
        let mut bounds: Option<KeyBounds> = None;
        for p in &self.predicates {
            if p.column() == column && p.index_friendly() {
                let b = p.key_bounds();
                bounds = Some(match bounds {
                    None => b,
                    Some(acc) => acc.intersect(&b),
                });
            }
        }
        bounds
    }

    /// Columns of all index-friendly predicates, in annotation order —
    /// the candidates for index selection at query time.
    pub fn filter_columns(&self) -> Vec<usize> {
        self.predicates
            .iter()
            .filter(|p| p.index_friendly())
            .map(|p| p.column())
            .collect()
    }
}

/// Parses `@k` into a 0-based column index.
fn parse_attr(token: &str, schema: &Schema) -> Result<usize> {
    let t = token.trim();
    let rest = t
        .strip_prefix('@')
        .ok_or_else(|| HailError::Annotation(format!("expected @<pos>, got {t:?}")))?;
    let pos: usize = rest
        .parse()
        .map_err(|_| HailError::Annotation(format!("invalid attribute position {rest:?}")))?;
    schema.position_to_index(pos)
}

/// Parses a literal token against the attribute's declared type.
/// Single-quoted strings have their quotes stripped first.
fn parse_literal(token: &str, column: usize, schema: &Schema) -> Result<Value> {
    let t = token.trim();
    let unquoted = t
        .strip_prefix('\'')
        .and_then(|s| s.strip_suffix('\''))
        .unwrap_or(t);
    let dtype = schema.field(column)?.data_type;
    Value::parse(unquoted, dtype).map_err(|e| HailError::Annotation(format!("literal {t:?}: {e}")))
}

/// Splits a filter string on `and` (case-insensitive, word-boundary).
fn split_conjuncts(filter: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = filter;
    loop {
        // Find a case-insensitive " and " outside quotes.
        let lower = rest.to_ascii_lowercase();
        let mut cut = None;
        let mut in_quote = false;
        let bytes = lower.as_bytes();
        for i in 0..bytes.len() {
            match bytes[i] {
                b'\'' => in_quote = !in_quote,
                b'a' if !in_quote
                    && lower[i..].starts_with("and")
                    && i > 0
                    && bytes[i - 1].is_ascii_whitespace()
                    && lower[i + 3..].starts_with(char::is_whitespace) =>
                {
                    cut = Some(i);
                    break;
                }
                _ => {}
            }
        }
        match cut {
            Some(i) => {
                out.push(rest[..i].trim().to_string());
                rest = &rest[i + 3..];
            }
            None => {
                out.push(rest.trim().to_string());
                return out;
            }
        }
    }
}

/// Parses one conjunct: `@k op literal` or `@k between(lo, hi)`.
fn parse_conjunct(conjunct: &str, schema: &Schema) -> Result<Predicate> {
    let c = conjunct.trim();
    // between(…)?
    if let Some(idx) = c.to_ascii_lowercase().find("between") {
        let column = parse_attr(&c[..idx], schema)?;
        let args = c[idx + "between".len()..].trim();
        let inner = args
            .strip_prefix('(')
            .and_then(|s| s.strip_suffix(')'))
            .ok_or_else(|| HailError::Annotation(format!("between needs (lo, hi) in {c:?}")))?;
        let parts: Vec<&str> = inner.splitn(2, ',').collect();
        if parts.len() != 2 {
            return Err(HailError::Annotation(format!(
                "between needs two arguments in {c:?}"
            )));
        }
        let lo = parse_literal(parts[0], column, schema)?;
        let hi = parse_literal(parts[1], column, schema)?;
        if lo > hi {
            return Err(HailError::Annotation(format!(
                "between bounds reversed in {c:?}"
            )));
        }
        return Ok(Predicate::Between { column, lo, hi });
    }
    // Comparison: find the operator (longest match first).
    for (text, op) in [
        ("!=", CmpOp::Ne),
        ("<=", CmpOp::Le),
        (">=", CmpOp::Ge),
        ("<", CmpOp::Lt),
        (">", CmpOp::Gt),
        ("=", CmpOp::Eq),
    ] {
        if let Some(idx) = c.find(text) {
            let column = parse_attr(&c[..idx], schema)?;
            let value = parse_literal(&c[idx + text.len()..], column, schema)?;
            return Ok(Predicate::Cmp { column, op, value });
        }
    }
    Err(HailError::Annotation(format!(
        "unparseable predicate {c:?}"
    )))
}

fn parse_filter(filter: &str, schema: &Schema) -> Result<Vec<Predicate>> {
    split_conjuncts(filter)
        .iter()
        .map(|c| parse_conjunct(c, schema))
        .collect()
}

/// Parses `{@1, @3}` or `@1, @3` into 0-based columns.
fn parse_projection(projection: &str, schema: &Schema) -> Result<Vec<usize>> {
    let inner = projection
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or(projection.trim());
    inner
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| parse_attr(s, schema))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_types::{parse_line_strict, DataType, Field};

    /// The UserVisits-like schema of the paper's examples: @1 sourceIP,
    /// @3 visitDate, @4 adRevenue.
    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("sourceIP", DataType::VarChar),
            Field::new("destURL", DataType::VarChar),
            Field::new("visitDate", DataType::Date),
            Field::new("adRevenue", DataType::Float),
            Field::new("duration", DataType::Int),
        ])
        .unwrap()
    }

    fn row(line: &str) -> Row {
        parse_line_strict(line, &schema(), '|').unwrap()
    }

    #[test]
    fn bobs_q1_annotation() {
        // The paper's example annotation, verbatim (modulo spacing).
        let q = HailQuery::parse("@3 between(1999-01-01, 2000-01-01)", "{@1}", &schema()).unwrap();
        assert_eq!(q.predicates.len(), 1);
        assert_eq!(q.projection, vec![0]);
        assert!(q.matches(&row("1.1.1.1|u|1999-06-15|2.0|7")));
        assert!(q.matches(&row("1.1.1.1|u|1999-01-01|2.0|7")));
        assert!(q.matches(&row("1.1.1.1|u|2000-01-01|2.0|7")));
        assert!(!q.matches(&row("1.1.1.1|u|2000-01-02|2.0|7")));
    }

    #[test]
    fn equality_on_varchar() {
        let q = HailQuery::parse("@1 = '172.101.11.46'", "", &schema()).unwrap();
        assert!(q.matches(&row("172.101.11.46|u|1999-06-15|2.0|7")));
        assert!(!q.matches(&row("172.101.11.47|u|1999-06-15|2.0|7")));
        // Empty projection = all attributes.
        assert_eq!(q.projected_columns(&schema()), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn conjunction_bobs_q3() {
        let q = HailQuery::parse(
            "@1 = '172.101.11.46' and @3 = 1992-12-22",
            "{@2, @5}",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.predicates.len(), 2);
        assert!(q.matches(&row("172.101.11.46|u|1992-12-22|2.0|7")));
        assert!(!q.matches(&row("172.101.11.46|u|1992-12-23|2.0|7")));
        assert_eq!(q.projection, vec![1, 4]);
        // Needed columns = projection ∪ filters.
        let mut needed = q.needed_columns(&schema());
        needed.sort_unstable();
        assert_eq!(needed, vec![0, 1, 2, 4]);
    }

    #[test]
    fn range_on_float() {
        let q = HailQuery::parse("@4 >= 1 and @4 <= 10", "", &schema()).unwrap();
        assert!(q.matches(&row("a|u|1999-01-01|5.5|7")));
        assert!(q.matches(&row("a|u|1999-01-01|1|7")));
        assert!(!q.matches(&row("a|u|1999-01-01|0.5|7")));
        assert!(!q.matches(&row("a|u|1999-01-01|10.01|7")));
    }

    #[test]
    fn key_bounds_extraction() {
        let q = HailQuery::parse("@5 between(10, 20)", "", &schema()).unwrap();
        let b = q.bounds_on(4).unwrap();
        assert!(b.contains(&Value::Int(10)));
        assert!(b.contains(&Value::Int(20)));
        assert!(!b.contains(&Value::Int(21)));
        // != is not index friendly.
        let q2 = HailQuery::parse("@5 != 3", "", &schema()).unwrap();
        assert!(q2.bounds_on(4).is_none());
        assert!(q2.filter_columns().is_empty());
    }

    #[test]
    fn operators() {
        for (f, good, bad) in [
            ("@5 < 10", "a|u|1999-01-01|1.0|9", "a|u|1999-01-01|1.0|10"),
            ("@5 <= 10", "a|u|1999-01-01|1.0|10", "a|u|1999-01-01|1.0|11"),
            ("@5 > 10", "a|u|1999-01-01|1.0|11", "a|u|1999-01-01|1.0|10"),
            ("@5 >= 10", "a|u|1999-01-01|1.0|10", "a|u|1999-01-01|1.0|9"),
            ("@5 != 10", "a|u|1999-01-01|1.0|9", "a|u|1999-01-01|1.0|10"),
        ] {
            let q = HailQuery::parse(f, "", &schema()).unwrap();
            assert!(q.matches(&row(good)), "{f} should match {good}");
            assert!(!q.matches(&row(bad)), "{f} should reject {bad}");
        }
    }

    #[test]
    fn quoted_string_with_and_inside() {
        let q = HailQuery::parse("@1 = 'rock and roll'", "", &schema()).unwrap();
        assert_eq!(q.predicates.len(), 1);
        assert!(q.matches(&row("rock and roll|u|1999-01-01|1.0|1")));
    }

    #[test]
    fn parse_errors() {
        let s = schema();
        assert!(HailQuery::parse("@9 = 1", "", &s).is_err());
        assert!(HailQuery::parse("@0 = 1", "", &s).is_err());
        assert!(HailQuery::parse("@5 between(3)", "", &s).is_err());
        assert!(HailQuery::parse("@5 between(5, 3)", "", &s).is_err());
        assert!(HailQuery::parse("@5 ~ 3", "", &s).is_err());
        assert!(HailQuery::parse("@3 = not-a-date", "", &s).is_err());
        assert!(HailQuery::parse("", "{@7}", &s).is_err());
    }

    #[test]
    fn full_scan_query() {
        let q = HailQuery::full_scan();
        assert!(q.matches(&row("a|u|1999-01-01|1.0|1")));
        assert!(q.predicates.is_empty());
    }
}
