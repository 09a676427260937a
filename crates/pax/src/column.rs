//! Decoded, typed column vectors: the naive in-memory form of a PAX block.
//!
//! The upload and rewrite paths no longer pass through it — the builder
//! appends binary values to byte buffers and the sort gathers serialized
//! cells ([`crate::builder`], [`crate::reorg`]). It stays as the public
//! decoded view of a column and as the reference those kernels are tested
//! against.

use hail_types::{DataType, HailError, Result, Value};

/// A fully decoded column: one dense, typed vector.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int(Vec<i32>),
    Long(Vec<i64>),
    Float(Vec<f64>),
    Date(Vec<i32>),
    Str(Vec<String>),
}

impl ColumnData {
    /// An empty column of the given type.
    pub fn new(data_type: DataType) -> Self {
        match data_type {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Long => ColumnData::Long(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::VarChar => ColumnData::Str(Vec::new()),
        }
    }

    /// An empty column with reserved capacity.
    pub fn with_capacity(data_type: DataType, cap: usize) -> Self {
        match data_type {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Long => ColumnData::Long(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(cap)),
            DataType::VarChar => ColumnData::Str(Vec::with_capacity(cap)),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Long(_) => DataType::Long,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Str(_) => DataType::VarChar,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) | ColumnData::Date(v) => v.len(),
            ColumnData::Long(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value; errors on type mismatch.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        match (self, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(*x),
            (ColumnData::Long(v), Value::Long(x)) => v.push(*x),
            (ColumnData::Float(v), Value::Float(x)) => v.push(*x),
            (ColumnData::Date(v), Value::Date(x)) => v.push(*x),
            (ColumnData::Str(v), Value::Str(x)) => v.push(x.clone()),
            (col, value) => {
                return Err(HailError::Schema(format!(
                    "cannot push {} value into {} column",
                    value.data_type(),
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Value at index (panics out of range, like slice indexing).
    pub fn value(&self, idx: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[idx]),
            ColumnData::Long(v) => Value::Long(v[idx]),
            ColumnData::Float(v) => Value::Float(v[idx]),
            ColumnData::Date(v) => Value::Date(v[idx]),
            ColumnData::Str(v) => Value::Str(v[idx].clone()),
        }
    }

    /// Applies a permutation: output position `i` takes the value at input
    /// position `perm[i]`. This is the "sort index" reorganization of
    /// §3.5: once the key column is sorted, every other column is permuted
    /// with the same index.
    pub fn permute(&self, perm: &[usize]) -> ColumnData {
        debug_assert_eq!(perm.len(), self.len());
        match self {
            ColumnData::Int(v) => ColumnData::Int(perm.iter().map(|&i| v[i]).collect()),
            ColumnData::Long(v) => ColumnData::Long(perm.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(perm.iter().map(|&i| v[i]).collect()),
            ColumnData::Date(v) => ColumnData::Date(perm.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(perm.iter().map(|&i| v[i].clone()).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut c = ColumnData::new(DataType::Int);
        c.push(&Value::Int(5)).unwrap();
        c.push(&Value::Int(-1)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(1), Value::Int(-1));
    }

    #[test]
    fn push_type_mismatch() {
        let mut c = ColumnData::new(DataType::Int);
        assert!(c.push(&Value::Str("x".into())).is_err());
        assert!(c.push(&Value::Long(1)).is_err());
    }

    #[test]
    fn permutation_reorders() {
        let mut c = ColumnData::new(DataType::VarChar);
        for s in ["b", "c", "a"] {
            c.push(&Value::Str(s.into())).unwrap();
        }
        let p = c.permute(&[2, 0, 1]);
        assert_eq!(p.value(0), Value::Str("a".into()));
        assert_eq!(p.value(1), Value::Str("b".into()));
        assert_eq!(p.value(2), Value::Str("c".into()));
    }

    #[test]
    fn with_capacity_types() {
        for t in [
            DataType::Int,
            DataType::Long,
            DataType::Float,
            DataType::Date,
            DataType::VarChar,
        ] {
            let c = ColumnData::with_capacity(t, 16);
            assert_eq!(c.data_type(), t);
            assert!(c.is_empty());
        }
    }
}
