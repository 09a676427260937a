//! Relational schemas for HAIL blocks.
//!
//! The paper addresses attributes by 1-based position (`@1`, `@3`) in the
//! `HailQuery` annotation language; [`Schema`] keeps that convention in its
//! lookup helpers while storing fields in a plain 0-based vector.

use crate::error::{HailError, Result};
use std::fmt;
use std::sync::Arc;

/// The data types supported by the HAIL binary (PAX) representation.
///
/// Fixed-size types are stored in dense minipages; `VarChar` values are
/// stored as zero-terminated byte sequences with a sparse offset list
/// (see `hail-pax`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer.
    Int,
    /// 64-bit signed integer.
    Long,
    /// 64-bit IEEE float. Ordered via `total_cmp` so blocks can be sorted
    /// on float keys deterministically.
    Float,
    /// Calendar date, stored as days since 1970-01-01 (32-bit).
    Date,
    /// Variable-length string (zero-terminated on disk).
    VarChar,
}

impl DataType {
    /// Width in bytes of the binary encoding, or `None` for variable-size
    /// types.
    pub fn fixed_width(self) -> Option<usize> {
        match self {
            DataType::Int | DataType::Date => Some(4),
            DataType::Long | DataType::Float => Some(8),
            DataType::VarChar => None,
        }
    }

    /// True if values of this type have a fixed binary width.
    pub fn is_fixed(self) -> bool {
        self.fixed_width().is_some()
    }

    /// Stable single-byte tag used in block headers.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Int => 0,
            DataType::Long => 1,
            DataType::Float => 2,
            DataType::Date => 3,
            DataType::VarChar => 4,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => DataType::Int,
            1 => DataType::Long,
            2 => DataType::Float,
            3 => DataType::Date,
            4 => DataType::VarChar,
            other => return Err(HailError::Corrupt(format!("unknown type tag {other}"))),
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Long => "LONG",
            DataType::Float => "FLOAT",
            DataType::Date => "DATE",
            DataType::VarChar => "VARCHAR",
        };
        f.write_str(s)
    }
}

/// A named, typed attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of fields describing the rows of a dataset.
///
/// Schemas are cheap to clone (`Arc` inside) because every block, split and
/// record reader carries one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<Vec<Field>>,
}

impl Schema {
    /// Builds a schema, validating that field names are unique and
    /// non-empty.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        if fields.is_empty() {
            return Err(HailError::Schema(
                "schema must have at least one field".into(),
            ));
        }
        for (i, f) in fields.iter().enumerate() {
            if f.name.is_empty() {
                return Err(HailError::Schema(format!("field {i} has an empty name")));
            }
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(HailError::Schema(format!(
                    "duplicate field name {:?}",
                    f.name
                )));
            }
        }
        Ok(Schema {
            fields: Arc::new(fields),
        })
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no attributes (never constructible via
    /// [`Schema::new`], but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// All fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Field at 0-based index.
    pub fn field(&self, idx: usize) -> Result<&Field> {
        self.fields
            .get(idx)
            .ok_or(HailError::UnknownAttribute(idx + 1))
    }

    /// Converts a 1-based attribute position to a 0-based column index,
    /// validating range.
    pub fn position_to_index(&self, pos: usize) -> Result<usize> {
        if pos == 0 || pos > self.len() {
            return Err(HailError::UnknownAttribute(pos));
        }
        Ok(pos - 1)
    }

    /// 0-based index of the field with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("sourceIP", DataType::VarChar),
            Field::new("visitDate", DataType::Date),
            Field::new("adRevenue", DataType::Float),
            Field::new("duration", DataType::Int),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_schema() {
        assert!(matches!(Schema::new(vec![]), Err(HailError::Schema(_))));
    }

    #[test]
    fn rejects_duplicate_names() {
        let r = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Long),
        ]);
        assert!(matches!(r, Err(HailError::Schema(_))));
    }

    #[test]
    fn rejects_empty_field_name() {
        let r = Schema::new(vec![Field::new("", DataType::Int)]);
        assert!(matches!(r, Err(HailError::Schema(_))));
    }

    #[test]
    fn one_based_positions() {
        let s = sample();
        let at = |pos| s.position_to_index(pos).map(|i| &s.field(i).unwrap().name);
        assert_eq!(at(1).unwrap(), "sourceIP");
        assert_eq!(at(4).unwrap(), "duration");
        assert!(at(0).is_err());
        assert!(at(5).is_err());
        assert_eq!(s.position_to_index(2).unwrap(), 1);
    }

    #[test]
    fn index_of_by_name() {
        let s = sample();
        assert_eq!(s.index_of("adRevenue"), Some(2));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn type_tags_round_trip() {
        for t in [
            DataType::Int,
            DataType::Long,
            DataType::Float,
            DataType::Date,
            DataType::VarChar,
        ] {
            assert_eq!(DataType::from_tag(t.tag()).unwrap(), t);
        }
        assert!(DataType::from_tag(99).is_err());
    }

    #[test]
    fn display_formats() {
        let s = sample();
        let d = s.to_string();
        assert!(d.contains("sourceIP VARCHAR"));
        assert!(d.contains("visitDate DATE"));
    }

    #[test]
    fn clone_is_shallow() {
        let s = sample();
        let t = s.clone();
        assert!(Arc::ptr_eq(&s.fields, &t.fields));
    }
}
