//! # hail-types
//!
//! Foundation types for the HAIL workspace: schemas, typed values, rows,
//! binary codecs, configuration constants, and the shared error type.
//!
//! Everything here is deliberately dependency-light; the storage engine
//! (`hail-pax`, `hail-dfs`), the MapReduce engine (`hail-mr`) and the HAIL
//! library proper (`hail-core`) all build on these types.

#![forbid(unsafe_code)]

pub mod access;
pub mod bytes_util;
pub mod config;
pub mod error;
pub mod row;
pub mod schema;
pub mod value;

pub use access::AccessPathKind;
pub use config::StorageConfig;
pub use error::{HailError, Result};
pub use row::{parse_line, parse_line_strict, ParsedRecord, Row};
pub use schema::{DataType, Field, Schema};
pub use value::{Value, ValueRef};

/// Identifier of a logical HDFS block.
pub type BlockId = u64;

/// Identifier of a datanode (0-based; `DN1` in the paper is id 0).
pub type DatanodeId = usize;
