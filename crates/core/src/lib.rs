//! # hail-core
//!
//! HAIL (Hadoop Aggressive Indexing Library) storage side — the paper's
//! upload pipeline and query language, built on the `hail-dfs` replica
//! store:
//!
//! - [`upload`] — the HAIL upload client (parse → PAX → per-replica
//!   sort + index, prepared in parallel a bounded number of blocks
//!   ahead while the blocks already prepared are committed through the
//!   replication pipeline in order), plus the standard HDFS upload and
//!   the naive two-pass ablation
//! - [`annotation`] — the `@HailQuery` filter/projection language
//! - [`baselines`] — Hadoop++'s storage format and upload jobs (trojan
//!   index, row layout)
//! - [`dataset`] — dataset handles
//! - [`knobs`] — frozen-suite residue with no knob in it: the engine
//!   reads no environment
//!
//! The query side — record readers, splitting policies, input formats —
//! lives in the `hail-exec` crate behind its cost-based `QueryPlanner`,
//! so that every replica and access-path decision is made in one place.

#![forbid(unsafe_code)]

pub mod annotation;
pub mod baselines;
pub mod dataset;
pub mod knobs;
pub mod upload;

pub use annotation::{CmpOp, HailQuery, Predicate};
pub use baselines::hadoop_plus_plus::{
    encode_row_block, trojan_header_bytes, upload_hadoop_plus_plus, HppUploadReport, RowBlock,
};
pub use dataset::{Dataset, DatasetFormat};
pub use upload::{upload_hadoop, upload_hail, upload_hail_naive, upload_seconds};
