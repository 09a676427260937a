//! # hail-index
//!
//! Indexing structures for HAIL block replicas:
//!
//! - [`clustered`] — the paper's sparse clustered index (Fig. 2)
//! - [`sort`] — per-replica sort orders and the upload index configuration
//! - [`indexed`] — the HAIL block container (PAX data + index + metadata)
//! - [`metadata`] — index metadata and the namenode's per-replica info
//! - [`trojan`] — the Hadoop++ trojan-index baseline
//! - [`unclustered`] — dense unclustered index (ablation only)
//! - [`synopsis`] — per-block zone maps and Bloom filters for block
//!   skipping, stored as sidecars next to the primary index

#![forbid(unsafe_code)]

pub mod clustered;
pub mod indexed;
pub mod metadata;
pub mod sort;
pub mod synopsis;
pub mod trojan;
pub mod unclustered;

pub use clustered::{ClusteredIndex, KeyBounds};
pub use indexed::{BlockPrep, IndexedBlock, ReplicaTail, TRAILER_LEN, TRAILER_MAGIC};
pub use metadata::{
    HailBlockReplicaInfo, IndexKind, IndexMetadata, SidecarMetadata, SIDECAR_META_LEN,
};
pub use sort::{ReplicaIndexConfig, SidecarSpec, SortOrder};
pub use synopsis::{BloomSynopsis, ZoneMapSynopsis};
pub use trojan::{TrojanIndex, TROJAN_GRANULARITY};
pub use unclustered::UnclusteredIndex;

/// A value's display string — what the Bloom filter hashes. A string is
/// lent as it lies in its block; any other value is formatted into
/// `scratch`, which callers reuse from value to value.
fn display_str<'s>(v: hail_types::ValueRef<'s>, scratch: &'s mut String) -> &'s str {
    match v {
        hail_types::ValueRef::Str(s) => s,
        other => {
            scratch.clear();
            other.push_text(scratch);
            scratch
        }
    }
}

/// Unwraps the result of a fallible builder run over values that cannot
/// fail to be read.
fn infallible<T>(result: std::result::Result<T, std::convert::Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}
