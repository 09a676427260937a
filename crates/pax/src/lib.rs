//! # hail-pax
//!
//! The PAX storage layout for HAIL blocks plus the HDFS chunk/packet
//! checksum machinery.
//!
//! - [`block`] — the serialized PAX block format and its reader
//! - [`cursor`] — forward per-column cursors for the scan kernel
//! - [`builder`] — content-aware block building (never split a row)
//! - [`column`](mod@column) — decoded, typed column vectors: the naive form
//!   the byte-level write path is tested against
//! - [`reorg`] — per-replica block rewriting: a byte-level sort gather over
//!   row offsets located once per block
//! - [`checksum`] — CRC-32 chunks, packets, checksum files, and
//!   [`ReplicaBytes`]: a replica verified chunk by chunk as it is read

#![forbid(unsafe_code)]

pub mod block;
pub mod builder;
pub mod checksum;
pub mod column;
pub mod cursor;
pub mod reorg;

pub use block::{encode_block, PaxBlock, PAX_MAGIC, PAX_VERSION};
pub use builder::{block_spans, blocks_from_text, PaxBlockBuilder};
pub use checksum::{
    checksums_from_bytes, checksums_to_bytes, chunk_checksums, crc32, packetize, reassemble,
    verify_chunks, Packet, ReplicaBytes, CHUNKS_PER_PACKET,
};
pub use column::ColumnData;
pub use cursor::ColumnCursor;
pub use reorg::{is_sorted_on, sort_block, sort_permutation, BlockRows};
