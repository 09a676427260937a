//! # hail-dfs
//!
//! An HDFS-like replicated block store rebuilt from scratch, with HAIL's
//! modifications:
//!
//! - [`namenode`] — `Dir_block` plus HAIL's per-replica `Dir_rep` (§3.3)
//! - [`datanode`] — data + checksum files on cost-accounted in-memory disks
//! - [`placement`] — writer-local, round-robin replica placement
//! - [`pipeline`] — the HDFS and HAIL upload pipelines (Fig. 1); HAIL's
//!   runs in two phases, a pure per-block prepare (packetize, sort,
//!   index, checksum every position) and a commit through the chain;
//!   the adaptive replica rewrite is split the same way
//! - [`cluster`] — the assembled DFS with per-node cost ledgers
//! - [`failure`] — node death, recovery, and replica-equivalence checks

#![forbid(unsafe_code)]

pub mod cluster;
pub mod datanode;
pub mod failure;
pub mod namenode;
pub mod pipeline;
pub mod placement;

pub use cluster::DfsCluster;
pub use datanode::Datanode;
pub use failure::{recover_logical_rows, verify_replica_equivalence, EXPIRY_INTERVAL_S};
pub use namenode::Namenode;
pub use pipeline::{
    commit_hail_block, commit_rewrite, hail_upload_block, hdfs_upload_block, prepare_hail_block,
    prepare_rewrite, rewrite_replica, store_transformed_block, FaultPlan, PreparedBlock,
    PreparedRewrite,
};
pub use placement::PlacementPolicy;
