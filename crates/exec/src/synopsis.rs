//! The block-skipping pass: evaluate a query against persisted
//! zone-map/Bloom synopses **before** candidate enumeration.
//!
//! The (crate-private) `try_prune` entry point runs in front of
//! [`crate::QueryPlanner`]'s pricing
//! pass: when a block's synopsis proves no row can match the query,
//! the planner emits a zero-cost [`crate::BlockPlan`] instead of
//! pricing candidates, and execution never reads the block. The
//! decision is **strictly conservative** — every exit short of a
//! proof is "no prune":
//!
//! - no synopsis on any live replica (per `Dir_rep`) ⇒ no prune;
//! - the synopsis-holding replica is dead, its tail fails to open, or its
//!   synopsis fails its checksums or does not decode ⇒ try the next
//!   holder, then give up (HAIL's failover story: planning degrades to
//!   the unpruned path, never errors) — so a corrupt synopsis can never
//!   prove a block empty;
//! - the block has *any* bad records ⇒ no prune, because every access
//!   path emits bad records unconditionally and skipping the block
//!   would drop them;
//! - non-PAX formats are never pruned.
//!
//! Each holder is opened at most once per decision, however many
//! synopses are probed on it (`Holders`), and only as far as its tail
//! ([`ReplicaTail`]): opening verifies the container's trailer and
//! metadata, and decoding a synopsis verifies that sidecar's chunks —
//! the PAX header, directory and clustered index are never read, so a
//! probe costs far less than the read it may skip, and damage there
//! cannot stop a sound prune.
//!
//! Synopsis probes are priced like the namenode's `Dir_rep` lookups —
//! free main-memory operations — but their stored bytes are surfaced
//! through `TaskStats::synopsis_bytes_read` so benchmarks can weigh
//! probe footprint against the reads skipped.

use crate::planner::PlannerConfig;
use hail_core::{CmpOp, DatasetFormat, HailQuery, Predicate};
use hail_dfs::DfsCluster;
use hail_index::{HailBlockReplicaInfo, IndexMetadata, ReplicaTail};
use hail_types::{BlockId, Value};
use std::fmt;

/// Which synopsis kind proved a block empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The query's bounds on a column are disjoint from the block's
    /// zone-map min/max.
    Zone,
    /// An equality literal is provably absent from the block's Bloom
    /// filter.
    Bloom,
}

impl fmt::Display for PruneReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruneReason::Zone => f.write_str("zone"),
            PruneReason::Bloom => f.write_str("bloom"),
        }
    }
}

/// The proof that a block can be skipped, carried on the zero-cost
/// [`crate::BlockPlan`] so execution can synthesize the statistics the
/// skipped read would have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneInfo {
    pub reason: PruneReason,
    /// 0-based filter column the proof is about.
    pub column: usize,
    /// Predicate class of the query on that column (equality vs range)
    /// — must match what an executed path would have observed, so the
    /// synthesized selectivity observation lands in the same evidence
    /// class.
    pub eq: bool,
    /// Rows in the skipped block, per its synopsis.
    pub row_count: usize,
    /// Stored bytes of every synopsis consulted for this decision.
    pub synopsis_bytes: u64,
}

/// Evaluates `query` against the block's persisted synopses, returning
/// the proof that it can be skipped — or `None`, conservatively, on
/// any doubt. See the module docs for the exact back-off rules.
pub(crate) fn try_prune(
    cluster: &DfsCluster,
    config: &PlannerConfig,
    format: DatasetFormat,
    block: BlockId,
    query: &HailQuery,
) -> Option<PruneInfo> {
    if !config.synopsis_pruning || format != DatasetFormat::HailPax {
        return None;
    }
    let mut columns = query.filter_columns();
    columns.sort_unstable();
    columns.dedup();
    if columns.is_empty() {
        return None;
    }

    let mut holders = Holders::new(cluster, block);
    let mut synopsis_bytes: u64 = 0;
    for column in columns {
        let eq = crate::feedback::has_eq_on(query, column);

        // Zone map first: it serves every predicate shape the bounds
        // capture (ranges and points alike).
        if let Some(bounds) = query.bounds_on(column) {
            if let Some(zm) = holders.read_synopsis(
                |m| m.zone_map_on(column).is_some(),
                |b| {
                    b.zone_map_sidecar(column)
                        .map(|s| s.map(|(meta, z)| (meta.sidecar_bytes as u64, z)))
                },
            ) {
                synopsis_bytes += zm.0;
                let z = zm.1;
                if z.bad_records() == 0 && !z.overlaps(&bounds) {
                    return Some(PruneInfo {
                        reason: PruneReason::Zone,
                        column,
                        eq,
                        row_count: z.row_count(),
                        synopsis_bytes,
                    });
                }
            }
        }

        // Bloom filter: equality literals only. A conjunction with any
        // provably-absent literal selects nothing.
        let eq_values: Vec<&Value> = query
            .predicates
            .iter()
            .filter_map(|p| match p {
                Predicate::Cmp {
                    column: c,
                    op: CmpOp::Eq,
                    value,
                } if *c == column => Some(value),
                _ => None,
            })
            .collect();
        if !eq_values.is_empty() {
            if let Some(bl) = holders.read_synopsis(
                |m| m.bloom_on(column).is_some(),
                |b| {
                    b.bloom_sidecar(column)
                        .map(|s| s.map(|(meta, f)| (meta.sidecar_bytes as u64, f)))
                },
            ) {
                synopsis_bytes += bl.0;
                let f = bl.1;
                if f.bad_records() == 0 && eq_values.iter().any(|v| !f.might_contain(v)) {
                    return Some(PruneInfo {
                        reason: PruneReason::Bloom,
                        column,
                        eq,
                        row_count: f.row_count(),
                        synopsis_bytes,
                    });
                }
            }
        }
    }
    None
}

/// The live replicas of one block, each opened as far as its tail at
/// most once per prune decision — on the first probe that needs it — and
/// kept for the probes after.
struct Holders<'a> {
    cluster: &'a DfsCluster,
    block: BlockId,
    replicas: Vec<&'a HailBlockReplicaInfo>,
    /// Per replica: not yet opened, failed to open, or opened.
    opened: Vec<Option<Option<ReplicaTail>>>,
}

impl<'a> Holders<'a> {
    fn new(cluster: &'a DfsCluster, block: BlockId) -> Holders<'a> {
        let replicas = cluster.namenode().live_replicas(block);
        Holders {
            cluster,
            block,
            opened: vec![None; replicas.len()],
            replicas,
        }
    }

    /// Reads one synopsis from the first live replica whose `Dir_rep`
    /// entry lists it (`holds`), whose tail opens and whose copy verifies
    /// and decodes — a replica that stores none is never opened. Replicas
    /// of a block hold the same logical rows, so every copy of a synopsis
    /// is identical — the first readable one decides. Any failure (dead
    /// node, corrupt trailer, metadata or sidecar) falls through to the
    /// next holder; exhausting them means "no synopsis".
    fn read_synopsis<T>(
        &mut self,
        holds: impl Fn(&IndexMetadata) -> bool,
        extract: impl Fn(&ReplicaTail) -> hail_types::Result<Option<(u64, T)>>,
    ) -> Option<(u64, T)> {
        let (cluster, block) = (self.cluster, self.block);
        for (info, opened) in self.replicas.iter().zip(&mut self.opened) {
            if !holds(&info.index) {
                continue;
            }
            let opened = opened.get_or_insert_with(|| {
                let replica = cluster.datanode(info.datanode).ok()?.open_replica(block);
                ReplicaTail::open(replica.ok()?).ok()
            });
            if let Some(Ok(Some(found))) = opened.as_ref().map(&extract) {
                return Some(found);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_reason_display() {
        assert_eq!(PruneReason::Zone.to_string(), "zone");
        assert_eq!(PruneReason::Bloom.to_string(), "bloom");
    }
}
