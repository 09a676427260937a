//! Splitting policies, driven by the planner's [`QueryPlan`]: default
//! Hadoop splitting and `HailSplitting` (§4.3).
//!
//! Default Hadoop creates one input split per block — 3,200 blocks means
//! 3,200 map tasks, each paying seconds of scheduling overhead.
//!
//! `HailSplitting` collapses the task count: blocks whose plan is an
//! index scan are clustered by the datanode the planner chose to serve
//! them, and each collection is cut into *as many input splits as the
//! TaskTracker has map slots* — a 10-node cluster with 2 slots per node
//! runs the whole job in ~20 map tasks, one wave (the mechanism behind
//! the 68× end-to-end result). Blocks planned as full scans keep default
//! per-block splits, so their failover granularity is unchanged.
//!
//! The split locations come straight out of the plan: the scheduler
//! never consults the namenode's index directory itself.

use crate::planner::QueryPlan;
use hail_dfs::DfsCluster;
use hail_mr::{InputSplit, SplitPlan};
use hail_types::{BlockId, DatanodeId, Result};
use std::collections::BTreeMap;

/// Default Hadoop splitting: one split per block, located at the
/// block's replica holders, no planning involved.
pub fn default_splits(cluster: &DfsCluster, blocks: &[BlockId]) -> Result<SplitPlan> {
    let mut splits = Vec::with_capacity(blocks.len());
    for &b in blocks {
        let hosts = cluster.namenode().get_hosts(b)?;
        splits.push(InputSplit::for_block(b, hosts));
    }
    Ok(SplitPlan {
        splits,
        ..Default::default()
    })
}

/// Per-block splits whose location lists come from the plan (chosen
/// replica first) — the §6.4 configuration: HailSplitting disabled, but
/// the JobTracker still schedules map tasks "to the replicas having the
/// matching index".
pub fn plan_default_splits(plan: &QueryPlan) -> SplitPlan {
    SplitPlan {
        splits: plan
            .blocks
            .iter()
            .map(|bp| InputSplit::for_block(bp.block, bp.locations.clone()))
            .collect(),
        ..Default::default()
    }
}

/// `HailSplitting` over a computed plan: cluster index-served blocks by
/// their serving datanode, then cut each collection into `map_slots`
/// splits; full-scan blocks keep per-block splits.
pub fn plan_hail_splits(plan: &QueryPlan, map_slots: usize) -> SplitPlan {
    let mut by_node: BTreeMap<DatanodeId, Vec<BlockId>> = BTreeMap::new();
    let mut scanned: Vec<&crate::planner::BlockPlan> = Vec::new();
    for bp in &plan.blocks {
        // Synopsis-pruned blocks ride along with the index-served
        // collections: they cost nothing to "read" (execution skips
        // them), so packing them into collected splits keeps the
        // per-block scan splits for blocks that genuinely stream.
        if bp.kind.is_index_scan() || bp.pruned.is_some() {
            by_node.entry(bp.replica).or_default().push(bp.block);
        } else {
            scanned.push(bp);
        }
    }

    let mut splits = Vec::new();
    for (node, collection) in by_node {
        // As many splits per collection as the TaskTracker has map slots,
        // so every slot of the node gets one task.
        let n_splits = map_slots.max(1).min(collection.len());
        let per = collection.len().div_ceil(n_splits);
        for chunk in collection.chunks(per) {
            splits.push(InputSplit::new(chunk.to_vec(), vec![node]));
        }
    }
    // Full-scan blocks: default splitting, locations from the plan.
    for bp in scanned {
        splits.push(InputSplit::for_block(bp.block, bp.locations.clone()));
    }
    SplitPlan {
        splits,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlannedInputFormat;
    use hail_core::{upload_hail, Dataset, HailQuery};
    use hail_index::ReplicaIndexConfig;
    use hail_mr::InputFormat;
    use hail_types::{DataType, Field, Schema, StorageConfig};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
        ])
        .unwrap()
    }

    fn setup(nodes: usize, rows_per_node: usize) -> (DfsCluster, Dataset) {
        let mut c = DfsCluster::new(nodes, StorageConfig::test_scale(512));
        let cfg = ReplicaIndexConfig::first_indexed(3, &[0, 1]);
        let texts: Vec<(usize, String)> = (0..nodes)
            .map(|n| {
                (
                    n,
                    (0..rows_per_node)
                        .map(|i| format!("{}|w{}\n", i * 3 + n, i))
                        .collect(),
                )
            })
            .collect();
        let ds = upload_hail(&mut c, &schema(), "t", &texts, &cfg).unwrap();
        (c, ds)
    }

    /// The HAIL input format's splits, 2 map slots per node.
    fn format_splits(c: &DfsCluster, ds: &Dataset, q: &HailQuery) -> SplitPlan {
        let format = PlannedInputFormat::new(ds.clone(), q.clone());
        format.splits(c, &ds.blocks).unwrap()
    }

    #[test]
    fn default_one_split_per_block() {
        let (c, ds) = setup(4, 60);
        let plan = default_splits(&c, &ds.blocks).unwrap();
        assert_eq!(plan.splits.len(), ds.blocks.len());
        for s in &plan.splits {
            assert_eq!(s.blocks.len(), 1);
            assert_eq!(s.locations.len(), 3);
        }
    }

    #[test]
    fn hail_splitting_collapses_task_count() {
        let (c, ds) = setup(4, 500);
        let blocks = &ds.blocks;
        assert!(blocks.len() > 16, "need many blocks, got {}", blocks.len());
        let q = HailQuery::parse("@1 between(5, 50)", "", &schema()).unwrap();
        let plan = format_splits(&c, &ds, &q);
        // At most map_slots × nodes splits — far fewer than blocks.
        assert!(
            plan.splits.len() <= 2 * 4,
            "{} splits for {} blocks",
            plan.splits.len(),
            blocks.len()
        );
        // Every block appears exactly once.
        let mut seen: Vec<BlockId> = plan.splits.iter().flat_map(|s| s.blocks.clone()).collect();
        seen.sort_unstable();
        let mut expected = blocks.clone();
        expected.sort_unstable();
        assert_eq!(seen, expected);
        // Splits are single-located at the planner-chosen index holder.
        for s in &plan.splits {
            assert_eq!(s.locations.len(), 1);
        }
    }

    #[test]
    fn full_scan_keeps_default_splitting() {
        let (c, ds) = setup(4, 100);
        let q = HailQuery::full_scan();
        let plan = format_splits(&c, &ds, &q);
        assert_eq!(plan.splits.len(), ds.blocks.len());
    }

    #[test]
    fn dead_index_nodes_fall_back_to_default_splits() {
        let (mut c, ds) = setup(4, 100);
        let blocks = &ds.blocks;
        let q = HailQuery::parse("@1 = 7", "", &schema()).unwrap();
        // Kill every node holding a column-0 index.
        let mut killers = std::collections::BTreeSet::new();
        for &b in blocks {
            for h in c.namenode().get_hosts_with_index(b, 0).unwrap() {
                killers.insert(h);
            }
        }
        for k in killers {
            c.kill_node(k).unwrap();
        }
        let plan = format_splits(&c, &ds, &q);
        // Blocks may still be readable; none has an index host, so all
        // fall back to per-block splits (failover granularity intact).
        assert_eq!(plan.splits.len(), blocks.len());
    }

    #[test]
    fn no_silent_block_loss_in_mixed_plans() {
        let (c, ds) = setup(4, 150);
        let q = HailQuery::parse("@2 = 'w3'", "", &schema()).unwrap();
        let plan = format_splits(&c, &ds, &q);
        let total: usize = plan.splits.iter().map(|s| s.blocks.len()).sum();
        assert_eq!(total, ds.blocks.len());
    }
}
