//! Adaptive incremental re-indexing: the aggressive-elephant loop,
//! closed.
//!
//! The paper's upload-time design is static — Bob picks the per-replica
//! sort orders once, and a workload that later concentrates on an
//! unindexed column pays full scans forever. This module reacts: when
//! the [`SelectivityFeedback`] store shows *sustained* evidence of a
//! selective predicate on a column no replica can serve, a
//! [`ReindexAdvisor`] recommends building the missing clustered index
//! (range predicates) or bitmap sidecar (equality predicates) on one
//! replica per block, and [`apply_reindex`] performs the in-place
//! rewrite through `hail_dfs::rewrite_replica` — the same step-7
//! sort/index/register machinery the upload pipeline runs, minus the
//! network hop.
//!
//! # The correctness contract
//!
//! Concurrent queries must see either the old design or the new one,
//! never a half-registered hybrid. The enforcement is structural:
//! [`apply_reindex`] takes `&mut DfsCluster` while every planning and
//! read path takes `&DfsCluster`, so the borrow checker itself
//! guarantees no query is in flight while `Dir_rep` mutates. Under a
//! `JobManager` workload this means re-indexing runs at batch
//! boundaries — admitted jobs are never paused mid-split, and because
//! rebuild decisions depend only on evidence absorbed in job-submission
//! order, the FullScan→index flip lands at the same job boundary at
//! every concurrency.
//!
//! Each rewritten replica re-registers through
//! `Namenode::register_replica`, which bumps the design epoch. The next
//! job plans cold against the updated `Dir_rep`, so it prices the
//! candidates the new design offers; a split plan cut before the
//! rewrite is stamped with the old epoch, so its reads plan again
//! instead of executing it.
//!
//! # Hysteresis
//!
//! One skewed job must not trigger a rebuild. The advisor requires
//! `min_observations` absorbed block observations, an observed mean
//! selectivity at or below `max_selectivity`, *and* the evidence to
//! persist across `hysteresis_rounds` consecutive advisory rounds
//! before it recommends anything; a round without evidence resets the
//! streak. Each `(column, class)` is rebuilt at most once.

use crate::feedback::SelectivityFeedback;
use hail_dfs::{rewrite_replica, DfsCluster, Namenode};
use hail_index::{IndexKind, IndexMetadata, SidecarSpec, SortOrder};
use hail_sync::{LockRank, OrderedMutex};
use hail_types::{BlockId, DatanodeId, Result};
use std::collections::BTreeMap;
use std::fmt;

/// What kind of index a recommendation builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReindexKind {
    /// A clustered index: re-sort one unsorted replica per block on the
    /// target column (serves range and point predicates).
    Clustered,
    /// A bitmap sidecar over the target column on one replica per block
    /// (serves equality predicates; sort-order independent).
    BitmapSidecar,
}

impl fmt::Display for ReindexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReindexKind::Clustered => f.write_str("clustered"),
            ReindexKind::BitmapSidecar => f.write_str("bitmap-sidecar"),
        }
    }
}

/// One advisory recommendation: build `kind` over `column`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReindexAction {
    /// 0-based target column.
    pub column: usize,
    /// Predicate class the evidence came from (`true` = equality).
    pub eq: bool,
    /// What to build.
    pub kind: ReindexKind,
}

/// Evidence thresholds and hysteresis for the advisor.
#[derive(Debug, Clone)]
pub struct ReindexPolicy {
    /// Master switch; defaults to [`hail_core::knobs::reindex_enabled`]
    /// (off under `HAIL_DISABLE_REINDEX=1`). Disabled advisors never
    /// recommend anything: the design stays frozen.
    pub enabled: bool,
    /// Minimum absorbed block observations for a `(column, class)`
    /// before its evidence counts at all.
    pub min_observations: u64,
    /// Observed mean selectivity must be at or below this for the
    /// predicate to be worth an index (a scan-friendly predicate never
    /// triggers a rebuild).
    pub max_selectivity: f64,
    /// Consecutive advisory rounds the evidence must persist before a
    /// rebuild fires. A round without evidence resets the streak — one
    /// skewed job cannot trigger a rewrite on its own.
    pub hysteresis_rounds: u32,
    /// At most this many rebuild actions per round, so background
    /// maintenance stays bounded between job batches.
    pub max_builds_per_round: usize,
}

impl Default for ReindexPolicy {
    fn default() -> Self {
        ReindexPolicy {
            enabled: hail_core::knobs::reindex_enabled(),
            min_observations: 6,
            max_selectivity: 0.15,
            hysteresis_rounds: 2,
            max_builds_per_round: 1,
        }
    }
}

/// Per-(column, class) trigger state.
#[derive(Debug, Default, Clone)]
struct TriggerState {
    /// Consecutive rounds with qualifying evidence.
    streak: u32,
    /// Set once an action fired; the advisor never re-recommends.
    fired: bool,
}

/// The advisory side of the loop: watches a [`SelectivityFeedback`]
/// store between job batches and recommends missing indexes once the
/// evidence is sustained. Interior-mutable behind a mutex
/// ([`LockRank::AdvisorState`] — held across `SelectivityFeedback`
/// reads, hence ranked above [`LockRank::Feedback`]) so it can sit in
/// shared infrastructure next to the evidence store.
#[derive(Debug)]
pub struct ReindexAdvisor {
    policy: ReindexPolicy,
    state: OrderedMutex<BTreeMap<(usize, bool), TriggerState>>,
}

impl Default for ReindexAdvisor {
    fn default() -> Self {
        ReindexAdvisor::new(ReindexPolicy::default())
    }
}

impl ReindexAdvisor {
    pub fn new(policy: ReindexPolicy) -> Self {
        ReindexAdvisor {
            policy,
            state: OrderedMutex::new(
                LockRank::AdvisorState,
                "reindex-advisor-state",
                BTreeMap::new(),
            ),
        }
    }

    /// The advisor's policy.
    pub fn policy(&self) -> &ReindexPolicy {
        &self.policy
    }

    /// True when a `(column, class)` already fired (diagnostics).
    pub fn has_fired(&self, column: usize, eq: bool) -> bool {
        self.state
            .acquire()
            .get(&(column, eq))
            .is_some_and(|s| s.fired)
    }

    /// One advisory round, run between job batches: walks the feedback
    /// store's evidence in deterministic (column, class) order, updates
    /// hysteresis streaks, and returns the rebuild actions whose
    /// evidence has persisted long enough. `blocks` scopes the design
    /// gap check to one dataset's blocks.
    ///
    /// Evidence for a `(column, class)` qualifies when:
    /// - at least `min_observations` block observations were absorbed,
    /// - the observed mean selectivity is ≤ `max_selectivity`, and
    /// - some live block lacks any replica able to serve the predicate
    ///   (no clustered index on the column; for equality, no bitmap
    ///   sidecar either).
    pub fn note_round(
        &self,
        feedback: &SelectivityFeedback,
        namenode: &Namenode,
        blocks: &[BlockId],
    ) -> Vec<ReindexAction> {
        if !self.policy.enabled {
            return Vec::new();
        }
        let mut state = self.state.acquire();
        let mut actions = Vec::new();
        for (column, eq) in feedback.observed_classes() {
            let entry = state.entry((column, eq)).or_default();
            let qualified = feedback.observation_count(column, eq) >= self.policy.min_observations
                && feedback
                    .observed(column, eq)
                    .is_some_and(|(mean, _)| mean <= self.policy.max_selectivity)
                && design_gap(namenode, blocks, column, eq);
            if !qualified {
                entry.streak = 0;
                continue;
            }
            entry.streak += 1;
            if entry.streak >= self.policy.hysteresis_rounds
                && !entry.fired
                && actions.len() < self.policy.max_builds_per_round
            {
                entry.fired = true;
                actions.push(ReindexAction {
                    column,
                    eq,
                    kind: if eq {
                        ReindexKind::BitmapSidecar
                    } else {
                        ReindexKind::Clustered
                    },
                });
            }
        }
        actions
    }
}

/// True when some live block has no replica able to serve the predicate
/// class on `column` — the "full scans keep paying" condition.
fn design_gap(namenode: &Namenode, blocks: &[BlockId], column: usize, eq: bool) -> bool {
    blocks.iter().any(|&b| {
        let replicas = namenode.live_replicas(b);
        if replicas.is_empty() {
            return false; // unreadable block: nothing to fix here
        }
        !replicas
            .iter()
            .any(|r| r.index.serves_column(column) || (eq && r.index.bitmap_on(column).is_some()))
    })
}

/// Reconstructs the [`SidecarSpec`] a replica's stored sidecars imply,
/// so a rewrite preserves every existing extension index.
fn spec_of(meta: &IndexMetadata) -> SidecarSpec {
    let mut spec = SidecarSpec::default();
    for s in &meta.sidecars {
        match s.kind {
            IndexKind::Bitmap { column } => spec.bitmap_columns.push(column),
            IndexKind::InvertedList => spec.inverted_list = true,
            IndexKind::ZoneMap { column } => spec.zone_map_columns.push(column),
            IndexKind::Bloom { column } => spec.bloom_columns.push(column),
            _ => {}
        }
    }
    spec
}

/// One planned per-block rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRewrite {
    pub block: BlockId,
    pub datanode: DatanodeId,
    pub order: SortOrder,
    pub spec: SidecarSpec,
}

/// Plans the per-block rewrites an action needs, deterministically:
/// blocks in the given order, replicas in datanode order.
///
/// Conservative target choice — a rewrite must never destroy design
/// diversity the upload paid for:
/// - `Clustered` targets the first live *unsorted* replica of each
///   block still lacking the index; blocks whose replicas are all
///   sorted (on other columns) are skipped rather than re-sorted.
/// - `BitmapSidecar` targets the first live replica without the bitmap,
///   preferring unsorted replicas, and keeps its sort order.
///
/// Blocks already able to serve the predicate plan no rewrite.
pub fn plan_rewrites(
    namenode: &Namenode,
    blocks: &[BlockId],
    action: &ReindexAction,
) -> Vec<ReplicaRewrite> {
    let column = action.column;
    let mut out = Vec::new();
    for &block in blocks {
        let replicas = namenode.live_replicas(block);
        let served = replicas.iter().any(|r| {
            r.index.serves_column(column)
                || (action.eq
                    && action.kind == ReindexKind::BitmapSidecar
                    && r.index.bitmap_on(column).is_some())
        });
        if served {
            continue;
        }
        match action.kind {
            ReindexKind::Clustered => {
                let Some(target) = replicas
                    .iter()
                    .find(|r| r.index.sort_order() == SortOrder::Unsorted)
                else {
                    continue; // never overwrite an existing clustered index
                };
                out.push(ReplicaRewrite {
                    block,
                    datanode: target.datanode,
                    order: SortOrder::Clustered { column },
                    spec: spec_of(&target.index),
                });
            }
            ReindexKind::BitmapSidecar => {
                let Some(target) = replicas
                    .iter()
                    .find(|r| r.index.sort_order() == SortOrder::Unsorted)
                    .or_else(|| replicas.first())
                else {
                    continue;
                };
                let mut spec = spec_of(&target.index);
                if !spec.bitmap_columns.contains(&column) {
                    spec.bitmap_columns.push(column);
                }
                out.push(ReplicaRewrite {
                    block,
                    datanode: target.datanode,
                    order: target.index.sort_order(),
                    spec,
                });
            }
        }
    }
    out
}

/// The outcome of applying one [`ReindexAction`] across a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReindexOutcome {
    pub action: ReindexAction,
    /// Replicas rewritten and re-registered.
    pub replicas_rewritten: usize,
    /// Blocks left untouched (already served, or no safe target).
    pub blocks_skipped: usize,
}

/// Applies one action: plans the per-block rewrites and performs each
/// through [`hail_dfs::rewrite_replica`]. Requires `&mut DfsCluster` —
/// the structural guarantee that no query observes a half-registered
/// design (see the module docs). Every rewrite bumps the design epoch,
/// so a split-time plan from before it no longer holds.
pub fn apply_reindex(
    cluster: &mut DfsCluster,
    blocks: &[BlockId],
    action: &ReindexAction,
) -> Result<ReindexOutcome> {
    let rewrites = plan_rewrites(cluster.namenode(), blocks, action);
    let blocks_skipped = blocks.len() - rewrites.len();
    let mut replicas_rewritten = 0;
    for rw in &rewrites {
        rewrite_replica(cluster, rw.block, rw.datanode, rw.order, &rw.spec)?;
        replicas_rewritten += 1;
    }
    Ok(ReindexOutcome {
        action: *action,
        replicas_rewritten,
        blocks_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_dfs::{hail_upload_block, verify_replica_equivalence, FaultPlan};
    use hail_index::ReplicaIndexConfig;
    use hail_pax::blocks_from_text;
    use hail_types::{DataType, Field, Schema, StorageConfig};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
        ])
        .unwrap()
    }

    /// 4-node cluster, replicas clustered on column 0 / unsorted /
    /// unsorted — column 1 is served by nothing.
    fn uploaded() -> (DfsCluster, Vec<BlockId>) {
        let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(512));
        let text: String = (0..60)
            .map(|i| format!("{}|w{}\n", (i * 7) % 60, i))
            .collect();
        let blocks = blocks_from_text(&text, &schema(), &StorageConfig::test_scale(512)).unwrap();
        let config = ReplicaIndexConfig::first_indexed(3, &[0]);
        let ids: Vec<BlockId> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                hail_upload_block(&mut cluster, i % 4, b, &config, &FaultPlan::none()).unwrap()
            })
            .collect();
        (cluster, ids)
    }

    fn feed(feedback: &SelectivityFeedback, column: usize, eq: bool, n: usize) {
        for _ in 0..n {
            feedback.observe(column, eq, 5, 100);
        }
    }

    #[test]
    fn advisor_requires_sustained_evidence() {
        let (cluster, blocks) = uploaded();
        let advisor = ReindexAdvisor::new(ReindexPolicy {
            enabled: true,
            ..ReindexPolicy::default()
        });
        let feedback = SelectivityFeedback::default();
        feed(&feedback, 1, false, 8);

        // Round 1: evidence qualifies but hysteresis holds it back.
        assert!(advisor
            .note_round(&feedback, cluster.namenode(), &blocks)
            .is_empty());
        // Round 2: streak reaches the threshold — the action fires.
        let actions = advisor.note_round(&feedback, cluster.namenode(), &blocks);
        assert_eq!(
            actions,
            vec![ReindexAction {
                column: 1,
                eq: false,
                kind: ReindexKind::Clustered
            }]
        );
        // Never twice.
        assert!(advisor
            .note_round(&feedback, cluster.namenode(), &blocks)
            .is_empty());
        assert!(advisor.has_fired(1, false));
    }

    #[test]
    fn one_skewed_round_cannot_trigger() {
        let (cluster, blocks) = uploaded();
        let advisor = ReindexAdvisor::new(ReindexPolicy {
            enabled: true,
            ..ReindexPolicy::default()
        });
        let feedback = SelectivityFeedback::default();
        feed(&feedback, 1, false, 8);
        assert!(advisor
            .note_round(&feedback, cluster.namenode(), &blocks)
            .is_empty());
        // The workload shifts: broad matches drive the mean above the
        // threshold — the streak resets instead of firing.
        for _ in 0..40 {
            feedback.observe(1, false, 95, 100);
        }
        assert!(advisor
            .note_round(&feedback, cluster.namenode(), &blocks)
            .is_empty());
    }

    #[test]
    fn unselective_or_served_columns_never_trigger() {
        let (cluster, blocks) = uploaded();
        let advisor = ReindexAdvisor::new(ReindexPolicy {
            enabled: true,
            ..ReindexPolicy::default()
        });
        let feedback = SelectivityFeedback::default();
        // Column 0 is already served by the clustered replica; column 1
        // is observed but unselective.
        feed(&feedback, 0, false, 10);
        for _ in 0..10 {
            feedback.observe(1, false, 80, 100);
        }
        for _ in 0..4 {
            assert!(advisor
                .note_round(&feedback, cluster.namenode(), &blocks)
                .is_empty());
        }
    }

    #[test]
    fn disabled_policy_recommends_nothing() {
        let (cluster, blocks) = uploaded();
        let advisor = ReindexAdvisor::new(ReindexPolicy {
            enabled: false,
            ..ReindexPolicy::default()
        });
        let feedback = SelectivityFeedback::default();
        feed(&feedback, 1, false, 20);
        for _ in 0..4 {
            assert!(advisor
                .note_round(&feedback, cluster.namenode(), &blocks)
                .is_empty());
        }
    }

    #[test]
    fn apply_builds_the_missing_clustered_index() {
        let (mut cluster, blocks) = uploaded();
        let action = ReindexAction {
            column: 1,
            eq: false,
            kind: ReindexKind::Clustered,
        };
        let epoch = cluster.namenode().design_epoch();
        let outcome = apply_reindex(&mut cluster, &blocks, &action).unwrap();
        assert_eq!(outcome.replicas_rewritten, blocks.len());
        assert_eq!(outcome.blocks_skipped, 0);
        assert!(cluster.namenode().design_epoch() > epoch);
        for &b in &blocks {
            assert_eq!(
                cluster.namenode().get_hosts_with_index(b, 1).unwrap().len(),
                1,
                "block {b} gained exactly one clustered index on column 1"
            );
            // The original design survives untouched.
            assert_eq!(
                cluster.namenode().get_hosts_with_index(b, 0).unwrap().len(),
                1
            );
        }
        // Logical content is preserved on every replica.
        verify_replica_equivalence(&cluster).unwrap();

        // Idempotent: the gap is closed, so a second apply plans nothing.
        let again = apply_reindex(&mut cluster, &blocks, &action).unwrap();
        assert_eq!(again.replicas_rewritten, 0);
        assert_eq!(again.blocks_skipped, blocks.len());
    }

    #[test]
    fn apply_builds_a_bitmap_sidecar_for_equality_evidence() {
        let (mut cluster, blocks) = uploaded();
        let action = ReindexAction {
            column: 0,
            eq: true,
            kind: ReindexKind::BitmapSidecar,
        };
        // Column 0 is clustered on replica 0, so the design gap for a
        // *bitmap* doesn't exist — plan_rewrites treats served blocks
        // as done (a clustered index already serves equality).
        assert!(plan_rewrites(cluster.namenode(), &blocks, &action).is_empty());

        // Column 1 has no serving structure: a bitmap lands.
        let action = ReindexAction {
            column: 1,
            eq: true,
            kind: ReindexKind::BitmapSidecar,
        };
        let outcome = apply_reindex(&mut cluster, &blocks, &action).unwrap();
        assert_eq!(outcome.replicas_rewritten, blocks.len());
        for &b in &blocks {
            assert_eq!(
                cluster
                    .namenode()
                    .get_hosts_with_bitmap(b, 1)
                    .unwrap()
                    .len(),
                1
            );
        }
        verify_replica_equivalence(&cluster).unwrap();
    }

    #[test]
    fn rewrites_skip_blocks_with_no_safe_target() {
        // All three replicas sorted: nothing unsorted to claim for a
        // new clustered index.
        let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(512));
        let text: String = (0..40).map(|i| format!("{}|w{}\n", i, i)).collect();
        let blocks = blocks_from_text(&text, &schema(), &StorageConfig::test_scale(512)).unwrap();
        let config = ReplicaIndexConfig::uniform(3, 0);
        let ids: Vec<BlockId> = blocks
            .iter()
            .map(|b| hail_upload_block(&mut cluster, 0, b, &config, &FaultPlan::none()).unwrap())
            .collect();
        let action = ReindexAction {
            column: 1,
            eq: false,
            kind: ReindexKind::Clustered,
        };
        let outcome = apply_reindex(&mut cluster, &ids, &action).unwrap();
        assert_eq!(outcome.replicas_rewritten, 0);
        assert_eq!(outcome.blocks_skipped, ids.len());
    }
}
