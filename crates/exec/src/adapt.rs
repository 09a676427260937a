//! Adaptive incremental re-indexing: the aggressive-elephant loop,
//! closed.
//!
//! The paper's upload-time design is static — Bob picks the per-replica
//! sort orders once, and a workload that later concentrates on an
//! unindexed column pays full scans forever. This module reacts: when
//! the [`SelectivityFeedback`] store shows *sustained* evidence of a
//! selective predicate on a column no replica can serve, a
//! [`ReindexAdvisor`] recommends building the missing clustered index on
//! one replica per block — for range and equality predicates alike, as
//! HAIL's one-index-per-replica design would — and [`apply_reindex`]
//! performs the in-place rewrites — the same step-7 sort/index/register
//! machinery the upload pipeline runs, minus the network hop. Like the
//! upload, the rebuild runs in two phases: `hail_dfs::prepare_rewrite`
//! verifies and rebuilds opened replicas at the machine's parallelism,
//! as every datanode would sort its own replica at once, while
//! `hail_dfs::commit_rewrite` charges, flushes and registers the ones
//! already rebuilt on the caller's thread in plan order, so the result
//! is a serial loop's.
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
//! `MIN_OBSERVATIONS` (6) absorbed block observations, an observed mean
//! selectivity at or below `MAX_SELECTIVITY` (0.15), *and* the evidence to
//! persist across `HYSTERESIS_ROUNDS` (2) consecutive advisory rounds
//! before it recommends anything; a round without evidence resets the
//! streak. Each `(column, class)` fires at most once, and a column gets
//! at most one action per round: when both its equality and its range
//! class qualify, the first fires and the second neither takes a slot
//! of `max_builds_per_round` nor is marked fired — the rewrite closes
//! the column's design gap, so its streak resets. A block is rewritten
//! at most once per column: a later action on a column finds the blocks
//! the first one rewrote already served.
//!
//! # Threading
//!
//! The advisor is consulted on one thread, at the round boundary, after
//! the round's reports were absorbed: its trigger state is a `RefCell`,
//! so [`ReindexAdvisor`] is not `Sync` and takes no lock. The only lock
//! a round meets is the [`SelectivityFeedback`] store's, a leaf.

use crate::feedback::SelectivityFeedback;
use hail_dfs::{commit_rewrite, prepare_rewrite, DfsCluster, Namenode};
use hail_index::{IndexKind, IndexMetadata, SidecarSpec, SortOrder};
use hail_pax::ReplicaBytes;
use hail_sync::{machine_width, run_pipelined};
use hail_types::{BlockId, DatanodeId, Result};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// One advisory recommendation: a clustered index over `column`, built
/// by re-sorting one unsorted replica per block on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReindexAction {
    /// 0-based target column.
    pub column: usize,
    /// Predicate class whose evidence fired (`true` = equality).
    pub eq: bool,
}

/// Minimum absorbed block observations for a `(column, class)` before
/// its evidence counts at all.
const MIN_OBSERVATIONS: u64 = 6;

/// Observed mean selectivity must be at or below this for the predicate
/// to be worth an index (a scan-friendly predicate never triggers a
/// rebuild).
const MAX_SELECTIVITY: f64 = 0.15;

/// Consecutive advisory rounds the evidence must persist before a
/// rebuild fires. A round without evidence resets the streak — one
/// skewed job cannot trigger a rewrite on its own.
const HYSTERESIS_ROUNDS: u32 = 2;

/// The advisor's settings. Its evidence thresholds are constants of this
/// module (see the module docs, "Hysteresis").
#[derive(Debug, Clone)]
pub struct ReindexPolicy {
    /// Master switch; defaults on. Disabled advisors never recommend
    /// anything: the design stays frozen, the lossless-degradation
    /// reference the tests compare against.
    pub enabled: bool,
    /// At most this many rebuild actions per round, so background
    /// maintenance stays bounded between job batches.
    pub max_builds_per_round: usize,
}

impl Default for ReindexPolicy {
    fn default() -> Self {
        ReindexPolicy {
            enabled: true,
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
/// evidence is sustained. Not `Sync`: its trigger state is a `RefCell`,
/// since it runs on one thread at the round boundary (see the module
/// docs, "Threading").
#[derive(Debug)]
pub struct ReindexAdvisor {
    policy: ReindexPolicy,
    state: RefCell<BTreeMap<(usize, bool), TriggerState>>,
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
            state: RefCell::default(),
        }
    }

    /// The advisor's policy.
    pub fn policy(&self) -> &ReindexPolicy {
        &self.policy
    }

    /// True when a `(column, class)` already fired (diagnostics).
    pub fn has_fired(&self, column: usize, eq: bool) -> bool {
        self.state
            .borrow()
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
    /// - at least `MIN_OBSERVATIONS` (6) block observations were absorbed,
    /// - the observed mean selectivity is ≤ `MAX_SELECTIVITY` (0.15), and
    /// - some live block lacks a replica clustered on the column.
    ///
    /// A column gets at most one action per round, its first qualifying
    /// class in that order; a class skipped for it is not marked fired,
    /// and the next round finds no design gap on the column and resets
    /// its streak.
    ///
    /// It takes `&self` as frozen-suite residue — the `hail-bench` suite
    /// calls it through `&ReindexAdvisor` — and borrows the trigger
    /// state mutably for the round.
    pub fn note_round(
        &self,
        feedback: &SelectivityFeedback,
        namenode: &Namenode,
        blocks: &[BlockId],
    ) -> Vec<ReindexAction> {
        if !self.policy.enabled {
            return Vec::new();
        }
        let mut state = self.state.borrow_mut();
        let mut actions: Vec<ReindexAction> = Vec::new();
        for (column, eq) in feedback.observed_classes() {
            let entry = state.entry((column, eq)).or_default();
            let qualified = feedback.observation_count(column, eq) >= MIN_OBSERVATIONS
                && feedback
                    .observed(column, eq)
                    .is_some_and(|(mean, _)| mean <= MAX_SELECTIVITY)
                && design_gap(namenode, blocks, column);
            if !qualified {
                entry.streak = 0;
                continue;
            }
            entry.streak += 1;
            // One action per column per round: a column's second class
            // would find every block the first one rewrites served.
            if entry.streak >= HYSTERESIS_ROUNDS
                && !entry.fired
                && actions.len() < self.policy.max_builds_per_round
                && !actions.iter().any(|a| a.column == column)
            {
                entry.fired = true;
                actions.push(ReindexAction { column, eq });
            }
        }
        actions
    }
}

/// True when some live block has no replica able to serve a predicate
/// on `column` — the "full scans keep paying" condition.
fn design_gap(namenode: &Namenode, blocks: &[BlockId], column: usize) -> bool {
    blocks.iter().any(|&b| {
        let replicas = namenode.live_replicas(b);
        if replicas.is_empty() {
            return false; // unreadable block: nothing to fix here
        }
        !replicas.iter().any(|r| r.index.serves_column(column))
    })
}

/// Reconstructs the [`SidecarSpec`] a replica's stored sidecars imply,
/// so a rewrite preserves every existing synopsis.
fn spec_of(meta: &IndexMetadata) -> SidecarSpec {
    let mut spec = SidecarSpec::default();
    for s in &meta.sidecars {
        match s.kind {
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
/// diversity the upload paid for: the target is the first live
/// *unsorted* replica of each block still lacking the index; blocks
/// whose replicas are all sorted (on other columns) are skipped rather
/// than re-sorted. Blocks already able to serve the predicate plan no
/// rewrite.
pub fn plan_rewrites(
    namenode: &Namenode,
    blocks: &[BlockId],
    action: &ReindexAction,
) -> Vec<ReplicaRewrite> {
    let column = action.column;
    let mut out = Vec::new();
    for &block in blocks {
        let replicas = namenode.live_replicas(block);
        if replicas.iter().any(|r| r.index.serves_column(column)) {
            continue;
        }
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
/// as [`hail_dfs::rewrite_replica`] would. Requires `&mut DfsCluster` —
/// the structural guarantee that no query observes a half-registered
/// design (see the module docs). Every rewrite bumps the design epoch,
/// so a split-time plan from before it no longer holds.
///
/// The rewrites are prepared at the machine's parallelism and committed
/// on this thread in plan order; bytes, ledgers, `Dir_rep`, the epoch
/// and the outcome are those of a rewrite-after-rewrite loop, and so is
/// the error: the rewrites before the first failing one are committed,
/// that one and every later one are not.
pub fn apply_reindex(
    cluster: &mut DfsCluster,
    blocks: &[BlockId],
    action: &ReindexAction,
) -> Result<ReindexOutcome> {
    apply_reindex_at(cluster, blocks, action, machine_width())
}

/// Blocks each thread may prepare replicas for ahead of the commits:
/// the upload's lookahead per thread. A rewrite prepares one replica and
/// an uploaded block `replication` of them, so a rebuild at width `w`
/// holds at most `w × 4 × replication` prepared replicas that are not
/// yet committed — what an upload holds.
const BLOCKS_AHEAD_PER_THREAD: usize = 4;

/// [`apply_reindex`] on up to `width` threads. Every planned target's
/// stored files are opened first, under `&DfsCluster`; then
/// [`run_pipelined`] prepares each rewrite (verify, rebuild, checksum)
/// from its opened replica, with no borrow of the cluster, up to `width`
/// × [`BLOCKS_AHEAD_PER_THREAD`] × replication rewrites ahead of the
/// commits, and on this thread, in plan order, each is committed, or its
/// error returned — where a serial loop stops. Opening and preparing
/// early change nothing: a rewrite reads only its own block's replica,
/// which no earlier commit touches (`blocks` lists each block once, as
/// a dataset does, so the plan does too), and has no effect of its own.
fn apply_reindex_at(
    cluster: &mut DfsCluster,
    blocks: &[BlockId],
    action: &ReindexAction,
    width: usize,
) -> Result<ReindexOutcome> {
    let rewrites = plan_rewrites(cluster.namenode(), blocks, action);
    let opened: Vec<Result<ReplicaBytes>> = rewrites
        .iter()
        .map(|rw| cluster.datanode(rw.datanode)?.open_replica(rw.block))
        .collect();
    let width = width.max(1);
    let lookahead = width * BLOCKS_AHEAD_PER_THREAD * cluster.config().replication.max(1);
    run_pipelined(
        rewrites.len(),
        width,
        lookahead,
        || (),
        |(), i| {
            let rw = &rewrites[i];
            let replica = opened[i].as_ref().map_err(Clone::clone)?;
            prepare_rewrite(replica, rw.block, rw.datanode, rw.order, &rw.spec)
        },
        |_, rewrite| commit_rewrite(cluster, rewrite?),
    )?;
    Ok(ReindexOutcome {
        action: *action,
        replicas_rewritten: rewrites.len(),
        blocks_skipped: blocks.len() - rewrites.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_dfs::{hail_upload_block, rewrite_replica, verify_replica_equivalence, FaultPlan};
    use hail_index::{HailBlockReplicaInfo, ReplicaIndexConfig};
    use hail_pax::blocks_from_text;
    use hail_sim::CostLedger;
    use hail_types::{DataType, Field, HailError, Schema, StorageConfig};

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
        upload(60, &ReplicaIndexConfig::first_indexed(3, &[0]))
    }

    /// [`uploaded`]'s design over `rows` rows, every replica carrying
    /// the config's synopses.
    fn upload(rows: usize, config: &ReplicaIndexConfig) -> (DfsCluster, Vec<BlockId>) {
        let mut cluster = DfsCluster::new(4, StorageConfig::test_scale(512));
        let text: String = (0..rows)
            .map(|i| format!("{}|w{}\n", (i * 7) % 60, i))
            .collect();
        let blocks = blocks_from_text(&text, &schema(), &StorageConfig::test_scale(512)).unwrap();
        let ids: Vec<BlockId> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                hail_upload_block(&mut cluster, i % 4, b, config, &FaultPlan::none()).unwrap()
            })
            .collect();
        (cluster, ids)
    }

    /// More than 24 blocks — more than the lookahead of 24 rewrites at
    /// width 2, less than the 48 at width 4 — whose rewrites keep a zone
    /// map and a Bloom filter.
    fn many_blocks() -> (DfsCluster, Vec<BlockId>) {
        let (cluster, blocks) = upload(
            2000,
            &ReplicaIndexConfig::first_indexed(3, &[0]).with_synopses(1),
        );
        assert!((25..48).contains(&blocks.len()), "{} blocks", blocks.len());
        (cluster, blocks)
    }

    /// The rewrite-after-rewrite loop [`apply_reindex`] must reproduce.
    fn serial_reindex(
        cluster: &mut DfsCluster,
        blocks: &[BlockId],
        action: &ReindexAction,
    ) -> Result<ReindexOutcome> {
        let rewrites = plan_rewrites(cluster.namenode(), blocks, action);
        for rw in &rewrites {
            rewrite_replica(cluster, rw.block, rw.datanode, rw.order, &rw.spec)?;
        }
        Ok(ReindexOutcome {
            action: *action,
            replicas_rewritten: rewrites.len(),
            blocks_skipped: blocks.len() - rewrites.len(),
        })
    }

    /// What a rebuild leaves behind, block by block: every replica's
    /// data and checksum file (an opened replica's `Debug` shows both)
    /// and `Dir_rep` entry; and the design epoch and every datanode's
    /// upload ledger.
    #[derive(Debug, PartialEq)]
    struct Stored {
        replicas: Vec<(BlockId, String, HailBlockReplicaInfo)>,
        epoch: u64,
        ledgers: Vec<CostLedger>,
    }

    impl Stored {
        fn of(cluster: &DfsCluster) -> Stored {
            let nn = cluster.namenode();
            let mut replicas = Vec::new();
            for block in nn.blocks() {
                for dn in nn.get_hosts(block).unwrap() {
                    let file = cluster.datanode(dn).unwrap().open_replica(block).unwrap();
                    let entry = nn.replica_info(block, dn).unwrap().clone();
                    replicas.push((block, format!("{file:?}"), entry));
                }
            }
            Stored {
                replicas,
                epoch: nn.design_epoch(),
                ledgers: cluster.upload_ledgers(),
            }
        }
    }

    #[test]
    fn rebuild_is_identical_at_every_width() {
        let action = ReindexAction {
            column: 1,
            eq: false,
        };
        let (mut serial, blocks) = many_blocks();
        let outcome = serial_reindex(&mut serial, &blocks, &action);
        assert_eq!(outcome.as_ref().unwrap().replicas_rewritten, blocks.len());
        let expected = (outcome, Stored::of(&serial));
        for width in [1, 2, 4] {
            let (mut cluster, ids) = many_blocks();
            assert_eq!(ids, blocks);
            let outcome = apply_reindex_at(&mut cluster, &blocks, &action, width);
            assert_eq!((outcome, Stored::of(&cluster)), expected, "width {width}");
        }
        // The rewrites kept every synopsis.
        verify_replica_equivalence(&serial).unwrap();
        for &b in &blocks {
            let nn = serial.namenode();
            assert_eq!(nn.get_hosts_with_index(b, 1).unwrap().len(), 1);
            assert_eq!(nn.get_hosts_with_zone_map(b, 1).unwrap().len(), 3);
            assert_eq!(nn.get_hosts_with_bloom(b, 1).unwrap().len(), 3);
        }
    }

    #[test]
    fn rebuild_stops_at_the_first_damaged_replica_at_every_width() {
        // Block 5 is within the first lookahead at every width, with
        // undamaged blocks on both sides of it, and at width 2 more
        // blocks than the lookahead after it.
        const K: usize = 5;
        let action = ReindexAction {
            column: 1,
            eq: false,
        };
        let damaged = || {
            let (mut cluster, blocks) = many_blocks();
            let rewrites = plan_rewrites(cluster.namenode(), &blocks, &action);
            assert_eq!(rewrites.len(), blocks.len());
            let ReplicaRewrite {
                block, datanode, ..
            } = rewrites[K];
            let node = cluster.datanode_mut(datanode).unwrap();
            let len = node.replica_len(block).unwrap();
            node.corrupt_replica(block, len / 2).unwrap();
            (cluster, blocks)
        };

        let (mut serial, blocks) = damaged();
        let before = Stored::of(&serial);
        let err = serial_reindex(&mut serial, &blocks, &action).unwrap_err();
        assert!(matches!(err, HailError::ChecksumMismatch { .. }), "{err}");
        let after = Stored::of(&serial);
        assert_eq!(after.epoch, before.epoch + K as u64);
        for (i, &b) in blocks.iter().enumerate() {
            let served = serial.namenode().get_hosts_with_index(b, 1).unwrap();
            assert_eq!(served.len(), usize::from(i < K), "block {i}");
        }
        let from_k = |stored: &Stored| {
            stored
                .replicas
                .iter()
                .filter(|(b, ..)| *b >= blocks[K])
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(from_k(&after), from_k(&before), "block K on are untouched");

        for width in [1, 2, 4] {
            let (mut cluster, _) = damaged();
            let outcome = apply_reindex_at(&mut cluster, &blocks, &action, width);
            assert_eq!(outcome, Err(err.clone()), "width {width}");
            assert_eq!(Stored::of(&cluster), after, "width {width}");
        }
    }

    fn feed(feedback: &SelectivityFeedback, column: usize, eq: bool, n: usize) {
        for _ in 0..n {
            feedback.observe(column, eq, 5, 100);
        }
    }

    #[test]
    fn advisor_requires_sustained_evidence() {
        let (cluster, blocks) = uploaded();
        let advisor = ReindexAdvisor::default();
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
                eq: false
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
        let advisor = ReindexAdvisor::default();
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
        let advisor = ReindexAdvisor::default();
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
    fn apply_builds_a_clustered_index_for_equality_evidence() {
        let (mut cluster, blocks) = uploaded();
        // Column 0 is clustered on replica 0, which serves equality too:
        // plan_rewrites treats served blocks as done.
        let action = ReindexAction {
            column: 0,
            eq: true,
        };
        assert!(plan_rewrites(cluster.namenode(), &blocks, &action).is_empty());

        // Column 1 has no serving structure: an unsorted replica per
        // block is re-sorted on it.
        let action = ReindexAction {
            column: 1,
            eq: true,
        };
        let outcome = apply_reindex(&mut cluster, &blocks, &action).unwrap();
        assert_eq!(outcome.replicas_rewritten, blocks.len());
        for &b in &blocks {
            assert_eq!(
                cluster.namenode().get_hosts_with_index(b, 1).unwrap().len(),
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
        };
        let outcome = apply_reindex(&mut cluster, &ids, &action).unwrap();
        assert_eq!(outcome.replicas_rewritten, 0);
        assert_eq!(outcome.blocks_skipped, ids.len());
    }
}
