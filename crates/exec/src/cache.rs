//! Adaptive planning state: the fingerprinted [`PlanCache`] and the
//! [`SelectivityFeedback`] store.
//!
//! HAIL's planning win only holds if planning stays near-zero-overhead
//! (§4.3: split computation from main-memory `Dir_rep` state). The base
//! [`crate::planner::QueryPlanner`] is stateless: a job plans each block
//! once, when its splits are cut, and its split reads execute that plan
//! (`PlannedInputFormat`), but every new job probes the synopses and
//! prices every `(replica, access path)` candidate again. This module
//! adds the two pieces of cross-query state that turn it into an
//! adaptive subsystem:
//!
//! - [`PlanCache`] memoizes per-block [`BlockPlan`] fragments keyed on
//!   (canonical [`FilterShape`], block, replica-index **fingerprint**).
//!   The fingerprint covers everything `Dir_rep` knows about each live
//!   replica — primary index kind and key column, index size/offset,
//!   replica size, and the full [`hail_index::SidecarMetadata`]
//!   directory — so any re-registration, sidecar change, or replica
//!   death changes the fingerprint and forces a fresh pricing pass.
//! - [`SelectivityFeedback`] aggregates the observed per-block
//!   selectivities that `AccessPath::execute` records into
//!   `TaskStats::selectivity`, and blends them (decayed, bounded by a
//!   prior weight) into the static [`crate::planner::SelectivityEstimate`]
//!   for subsequent plans.
//!
//! # Invalidation rules
//!
//! 1. **Replica death.** `DfsCluster::kill_node` appends to the
//!    namenode's death log; the planner calls [`PlanCache::sync_deaths`]
//!    before every lookup, evicting exactly the entries whose fingerprint
//!    involved a dead datanode. Failover therefore re-plans instead of
//!    executing a plan pinned to a dead replica.
//! 2. **Fingerprint mismatch.** A hit requires the stored fingerprint to
//!    equal the one recomputed from the current `Dir_rep` state; a
//!    changed `ReplicaIndexConfig` (different primary index or sidecar
//!    directory) misses and replaces the stale entry.
//! 3. **Estimate drift.** The [`FilterShape`] embeds the (quantized)
//!    effective selectivity of every filter column, so selectivity
//!    feedback that moves an estimate also moves the key: adapted plans
//!    are re-priced, and once the feedback converges the quantized value
//!    stabilizes and caching resumes.
//!
//! Bad-record token searches bypass the cache entirely: they are rare
//! diagnostics whose candidate enumeration is a single directory probe,
//! not worth cache slots.
//!
//! # Concurrency and lock hierarchy
//!
//! Both structures are **thread-safe** behind `Arc`: one instance is
//! shared by every `QueryPlanner` a job constructs — including the
//! threads reading a job's splits (and concurrent jobs' splits) in
//! parallel. Internally each store is a
//! single rank-checked [`OrderedRwLock`]: concurrent `plan_block`
//! calls take the read lock for warm hits, and only structural changes
//! (inserts, evictions, death-log processing, fingerprint
//! revalidation) take the write lock. Effectiveness counters are
//! separate atomics so read-path hits never contend on a write lock.
//!
//! Both locks sit in the global hierarchy enforced by `hail-sync`
//! (see ARCHITECTURE.md, "Concurrency invariants & enforcement"):
//! [`LockRank::PlanCache`] ranks above [`LockRank::Feedback`], and
//! neither lock is ever held across an `AccessPath::execute` call.
//! Acquisitions recover from poisoning, so a worker panicking mid-read
//! cannot wedge every other job's planner. Death-log eviction
//! ([`PlanCache::sync_deaths`]) and feedback absorption
//! ([`SelectivityFeedback::absorb`]) each run under one continuous
//! write-lock section, so an in-flight `plan_block` observes either
//! none or all of a batch — never a torn prefix.

use crate::planner::BlockPlan;
use hail_core::{CmpOp, DatasetFormat, HailQuery, Predicate};
use hail_dfs::Namenode;
use hail_mr::TaskStats;
use hail_sync::{LockRank, OrderedRwLock};
use hail_types::{BlockId, DatanodeId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

/// Quantization granularity for selectivities embedded in a
/// [`FilterShape`]: 1/1000ths. Coarse enough that a converged feedback
/// estimate maps to a stable key, fine enough that any plan-relevant
/// drift re-prices.
const SEL_QUANTUM: f64 = 1000.0;

/// The canonical shape of a query's filter — everything about a query
/// that influences plan *choice*, with literal values abstracted away.
///
/// Two queries with the same shape get the same plan for a block in the
/// same `Dir_rep` state: the planner prices candidates from predicate
/// *classes* (range-bounded vs equality, per column) and per-column
/// selectivity estimates, never from literals. Literals only matter at
/// execution time, and `AccessPath::execute` reads them from the query
/// it is handed, not from the plan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FilterShape {
    /// Physical format tag (text / PAX / row layout).
    format: u8,
    /// Per column: bit 0 = index-friendly bounds present, bit 1 =
    /// equality predicate present. Sorted, deduplicated.
    predicates: Vec<(usize, u8)>,
    /// Text delimiter override, part of the full-scan path identity.
    delimiter: Option<char>,
    /// Quantized effective selectivity per filter column (estimate
    /// drift must move the key — invalidation rule 3).
    selectivities: Vec<(usize, u32)>,
    /// Digest of the cost model the plan was priced under, so planners
    /// with different hardware profiles or scale rules sharing one
    /// cache never cross-serve each other's choices.
    cost_digest: u64,
}

impl FilterShape {
    /// Canonicalizes a query's filter against the effective per-column
    /// selectivities — and the cost-model digest — the planner will
    /// price with.
    pub fn of(
        format: DatasetFormat,
        query: &HailQuery,
        delimiter: Option<char>,
        selectivities: &[(usize, f64)],
        cost_digest: u64,
    ) -> FilterShape {
        let mut classes: BTreeMap<usize, u8> = BTreeMap::new();
        for p in &query.predicates {
            let c = classes.entry(p.column()).or_insert(0);
            if p.index_friendly() {
                *c |= 1;
            }
            if matches!(p, Predicate::Cmp { op: CmpOp::Eq, .. }) {
                *c |= 2;
            }
        }
        let format = match format {
            DatasetFormat::HadoopText => 0,
            DatasetFormat::HailPax => 1,
            DatasetFormat::HadoopPlusPlus => 2,
        };
        let mut sels: Vec<(usize, u32)> = selectivities
            .iter()
            .map(|&(col, s)| (col, (s.clamp(0.0, 1.0) * SEL_QUANTUM).round() as u32))
            .collect();
        sels.sort_unstable();
        sels.dedup();
        FilterShape {
            format,
            predicates: classes.into_iter().collect(),
            delimiter,
            selectivities: sels,
            cost_digest,
        }
    }
}

/// True if the query has an equality predicate on `column` — the
/// predicate *class* under which selectivity feedback is keyed, and the
/// same bit that drives bitmap-path candidacy in the planner.
pub fn has_eq_on(query: &HailQuery, column: usize) -> bool {
    query
        .predicates
        .iter()
        .any(|p| matches!(p, Predicate::Cmp { column: c, op: CmpOp::Eq, .. } if *c == column))
}

/// The per-block replica-index fingerprint a cached plan is valid for:
/// a digest of the `Dir_rep` state planning depended on, plus the set of
/// datanodes that state came from (for death-driven eviction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockFingerprint {
    /// FNV-1a digest over every live replica's `Dir_rep` entry.
    pub digest: u64,
    /// Datanodes whose replicas fed the digest, ascending.
    pub datanodes: Vec<DatanodeId>,
}

impl BlockFingerprint {
    /// Fingerprints a block's current `Dir_rep` state: for each live
    /// replica, the datanode id, the physical replica size, and the full
    /// serialized [`hail_index::IndexMetadata`] — primary index kind,
    /// key column, size, offset, and the complete sidecar directory.
    pub fn of(namenode: &Namenode, block: BlockId) -> BlockFingerprint {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                digest ^= b as u64;
                digest = digest.wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut datanodes = Vec::new();
        for info in namenode.live_replicas(block) {
            fold(&(info.datanode as u64).to_le_bytes());
            fold(&(info.replica_bytes as u64).to_le_bytes());
            fold(&info.index.to_bytes());
            datanodes.push(info.datanode);
        }
        datanodes.sort_unstable();
        BlockFingerprint { digest, datanodes }
    }
}

/// Outcome of an epoch-validated cache lookup
/// ([`PlanCache::lookup_validated_full`]): a hit carries the memoized
/// plan; a miss carries the [`BlockFingerprint`] the revalidation pass
/// computed, if any, so the caller's insert need not recompute it.
#[derive(Debug)]
pub enum ValidatedLookup {
    Hit(BlockPlan),
    Miss(Option<BlockFingerprint>),
}

/// Cache effectiveness counters, exposed for job reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (zero cost-model evaluations).
    pub hits: u64,
    /// Lookups that had to price candidates (absent or stale entry).
    pub misses: u64,
    /// Entries evicted by replica death or capacity pressure.
    pub evictions: u64,
    /// Entries dropped because their fingerprint no longer matched the
    /// current `Dir_rep` state (invalidation rule 2).
    pub fingerprint_invalidations: u64,
    /// Individual `(replica, access path)` candidates priced through the
    /// cost model on behalf of cache misses. A repeat plan with an
    /// identical shape must not move this counter.
    pub cost_evaluations: u64,
}

/// Sentinel for entries inserted without epoch validation (the plain
/// [`PlanCache::insert`] API): such entries always revalidate by
/// fingerprint on their next lookup. Namenode instance ids start at 1,
/// so instance 0 never matches a real namenode.
const EPOCH_UNVALIDATED: (u64, u64) = (0, 0);

#[derive(Debug)]
struct CacheEntry {
    fingerprint: BlockFingerprint,
    plan: BlockPlan,
    /// The `(namenode instance id, design epoch)` at which this entry's
    /// fingerprint was last known to match `Dir_rep`. A lookup against
    /// the same namenode at the same epoch is a hit with **zero**
    /// fingerprint work (the O(1) warm path); any other watermark
    /// recomputes the fingerprint once and, on a match, refreshes this
    /// watermark. Qualifying by instance id keeps a cache shared
    /// between clusters honest: equal epochs from different namenodes
    /// prove nothing and fall back to fingerprint revalidation.
    validated_at: (u64, u64),
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: BTreeMap<(FilterShape, BlockId), CacheEntry>,
    /// Insertion order, for capacity eviction.
    order: VecDeque<(FilterShape, BlockId)>,
    /// Prefix of the namenode death log already processed.
    deaths_seen: usize,
}

/// Effectiveness counters as shared atomics, so warm read-path hits
/// never take a write lock just to count themselves.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    fingerprint_invalidations: AtomicU64,
    cost_evaluations: AtomicU64,
}

/// A bounded, fingerprinted memo of per-block plans.
///
/// See the [module docs](self) for the key structure, the invalidation
/// rules, and the locking discipline. Shared via `Arc` through
/// [`crate::planner::PlannerConfig::plan_cache`]; all methods take
/// `&self` and are safe to call from concurrent executor workers.
#[derive(Debug)]
pub struct PlanCache {
    inner: OrderedRwLock<CacheInner>,
    counters: CacheCounters,
    capacity: usize,
}

impl Default for PlanCache {
    /// A cache bounded at 1024 block-plan entries.
    fn default() -> Self {
        PlanCache::with_capacity(1024)
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` block-plan entries; the oldest
    /// entry is evicted when a new insert would exceed it.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: OrderedRwLock::new(LockRank::PlanCache, "plan-cache", CacheInner::default()),
            counters: CacheCounters::default(),
            capacity: capacity.max(1),
        }
    }

    /// Processes the namenode's death log (invalidation rule 1): every
    /// death not yet seen evicts exactly the entries whose fingerprint
    /// involved that datanode. Idempotent; the planner calls this before
    /// every lookup.
    ///
    /// One cache tracks **one** namenode's log: the seen-prefix cursor
    /// is meaningless across different logs, so a cache shared between
    /// clusters loses rule-1 eviction granularity (a shorter log resets
    /// the cursor; an unrelated equal-length log is indistinguishable).
    /// Correctness is still guarded either way — dead replicas drop out
    /// of `live_replicas`, so rule 2's fingerprint mismatch catches any
    /// plan a missed death would have invalidated.
    pub fn sync_deaths(&self, death_log: &[DatanodeId]) {
        // Fast path: nothing new — a read lock suffices, so concurrent
        // planners only serialize when a death actually needs work.
        {
            let inner = self.inner.read();
            if death_log.len() == inner.deaths_seen {
                return;
            }
        }
        let mut inner = self.inner.write();
        let seen = inner.deaths_seen;
        if death_log.len() < seen {
            // A shorter log than the one we tracked: this is a
            // different namenode. Restart the cursor so its future
            // deaths are processed rather than skipped forever.
            inner.deaths_seen = death_log.len();
            return;
        }
        // One continuous write section covers every unseen death plus
        // the cursor bump, so a concurrent `plan_block` sees either the
        // pre-sync or the fully synced cache — never a torn prefix, and
        // two racing sync calls cannot double-process a death.
        for &dn in death_log.iter().skip(seen) {
            self.evict_datanode_locked(&mut inner, dn);
        }
        inner.deaths_seen = death_log.len();
    }

    /// Evicts every entry whose fingerprint involved `datanode`. The
    /// death-log path calls this automatically; it is public for callers
    /// that learn about a failure out of band.
    pub fn invalidate_datanode(&self, datanode: DatanodeId) {
        let mut inner = self.inner.write();
        self.evict_datanode_locked(&mut inner, datanode);
    }

    fn evict_datanode_locked(&self, inner: &mut CacheInner, datanode: DatanodeId) {
        let before = inner.entries.len();
        inner
            .entries
            .retain(|_, e| !e.fingerprint.datanodes.contains(&datanode));
        let evicted = before - inner.entries.len();
        if evicted > 0 {
            let entries = &inner.entries;
            inner.order.retain(|k| entries.contains_key(k));
            self.counters
                .evictions
                .fetch_add(evicted as u64, Ordering::Relaxed);
        }
    }

    /// Entries whose fingerprint involves `datanode` — diagnostics for
    /// eviction tests; a fully synced cache reports zero for every dead
    /// datanode.
    pub fn entries_involving(&self, datanode: DatanodeId) -> usize {
        let inner = self.inner.read();
        inner
            .entries
            .values()
            .filter(|e| e.fingerprint.datanodes.contains(&datanode))
            .count()
    }

    /// Looks up the memoized plan for `(shape, block)`. A hit requires
    /// the stored fingerprint to match `fingerprint` exactly; a stale
    /// entry is dropped (invalidation rule 2) and the lookup misses.
    /// Returned plans are marked [`BlockPlan::cached`].
    pub fn lookup(
        &self,
        shape: &FilterShape,
        block: BlockId,
        fingerprint: &BlockFingerprint,
    ) -> Option<BlockPlan> {
        let key = (shape.clone(), block);
        // Hits resolve under the read lock; only dropping a stale entry
        // needs the write lock.
        {
            let inner = self.inner.read();
            match inner.entries.get(&key) {
                Some(e) if e.fingerprint == *fingerprint => {
                    return Some(self.count_hit(&e.plan));
                }
                Some(_) => {}
                None => {
                    self.counters.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        self.drop_stale(&key, |e| e.fingerprint == *fingerprint)
            .map(|p| self.count_hit(&p))
    }

    /// The O(1) warm path: looks up `(shape, block)` validated against
    /// the namenode's [design epoch](Namenode::design_epoch) instead of
    /// a freshly computed fingerprint. An entry last validated against
    /// this namenode at the current epoch hits with **zero**
    /// fingerprint work — no per-replica metadata serialization at all.
    /// If the epoch has moved (any upload, death, or abandonment
    /// anywhere on the cluster) — or the entry was last validated
    /// against a *different* namenode — the fingerprint is recomputed
    /// once: a match refreshes the entry's watermark (hit), a mismatch
    /// drops the stale entry (invalidation rule 2, miss).
    pub fn lookup_validated(
        &self,
        shape: &FilterShape,
        block: BlockId,
        namenode: &Namenode,
    ) -> Option<BlockPlan> {
        match self.lookup_validated_full(shape, block, namenode) {
            ValidatedLookup::Hit(plan) => Some(plan),
            ValidatedLookup::Miss(_) => None,
        }
    }

    /// [`PlanCache::lookup_validated`], additionally handing a miss any
    /// fingerprint the revalidation pass already computed — so the
    /// caller's subsequent [`PlanCache::insert_validated`] reuses it
    /// instead of serializing every replica's metadata a second time.
    pub fn lookup_validated_full(
        &self,
        shape: &FilterShape,
        block: BlockId,
        namenode: &Namenode,
    ) -> ValidatedLookup {
        let key = (shape.clone(), block);
        let watermark = (namenode.instance_id(), namenode.design_epoch());
        {
            let inner = self.inner.read();
            match inner.entries.get(&key) {
                Some(e) if e.validated_at == watermark => {
                    return ValidatedLookup::Hit(self.count_hit(&e.plan));
                }
                Some(_) => {}
                None => {
                    self.counters.misses.fetch_add(1, Ordering::Relaxed);
                    return ValidatedLookup::Miss(None);
                }
            }
        }
        // Epoch moved (or different namenode) since this entry was
        // validated: pay the fingerprint once, then either refresh the
        // watermark or evict.
        let fingerprint = BlockFingerprint::of(namenode, block);
        let mut inner = self.inner.write();
        match inner.entries.get_mut(&key) {
            Some(e) if e.fingerprint == fingerprint => {
                e.validated_at = watermark;
                ValidatedLookup::Hit(self.count_hit(&e.plan))
            }
            Some(_) => {
                inner.entries.remove(&key);
                inner.order.retain(|k| *k != key);
                self.counters
                    .fingerprint_invalidations
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                ValidatedLookup::Miss(Some(fingerprint))
            }
            // Evicted between the read and write sections (death sync or
            // capacity pressure racing this lookup): a plain miss, and
            // the fingerprint — just computed against current state —
            // is still good for the caller's insert.
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                ValidatedLookup::Miss(Some(fingerprint))
            }
        }
    }

    /// Clones a hit's plan, marking it cached and counting it.
    fn count_hit(&self, plan: &BlockPlan) -> BlockPlan {
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        let mut plan = plan.clone();
        plan.cached = true;
        plan
    }

    /// Removes `key` unless `keep` approves the entry present at write
    /// time; returns the kept entry's plan (a concurrent writer may
    /// have replaced the stale entry we saw under the read lock).
    fn drop_stale(
        &self,
        key: &(FilterShape, BlockId),
        keep: impl Fn(&CacheEntry) -> bool,
    ) -> Option<BlockPlan> {
        let mut inner = self.inner.write();
        match inner.entries.get(key) {
            Some(e) if keep(e) => Some(e.plan.clone()),
            Some(_) => {
                inner.entries.remove(key);
                inner.order.retain(|k| k != key);
                self.counters
                    .fingerprint_invalidations
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoizes a freshly priced plan, evicting the oldest entry if the
    /// cache is full. Entries inserted this way carry no epoch
    /// watermark and revalidate by fingerprint on their next
    /// epoch-based lookup; [`PlanCache::insert_validated`] stamps one.
    pub fn insert(
        &self,
        shape: &FilterShape,
        block: BlockId,
        fingerprint: BlockFingerprint,
        plan: BlockPlan,
    ) {
        self.insert_at(shape, block, fingerprint, EPOCH_UNVALIDATED, plan);
    }

    /// Memoizes a freshly priced plan whose fingerprint was computed at
    /// the namenode's current design epoch, enabling the O(1)
    /// epoch-validated warm path of [`PlanCache::lookup_validated`].
    pub fn insert_validated(
        &self,
        shape: &FilterShape,
        block: BlockId,
        fingerprint: BlockFingerprint,
        namenode: &Namenode,
        plan: BlockPlan,
    ) {
        self.insert_at(
            shape,
            block,
            fingerprint,
            (namenode.instance_id(), namenode.design_epoch()),
            plan,
        );
    }

    fn insert_at(
        &self,
        shape: &FilterShape,
        block: BlockId,
        fingerprint: BlockFingerprint,
        validated_at: (u64, u64),
        plan: BlockPlan,
    ) {
        let mut inner = self.inner.write();
        let key = (shape.clone(), block);
        if inner
            .entries
            .insert(
                key.clone(),
                CacheEntry {
                    fingerprint,
                    plan,
                    validated_at,
                },
            )
            .is_none()
        {
            inner.order.push_back(key);
        }
        while inner.entries.len() > self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            inner.entries.remove(&oldest);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter-free, validation-free peek at a memoized plan's
    /// estimated cost — the assignment phase's pricing source
    /// (`QueryPlanner::estimate_splits`). Deliberately bypasses hit/miss
    /// accounting and fingerprint revalidation: a scheduling estimate
    /// must not perturb cache effectiveness counters, and a mildly
    /// stale estimate is still a fine slot-occupancy price (the read
    /// itself revalidates before executing anything).
    pub fn peek_est_seconds(&self, shape: &FilterShape, block: BlockId) -> Option<f64> {
        self.peek_est_seconds_many(shape, std::slice::from_ref(&block))[0]
    }

    /// Batch form of [`PlanCache::peek_est_seconds`]: one read-lock
    /// acquisition and one shape clone for the whole block list, so
    /// the assignment phase's per-split probe is O(blocks) map lookups
    /// rather than O(blocks) lock round-trips and key allocations.
    pub fn peek_est_seconds_many(
        &self,
        shape: &FilterShape,
        blocks: &[BlockId],
    ) -> Vec<Option<f64>> {
        let inner = self.inner.read();
        let mut key = (shape.clone(), 0);
        blocks
            .iter()
            .map(|&b| {
                key.1 = b;
                inner.entries.get(&key).map(|e| e.plan.est_seconds)
            })
            .collect()
    }

    /// Charges `n` cost-model candidate evaluations to this cache's
    /// accounting (the planner reports every pricing pass it runs on a
    /// miss, so tests can assert a warm cache prices nothing).
    pub fn record_cost_evaluations(&self, n: u64) {
        self.counters
            .cost_evaluations
            .fetch_add(n, Ordering::Relaxed);
    }

    /// A snapshot of the effectiveness counters. Each lookup counts as
    /// exactly one hit or one miss, so under any interleaving of
    /// concurrent planners `hits + misses` equals the number of lookups
    /// issued.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            fingerprint_invalidations: self
                .counters
                .fingerprint_invalidations
                .load(Ordering::Relaxed),
            cost_evaluations: self.counters.cost_evaluations.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized block plans.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.write();
        let n = inner.entries.len() as u64;
        inner.entries.clear();
        inner.order.clear();
        self.counters.evictions.fetch_add(n, Ordering::Relaxed);
    }
}

/// Where a plan's per-column selectivity estimate came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectivitySource {
    /// The static [`crate::planner::SelectivityEstimate`] prior.
    Prior,
    /// Observed execution feedback blended into the prior; `weight` is
    /// the decayed number of block observations behind it.
    Observed { weight: f64 },
}

/// One per-column selectivity the planner priced a plan with, kept on
/// the [`BlockPlan`] so `explain()` can say where each number came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivityChoice {
    pub column: usize,
    pub value: f64,
    pub source: SelectivitySource,
}

#[derive(Debug, Clone, Copy, Default)]
struct ColumnFeedback {
    /// Decayed observation weight, bounded by `1 / (1 - decay)`.
    weight: f64,
    /// Decayed sum of observed selectivities.
    weighted_sum: f64,
    /// Raw observation count (diagnostics).
    observations: u64,
}

/// Aggregated per-column selectivity observations, fed back into
/// planning.
///
/// Every `AccessPath::execute` that can attribute its row counts to a
/// single filter column records a `TaskStats::selectivity` observation
/// (`matched / total` rows of one block). [`SelectivityFeedback::absorb`]
/// folds those in with exponential decay, and
/// [`SelectivityFeedback::adjusted`] blends the decayed mean with the
/// static prior under a fixed prior weight. The bounds matter: the decay
/// caps the total observation weight (old blocks fade), and the prior
/// weight keeps any single skewed block from swinging an estimate to its
/// own selectivity — sustained evidence moves plans, outliers do not.
///
/// Observations are keyed by `(column, predicate class)` — equality vs
/// range — so a broad range query (`@1 between(0, 1000)` matching most
/// rows) cannot poison the estimate a needle lookup (`@1 = 42`) is
/// priced with. Within one class the store is literal-blind, like any
/// column-granularity statistic: different ranges over the same column
/// share an estimate, and the decay is what lets it track a workload
/// shift.
#[derive(Debug)]
pub struct SelectivityFeedback {
    inner: OrderedRwLock<BTreeMap<(usize, bool), ColumnFeedback>>,
    decay: f64,
    prior_weight: f64,
}

impl Default for SelectivityFeedback {
    /// Decay 0.95 (observation weight bounded at 20 blocks) and prior
    /// weight 2 — roughly: the static prior counts as two observed
    /// blocks.
    fn default() -> Self {
        SelectivityFeedback::new(0.95, 2.0)
    }
}

impl SelectivityFeedback {
    /// A store with an explicit decay factor (`0 ≤ decay < 1`; the
    /// effective observation window is `1 / (1 - decay)` blocks) and
    /// prior weight (in units of observed blocks).
    pub fn new(decay: f64, prior_weight: f64) -> Self {
        SelectivityFeedback {
            inner: OrderedRwLock::new(LockRank::Feedback, "selectivity-feedback", BTreeMap::new()),
            decay: decay.clamp(0.0, 0.999),
            prior_weight: prior_weight.max(0.0),
        }
    }

    /// Folds one observation into a (column, class) cell. Callers hold
    /// the write lock — `absorb` folds a whole task's batch under one
    /// lock section.
    fn fold(
        &self,
        inner: &mut BTreeMap<(usize, bool), ColumnFeedback>,
        column: usize,
        eq: bool,
        matched: u64,
        total: u64,
    ) {
        if total == 0 {
            return;
        }
        let obs = (matched as f64 / total as f64).clamp(0.0, 1.0);
        let f = inner.entry((column, eq)).or_default();
        f.weight = f.weight * self.decay + 1.0;
        f.weighted_sum = f.weighted_sum * self.decay + obs;
        f.observations += 1;
    }

    /// Records one block's observed selectivity for a column under a
    /// predicate class (`eq` = equality, else range).
    pub fn observe(&self, column: usize, eq: bool, matched: u64, total: u64) {
        let mut inner = self.inner.write();
        self.fold(&mut inner, column, eq, matched, total);
    }

    /// Folds every observation a finished task recorded — the
    /// `TaskStats` → feedback plumbing the input formats run after each
    /// split. The whole batch is absorbed under one write-lock section,
    /// so a concurrent `plan_block` prices against either none or all
    /// of a task's evidence — never a torn prefix.
    pub fn absorb(&self, stats: &TaskStats) {
        if stats.selectivity.is_empty() {
            return;
        }
        let mut inner = self.inner.write();
        for obs in &stats.selectivity {
            self.fold(&mut inner, obs.column, obs.eq, obs.matched, obs.total);
        }
    }

    /// The decayed observed mean for a (column, class), with its
    /// weight, if any observation has been recorded.
    pub fn observed(&self, column: usize, eq: bool) -> Option<(f64, f64)> {
        let inner = self.inner.read();
        inner
            .get(&(column, eq))
            .filter(|f| f.weight > 0.0)
            .map(|f| (f.weighted_sum / f.weight, f.weight))
    }

    /// Raw observation count for a (column, class) (diagnostics).
    pub fn observation_count(&self, column: usize, eq: bool) -> u64 {
        let inner = self.inner.read();
        inner
            .get(&(column, eq))
            .map(|f| f.observations)
            .unwrap_or(0)
    }

    /// Every `(column, predicate class)` with recorded evidence, in
    /// deterministic (column, class) order — the enumeration the
    /// re-indexing advisor walks when it looks for sustained evidence
    /// of a selective predicate on an unindexed column.
    pub fn observed_classes(&self) -> Vec<(usize, bool)> {
        let inner = self.inner.read();
        inner
            .iter()
            .filter(|(_, f)| f.weight > 0.0)
            .map(|(&k, _)| k)
            .collect()
    }

    /// The effective selectivity for a (column, class): the static
    /// `prior` when nothing was observed, otherwise the prior-weighted
    /// blend `(prior·Wp + Σ decayed obs) / (Wp + W)`.
    pub fn adjusted(&self, column: usize, eq: bool, prior: f64) -> (f64, SelectivitySource) {
        let inner = self.inner.read();
        match inner.get(&(column, eq)).filter(|f| f.weight > 0.0) {
            None => (prior, SelectivitySource::Prior),
            Some(f) => {
                let blended =
                    (prior * self.prior_weight + f.weighted_sum) / (self.prior_weight + f.weight);
                (
                    blended.clamp(0.0, 1.0),
                    SelectivitySource::Observed { weight: f.weight },
                )
            }
        }
    }

    /// Drops all accumulated feedback.
    pub fn clear(&self) {
        self.inner.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_index::{HailBlockReplicaInfo, IndexKind, IndexMetadata, SidecarMetadata};
    use hail_types::{DataType, Field, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::VarChar),
        ])
        .unwrap()
    }

    fn meta(kind: IndexKind, col: Option<usize>) -> IndexMetadata {
        IndexMetadata {
            kind,
            key_column: col,
            index_bytes: 64,
            index_offset: 1024,
            sidecars: Vec::new(),
        }
    }

    fn namenode_with(configs: &[IndexMetadata]) -> (Namenode, BlockId) {
        let mut nn = Namenode::new();
        let b = nn.allocate_block((0..configs.len()).collect()).unwrap();
        for (dn, m) in configs.iter().enumerate() {
            nn.register_replica(HailBlockReplicaInfo::new(b, dn, m.clone(), 4000 + dn))
                .unwrap();
        }
        (nn, b)
    }

    #[test]
    fn filter_shape_abstracts_literals_not_structure() {
        let s = schema();
        let q1 = HailQuery::parse("@1 between(10, 20)", "{@2}", &s).unwrap();
        let q2 = HailQuery::parse("@1 between(500, 900)", "", &s).unwrap();
        let q3 = HailQuery::parse("@1 = 7", "", &s).unwrap();
        let sels = [(0usize, 0.05)];
        let f = DatasetFormat::HailPax;
        assert_eq!(
            FilterShape::of(f, &q1, None, &sels, 7),
            FilterShape::of(f, &q2, None, &sels, 7),
            "literals (and projection) are not part of the shape"
        );
        assert_ne!(
            FilterShape::of(f, &q1, None, &sels, 7),
            FilterShape::of(f, &q3, None, &sels, 7),
            "equality vs range is a different shape"
        );
        assert_ne!(
            FilterShape::of(f, &q1, None, &sels, 7),
            FilterShape::of(DatasetFormat::HadoopText, &q1, None, &sels, 7),
            "format is part of the shape"
        );
        assert_ne!(
            FilterShape::of(f, &q1, None, &[(0, 0.05)], 7),
            FilterShape::of(f, &q1, None, &[(0, 0.9)], 7),
            "estimate drift moves the key"
        );
        assert_ne!(
            FilterShape::of(f, &q1, None, &sels, 7),
            FilterShape::of(f, &q1, None, &sels, 8),
            "a different cost model is a different key"
        );
        // Quantization: drift below 1/1000 does not move the key.
        assert_eq!(
            FilterShape::of(f, &q1, None, &[(0, 0.0501)], 7),
            FilterShape::of(f, &q1, None, &[(0, 0.0503)], 7),
        );
    }

    #[test]
    fn fingerprint_covers_primary_index_and_sidecars() {
        let clustered = meta(IndexKind::Clustered, Some(0));
        let (nn1, b1) = namenode_with(&[clustered.clone(), meta(IndexKind::None, None)]);
        let (nn2, b2) = namenode_with(&[clustered.clone(), meta(IndexKind::None, None)]);
        assert_eq!(b1, b2);
        assert_eq!(
            BlockFingerprint::of(&nn1, b1),
            BlockFingerprint::of(&nn2, b2),
            "same Dir_rep state, same fingerprint"
        );

        // A different primary index on one replica changes it…
        let (nn3, b3) = namenode_with(&[
            meta(IndexKind::Clustered, Some(1)),
            meta(IndexKind::None, None),
        ]);
        assert_ne!(
            BlockFingerprint::of(&nn1, b1).digest,
            BlockFingerprint::of(&nn3, b3).digest
        );

        // …and so does a sidecar directory difference alone.
        let mut with_sidecar = clustered;
        with_sidecar.sidecars.push(SidecarMetadata {
            kind: IndexKind::Bitmap { column: 1 },
            sidecar_bytes: 99,
            sidecar_offset: 2000,
        });
        let (nn4, b4) = namenode_with(&[with_sidecar, meta(IndexKind::None, None)]);
        assert_ne!(
            BlockFingerprint::of(&nn1, b1).digest,
            BlockFingerprint::of(&nn4, b4).digest
        );

        // Replica death changes both the digest and the datanode set.
        let (mut nn5, b5) = namenode_with(&[
            meta(IndexKind::Clustered, Some(0)),
            meta(IndexKind::None, None),
        ]);
        let before = BlockFingerprint::of(&nn5, b5);
        nn5.mark_dead(1);
        let after = BlockFingerprint::of(&nn5, b5);
        assert_ne!(before, after);
        assert_eq!(after.datanodes, vec![0]);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let cache = PlanCache::with_capacity(2);
        let (nn, b) = namenode_with(&[meta(IndexKind::Clustered, Some(0))]);
        let fp = BlockFingerprint::of(&nn, b);
        let q = HailQuery::parse("@1 = 1", "", &schema()).unwrap();
        let plan = crate::planner::QueryPlanner::test_block_plan(b);
        for i in 0..3u32 {
            let shape = FilterShape::of(
                DatasetFormat::HailPax,
                &q,
                None,
                &[(0, f64::from(i) / 10.0)],
                0,
            );
            cache.insert(&shape, b, fp.clone(), plan.clone());
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest shape (sel bucket 0.0) is gone.
        let oldest = FilterShape::of(DatasetFormat::HailPax, &q, None, &[(0, 0.0)], 0);
        assert!(cache.lookup(&oldest, b, &fp).is_none());
    }

    /// The O(1) warm path: a lookup at an unchanged design epoch never
    /// recomputes a fingerprint, a bumped epoch revalidates once and
    /// re-arms the fast path, and a genuine `Dir_rep` change still
    /// invalidates (rule 2).
    #[test]
    fn epoch_validated_lookup_skips_fingerprints_until_design_changes() {
        let cache = PlanCache::default();
        let (mut nn, b) = namenode_with(&[meta(IndexKind::Clustered, Some(0))]);
        let q = HailQuery::parse("@1 = 1", "", &schema()).unwrap();
        let shape = FilterShape::of(DatasetFormat::HailPax, &q, None, &[(0, 0.05)], 0);
        let plan = crate::planner::QueryPlanner::test_block_plan(b);

        assert!(cache.lookup_validated(&shape, b, &nn).is_none());
        cache.insert_validated(&shape, b, BlockFingerprint::of(&nn, b), &nn, plan.clone());
        // Unchanged epoch: hit (the fast path — nothing to observe here
        // beyond correctness; `hail-bench`'s `exec.plan_warm_us_per_block`
        // measures it).
        let hit = cache.lookup_validated(&shape, b, &nn).unwrap();
        assert!(hit.cached);

        // An unrelated upload bumps the epoch; the entry revalidates by
        // fingerprint (same Dir_rep for this block → still a hit) and
        // re-arms the fast path at the new epoch.
        let other = nn.allocate_block(vec![0]).unwrap();
        nn.register_replica(HailBlockReplicaInfo::new(
            other,
            0,
            meta(IndexKind::None, None),
            100,
        ))
        .unwrap();
        assert!(cache.lookup_validated(&shape, b, &nn).is_some());
        assert!(cache.lookup_validated(&shape, b, &nn).is_some());
        assert_eq!(cache.stats().fingerprint_invalidations, 0);

        // A real change to this block's Dir_rep (its replica holder
        // dies) must miss and drop the entry.
        nn.mark_dead(0);
        assert!(cache.lookup_validated(&shape, b, &nn).is_none());
        assert_eq!(cache.stats().fingerprint_invalidations, 1);
        assert!(cache.is_empty());
    }

    /// Epoch watermarks are namenode-qualified: a second cluster with a
    /// coincidentally equal epoch cannot fast-path-validate entries
    /// inserted from the first — it falls back to fingerprints.
    #[test]
    fn epoch_watermarks_do_not_cross_namenodes() {
        let cache = PlanCache::default();
        let (nn1, b1) = namenode_with(&[meta(IndexKind::Clustered, Some(0))]);
        // Same registration count → same design epoch, different state.
        let (nn2, b2) = namenode_with(&[meta(IndexKind::Clustered, Some(1))]);
        assert_eq!(b1, b2);
        assert_eq!(nn1.design_epoch(), nn2.design_epoch());
        assert_ne!(nn1.instance_id(), nn2.instance_id());

        let q = HailQuery::parse("@1 = 1", "", &schema()).unwrap();
        let shape = FilterShape::of(DatasetFormat::HailPax, &q, None, &[(0, 0.05)], 0);
        let plan = crate::planner::QueryPlanner::test_block_plan(b1);
        cache.insert_validated(&shape, b1, BlockFingerprint::of(&nn1, b1), &nn1, plan);

        // nn2's lookup must not be fooled by the equal epoch: the
        // fingerprint differs, so the stale entry is dropped.
        assert!(cache.lookup_validated(&shape, b2, &nn2).is_none());
        assert_eq!(cache.stats().fingerprint_invalidations, 1);
    }

    /// Lookup counters are exact: every lookup is one hit or one miss,
    /// under both the fingerprint and the epoch-validated APIs.
    #[test]
    fn every_lookup_counts_once() {
        let cache = PlanCache::default();
        let (nn, b) = namenode_with(&[meta(IndexKind::Clustered, Some(0))]);
        let q = HailQuery::parse("@1 = 1", "", &schema()).unwrap();
        let shape = FilterShape::of(DatasetFormat::HailPax, &q, None, &[(0, 0.05)], 0);
        let fp = BlockFingerprint::of(&nn, b);
        let plan = crate::planner::QueryPlanner::test_block_plan(b);

        cache.lookup(&shape, b, &fp); // miss (absent)
        cache.lookup_validated(&shape, b, &nn); // miss (absent)
        cache.insert_validated(&shape, b, fp.clone(), &nn, plan);
        cache.lookup(&shape, b, &fp); // hit
        cache.lookup_validated(&shape, b, &nn); // hit
        let stale = BlockFingerprint {
            digest: fp.digest ^ 1,
            datanodes: fp.datanodes.clone(),
        };
        cache.lookup(&shape, b, &stale); // miss (invalidates)
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 3));
        assert_eq!(s.hits + s.misses, 5, "each lookup counted exactly once");
        assert_eq!(s.fingerprint_invalidations, 1);
    }

    #[test]
    fn feedback_decays_and_is_bounded_by_prior() {
        let fb = SelectivityFeedback::default();
        assert_eq!(
            fb.adjusted(0, false, 0.05),
            (0.05, SelectivitySource::Prior)
        );

        // One wildly skewed block cannot drag the estimate to itself.
        fb.observe(0, false, 100, 100);
        let (one_obs, src) = fb.adjusted(0, false, 0.05);
        assert!(matches!(src, SelectivitySource::Observed { .. }));
        assert!(
            one_obs < 0.5,
            "one block observation stays bounded: {one_obs}"
        );

        // Sustained evidence converges toward the observed value…
        for _ in 0..60 {
            fb.observe(0, false, 100, 100);
        }
        let (many, _) = fb.adjusted(0, false, 0.05);
        assert!(many > 0.85, "sustained evidence dominates: {many}");
        // …but the decay bounds the weight, so the prior never fully
        // disappears and fresh contrary evidence can still move it back.
        let (_, weight) = fb.observed(0, false).unwrap();
        assert!(
            weight <= 1.0 / (1.0 - 0.95) + 1e-9,
            "weight bounded: {weight}"
        );
        for _ in 0..60 {
            fb.observe(0, false, 0, 100);
        }
        let (back, _) = fb.adjusted(0, false, 0.05);
        assert!(back < 0.1, "decay lets estimates recover: {back}");
        assert_eq!(fb.observation_count(0, false), 121);

        // Empty blocks are ignored rather than recorded as 0/0.
        fb.observe(1, false, 0, 0);
        assert!(fb.observed(1, false).is_none());
        fb.clear();
        assert!(fb.observed(0, false).is_none());
    }

    /// Observations are class-keyed: a broad range scan on a column
    /// leaves that column's *equality* estimate untouched, so needle
    /// lookups are still priced from their own evidence.
    #[test]
    fn feedback_classes_do_not_cross_poison() {
        let fb = SelectivityFeedback::default();
        // A broad range query observes ~everything matching.
        for _ in 0..30 {
            fb.observe(0, false, 99, 100);
        }
        let (range_est, _) = fb.adjusted(0, false, 0.05);
        assert!(range_est > 0.8, "range class learned: {range_est}");
        // The eq class still answers from the prior…
        assert_eq!(
            fb.adjusted(0, true, 0.001),
            (0.001, SelectivitySource::Prior)
        );
        // …and learns independently.
        for _ in 0..5 {
            fb.observe(0, true, 1, 1000);
        }
        let (eq_est, _) = fb.adjusted(0, true, 0.001);
        assert!(eq_est < 0.01, "eq class unpoisoned: {eq_est}");
    }
}
