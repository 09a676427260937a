//! # hail-exec
//!
//! The unified query-execution layer: **one seam** where every replica
//! and access-path decision is made.
//!
//! HAIL's core claim (Dittrich et al., VLDB 2012) is that a different
//! clustered index per block replica lets the system pick, per block,
//! the cheapest way to read data. Earlier revisions scattered that
//! decision across the record readers, the splitting policies, and the
//! baselines' hard-wired read paths; this crate consolidates all of it:
//!
//! - [`path`] — the [`AccessPath`] trait and its implementations:
//!   [`FullScan`], [`ClusteredIndexScan`], [`TrojanIndexScan`],
//!   [`BitmapScan`], [`InvertedListScan`]
//! - `kernel` (private) — the one PAX scan kernel under [`FullScan`],
//!   [`ClusteredIndexScan`] and [`BitmapScan`]: evaluate the conjunction
//!   conjunct by conjunct into an ascending selection vector over
//!   `hail_pax::ColumnCursor`s, then materialise only the projected
//!   columns of only the selected rows
//! - [`planner`] — the cost-based [`QueryPlanner`]: per block, consult
//!   the namenode's per-replica index metadata (`Dir_rep`), price each
//!   `(replica, access path)` candidate with the `hail-sim` cost model,
//!   and emit an explainable [`QueryPlan`]
//! - [`cache`] — the adaptive layer: a fingerprinted [`PlanCache`] that
//!   memoizes per-block plans across queries with the same filter
//!   shape, and a [`SelectivityFeedback`] store that blends observed
//!   per-block selectivities back into the [`SelectivityEstimate`] prior;
//!   both thread-safe behind `RwLock`s so concurrently read splits and
//!   jobs share them
//! - [`sharing`] — cooperative scan sharing: a [`ScanShareRegistry`]
//!   under which a job whose plan touches a block another in-flight job
//!   is already decoding *attaches* to that decode (producer reads
//!   once, each consumer applies its own residual predicate/projection
//!   with solo-identical accounting), keyed by (block, replica) and
//!   disabled via `HAIL_DISABLE_SCAN_SHARING`
//! - [`synopsis`] — block skipping: evaluate the query against the
//!   persisted per-block zone-map/Bloom synopses *before* candidate
//!   enumeration, so provably-empty blocks get zero-cost plans and are
//!   never priced or read (conservative: any doubt means no prune)
//! - [`adapt`] — adaptive re-indexing: a [`ReindexAdvisor`] that turns
//!   sustained [`SelectivityFeedback`] evidence into in-place replica
//!   rewrites building the missing clustered index or bitmap sidecar,
//!   applied under `&mut DfsCluster` so concurrent queries see either
//!   the old design or the new one — never a half-registered hybrid
//! - [`splitting`] — default Hadoop splitting and `HailSplitting`
//!   (§4.3), consuming plans instead of re-deriving replica choices
//! - [`formats`] — the one [`PlannedInputFormat`] serving all three
//!   systems (Hadoop, Hadoop++, HAIL — told apart by the dataset's
//!   format), routed through `QueryPlanner::plan` →
//!   `AccessPath::execute`, reading up to `job_parallelism` whole
//!   splits at once through `hail_mr::run_ordered`
//! - [`readers`] — single-block reader entry points (planner-backed)
//!
//! New access paths or index types plug into the planner's candidate
//! enumeration — nothing else needs to change; cross-query planning
//! state (memoized plans, selectivity feedback) lives in [`cache`] and
//! is shared by plugging `Arc`s into the [`PlannerConfig`].
//!
//! # Adaptive planning in five lines
//!
//! The plan cache and feedback store are opt-in knobs on the planner
//! configuration, and `explain()` shows them working:
//!
//! ```
//! use std::sync::Arc;
//! use hail_core::{upload_hail, HailQuery};
//! use hail_dfs::DfsCluster;
//! use hail_exec::{PlanCache, PlannerConfig, QueryPlanner, SelectivityFeedback};
//! use hail_index::ReplicaIndexConfig;
//! use hail_types::{DataType, Field, Schema, StorageConfig};
//!
//! let schema = Schema::new(vec![
//!     Field::new("k", DataType::Int),
//!     Field::new("v", DataType::VarChar),
//! ]).unwrap();
//! let mut config = StorageConfig::test_scale(4096);
//! config.index_partition_size = 16;
//! let mut cluster = DfsCluster::new(4, config);
//! let text: String = (0..400).map(|i| format!("{}|w{}\n", i % 89, i)).collect();
//! let dataset = upload_hail(&mut cluster, &schema, "t", &[(0, text)],
//!     &ReplicaIndexConfig::first_indexed(3, &[0])).unwrap();
//!
//! let planner_config = PlannerConfig {
//!     plan_cache: Some(Arc::new(PlanCache::default())),
//!     feedback: Some(Arc::new(SelectivityFeedback::default())),
//!     ..Default::default()
//! };
//! let planner = QueryPlanner::with_config(&cluster, planner_config);
//! let query = HailQuery::parse("@1 between(10, 20)", "{@2}", &schema).unwrap();
//!
//! // Cold cache: every block is freshly priced from the static prior.
//! let cold = planner.plan_dataset(&dataset, &query).unwrap();
//! assert!(cold.explain().contains("[priced]"));
//! assert!(cold.explain().contains("sel @1=0.050(prior)"));
//!
//! // Same filter shape again: served from the cache, nothing priced.
//! let warm = planner.plan_dataset(&dataset, &query).unwrap();
//! assert!(warm.explain().contains("[cached]"));
//! let stats = planner.config().plan_cache.as_ref().unwrap().stats();
//! assert_eq!(stats.hits, warm.blocks.len() as u64);
//! ```

#![forbid(unsafe_code)]

pub mod adapt;
pub mod cache;
pub mod formats;
mod kernel;
pub mod path;
pub mod planner;
pub mod readers;
pub mod sharing;
pub mod splitting;
pub mod synopsis;

pub use adapt::{
    apply_reindex, plan_rewrites, ReindexAction, ReindexAdvisor, ReindexKind, ReindexOutcome,
    ReindexPolicy, ReplicaRewrite,
};
pub use cache::{
    BlockFingerprint, CacheStats, FilterShape, PlanCache, SelectivityChoice, SelectivityFeedback,
    SelectivitySource, ValidatedLookup,
};
pub use formats::PlannedInputFormat;
pub use path::{
    AccessPath, BitmapScan, BlockAccess, ClusteredIndexScan, FullScan, InvertedListScan,
    ScanLayout, TrojanIndexScan,
};
pub use planner::{
    BlockPlan, Candidate, CostModel, PlannerConfig, QueryPlan, QueryPlanner, SelectivityEstimate,
};
pub use readers::{read_hadoop_text_block, read_hail_block, read_hpp_block};
pub use sharing::{Acquired, DecodedBlock, ScanShareRegistry, ShareKey, ShareStats};
pub use splitting::{default_splits, hail_splits, plan_default_splits, plan_hail_splits};
pub use synopsis::{PruneInfo, PruneReason};
