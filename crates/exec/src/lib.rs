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
//! - [`feedback`] — the adaptive layer: a [`SelectivityFeedback`] store
//!   that blends observed per-block selectivities back into the
//!   [`SelectivityEstimate`] prior, thread-safe behind an `RwLock` so
//!   concurrently read splits and jobs share it. Plans themselves are
//!   never kept across jobs: every job plans cold (see ARCHITECTURE.md,
//!   "Plan cache, measured and removed")
//! - [`sharing`] — frozen-suite residue of the retired cooperative scan
//!   sharing: an empty [`ScanShareRegistry`] the benchmark suite still
//!   names. Every block read is one [`AccessPath::execute`], whatever
//!   else is running
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
//! enumeration — nothing else needs to change; the one cross-query
//! planning state, selectivity feedback, lives in [`feedback`] and is
//! shared by plugging an `Arc` into the [`PlannerConfig`].
//!
//! # Adaptive planning in five lines
//!
//! The feedback store is an opt-in knob on the planner configuration,
//! and `explain()` shows it working:
//!
//! ```
//! use std::sync::Arc;
//! use hail_core::{upload_hail, HailQuery};
//! use hail_dfs::DfsCluster;
//! use hail_exec::{PlannerConfig, QueryPlanner, SelectivityFeedback};
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
//! let feedback = Arc::new(SelectivityFeedback::default());
//! let planner_config = PlannerConfig {
//!     feedback: Some(Arc::clone(&feedback)),
//!     ..Default::default()
//! };
//! let planner = QueryPlanner::with_config(&cluster, planner_config);
//! let query = HailQuery::parse("@1 between(10, 20)", "{@2}", &schema).unwrap();
//!
//! // No evidence yet: every block is priced from the static prior.
//! let first = planner.plan_dataset(&dataset, &query).unwrap();
//! assert!(first.explain().contains("sel @1=0.050(prior)"));
//!
//! // A block read records the selectivity it observed; absorbed, it
//! // moves the next plan's estimate. That plan is priced cold again.
//! let block = dataset.blocks[0];
//! let stats = planner
//!     .execute_block(&first, block, 0, &schema, &query, &mut |_| {})
//!     .unwrap();
//! feedback.absorb(&stats);
//! let second = planner.plan_dataset(&dataset, &query).unwrap();
//! assert!(second.explain().contains("(observed)"));
//! assert!(second.explain().contains("[priced]"));
//! ```

#![forbid(unsafe_code)]

pub mod adapt;
pub mod feedback;
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
pub use feedback::{SelectivityChoice, SelectivityFeedback, SelectivitySource};
pub use formats::PlannedInputFormat;
pub use path::{
    AccessPath, BitmapScan, BlockAccess, ClusteredIndexScan, DecodedBlock, FullScan,
    InvertedListScan, ScanLayout, TrojanIndexScan,
};
pub use planner::{
    BlockPlan, CacheStats, Candidate, PlanCache, PlannerConfig, QueryPlan, QueryPlanner,
    SelectivityEstimate,
};
pub use readers::{read_hadoop_text_block, read_hail_block, read_hpp_block};
pub use sharing::ScanShareRegistry;
pub use splitting::{default_splits, hail_splits, plan_default_splits, plan_hail_splits};
pub use synopsis::{PruneInfo, PruneReason};
