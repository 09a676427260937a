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
//! - [`feedback`] — the re-indexing advisor's evidence: a
//!   [`SelectivityFeedback`] store of observed per-block selectivities,
//!   fed from finished jobs' reports between the adaptive loop's
//!   rounds. No plan reads it: every job plans cold from the static
//!   [`SelectivityEstimate`] prior (see ARCHITECTURE.md, "Plan cache,
//!   measured and removed" and "Selectivity feedback, measured and
//!   removed from planning")
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
//! enumeration — nothing else needs to change. Planning keeps no state
//! across queries: a plan depends on the namenode's `Dir_rep`, the
//! query and the [`PlannerConfig`] alone.
//!
//! # Evidence for the advisor, plans unchanged
//!
//! A block read records the selectivity it observed; absorbed into a
//! [`SelectivityFeedback`] store, it is what the [`ReindexAdvisor`]
//! decides from. The next plan is priced as the first was:
//!
//! ```
//! use hail_core::{upload_hail, HailQuery};
//! use hail_dfs::DfsCluster;
//! use hail_exec::{QueryPlanner, SelectivityFeedback};
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
//! let planner = QueryPlanner::new(&cluster);
//! let query = HailQuery::parse("@1 between(10, 20)", "{@2}", &schema).unwrap();
//! let first = planner.plan_dataset(&dataset, &query).unwrap();
//! assert!(first.explain().contains("sel @1=0.050(prior)"));
//!
//! // Every read of a range on @1 observes its block's selectivity.
//! let evidence = SelectivityFeedback::default();
//! for &block in &dataset.blocks {
//!     let stats = planner
//!         .execute_block(&first, block, 0, &schema, &query, &mut |_| {})
//!         .unwrap();
//!     evidence.absorb(&stats);
//! }
//! assert_eq!(evidence.observation_count(0, false), dataset.blocks.len() as u64);
//! let (mean, _weight) = evidence.observed(0, false).unwrap();
//! assert!(mean > 0.0 && mean < 0.2, "about 11 of 89 keys: {mean}");
//!
//! // The plan is priced cold again, from the same prior.
//! let second = planner.plan_dataset(&dataset, &query).unwrap();
//! assert_eq!(second.explain(), first.explain());
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
pub use feedback::{SelectivityChoice, SelectivityFeedback};
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
