//! The cost-based [`QueryPlanner`]: one seam where every replica and
//! access-path decision is made.
//!
//! For each block of a dataset the planner consults the namenode's
//! per-replica directory (`Dir_rep`, §3.3) for what each replica
//! physically offers — clustered index and key column, trojan header,
//! replica size, and the §3.5 sidecar extension indexes (bitmaps over
//! low-cardinality columns, the inverted list over bad records) with
//! their stored sizes — enumerates the candidate `(replica, access
//! path)` pairs, prices each with the `hail-sim` cost model, and picks
//! the cheapest. Sidecar paths are offered *only* for replicas whose
//! `Dir_rep` entry records the sidecar, priced from its stored byte
//! size, and annotated in `explain()` output as `[sidecar N B]`. The
//! result is an explainable [`QueryPlan`] that the input formats turn
//! into input splits (scheduling) and per-block reads (execution), so
//! neither the scheduler nor the record readers re-derive replica or
//! index choices anywhere else.
//!
//! Planning is stateless and cold: every job prices every block it
//! does not prune, against the current `Dir_rep`, the query and the
//! static [`SelectivityEstimate`] prior — nothing another job left
//! behind. `explain()` prints each filter column's selectivity with its
//! `(prior)` tag, and every block line says whether its plan was
//! `[priced]` or `[pruned: …]`.
//!
//! # Worked example
//!
//! ```
//! use hail_core::{upload_hail, HailQuery};
//! use hail_dfs::DfsCluster;
//! use hail_exec::QueryPlanner;
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
//! let text: String = (0..500).map(|i| format!("{}|w{}\n", i * 3 % 97, i)).collect();
//! let dataset = upload_hail(&mut cluster, &schema, "t", &[(0, text)],
//!     &ReplicaIndexConfig::first_indexed(3, &[0])).unwrap();
//!
//! // A selective range query on the indexed column @1.
//! let query = HailQuery::parse("@1 between(10, 20)", "{@2}", &schema).unwrap();
//! let plan = QueryPlanner::new(&cluster).plan_dataset(&dataset, &query).unwrap();
//!
//! // Every block is served by the clustered index, and the plan says so:
//! //
//! //   QueryPlan for 2 blocks (format HailPax)
//! //     filter: @1 between(10, 20)   projection: {@2}
//! //     block 0: DN1 clustered-index-scan(@1)  est 0.011s  (5 candidates)  sel @1=0.050(prior)  [priced]
//! //     block 1: DN1 clustered-index-scan(@1)  est 0.011s  (5 candidates)  sel @1=0.050(prior)  [priced]
//! //   paths: clustered-index-scan×2
//! let explain = plan.explain();
//! assert!(explain.contains("clustered-index-scan(@1)"));
//! for bp in &plan.blocks {
//!     assert_eq!(bp.kind, hail_types::AccessPathKind::ClusteredIndexScan);
//! }
//! ```

use crate::feedback::{SelectivityChoice, SelectivityFeedback};
use crate::path::{
    AccessPath, BitmapScan, BlockAccess, ClusteredIndexScan, FullScan, InvertedListScan,
    ScanLayout, TrojanIndexScan,
};
use hail_core::{Dataset, DatasetFormat, HailQuery, Predicate};
use hail_dfs::DfsCluster;
use hail_index::IndexKind;
use hail_mr::{MapRecord, TaskStats};
use hail_sim::{CostLedger, HardwareProfile, ScaleFactor};
use hail_types::{AccessPathKind, BlockId, DatanodeId, HailError, Result, Schema};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The logical block each materialized replica stands in for when the
/// planner prices it: the paper's 64 MB block. Scaling every replica to
/// this size, exactly as the experiment harness scales its testbeds,
/// keeps planning decisions faithful to paper-scale physics even when
/// tests materialize kilobyte-sized blocks (where seek time would
/// otherwise dominate everything). Candidates are priced on
/// [`HardwareProfile::physical`].
const LOGICAL_BLOCK: usize = 64 * 1024 * 1024;

/// Per-column selectivity estimates feeding the cost model — the
/// *static prior*.
///
/// The planner has no histograms; callers that know their workload (the
/// benchmark harness knows each query's paper selectivity) can override
/// the default, and tests use the override to walk a query across the
/// index-vs-scan break-even point. It is the only selectivity a plan is
/// priced with: observed selectivities are the re-indexing advisor's
/// evidence ([`crate::feedback`]), never a planner input.
#[derive(Debug, Clone)]
pub struct SelectivityEstimate {
    default: f64,
    per_column: BTreeMap<usize, f64>,
}

impl Default for SelectivityEstimate {
    /// The default assumes selective filters (5 %), matching the
    /// paper's workloads where indexed queries select 10⁻⁸…0.2 of rows.
    fn default() -> Self {
        SelectivityEstimate::uniform(0.05)
    }
}

impl SelectivityEstimate {
    /// The same estimate for every column.
    pub fn uniform(selectivity: f64) -> Self {
        SelectivityEstimate {
            default: selectivity.clamp(0.0, 1.0),
            per_column: BTreeMap::new(),
        }
    }

    /// Overrides the estimate for one column.
    pub fn with_column(mut self, column: usize, selectivity: f64) -> Self {
        self.per_column.insert(column, selectivity.clamp(0.0, 1.0));
        self
    }

    /// The estimated fraction of rows a filter on `column` selects.
    pub fn for_column(&self, column: usize) -> f64 {
        self.per_column
            .get(&column)
            .copied()
            .unwrap_or(self.default)
    }
}

/// Planner configuration: selectivity estimates and the query-shape
/// knobs. Which sidecar extension indexes exist is *not* configured
/// here: the planner discovers them per replica from the namenode's
/// `Dir_rep` directory, where the upload pipeline registered them.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    pub estimate: SelectivityEstimate,
    /// When non-empty, the query is a bad-record token search: every
    /// block is served by [`InvertedListScan`] over these tokens, on a
    /// replica whose `Dir_rep` entry records an inverted-list sidecar.
    pub bad_record_tokens: Vec<String>,
    /// Field delimiter for text (Hadoop) blocks; `None` uses the
    /// cluster's [`hail_types::StorageConfig::delimiter`].
    pub text_delimiter: Option<char>,
    /// Ignored: every plan is priced cold. Kept as frozen-suite residue,
    /// because the `hail-bench` suite still sets it.
    pub plan_cache: Option<Arc<PlanCache>>,
    /// Ignored: plans are priced from [`PlannerConfig::estimate`]
    /// alone. Kept as frozen-suite residue, because the `hail-bench`
    /// suite still sets it.
    pub feedback: Option<Arc<SelectivityFeedback>>,
    /// Consult persisted zone-map/Bloom synopses before candidate
    /// enumeration, skipping blocks they prove empty
    /// ([`crate::synopsis`]). Defaults on; the `HAIL_DISABLE_SYNOPSES`
    /// knob ([`hail_core::knobs::synopsis_pruning_enabled`]) flips the
    /// default off for a whole process.
    pub synopsis_pruning: bool,
    /// Ignored: nothing in the engine absorbs observations into a
    /// store. Kept as frozen-suite residue, because the `hail-bench`
    /// suite still sets it.
    pub defer_feedback: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            estimate: SelectivityEstimate::default(),
            bad_record_tokens: Vec::new(),
            text_delimiter: None,
            plan_cache: None,
            feedback: None,
            synopsis_pruning: hail_core::knobs::synopsis_pruning_enabled(),
            defer_feedback: false,
        }
    }
}

/// Kept as frozen-suite residue: the `hail-bench` suite still builds
/// one and reads its [`PlanCache::stats`]. It memoizes nothing, and
/// nothing in the engine reads [`PlannerConfig::plan_cache`]; see
/// ARCHITECTURE.md, "Plan cache, measured and removed".
///
/// Fieldless, but not a unit struct: the suite builds it with
/// `PlanCache::default()`, which clippy rejects for a unit struct.
#[derive(Debug, Default)]
pub struct PlanCache {}

impl PlanCache {
    /// Always zeros.
    pub fn stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// Kept as frozen-suite residue: the counters the `hail-bench` suite
/// reads off a [`PlanCache`], always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub cost_evaluations: u64,
}

/// One priced `(replica, access path)` alternative.
#[derive(Debug, Clone)]
pub struct Candidate {
    pub replica: DatanodeId,
    pub kind: AccessPathKind,
    pub detail: String,
    pub est_seconds: f64,
    /// Stored size of the sidecar this candidate reads, for the sidecar
    /// paths (from `Dir_rep`, not a guess).
    pub sidecar_bytes: Option<usize>,
}

/// The planner's decision for one block.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    pub block: BlockId,
    /// The replica chosen to serve the read.
    pub replica: DatanodeId,
    /// The access path to execute.
    pub path: Arc<dyn AccessPath + Send + Sync>,
    pub kind: AccessPathKind,
    pub est_seconds: f64,
    /// Scheduling locations: the chosen replica first, then the other
    /// live replica holders as fallbacks.
    pub locations: Vec<DatanodeId>,
    /// All alternatives considered, cheapest first (plan explanation).
    pub candidates: Vec<Candidate>,
    /// True if the query wanted an index but no live replica offers one
    /// — HAIL's failover story, surfaced as `fell_back_to_scan`.
    pub fallback: bool,
    /// Stored sidecar size behind the chosen path, when it is a sidecar
    /// path.
    pub sidecar_bytes: Option<usize>,
    /// The per-column selectivities this plan was priced with: the
    /// static prior's, for each filter column.
    pub selectivity: Vec<SelectivityChoice>,
    /// `Some` when a persisted synopsis proved this block matches no
    /// row: the plan is a zero-cost placeholder, no candidate was ever
    /// priced, and execution skips the read entirely, synthesizing the
    /// statistics the scan would have produced (zero matches).
    pub pruned: Option<crate::synopsis::PruneInfo>,
}

/// A full, explainable query plan: one [`BlockPlan`] per input block.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub format: DatasetFormat,
    pub filter: String,
    pub projection: String,
    pub blocks: Vec<BlockPlan>,
    by_block: BTreeMap<BlockId, usize>,
}

impl QueryPlan {
    /// A plan of no blocks.
    pub(crate) fn empty(format: DatasetFormat) -> QueryPlan {
        QueryPlan {
            format,
            filter: String::new(),
            projection: String::new(),
            blocks: Vec::new(),
            by_block: BTreeMap::new(),
        }
    }

    /// The plan for one block.
    pub fn block_plan(&self, block: BlockId) -> Option<&BlockPlan> {
        self.by_block.get(&block).map(|&i| &self.blocks[i])
    }

    /// Blocks per chosen access-path kind.
    pub fn path_histogram(&self) -> BTreeMap<AccessPathKind, usize> {
        let mut h = BTreeMap::new();
        for bp in &self.blocks {
            *h.entry(bp.kind).or_insert(0) += 1;
        }
        h
    }

    /// Renders the plan in an `EXPLAIN`-style text form.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "QueryPlan for {} blocks (format {:?})",
            self.blocks.len(),
            self.format
        );
        let _ = writeln!(
            out,
            "  filter: {}   projection: {}",
            if self.filter.is_empty() {
                "(none)"
            } else {
                &self.filter
            },
            if self.projection.is_empty() {
                "(all)"
            } else {
                &self.projection
            },
        );
        for bp in &self.blocks {
            let sidecar = match bp.sidecar_bytes {
                Some(n) => format!("  [sidecar {n} B]"),
                None => String::new(),
            };
            // The estimate that priced this plan; always the prior.
            let mut sel = String::new();
            for sc in &bp.selectivity {
                let sep = if sel.is_empty() { "  sel " } else { ", " };
                let _ = write!(sel, "{sep}@{}={:.3}(prior)", sc.column + 1, sc.value);
            }
            let pruned = match &bp.pruned {
                Some(info) => format!("  [pruned: {}]", info.reason),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  block {}: DN{} {}  est {:.3}s  ({} candidate{}){}{}{}{}{}",
                bp.block,
                bp.replica + 1,
                bp.path.describe(),
                bp.est_seconds,
                bp.candidates.len(),
                if bp.candidates.len() == 1 { "" } else { "s" },
                sel,
                sidecar,
                if bp.pruned.is_some() {
                    // A pruned plan was never priced; "[priced]" would
                    // misreport the zero evaluations it cost.
                    ""
                } else {
                    "  [priced]"
                },
                pruned,
                if bp.fallback { "  [fallback]" } else { "" },
            );
        }
        let hist = self.path_histogram();
        let mut parts: Vec<String> = hist.iter().map(|(k, n)| format!("{k}×{n}")).collect();
        if parts.is_empty() {
            parts.push("(empty)".into());
        }
        let _ = writeln!(out, "paths: {}", parts.join(", "));
        out
    }
}

/// A [`QueryPlan`] from [`QueryPlanner::plan_lenient`], stamped with what
/// it was priced against: the namenode's `(instance id, design epoch)`.
/// Planning is deterministic in it (the query and the planner
/// configuration being fixed), so while it still holds, planning a block
/// again gives the plan already here — which is why a split read may
/// execute this one instead. A block the lenient pass degraded (no live
/// replica) is never handed out: its read plans it again and fails as it
/// always did.
#[derive(Debug)]
pub(crate) struct StampedPlan {
    pub(crate) plan: QueryPlan,
    design: (u64, u64),
    /// Per entry of `plan.blocks`: whether the lenient pass degraded it.
    degraded: Vec<bool>,
}

impl StampedPlan {
    /// True while `cluster` is what this plan was priced against: no
    /// design change or death since (either moves the design epoch).
    pub(crate) fn holds(&self, cluster: &DfsCluster) -> bool {
        let namenode = cluster.namenode();
        self.design == (namenode.instance_id(), namenode.design_epoch())
    }

    /// Whether this plan has `block`, not degraded.
    pub(crate) fn reusable(&self, block: BlockId) -> bool {
        self.plan
            .by_block
            .get(&block)
            .is_some_and(|&i| !self.degraded[i])
    }
}

/// The cost-based planner over one cluster's namenode state.
///
/// The handle is `Send + Sync` and reads no state another job writes,
/// so the threads reading splits in parallel plan independently.
pub struct QueryPlanner<'a> {
    cluster: &'a DfsCluster,
    config: PlannerConfig,
}

/// Compile-time proof that a planner handle can be shared across
/// threads. If any field ever loses `Sync` (say, an `Rc` or `RefCell`
/// sneaks into the config or cluster), this stops building instead of a
/// parallel read failing at a distance.
const _PLANNER_IS_SEND_SYNC: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryPlanner<'static>>();
    assert_send_sync::<QueryPlan>();
};

impl<'a> QueryPlanner<'a> {
    /// A planner with the default estimates.
    pub fn new(cluster: &'a DfsCluster) -> Self {
        QueryPlanner {
            cluster,
            config: PlannerConfig::default(),
        }
    }

    /// A planner with an explicit configuration.
    pub fn with_config(cluster: &'a DfsCluster, config: PlannerConfig) -> Self {
        QueryPlanner { cluster, config }
    }

    /// The planner's configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Plans a query over a dataset handle.
    pub fn plan_dataset(&self, dataset: &Dataset, query: &HailQuery) -> Result<QueryPlan> {
        self.plan(dataset.format, &dataset.blocks, query)
    }

    /// Plans a query over explicit blocks of a given physical format.
    pub fn plan(
        &self,
        format: DatasetFormat,
        blocks: &[BlockId],
        query: &HailQuery,
    ) -> Result<QueryPlan> {
        let selectivity = self.selectivities(query);
        let mut plans = Vec::with_capacity(blocks.len());
        let mut by_block = BTreeMap::new();
        for &b in blocks {
            by_block.insert(b, plans.len());
            plans.push(self.plan_block_with(&selectivity, format, b, query)?);
        }
        Ok(QueryPlan {
            format,
            filter: render_filter(query),
            projection: render_projection(query),
            blocks: plans,
            by_block,
        })
    }

    /// Like [`QueryPlanner::plan`], but a known block whose replicas are
    /// all dead degrades to a full-scan plan over the namenode's
    /// (possibly empty) location list instead of erroring — as in HDFS,
    /// split computation succeeds and the failure surfaces at read
    /// time. Unknown blocks still error, and so do bad-record token
    /// searches that cannot be served (no live replica stores the
    /// inverted-list sidecar): a full scan is not a substitute for a
    /// token search, so there is nothing to degrade to.
    pub fn plan_lenient(
        &self,
        format: DatasetFormat,
        blocks: &[BlockId],
        query: &HailQuery,
    ) -> Result<QueryPlan> {
        Ok(self.plan_stamped(format, blocks, query)?.plan)
    }

    /// [`QueryPlanner::plan_lenient`], stamped with what the plan was
    /// priced against — the plan a split read may execute instead of
    /// planning its blocks again ([`StampedPlan`]).
    pub(crate) fn plan_stamped(
        &self,
        format: DatasetFormat,
        blocks: &[BlockId],
        query: &HailQuery,
    ) -> Result<StampedPlan> {
        let selectivity = self.selectivities(query);
        let mut plans = Vec::with_capacity(blocks.len());
        let mut by_block = BTreeMap::new();
        let mut degraded = Vec::with_capacity(blocks.len());
        for &b in blocks {
            by_block.insert(b, plans.len());
            let planned = self.plan_block_with(&selectivity, format, b, query);
            degraded.push(planned.is_err());
            match planned {
                Ok(bp) => plans.push(bp),
                Err(e) => {
                    // A token search cannot degrade to a full scan — the
                    // scan would emit good records the search never
                    // asked for. Surface the missing sidecar instead.
                    if !self.config.bad_record_tokens.is_empty() {
                        return Err(e);
                    }
                    // Distinguish "unknown block" (propagate) from "no
                    // live replica" (degrade).
                    let hosts = self.cluster.namenode().get_hosts(b)?;
                    let layout = self.scan_layout(format);
                    plans.push(BlockPlan {
                        block: b,
                        replica: hosts.first().copied().unwrap_or(0),
                        path: Arc::new(FullScan::new(layout)),
                        kind: AccessPathKind::FullScan,
                        est_seconds: 0.0,
                        locations: hosts,
                        candidates: Vec::new(),
                        fallback: format != DatasetFormat::HadoopText
                            && !query.filter_columns().is_empty(),
                        sidecar_bytes: None,
                        selectivity: Vec::new(),
                        pruned: None,
                    });
                }
            }
        }
        let namenode = self.cluster.namenode();
        Ok(StampedPlan {
            plan: QueryPlan {
                format,
                filter: render_filter(query),
                projection: render_projection(query),
                blocks: plans,
                by_block,
            },
            design: (namenode.instance_id(), namenode.design_epoch()),
            degraded,
        })
    }

    /// The full-scan layout for a dataset format.
    fn scan_layout(&self, format: DatasetFormat) -> ScanLayout {
        match format {
            DatasetFormat::HadoopText => ScanLayout::Text {
                delimiter: self
                    .config
                    .text_delimiter
                    .unwrap_or(self.cluster.config().delimiter),
            },
            DatasetFormat::HailPax => ScanLayout::HailPax,
            DatasetFormat::HadoopPlusPlus => ScanLayout::RowLayout,
        }
    }

    /// The static prior's selectivity for each of a query's filter
    /// columns, in column order.
    fn selectivities(&self, query: &HailQuery) -> Vec<SelectivityChoice> {
        let mut columns = query.filter_columns();
        columns.sort_unstable();
        columns.dedup();
        columns
            .into_iter()
            .map(|column| SelectivityChoice {
                column,
                value: self.config.estimate.for_column(column),
            })
            .collect()
    }

    /// Plans one block against the current `Dir_rep`: a zero-cost
    /// placeholder when a persisted synopsis proves it matches no row,
    /// else a full pricing pass over its live replicas' candidates.
    pub fn plan_block(
        &self,
        format: DatasetFormat,
        block: BlockId,
        query: &HailQuery,
    ) -> Result<BlockPlan> {
        self.plan_block_with(&self.selectivities(query), format, block, query)
    }

    /// [`QueryPlanner::plan_block`] under the query's already-computed
    /// selectivities — the per-block step of `plan`/`plan_lenient`,
    /// which compute them once per plan rather than once per block.
    /// Block skipping runs *before* candidate enumeration: a synopsis
    /// proof prices nothing.
    fn plan_block_with(
        &self,
        selectivity: &[SelectivityChoice],
        format: DatasetFormat,
        block: BlockId,
        query: &HailQuery,
    ) -> Result<BlockPlan> {
        match crate::synopsis::try_prune(self.cluster, &self.config, format, block, query) {
            Some(info) => Ok(self.pruned_block_plan(format, block, info, selectivity.to_vec())),
            None => self.price_block(format, block, query, selectivity.to_vec(), &[]),
        }
    }

    /// The zero-cost placeholder plan for a synopsis-pruned block: no
    /// candidates were priced, execution will skip the read, and its
    /// `est_seconds` is 0. Locations still list the live holders so
    /// split construction and locality grouping treat the block
    /// normally.
    fn pruned_block_plan(
        &self,
        format: DatasetFormat,
        block: BlockId,
        info: crate::synopsis::PruneInfo,
        selectivity: Vec<SelectivityChoice>,
    ) -> BlockPlan {
        let locations: Vec<DatanodeId> = self
            .cluster
            .namenode()
            .live_replicas(block)
            .iter()
            .map(|r| r.datanode)
            .collect();
        BlockPlan {
            block,
            replica: locations.first().copied().unwrap_or(0),
            path: Arc::new(FullScan::new(self.scan_layout(format))),
            kind: AccessPathKind::FullScan,
            est_seconds: 0.0,
            locations,
            candidates: Vec::new(),
            fallback: false,
            sidecar_bytes: None,
            selectivity,
            pruned: Some(info),
        }
    }

    /// Prices one block: enumerate candidates, price them, pick the
    /// cheapest (deterministic tie-break on replica id then kind).
    /// Replicas in `excluded` — ones a read found corrupt — are left out
    /// as if dead.
    fn price_block(
        &self,
        format: DatasetFormat,
        block: BlockId,
        query: &HailQuery,
        selectivity: Vec<SelectivityChoice>,
        excluded: &[DatanodeId],
    ) -> Result<BlockPlan> {
        let mut replicas = self.cluster.namenode().live_replicas(block);
        replicas.retain(|info| !excluded.contains(&info.datanode));
        if replicas.is_empty() {
            // The block exists but no live node serves it (or it is
            // unknown): surface the same error the readers used to.
            self.cluster.namenode().get_hosts(block)?;
            return Err(HailError::UnknownBlock(block));
        }

        struct Priced {
            candidate: Candidate,
            path: Arc<dyn AccessPath + Send + Sync>,
        }
        let mut priced: Vec<Priced> = Vec::new();
        let profile = HardwareProfile::physical();
        let mut push = |replica: DatanodeId,
                        path: Arc<dyn AccessPath + Send + Sync>,
                        ledger: CostLedger,
                        serial: bool,
                        replica_bytes: usize,
                        sidecar_bytes: Option<usize>| {
            let scale = ScaleFactor::from_block_sizes(replica_bytes.max(1), LOGICAL_BLOCK);
            let est_seconds = if serial {
                ledger.serial_seconds(&profile, scale)
            } else {
                ledger.pipelined_seconds(&profile, scale)
            };
            priced.push(Priced {
                candidate: Candidate {
                    replica,
                    kind: path.kind(),
                    detail: path.describe(),
                    est_seconds,
                    sidecar_bytes,
                },
                path,
            });
        };

        // A bad-record token search short-circuits every other path.
        if !self.config.bad_record_tokens.is_empty() {
            // Only HAIL PAX blocks carry a queryable bad-record section;
            // reject other formats up front instead of failing at read
            // time.
            if format != DatasetFormat::HailPax {
                return Err(HailError::Job(format!(
                    "bad-record token search requires a HAIL PAX dataset, got {format:?}"
                )));
            }
            // Only replicas whose Dir_rep entry records an inverted-list
            // sidecar can serve the search; the read never rebuilds one.
            for info in &replicas {
                let Some(sidecar) = info.index.inverted_list() else {
                    continue;
                };
                let ledger = CostLedger {
                    // The persisted list's stored size, not a guess.
                    disk_read: sidecar.sidecar_bytes as u64,
                    seeks: 1,
                    ..Default::default()
                };
                push(
                    info.datanode,
                    Arc::new(InvertedListScan {
                        tokens: self.config.bad_record_tokens.clone(),
                    }),
                    ledger,
                    true,
                    info.replica_bytes,
                    Some(sidecar.sidecar_bytes),
                );
            }
            if priced.is_empty() {
                return Err(HailError::Job(format!(
                    "bad-record token search on block {block}: no live replica stores an \
                     inverted-list sidecar (upload with \
                     `ReplicaIndexConfig::with_inverted_list`)"
                )));
            }
        } else {
            for info in &replicas {
                let data_bytes = info
                    .replica_bytes
                    .saturating_sub(info.index.index_bytes + info.index.sidecar_bytes_total())
                    as u64;

                // Full scan: always possible, streams everything.
                let scan_layout = self.scan_layout(format);
                push(
                    info.datanode,
                    Arc::new(FullScan::new(scan_layout)),
                    CostLedger {
                        disk_read: info.replica_bytes as u64,
                        scan_cpu: data_bytes,
                        seeks: 1,
                        ..Default::default()
                    },
                    false,
                    info.replica_bytes,
                    None,
                );

                // Index scan on this replica's own index (clustered on a
                // HAIL replica, trojan on a Hadoop++ block), when the
                // query ranges over its key column. Both share the same
                // cost shape: read the index, then the qualifying
                // fraction; they differ in the path object and the seek
                // count (the clustered scan seeks per column region,
                // approximated as one extra).
                if let Some(column) = info.index.key_column {
                    let index_path: Option<(Arc<dyn AccessPath + Send + Sync>, u64)> = match info
                        .index
                        .kind
                    {
                        IndexKind::Clustered => Some((Arc::new(ClusteredIndexScan { column }), 3)),
                        IndexKind::Trojan => Some((Arc::new(TrojanIndexScan { column }), 2)),
                        _ => None,
                    };
                    if let Some((path, seeks)) = index_path {
                        if query.bounds_on(column).is_some() {
                            let sel = self.config.estimate.for_column(column);
                            let touched = (sel * data_bytes as f64) as u64;
                            push(
                                info.datanode,
                                path,
                                CostLedger {
                                    disk_read: info.index.index_bytes as u64 + touched,
                                    scan_cpu: touched,
                                    seeks,
                                    ..Default::default()
                                },
                                true,
                                info.replica_bytes,
                                None,
                            );
                        }
                    }
                }

                // Sidecar bitmap scan for equality on a column whose
                // bitmap this replica physically stores (per Dir_rep).
                // Replicas without the sidecar never produce a bitmap
                // candidate — there is nothing to read there. Only HAIL
                // PAX containers carry a sidecar region, so other
                // formats are excluded at plan time even if a crafted
                // Dir_rep entry claims one.
                let sidecars = if format == DatasetFormat::HailPax {
                    info.index.sidecars.as_slice()
                } else {
                    &[]
                };
                for sidecar in sidecars {
                    let IndexKind::Bitmap { column } = sidecar.kind else {
                        continue;
                    };
                    if !crate::feedback::has_eq_on(query, column) {
                        continue;
                    }
                    let sel = self.config.estimate.for_column(column);
                    let touched = (sel * data_bytes as f64) as u64;
                    push(
                        info.datanode,
                        Arc::new(BitmapScan { column }),
                        CostLedger {
                            // The persisted sidecar's stored size plus
                            // the qualifying fraction of the data.
                            disk_read: sidecar.sidecar_bytes as u64 + touched,
                            scan_cpu: touched,
                            // Matching rows scatter: estimate a seek per
                            // 16 touched KB.
                            seeks: 2 + touched / (16 * 1024),
                            ..Default::default()
                        },
                        true,
                        info.replica_bytes,
                        Some(sidecar.sidecar_bytes),
                    );
                }
            }
        }

        // Deterministic choice: cheapest, then lowest replica id, then
        // kind order.
        priced.sort_by(|a, b| {
            a.candidate
                .est_seconds
                .total_cmp(&b.candidate.est_seconds)
                .then(a.candidate.replica.cmp(&b.candidate.replica))
                .then(a.candidate.kind.cmp(&b.candidate.kind))
        });
        // Text datasets never had an index to fall back from; only the
        // indexed formats can report a genuine failover to scanning.
        let wanted_index =
            format != DatasetFormat::HadoopText && !query.filter_columns().is_empty();
        let had_index_candidate = priced.iter().any(|p| p.candidate.kind.is_index_scan());
        let best = priced.first().ok_or_else(|| {
            HailError::Job(format!("no access path candidates for block {block}"))
        })?;
        let chosen_replica = best.candidate.replica;
        let chosen_kind = best.candidate.kind;
        let path = Arc::clone(&best.path);
        let est_seconds = best.candidate.est_seconds;
        let sidecar_bytes = best.candidate.sidecar_bytes;

        // Locations: chosen replica first, then remaining live holders.
        // A sidecar path can only run where the sidecar is stored, so
        // the scheduler must not treat sidecar-less holders as local
        // placements for it.
        let required_sidecar = path.required_sidecar();
        let mut locations = vec![chosen_replica];
        for info in &replicas {
            if locations.contains(&info.datanode) {
                continue;
            }
            if let Some(kind) = required_sidecar {
                if !info.index.sidecars.iter().any(|s| s.kind == kind) {
                    continue;
                }
            }
            locations.push(info.datanode);
        }

        Ok(BlockPlan {
            block,
            replica: chosen_replica,
            path,
            kind: chosen_kind,
            est_seconds,
            locations,
            candidates: priced.into_iter().map(|p| p.candidate).collect(),
            fallback: wanted_index
                && !had_index_candidate
                && chosen_kind == AccessPathKind::FullScan,
            sidecar_bytes,
            selectivity,
            pruned: None,
        })
    }

    /// Executes one block according to its plan, resolving the serving
    /// host against the *current* cluster state.
    ///
    /// If the planned replica has died since planning (mid-job failure),
    /// the block is re-planned on the degraded cluster — possibly
    /// downgrading an index scan to a full scan, which is HAIL's
    /// failover story and is surfaced via `fell_back_to_scan`.
    pub fn execute_block(
        &self,
        plan: &QueryPlan,
        block: BlockId,
        task_node: DatanodeId,
        schema: &Schema,
        query: &HailQuery,
        emit: &mut dyn FnMut(MapRecord),
    ) -> Result<TaskStats> {
        let mut records = Vec::new();
        let stats = self.execute_block_into(plan, block, task_node, schema, query, &mut records)?;
        records.into_iter().for_each(emit);
        Ok(stats)
    }

    /// [`QueryPlanner::execute_block`] appending the block's records to
    /// `records`; a read that fails leaves `records` as it found it.
    ///
    /// **Read failover.** A read that finds the serving replica corrupt
    /// ([`HailError::ChecksumMismatch`] or [`HailError::Corrupt`]) keeps
    /// none of its records: the block is re-priced on its other live
    /// replicas and read again, until one read
    /// succeeds — or every replica has failed, and the first error is
    /// returned. Which replica serves next depends only on which ones
    /// were found corrupt, never on timing.
    pub fn execute_block_into(
        &self,
        plan: &QueryPlan,
        block: BlockId,
        task_node: DatanodeId,
        schema: &Schema,
        query: &HailQuery,
        records: &mut Vec<MapRecord>,
    ) -> Result<TaskStats> {
        let bp_owned;
        let mut bp = match plan.block_plan(block) {
            Some(bp) => bp,
            None => {
                bp_owned = self.plan_block(plan.format, block, query)?;
                &bp_owned
            }
        };
        // A pruned block is never read — not even if its planned
        // replica died since planning: block content is immutable, so
        // the synopsis proof outlives any replica. Synthesize exactly
        // the statistics the skipped scan would have produced: zero
        // records, zero bad records (blocks with bad records are never
        // pruned), and — when the query's filter shape admits a
        // selectivity observation — a zero-match observation so the
        // advisor's evidence counts skipped blocks too.
        if let Some(info) = &bp.pruned {
            let mut stats = TaskStats {
                blocks_pruned: 1,
                synopsis_bytes_read: info.synopsis_bytes,
                ..TaskStats::default()
            };
            if crate::path::sole_filter_column(query) == Some((info.column, info.eq)) {
                stats.selectivity.push(hail_mr::SelectivityObservation {
                    column: info.column,
                    eq: info.eq,
                    matched: 0,
                    total: info.row_count as u64,
                });
            }
            return Ok(stats);
        }
        let mut replanned;
        let replica_alive = self
            .cluster
            .datanode(bp.replica)
            .map(|d| d.is_alive())
            .unwrap_or(false);
        let originally_indexed = bp.kind.is_index_scan();
        if !replica_alive {
            replanned = self.plan_block(plan.format, block, query)?;
            bp = &replanned;
        }

        let mut corrupt: Vec<DatanodeId> = Vec::new();
        let mut first_error = None;
        let mark = records.len();
        loop {
            // Locality: prefer the task's own node when it can serve the
            // same access path, so colocated reads stay local.
            let host = self.resolve_host(bp, task_node);
            let access = BlockAccess {
                cluster: self.cluster,
                block,
                replica: host,
                task_node,
                schema,
                query,
            };
            let result = bp.path.execute(&access, &mut |record| records.push(record));
            if result.is_err() {
                records.truncate(mark);
            }
            match result {
                Ok(mut stats) => {
                    stats.fell_back_to_scan |=
                        bp.fallback || (originally_indexed && !bp.kind.is_index_scan());
                    return Ok(stats);
                }
                Err(e @ (HailError::ChecksumMismatch { .. } | HailError::Corrupt(_))) => {
                    let first = first_error.get_or_insert(e);
                    corrupt.push(host);
                    let selectivity = self.selectivities(query);
                    match self.price_block(plan.format, block, query, selectivity, &corrupt) {
                        Ok(next) => {
                            replanned = next;
                            bp = &replanned;
                        }
                        // No replica left to read.
                        Err(_) => return Err(first.clone()),
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The host actually serving a block read: the task's own node when
    /// its replica supports the planned path, else the planned replica.
    fn resolve_host(&self, bp: &BlockPlan, task_node: DatanodeId) -> DatanodeId {
        if bp.replica == task_node || !bp.locations.contains(&task_node) {
            return bp.replica;
        }
        match bp.kind {
            // A full scan can read any replica.
            AccessPathKind::FullScan => task_node,
            // Bitmap/inverted sidecars are sort-order independent, and
            // `plan_block` already restricted `locations` to replicas
            // whose Dir_rep entry stores the required sidecar — any
            // task node that passed the membership guard above can
            // serve the read.
            AccessPathKind::BitmapScan | AccessPathKind::InvertedListScan => task_node,
            // Trojan indexes are identical on every replica (§5).
            AccessPathKind::TrojanIndexScan => task_node,
            // A clustered index exists only on replicas sorted on the
            // same column as the planned one.
            AccessPathKind::ClusteredIndexScan => {
                let nn = self.cluster.namenode();
                let planned_col = nn
                    .replica_index(bp.block, bp.replica)
                    .and_then(|m| m.key_column);
                let serves = planned_col.is_some()
                    && nn.replica_index(bp.block, task_node).is_some_and(|m| {
                        m.kind == IndexKind::Clustered && m.key_column == planned_col
                    });
                if serves {
                    task_node
                } else {
                    bp.replica
                }
            }
        }
    }
}

fn render_filter(query: &HailQuery) -> String {
    query
        .predicates
        .iter()
        .map(render_predicate)
        .collect::<Vec<_>>()
        .join(" and ")
}

fn render_predicate(p: &Predicate) -> String {
    match p {
        Predicate::Cmp { column, op, value } => format!("@{} {op} {value}", column + 1),
        Predicate::Between { column, lo, hi } => {
            format!("@{} between({lo}, {hi})", column + 1)
        }
    }
}

fn render_projection(query: &HailQuery) -> String {
    if query.projection.is_empty() {
        String::new()
    } else {
        format!(
            "{{{}}}",
            query
                .projection
                .iter()
                .map(|c| format!("@{}", c + 1))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_core::upload_hail;
    use hail_index::{select_for_workload, ReplicaIndexConfig, WorkloadFilter};
    use hail_types::{DataType, Field, StorageConfig};
    use hail_workloads::{bob_queries, bob_schema, UserVisitsGenerator};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::VarChar),
        ])
        .unwrap()
    }

    fn setup(rows: usize) -> (DfsCluster, Dataset) {
        let mut config = StorageConfig::test_scale(4096);
        config.index_partition_size = 16;
        let mut c = DfsCluster::new(4, config);
        let text: String = (0..rows)
            .map(|i| format!("{}|w{i}\n", (i * 7) % 500))
            .collect();
        let ds = upload_hail(
            &mut c,
            &schema(),
            "t",
            &[(0, text)],
            &ReplicaIndexConfig::first_indexed(3, &[0]),
        )
        .unwrap();
        (c, ds)
    }

    fn plan_with_selectivity(c: &DfsCluster, ds: &Dataset, sel: f64) -> QueryPlan {
        let q = HailQuery::parse("@1 between(100, 400)", "", &schema()).unwrap();
        let config = PlannerConfig {
            estimate: SelectivityEstimate::uniform(sel),
            ..Default::default()
        };
        QueryPlanner::with_config(c, config)
            .plan_dataset(ds, &q)
            .unwrap()
    }

    /// The satellite requirement: the chosen access path flips from
    /// `ClusteredIndexScan` to `FullScan` as the estimated selectivity
    /// crosses the cost-model break-even.
    #[test]
    fn access_path_flips_at_cost_break_even() {
        let (c, ds) = setup(600);

        // Selective: the index must win on every block.
        let selective = plan_with_selectivity(&c, &ds, 0.01);
        for bp in &selective.blocks {
            assert_eq!(bp.kind, AccessPathKind::ClusteredIndexScan, "sel=0.01");
            assert!(!bp.fallback);
        }

        // Unselective: reading (almost) everything through the
        // latency-bound index path costs more than one pipelined scan.
        let unselective = plan_with_selectivity(&c, &ds, 1.0);
        for bp in &unselective.blocks {
            assert_eq!(bp.kind, AccessPathKind::FullScan, "sel=1.0");
            // A deliberate cost-based choice is not a fallback.
            assert!(!bp.fallback);
        }

        // The flip is monotone: walking selectivity upward switches
        // index → scan exactly once.
        let mut kinds = Vec::new();
        for sel in [0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0] {
            kinds.push(plan_with_selectivity(&c, &ds, sel).blocks[0].kind);
        }
        let flips = kinds.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flips, 1, "exactly one break-even crossing: {kinds:?}");
        assert_eq!(*kinds.first().unwrap(), AccessPathKind::ClusteredIndexScan);
        assert_eq!(*kinds.last().unwrap(), AccessPathKind::FullScan);
    }

    /// Candidates are priced and ordered; the chosen path is the
    /// cheapest candidate; explain() renders all of it.
    #[test]
    fn plans_are_explainable() {
        let (c, ds) = setup(400);
        let plan = plan_with_selectivity(&c, &ds, 0.05);
        for bp in &plan.blocks {
            assert!(!bp.candidates.is_empty());
            for w in bp.candidates.windows(2) {
                assert!(w[0].est_seconds <= w[1].est_seconds, "candidates sorted");
            }
            assert_eq!(bp.kind, bp.candidates[0].kind);
            assert!((bp.est_seconds - bp.candidates[0].est_seconds).abs() < 1e-12);
            assert_eq!(bp.locations[0], bp.replica);
        }
        let text = plan.explain();
        assert!(text.contains("QueryPlan for"));
        assert!(text.contains("clustered-index-scan(@1)"));
        assert!(text.contains("paths:"));
        assert!(text.contains("@1 between(100, 400)"));
    }

    /// Dead replicas disappear from planning; with every indexed
    /// replica dead the plan falls back to scanning and says so.
    #[test]
    fn replans_around_dead_index_replicas() {
        let (mut c, ds) = setup(300);
        let b = ds.blocks[0];
        for dn in c.namenode().get_hosts_with_index(b, 0).unwrap() {
            c.kill_node(dn).unwrap();
        }
        let plan = plan_with_selectivity(&c, &ds, 0.01);
        let bp = plan.block_plan(b).unwrap();
        assert_eq!(bp.kind, AccessPathKind::FullScan);
        assert!(bp.fallback, "index wanted but unavailable → fallback");
        assert!(plan.explain().contains("[fallback]"));
    }

    /// The satellite requirement: `select_for_workload`'s ranking agrees
    /// with the planner's per-replica preferences on the Bob workload —
    /// every Bob query runs as an index scan on a column the advisor
    /// indexed, and the planner prices that choice below a full scan.
    #[test]
    fn advisor_agrees_with_planner_on_bob_workload() {
        let schema = bob_schema();
        let workload: Vec<WorkloadFilter> = bob_queries()
            .iter()
            .flat_map(|q| {
                let query = q.to_query(&schema).unwrap();
                query
                    .filter_columns()
                    .into_iter()
                    .map(move |c| WorkloadFilter::new(c, q.paper_selectivity, 1.0))
            })
            .collect();
        let advisor_config = select_for_workload(&schema, 3, &workload).unwrap();
        let advised: Vec<usize> = advisor_config
            .orders()
            .iter()
            .filter_map(|o| o.column())
            .collect();

        let texts = UserVisitsGenerator::default().generate(2, 600);
        let mut storage = StorageConfig::test_scale(4 * 1024);
        storage.index_partition_size = 8;
        let mut cluster = DfsCluster::new(3, storage);
        let ds = upload_hail(&mut cluster, &schema, "uv", &texts, &advisor_config).unwrap();

        for q in bob_queries() {
            let query = q.to_query(&schema).unwrap();
            // Feed the planner the same selectivities the advisor saw.
            let mut est = SelectivityEstimate::uniform(0.05);
            for c in query.filter_columns() {
                est = est.with_column(c, q.paper_selectivity);
            }
            let config = PlannerConfig {
                estimate: est,
                ..Default::default()
            };
            let plan = QueryPlanner::with_config(&cluster, config)
                .plan_dataset(&ds, &query)
                .unwrap();
            for bp in &plan.blocks {
                assert_eq!(
                    bp.kind,
                    AccessPathKind::ClusteredIndexScan,
                    "{}: block {} should be index-served",
                    q.id,
                    bp.block
                );
                // The planner's chosen index candidate must beat its own
                // full-scan alternative — the same `benefit > 0`
                // inequality the advisor ranks by.
                let full = bp
                    .candidates
                    .iter()
                    .find(|cand| cand.kind == AccessPathKind::FullScan)
                    .expect("full scan is always a candidate");
                assert!(bp.est_seconds < full.est_seconds, "{}", q.id);
                // And the column it scans is one the advisor indexed.
                let col = cluster
                    .namenode()
                    .replica_index(bp.block, bp.replica)
                    .and_then(|m| m.key_column)
                    .unwrap();
                assert!(advised.contains(&col), "{}: column {col}", q.id);
            }
        }
    }

    /// Equality on a column with a persisted bitmap sidecar routes
    /// through the bitmap path and still matches a scan's results.
    #[test]
    fn bitmap_scan_chosen_and_correct() {
        let mut storage = StorageConfig::test_scale(1 << 20);
        storage.index_partition_size = 32;
        let mut c = DfsCluster::new(3, storage);
        let schema = Schema::new(vec![
            Field::new("country", DataType::VarChar),
            Field::new("v", DataType::Int),
        ])
        .unwrap();
        const COUNTRIES: [&str; 4] = ["USA", "DEU", "FRA", "BRA"];
        let text: String = (0..800)
            .map(|i| format!("{}|{}\n", COUNTRIES[i % 4], i))
            .collect();
        let ds = upload_hail(
            &mut c,
            &schema,
            "t",
            &[(0, text)],
            &ReplicaIndexConfig::first_indexed(3, &[1]).with_bitmap(0),
        )
        .unwrap();

        let q = HailQuery::parse("@1 = 'DEU'", "{@2}", &schema).unwrap();
        let planner = QueryPlanner::new(&c);
        let plan = planner.plan_dataset(&ds, &q).unwrap();
        assert_eq!(plan.blocks[0].kind, AccessPathKind::BitmapScan);
        // The plan carries the stored sidecar size and explains it.
        let stored = c
            .namenode()
            .replica_index(ds.blocks[0], plan.blocks[0].replica)
            .unwrap()
            .bitmap_on(0)
            .unwrap()
            .sidecar_bytes;
        assert_eq!(plan.blocks[0].sidecar_bytes, Some(stored));
        assert!(plan.explain().contains(&format!("[sidecar {stored} B]")));

        let mut via_bitmap = Vec::new();
        let stats = planner
            .execute_block(&plan, ds.blocks[0], 0, &schema, &q, &mut |r| {
                via_bitmap.push(r)
            })
            .unwrap();
        assert!(stats.paths.get(AccessPathKind::BitmapScan) == 1);
        assert_eq!(stats.sidecar_bytes_read, stored as u64);

        // Oracle: full scan with the default planner.
        let scan_planner = QueryPlanner::new(&c);
        let scan_plan = scan_planner
            .plan(DatasetFormat::HailPax, &ds.blocks, &HailQuery::full_scan())
            .unwrap();
        let mut via_scan = Vec::new();
        scan_planner
            .execute_block(
                &scan_plan,
                ds.blocks[0],
                0,
                &schema,
                &HailQuery::full_scan(),
                &mut |r| {
                    if !r.bad && r.row.get(0).unwrap().as_str() == Some("DEU") {
                        via_scan.push(r.row.project(&[1]));
                    }
                },
            )
            .unwrap();
        let mut got: Vec<String> = via_bitmap
            .iter()
            .filter(|r| !r.bad)
            .map(|r| r.row.to_string())
            .collect();
        let mut expected: Vec<String> = via_scan.iter().map(|r| r.to_string()).collect();
        got.sort();
        expected.sort();
        assert_eq!(got, expected);
        assert!(!got.is_empty());
    }

    /// Bad-record token searches route through the inverted list and
    /// return only matching bad records.
    #[test]
    fn inverted_list_scan_serves_bad_record_search() {
        let mut storage = StorageConfig::test_scale(1 << 20);
        storage.index_partition_size = 32;
        let mut c = DfsCluster::new(3, storage);
        let schema = schema();
        let text = "1|one\nERROR timeout at DN3\n2|two\ngarbage ###GARBAGE### line\n3|three\n";
        let ds = upload_hail(
            &mut c,
            &schema,
            "t",
            &[(0, text.into())],
            &ReplicaIndexConfig::first_indexed(3, &[0]).with_inverted_list(),
        )
        .unwrap();

        let config = PlannerConfig {
            bad_record_tokens: vec!["error".into(), "timeout".into()],
            ..Default::default()
        };
        let planner = QueryPlanner::with_config(&c, config);
        let q = HailQuery::full_scan();
        let plan = planner.plan_dataset(&ds, &q).unwrap();
        assert_eq!(plan.blocks[0].kind, AccessPathKind::InvertedListScan);
        assert!(plan
            .explain()
            .contains("inverted-list-scan(error & timeout)"));

        let mut records = Vec::new();
        planner
            .execute_block(&plan, ds.blocks[0], 0, &schema, &q, &mut |r| {
                records.push(r)
            })
            .unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].bad);
        assert_eq!(
            records[0].row.get(0).unwrap().as_str(),
            Some("ERROR timeout at DN3")
        );
    }

    /// Bad-record searches are rejected up front on formats whose
    /// blocks carry no queryable bad-record section, and on PAX
    /// datasets uploaded without the inverted-list sidecar.
    #[test]
    fn bad_record_search_rejected_without_sidecar() {
        let (c, ds) = setup(100); // uploaded without sidecars
        let config = PlannerConfig {
            bad_record_tokens: vec!["error".into()],
            ..Default::default()
        };
        let planner = QueryPlanner::with_config(&c, config);
        let q = HailQuery::full_scan();
        for format in [DatasetFormat::HadoopText, DatasetFormat::HadoopPlusPlus] {
            let err = planner.plan(format, &ds.blocks, &q).unwrap_err();
            assert!(err.to_string().contains("HAIL PAX"), "{format:?}: {err}");
        }
        // PAX, but no replica persisted an inverted list: the search
        // cannot run (and must not silently degrade to a full scan).
        let err = planner
            .plan(DatasetFormat::HailPax, &ds.blocks, &q)
            .unwrap_err();
        assert!(err.to_string().contains("inverted-list sidecar"), "{err}");
        let err = planner
            .plan_lenient(DatasetFormat::HailPax, &ds.blocks, &q)
            .unwrap_err();
        assert!(err.to_string().contains("inverted-list sidecar"), "{err}");
    }

    /// Planner estimates scale with the logical block: a candidate's
    /// cost is invariant to how small the materialized block is.
    #[test]
    fn per_block_scaling_prices_at_paper_scale() {
        let (c, ds) = setup(500);
        let plan = plan_with_selectivity(&c, &ds, 0.05);
        let bp = &plan.blocks[0];
        // A full scan of a logical 64 MB block takes seconds, not the
        // microseconds the ~4 KB materialized block would.
        let full = bp
            .candidates
            .iter()
            .find(|cand| cand.kind == AccessPathKind::FullScan)
            .unwrap();
        assert!(full.est_seconds > 1.0, "scaled: {}", full.est_seconds);
        assert!(bp.est_seconds < full.est_seconds);
    }
}
