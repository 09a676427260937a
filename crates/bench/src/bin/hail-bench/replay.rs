//! Harness-driven replays: the same jobs the untraced runners execute,
//! driven step by step through the layers' public functions so a span
//! can be put around each step. In-program tracing is a later change;
//! until then this is how a millisecond of a job gets a layer's name.
//!
//! What the replay leaves out — the scheduler's slot assignment, the
//! simulated-time accounting and replay, the input-format glue — is
//! exactly `mr.job_overhead_ms`: an untraced job's wall minus its
//! replay's.

use crate::spans::Tracer;
use crate::workloads::{err, R};
use hail_bench::{SystemSetup, Testbed};
use hail_core::{upload_seconds, HailQuery};
use hail_dfs::{hail_upload_block, DfsCluster, FaultPlan};
use hail_exec::{
    apply_reindex, plan_hail_splits, BlockAccess, BlockPlan, PlanCache, PlannerConfig,
    QueryPlanner, ReindexAdvisor, SelectivityFeedback,
};
use hail_index::{IndexedBlock, ReplicaIndexConfig};
use hail_mr::{MapRecord, PathCounts, TaskStats};
use hail_pax::PaxBlockBuilder;
use hail_sim::ClusterSpec;
use hail_types::{AccessPathKind, DatanodeId, Row};
use std::sync::Arc;

/// What a replayed job produced.
pub struct JobReplay {
    pub rows: Vec<Row>,
    /// Per-block statistics in execution order.
    pub stats: Vec<TaskStats>,
    pub paths: PathCounts,
}

/// Replays one HAIL query job: `job` → {`exec.plan`, `exec.splits`,
/// per split a re-plan (`exec.plan` again, as every split read plans
/// its own blocks) and per block `exec.execute_block`, which for a
/// shareable full scan is split into `exec.produce_decoded` +
/// `exec.apply_residual`}.
pub fn job(
    tracer: &mut Tracer,
    sys: &SystemSetup,
    spec: &ClusterSpec,
    query: &HailQuery,
    config: &PlannerConfig,
) -> R<JobReplay> {
    tracer.span("job", |t| {
        let planner = QueryPlanner::with_config(&sys.cluster, config.clone());
        let plan = t
            .span("exec.plan", |_| planner.plan_dataset(&sys.dataset, query))
            .map_err(err)?;
        let splits = t.span("exec.splits", |_| {
            plan_hail_splits(&plan, spec.profile.map_slots)
        });
        let schema = &sys.dataset.schema;
        let mut out = JobReplay {
            rows: Vec::new(),
            stats: Vec::new(),
            paths: PathCounts::default(),
        };
        for split in &splits.splits {
            let task_node = split.locations.first().copied().unwrap_or(0);
            let split_plan = t
                .span("exec.plan", |_| {
                    planner.plan(sys.dataset.format, &split.blocks, query)
                })
                .map_err(err)?;
            for &block in &split.blocks {
                let rows = &mut out.rows;
                let mut emit = |rec: MapRecord| {
                    if !rec.bad {
                        rows.push(rec.row);
                    }
                };
                let stats = t
                    .span("exec.execute_block", |t| {
                        match split_plan.block_plan(block).filter(|bp| splits_in_two(bp)) {
                            Some(bp) => {
                                let access = BlockAccess {
                                    cluster: &sys.cluster,
                                    block,
                                    replica: scan_host(bp, task_node),
                                    task_node,
                                    schema,
                                    query,
                                };
                                let decoded = t.span("exec.produce_decoded", |_| {
                                    bp.path.produce_decoded(&access)
                                })?;
                                t.span("exec.apply_residual", |_| {
                                    bp.path.apply_residual(&decoded, &access, &mut emit)
                                })
                            }
                            None => planner.execute_block(
                                &split_plan,
                                block,
                                task_node,
                                schema,
                                query,
                                &mut emit,
                            ),
                        }
                    })
                    .map_err(err)?;
                out.paths.merge(&stats.paths);
                out.stats.push(stats);
            }
        }
        Ok(out)
    })
}

/// A block the replay reads as produce + residual itself: a live,
/// unpruned full scan whose decode is shareable (the PAX layout).
fn splits_in_two(bp: &BlockPlan) -> bool {
    bp.kind == AccessPathKind::FullScan && bp.pruned.is_none() && bp.path.share_shape().is_some()
}

/// The replica a full scan reads: the task's own node when it holds
/// one (a full scan can read any replica), else the planned one.
fn scan_host(bp: &BlockPlan, task_node: DatanodeId) -> DatanodeId {
    if bp.locations.contains(&task_node) {
        task_node
    } else {
        bp.replica
    }
}

/// What a replayed upload stored.
pub struct UploadReplay {
    pub blocks: usize,
    pub stored_bytes: u64,
    pub upload_seconds: f64,
}

/// Replays one HAIL upload into a fresh cluster: `core.upload_hail` →
/// per block `pax.text_to_pax`, `index.build`, `dfs.upload_block`.
///
/// The pipeline builds each replica's index inside `dfs.upload_block`,
/// where no span can reach from outside; `index.build` therefore times
/// the same three `IndexedBlock::build_with` calls a second time, next
/// to the pipeline. Its self time is a measurement of that layer, and
/// is work the untraced op does not do twice.
pub fn upload(tracer: &mut Tracer, tb: &Testbed, config: &ReplicaIndexConfig) -> R<UploadReplay> {
    tracer.span("core.upload_hail", |t| {
        let mut cluster = DfsCluster::new(tb.scale.nodes, tb.storage.clone());
        let mut blocks = 0usize;
        for (node, text) in &tb.texts {
            // The client-side charges `upload_hail` makes, so the
            // simulated upload time comes out the same.
            let ledger = cluster.client_ledger_mut(*node);
            ledger.disk_read += text.len() as u64;
            ledger.seeks += 1;
            ledger.parse_cpu += text.len() as u64;

            let mut builder = PaxBlockBuilder::new(tb.schema.clone(), tb.storage.clone());
            let mut lines = text.lines().peekable();
            while lines.peek().is_some() {
                let pax = t
                    .span("pax.text_to_pax", |_| {
                        for line in lines.by_ref() {
                            builder.push_line(line)?;
                            if builder.is_full() {
                                break;
                            }
                        }
                        builder.finish()
                    })
                    .map_err(err)?;
                t.span("index.build", |_| {
                    for pos in 0..config.replication() {
                        IndexedBlock::build_with(&pax, config.orders()[pos], config.sidecar(pos))?;
                    }
                    Ok(())
                })
                .map_err(err)?;
                t.span("dfs.upload_block", |_| {
                    hail_upload_block(&mut cluster, *node, &pax, config, &FaultPlan::none())
                })
                .map_err(err)?;
                blocks += 1;
            }
        }
        Ok(UploadReplay {
            blocks,
            stored_bytes: cluster.stored_bytes(),
            upload_seconds: upload_seconds(&cluster, &tb.spec),
        })
    })
}

/// One advisory round after a job: `exec.note_round`, and for every
/// action it fires `exec.apply_reindex`. Returns the rebuilds fired.
fn advise(
    tracer: &mut Tracer,
    sys: &mut SystemSetup,
    advisor: &ReindexAdvisor,
    feedback: &SelectivityFeedback,
) -> R<usize> {
    let blocks = sys.dataset.blocks.clone();
    let actions = tracer.span("exec.note_round", |_| {
        advisor.note_round(feedback, sys.cluster.namenode(), &blocks)
    });
    for action in &actions {
        tracer
            .span("exec.apply_reindex", |_| {
                apply_reindex(&mut sys.cluster, &blocks, action)
            })
            .map_err(err)?;
    }
    Ok(actions.len())
}

/// What a replayed adaptive round produced.
pub struct AdaptiveReplay {
    pub jobs: Vec<JobReplay>,
    /// Rebuilds the advisor fired after each job.
    pub fired: Vec<usize>,
}

/// Replays `jobs` runs of one query with the adaptive loop closed, as
/// `run_adaptive_workload` does at round size 1: each job plans against
/// a shared plan cache and the evidence of the jobs before it (the
/// store is frozen while a job runs), then its observations are
/// absorbed and the advisor gets its round.
pub fn adaptive(
    tracer: &mut Tracer,
    sys: &mut SystemSetup,
    spec: &ClusterSpec,
    query: &HailQuery,
    jobs: usize,
    advisor: &ReindexAdvisor,
    feedback: &Arc<SelectivityFeedback>,
) -> R<AdaptiveReplay> {
    let config = PlannerConfig {
        plan_cache: Some(Arc::new(PlanCache::default())),
        feedback: Some(Arc::clone(feedback)),
        defer_feedback: true,
        ..PlannerConfig::default()
    };
    let mut out = AdaptiveReplay {
        jobs: Vec::with_capacity(jobs),
        fired: Vec::with_capacity(jobs),
    };
    for _ in 0..jobs {
        let replayed = job(tracer, sys, spec, query, &config)?;
        for stats in &replayed.stats {
            feedback.absorb(stats);
        }
        out.jobs.push(replayed);
        out.fired.push(advise(tracer, sys, advisor, feedback)?);
    }
    Ok(out)
}
