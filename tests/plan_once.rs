//! Plan once: a job's split reads execute the plan its splits were cut
//! from, and the result is bit for bit what planning every split again
//! gives.
//!
//! The oracle is the same format with the source dropped from its split
//! plan ([`PerSplitPlanning`]): each of its split reads plans its blocks
//! against the current cluster state. The two must agree on every output
//! row, in order, and on every figure of every job report except the
//! measured wall clock and the count of blocks planned at read time —
//! for Bob-Q1..Q5 and Syn-Q1a..Q2c, with `HailSplitting` on and off;
//! under a node death mid-job; and on a job of many per-block splits.
//! Planning reads no cross-job state:
//! a store of contrary evidence plugged into the planner configuration
//! moves no plan and outdates no split-time plan.

use hail::mr::{SplitPlan, SplitRead, SplitSource, SplitTask};
use hail::prelude::*;
use hail::types::BlockId;
use std::sync::Arc;

/// `format` with the source dropped from every split plan: each split
/// read plans its own blocks.
struct PerSplitPlanning<'a>(&'a PlannedInputFormat);

impl InputFormat for PerSplitPlanning<'_> {
    fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
        let plan = self.0.splits(cluster, input)?;
        Ok(SplitPlan {
            source: None,
            ..plan
        })
    }

    fn read_split(&self, cluster: &DfsCluster, task: &SplitTask<'_>) -> Result<SplitRead> {
        assert!(task.source.is_none());
        self.0.read_split(cluster, task)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

const NODES: usize = 3;

/// One uploaded dataset and the paper queries over it.
struct Bed {
    cluster: DfsCluster,
    dataset: Dataset,
    queries: Vec<(&'static str, HailQuery)>,
}

fn storage() -> StorageConfig {
    let mut s = StorageConfig::test_scale(4 * 1024);
    s.index_partition_size = 8;
    s
}

fn bob_design() -> ReplicaIndexConfig {
    ReplicaIndexConfig::first_indexed(3, &[2, 0, 3])
        .with_synopses(0)
        .with_synopses(2)
}

/// UserVisits on three nodes, one replica clustered on each of
/// visitDate, sourceIP and adRevenue, zone maps and Bloom filters on
/// sourceIP and visitDate ([`bob_design`]).
fn bob_bed(rows_per_node: usize) -> Bed {
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(NODES, rows_per_node);
    let mut cluster = DfsCluster::new(NODES, storage());
    let dataset = upload_hail(&mut cluster, &schema, "uv", &texts, &bob_design()).unwrap();
    let queries = bob_queries()
        .iter()
        .map(|q| (q.id, q.to_query(&schema).unwrap()))
        .collect();
    Bed {
        cluster,
        dataset,
        queries,
    }
}

/// Synthetic on three nodes, clustered on @1, @2 and @3, with a zone map
/// and a Bloom filter on @1.
fn syn_bed() -> Bed {
    let schema = synthetic_schema();
    let texts = SyntheticGenerator::default().generate(NODES, 300);
    let design = ReplicaIndexConfig::first_indexed(3, &[0, 1, 2]).with_synopses(0);
    let mut cluster = DfsCluster::new(NODES, storage());
    let dataset = upload_hail(&mut cluster, &schema, "syn", &texts, &design).unwrap();
    let queries = synthetic_queries()
        .iter()
        .map(|q| (q.id, q.to_query(&schema).unwrap()))
        .collect();
    Bed {
        cluster,
        dataset,
        queries,
    }
}

fn spec() -> ClusterSpec {
    ClusterSpec::new(NODES, HardwareProfile::physical())
}

/// One engine setting of the sweep.
#[derive(Debug, Clone, Copy)]
struct Setting {
    splitting: bool,
}

impl Setting {
    fn all() -> impl Iterator<Item = Setting> {
        [true, false]
            .into_iter()
            .map(|splitting| Setting { splitting })
    }

    fn format(
        &self,
        dataset: &Dataset,
        query: &HailQuery,
        planner: &PlannerConfig,
    ) -> PlannedInputFormat {
        let mut format =
            PlannedInputFormat::new(dataset.clone(), query.clone()).with_planner(planner.clone());
        format.splitting = self.splitting;
        format
    }
}

/// A job report with the measured wall clock taken out, and the count of
/// blocks planned at read time, the one figure planning once changes by
/// design: everything left must match.
fn simulated(report: &JobReport) -> String {
    let mut report = report.clone();
    report.queue_wait_seconds = 0.0;
    for task in &mut report.tasks {
        task.reader_wall_seconds = 0.0;
        task.stats.blocks_replanned = 0;
    }
    format!("{report:?}")
}

/// The bed's queries run in order as solo jobs over one planner
/// configuration, each job's output and report; and the blocks the
/// session's split reads planned again.
fn session(
    bed: &Bed,
    setting: Setting,
    planner: &PlannerConfig,
    per_split: bool,
) -> (Vec<String>, u64) {
    let mut out = Vec::new();
    let mut replanned = 0;
    for (id, query) in &bed.queries {
        let format = setting.format(&bed.dataset, query, planner);
        let per_split_format = PerSplitPlanning(&format);
        let input: &dyn InputFormat = match per_split {
            true => &per_split_format,
            false => &format,
        };
        let job = MapJob::collecting(*id, bed.dataset.blocks.clone(), input);
        let run = run_map_job(&bed.cluster, &spec(), &job).unwrap();
        replanned += run.report.blocks_replanned();
        out.push(format!(
            "{id}: {:?}\n{}",
            run.output,
            simulated(&run.report)
        ));
    }
    (out, replanned)
}

fn assert_same(planned_once: &[String], per_split: &[String], what: &str) {
    assert_eq!(planned_once.len(), per_split.len());
    for (a, b) in planned_once.iter().zip(per_split) {
        let id = b.lines().next().unwrap_or_default();
        assert!(a == b, "{what}: {id}\nplanned once:\n{a}\nper split:\n{b}");
    }
}

#[test]
fn planning_once_reproduces_per_split_planning() {
    for bed in [bob_bed(600), syn_bed()] {
        for setting in Setting::all() {
            let planner = PlannerConfig::default();
            let (once, once_replanned) = session(&bed, setting, &planner, false);
            let (per_split, per_split_replanned) = session(&bed, setting, &planner, true);
            assert_same(&once, &per_split, &format!("{setting:?}"));
            // Not vacuous: the split reads did use the split-time plan.
            assert!(
                once_replanned < per_split_replanned,
                "{setting:?}: {once_replanned} vs {per_split_replanned} blocks planned again"
            );
        }
    }
}

/// One query under a node death halfway through the job, on a fresh bed.
fn failover(bed: fn() -> Bed, query: usize, setting: Setting, per_split: bool) -> String {
    let mut bed = bed();
    let planner = PlannerConfig::default();
    let (id, query) = &bed.queries[query];
    let format = setting.format(&bed.dataset, query, &planner);
    let per_split_format = PerSplitPlanning(&format);
    let input: &dyn InputFormat = match per_split {
        true => &per_split_format,
        false => &format,
    };
    let job = MapJob::collecting(*id, bed.dataset.blocks.clone(), input);
    let run =
        run_map_job_with_failure(&mut bed.cluster, &spec(), &job, FailureScenario::at_half(1))
            .unwrap();
    format!(
        "{id}: {:?}\nbaseline {}\nwith failure {}\nat {} after {} reruns",
        run.output,
        simulated(&run.baseline),
        simulated(&run.with_failure),
        run.failure_time,
        run.rerun_count,
    )
}

/// The death moves the design epoch, which outdates the baseline plan;
/// the failover passes read under the plan cut on the degraded cluster,
/// and the run is the per-split one.
#[test]
fn planning_once_reproduces_per_split_planning_across_a_death() {
    let beds: [(fn() -> Bed, usize); 2] = [(|| bob_bed(300), 5), (syn_bed, 6)];
    for (bed, queries) in beds {
        for setting in Setting::all() {
            for query in 0..queries {
                assert_same(
                    &[failover(bed, query, setting, false)],
                    &[failover(bed, query, setting, true)],
                    &format!("{setting:?} with a death"),
                );
            }
        }
    }
}

/// Planning reads no cross-job state. A store whose evidence says every
/// filter matches every row — contrary to the selective prior — plugged
/// into the planner configuration changes nothing: each Bob query's
/// `explain()` is the default configuration's, and on a job of many
/// per-block splits the reads execute the split-time plan, planning no
/// block again, with the default configuration's output and report.
/// The job is still the per-split one.
#[test]
fn planning_reads_no_cross_job_state() {
    let bed = bob_bed(1500);
    let contrary = Arc::new(SelectivityFeedback::default());
    for column in 0..bed.dataset.schema.len() {
        for eq in [false, true] {
            for _ in 0..100 {
                contrary.observe(column, eq, 100, 100);
            }
        }
    }
    let plugged = PlannerConfig {
        feedback: Some(Arc::clone(&contrary)),
        ..Default::default()
    };
    // Per-block splits.
    let setting = Setting { splitting: false };
    for (id, query) in &bed.queries {
        let plan = |config: &PlannerConfig| {
            QueryPlanner::with_config(&bed.cluster, config.clone())
                .plan_dataset(&bed.dataset, query)
                .unwrap()
                .explain()
        };
        assert_eq!(plan(&plugged), plan(&PlannerConfig::default()), "{id}");

        let run = |config: &PlannerConfig| {
            let format = setting.format(&bed.dataset, query, config);
            let job = MapJob::collecting(*id, bed.dataset.blocks.clone(), &format);
            run_map_job(&bed.cluster, &spec(), &job).unwrap()
        };
        let (with_store, default) = (run(&plugged), run(&PlannerConfig::default()));
        assert_eq!(with_store.report.blocks_replanned(), 0, "{id}");
        assert_eq!(with_store.output, default.output, "{id}");
        assert_eq!(
            simulated(&with_store.report),
            simulated(&default.report),
            "{id}"
        );
    }
    let (once, _) = session(&bed, setting, &plugged, false);
    let (per_split, _) = session(&bed, setting, &plugged, true);
    assert_same(&once, &per_split, "per-block splits");
}

/// A solo job plans each block once, when its splits are cut: its reads
/// execute that plan and plan no block again.
#[test]
fn a_solo_job_plans_each_block_once() {
    let bed = bob_bed(600);
    for (id, query) in &bed.queries {
        let format = PlannedInputFormat::new(bed.dataset.clone(), query.clone());
        let job = MapJob::collecting(*id, bed.dataset.blocks.clone(), &format);
        let run = run_map_job(&bed.cluster, &spec(), &job).unwrap();
        assert!(!run.report.tasks.is_empty(), "{id}");
        assert_eq!(run.report.blocks_replanned(), 0, "{id}");
    }
}

/// A block with no live replica when the splits are cut gets a degraded
/// plan; its read plans it again and fails with the per-split error.
#[test]
fn a_block_without_a_live_replica_fails_as_before() {
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(4, 300);
    let mut cluster = DfsCluster::new(4, storage());
    let design = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]).with_synopses(2);
    let dataset = upload_hail(&mut cluster, &schema, "uv", &texts, &design).unwrap();
    for node in 1..4 {
        cluster.kill_node(node).unwrap();
    }
    let unreadable = dataset
        .blocks
        .iter()
        .filter(|&&b| cluster.namenode().get_hosts(b).unwrap().is_empty())
        .count();
    assert!(unreadable > 0 && unreadable < dataset.blocks.len());
    let query = bob_queries()[0].to_query(&schema).unwrap();
    let format = PlannedInputFormat::new(dataset.clone(), query);
    let spec = ClusterSpec::new(4, HardwareProfile::physical());
    let error = |input: &dyn InputFormat| {
        let job = MapJob::collecting("Bob-Q1", dataset.blocks.clone(), input);
        run_map_job(&cluster, &spec, &job).unwrap_err().to_string()
    };
    assert_eq!(error(&format), error(&PerSplitPlanning(&format)));
}

/// A split plan kept past a change of physical design is not executed:
/// the design epoch moved, so each read plans against the new design.
#[test]
fn a_design_change_outdates_the_split_time_plan() {
    let mut bed = bob_bed(300);
    // Bob-Q4, served by the replicas clustered on adRevenue.
    let query = bed.queries[3].1.clone();
    let format = PlannedInputFormat::new(bed.dataset.clone(), query.clone());
    let plan = format.splits(&bed.cluster, &bed.dataset.blocks).unwrap();
    for &block in &bed.dataset.blocks {
        let on_ad_revenue = (0..NODES)
            .find(|&n| {
                let index = bed.cluster.namenode().replica_index(block, n);
                index.is_some_and(|m| m.key_column == Some(3))
            })
            .unwrap();
        let order = SortOrder::Clustered { column: 0 };
        rewrite_replica(
            &mut bed.cluster,
            block,
            on_ad_revenue,
            order,
            bob_design().sidecar(2),
        )
        .unwrap();
    }
    let read = |source: Option<&SplitSource>| {
        let reads: Vec<SplitRead> = plan
            .splits
            .iter()
            .map(|split| {
                let task = SplitTask {
                    split,
                    task_node: split.locations[0],
                    source,
                };
                format.read_split(&bed.cluster, &task).unwrap()
            })
            .collect();
        let rows: Vec<Row> = reads
            .iter()
            .flat_map(|read| read.records.iter().map(|r| r.row.clone()))
            .collect();
        let stats: Vec<String> = reads
            .iter()
            .map(|read| format!("{:?}", read.stats))
            .collect();
        (rows, stats)
    };
    let (rows, stats) = read(plan.source.as_ref());
    let (replanned_rows, replanned_stats) = read(None);
    assert_eq!(rows, replanned_rows);
    assert_eq!(stats, replanned_stats);
    let texts = UserVisitsGenerator::default().generate(NODES, 300);
    assert_eq!(
        canonical(&rows),
        canonical(&oracle_eval(&texts, &bob_schema(), &query))
    );
}
