//! Plan once: a job's split reads execute the plan its splits were cut
//! from, and the result is bit for bit what planning every split again
//! gives.
//!
//! The oracle is the same format with the source dropped from its split
//! plan ([`PerSplitPlanning`]): each of its split reads plans its blocks
//! against the current cluster state. The two must agree on every output
//! row, in order, and on every figure of every job report except the
//! measured wall clock — for Bob-Q1..Q5 and Syn-Q1a..Q2c, without and
//! with a shared plan cache, with feedback off, on and deferred, at job
//! parallelism 1 and 4, with `HailSplitting` on and off; under a node
//! death mid-job; and on a job of more than one chunk of splits, where
//! the feedback absorbed after the first chunk outdates the split-time
//! plan.

use hail::mr::{InputSplit, SplitPlan, SplitRead, SplitSource, SplitTask};
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

    fn read_split_batch(
        &self,
        cluster: &DfsCluster,
        batch: &[SplitTask<'_>],
        job_parallelism: Option<usize>,
    ) -> Result<Vec<SplitRead>> {
        assert!(batch.iter().all(|task| task.source.is_none()));
        self.0.read_split_batch(cluster, batch, job_parallelism)
    }

    fn estimate_splits(&self, cluster: &DfsCluster, splits: &[InputSplit]) -> Option<Vec<f64>> {
        self.0.estimate_splits(cluster, splits)
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

#[derive(Debug, Clone, Copy, PartialEq)]
enum Feedback {
    Off,
    On,
    Deferred,
}

/// One engine setting of the sweep.
#[derive(Debug, Clone, Copy)]
struct Setting {
    cache: bool,
    feedback: Feedback,
    job_parallelism: usize,
    splitting: bool,
}

impl Setting {
    fn all() -> impl Iterator<Item = Setting> {
        [false, true].into_iter().flat_map(|cache| {
            [Feedback::Off, Feedback::On, Feedback::Deferred]
                .into_iter()
                .flat_map(move |feedback| {
                    [(1, true), (4, true), (1, false), (4, false)].map(
                        |(job_parallelism, splitting)| Setting {
                            cache,
                            feedback,
                            job_parallelism,
                            splitting,
                        },
                    )
                })
        })
    }

    /// A planner configuration with stores of its own.
    fn planner(&self) -> PlannerConfig {
        PlannerConfig {
            plan_cache: self.cache.then(|| Arc::new(PlanCache::default())),
            feedback: (self.feedback != Feedback::Off)
                .then(|| Arc::new(SelectivityFeedback::default())),
            defer_feedback: self.feedback == Feedback::Deferred,
            ..Default::default()
        }
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

/// A job report with the measured wall clock taken out: everything left
/// is in the determinism contract.
fn simulated(report: &JobReport) -> String {
    let mut report = report.clone();
    report.queue_wait_seconds = 0.0;
    for task in &mut report.tasks {
        task.reader_wall_seconds = 0.0;
    }
    format!("{report:?}")
}

/// What a session leaves in its planner's stores.
fn stores(planner: &PlannerConfig, columns: usize) -> String {
    let cache = planner.plan_cache.as_ref().map(|c| c.len());
    let feedback = planner.feedback.as_ref().map(|fb| {
        (0..columns)
            .flat_map(|c| [false, true].map(|eq| (fb.observed(c, eq), fb.observation_count(c, eq))))
            .collect::<Vec<_>>()
    });
    format!("cache entries {cache:?}, feedback {feedback:?}")
}

/// The bed's queries run in order as solo jobs over one planner
/// configuration, each job's output and report, then the stores; and
/// the cache lookups the session made.
fn session(bed: &Bed, setting: Setting, per_split: bool) -> (Vec<String>, Option<u64>) {
    let planner = setting.planner();
    let mut out = Vec::new();
    for (id, query) in &bed.queries {
        let format = setting.format(&bed.dataset, query, &planner);
        let per_split_format = PerSplitPlanning(&format);
        let input: &dyn InputFormat = match per_split {
            true => &per_split_format,
            false => &format,
        };
        let job = MapJob::collecting(*id, bed.dataset.blocks.clone(), input)
            .with_job_parallelism(setting.job_parallelism);
        let run = run_map_job(&bed.cluster, &spec(), &job).unwrap();
        out.push(format!(
            "{id}: {:?}\n{}",
            run.output,
            simulated(&run.report)
        ));
    }
    out.push(stores(&planner, bed.dataset.schema.len()));
    let lookups = planner.plan_cache.as_ref().map(|c| {
        let s = c.stats();
        s.hits + s.misses
    });
    (out, lookups)
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
            let (once, once_lookups) = session(&bed, setting, false);
            let (per_split, per_split_lookups) = session(&bed, setting, true);
            assert_same(&once, &per_split, &format!("{setting:?}"));
            // Not vacuous: the split reads did use the split-time plan.
            if let (Some(once), Some(per_split)) = (once_lookups, per_split_lookups) {
                assert!(
                    once < per_split,
                    "{setting:?}: {once} vs {per_split} lookups"
                );
            }
        }
    }
}

/// One query under a node death halfway through the job, on a fresh bed.
fn failover(bed: fn() -> Bed, query: usize, setting: Setting, per_split: bool) -> String {
    let mut bed = bed();
    let planner = setting.planner();
    let (id, query) = &bed.queries[query];
    let format = setting.format(&bed.dataset, query, &planner);
    let per_split_format = PerSplitPlanning(&format);
    let input: &dyn InputFormat = match per_split {
        true => &per_split_format,
        false => &format,
    };
    let job = MapJob::collecting(*id, bed.dataset.blocks.clone(), input)
        .with_job_parallelism(setting.job_parallelism);
    let run =
        run_map_job_with_failure(&mut bed.cluster, &spec(), &job, FailureScenario::at_half(1))
            .unwrap();
    format!(
        "{id}: {:?}\nbaseline {}\nwith failure {}\nat {} after {} reruns\n{}",
        run.output,
        simulated(&run.baseline),
        simulated(&run.with_failure),
        run.failure_time,
        run.rerun_count,
        stores(&planner, bed.dataset.schema.len())
    )
}

/// The death moves the design epoch, which outdates the baseline plan;
/// the failover passes read under the plan cut on the degraded cluster,
/// and the run is the per-split one.
#[test]
fn planning_once_reproduces_per_split_planning_across_a_death() {
    let beds: [(fn() -> Bed, usize); 2] = [(|| bob_bed(300), 5), (syn_bed, 6)];
    let settings = [
        (false, Feedback::Off, 1, true),
        (true, Feedback::Deferred, 1, false),
        (true, Feedback::On, 4, true),
        (true, Feedback::On, 1, false),
    ];
    for (bed, queries) in beds {
        for (cache, feedback, job_parallelism, splitting) in settings {
            let setting = Setting {
                cache,
                feedback,
                job_parallelism,
                splitting,
            };
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

/// On a job of more than one chunk of splits, the feedback absorbed
/// after the first chunk moves the selectivities, so the later chunks
/// plan again — and the job is still the per-split one.
#[test]
fn feedback_between_chunks_outdates_the_split_time_plan() {
    let bed = bob_bed(1500);
    let setting = Setting {
        cache: true,
        feedback: Feedback::On,
        job_parallelism: 1,
        splitting: false,
    };
    let blocks = bed.dataset.blocks.len() as u64;
    assert!(blocks > SPLIT_BATCH_CHUNK as u64, "{blocks} blocks");
    let (once, _) = session(&bed, setting, false);
    let (per_split, _) = session(&bed, setting, true);
    assert_same(&once, &per_split, "two chunks");

    // Bob-Q1 alone on fresh stores: one lookup per block when the splits
    // are cut, none for the first chunk's reads, one per block of the
    // later chunks.
    let planner = setting.planner();
    let format = setting.format(&bed.dataset, &bed.queries[0].1, &planner);
    let job = MapJob::collecting("Bob-Q1", bed.dataset.blocks.clone(), &format);
    run_map_job(&bed.cluster, &spec(), &job).unwrap();
    let stats = planner.plan_cache.as_ref().unwrap().stats();
    assert_eq!(
        stats.hits + stats.misses,
        blocks + (blocks - SPLIT_BATCH_CHUNK as u64)
    );
}

/// A solo job over a shared cache looks each block up once, when its
/// splits are cut, and prices each block the synopses do not prune
/// once: its reads execute that plan.
#[test]
fn a_solo_job_plans_each_block_once() {
    let bed = bob_bed(600);
    let blocks = bed.dataset.blocks.len() as u64;
    for (id, query) in &bed.queries {
        let cache = Arc::new(PlanCache::default());
        let planner = PlannerConfig {
            plan_cache: Some(Arc::clone(&cache)),
            ..Default::default()
        };
        let format =
            PlannedInputFormat::new(bed.dataset.clone(), query.clone()).with_planner(planner);
        let job = MapJob::collecting(*id, bed.dataset.blocks.clone(), &format);
        let run = run_map_job(&bed.cluster, &spec(), &job).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, blocks), "{id}");
        let fresh = QueryPlanner::new(&bed.cluster)
            .plan_dataset(&bed.dataset, query)
            .unwrap();
        let priced: usize = fresh
            .blocks
            .iter()
            .filter(|bp| bp.pruned.is_none())
            .map(|bp| bp.candidates.len())
            .sum();
        assert_eq!(stats.cost_evaluations, priced as u64, "{id}");
        // Every block plan the reads executed came from that one pass.
        assert_eq!(run.report.plan_cache_hits(), blocks, "{id}");
        assert_eq!(run.report.plan_cache_misses(), 0, "{id}");
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
        let tasks: Vec<SplitTask<'_>> = plan
            .splits
            .iter()
            .map(|split| SplitTask {
                split,
                task_node: split.locations[0],
                source,
            })
            .collect();
        let reads = format
            .read_split_batch(&bed.cluster, &tasks, Some(1))
            .unwrap();
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
