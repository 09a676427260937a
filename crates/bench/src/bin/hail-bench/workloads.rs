//! The five workloads. Each one is closed-loop with a single client
//! thread: the next op starts when the previous one has returned and
//! been checked. An op is homogeneous (one upload, one round of the
//! same queries, one batch, one lifecycle), so a median never sits on
//! the boundary between two kinds of work.
//!
//! Every workload has two forms of its op: the untraced one through
//! `hail_bench::setup`'s public runners, which the end-to-end metrics
//! come from, and a replay ([`crate::replay`]) that drives the same
//! jobs through the layers' public functions with spans around them.

use crate::data::{
    idx3_syn, testbed, text_bytes, verify_against_oracle, DatasetSpec, Expected, UV16K, UV240K,
    UV96K,
};
use crate::replay;
use crate::spans::Tracer;
use hail_bench::{
    run_adaptive_workload, run_queries_managed, run_query_overlapped, run_query_with_failure,
    setup_hail, setup_hail_with_config, SharedJobInfra, SystemSetup, Testbed,
};
use hail_core::HailQuery;
use hail_exec::{PlanCache, PlannerConfig, ReindexAdvisor, ReindexPolicy, SelectivityFeedback};
use hail_index::ReplicaIndexConfig;
use hail_mr::{FailureScenario, JobManager, JobRun};
use hail_types::AccessPathKind;
use hail_workloads::bob_queries;
use std::sync::Arc;
use std::time::Instant;

pub type R<T> = Result<T, String>;

pub const NAMES: [&str; 5] = ["upload", "bob_index", "scan", "batch_c2", "lifecycle"];

/// Jobs a `JobManager` keeps in flight in the managed workloads — with
/// solo jobs pinned to (1, 1) this is the most engine threads any
/// workload uses, and the box has two cores.
const CONCURRENCY: usize = 2;
/// Each Bob query is queued this many times per `batch_c2` batch.
const BATCH_REPEATS: usize = 4;
/// Jobs per adaptive round of `lifecycle`; the flip lands after
/// `hysteresis_rounds` of them.
pub const ADAPTIVE_JOBS: usize = 12;
/// The node `lifecycle` kills mid-job.
const FAILED_NODE: usize = 1;

/// What one op reports: engine wall seconds (checks and per-op
/// preparation excluded), the paper's simulated seconds for the same
/// work, and why it failed if it did.
pub struct OpReport {
    pub wall_s: f64,
    pub sim_s: f64,
    pub failure: Option<String>,
}

impl OpReport {
    fn new(wall_s: f64, sim_s: f64, check: R<()>) -> OpReport {
        OpReport {
            wall_s,
            sim_s,
            failure: check.err(),
        }
    }

    fn failed(reason: String) -> OpReport {
        OpReport {
            wall_s: 0.0,
            sim_s: 0.0,
            failure: Some(reason),
        }
    }
}

pub trait Workload {
    /// One untraced op.
    fn op(&mut self) -> OpReport;
    /// The same op replayed by the harness with spans; its rows are
    /// held to the same expectations as the untraced op's.
    fn replay(&mut self, tracer: &mut Tracer) -> OpReport;
    /// `DfsCluster::stored_bytes()` ÷ text bytes — after set-up, or
    /// after the latest op for workloads whose op writes.
    fn stored_bytes_per_user_byte(&self) -> f64;
}

/// Generates the data, uploads it, and verifies every distinct query
/// against the oracle. All of it is charged to `setup_s`.
pub fn setup(name: &str, seed: u64, quick: bool) -> R<Box<dyn Workload>> {
    let size = |spec: DatasetSpec| if quick { spec.quick() } else { spec };
    let mut workload: Box<dyn Workload> = match name {
        "upload" => Box::new(Upload::setup(size(UV16K), seed)?),
        "bob_index" => Box::new(BobIndex::setup(size(UV240K), seed)?),
        "scan" => Box::new(Scan::setup(size(UV96K), seed)?),
        "batch_c2" => Box::new(BatchC2::setup(size(UV240K), seed)?),
        "lifecycle" => Box::new(Lifecycle::setup(size(UV16K), seed)?),
        other => return Err(format!("unknown workload '{other}' (one of {NAMES:?})")),
    };
    // One reference op: every gate holds before anything is timed, and
    // `batch_c2`'s shared plan cache is warm, which is the state a
    // serving deployment is in.
    match workload.op().failure {
        None => Ok(workload),
        Some(reason) => Err(reason),
    }
}

pub fn err(e: hail_types::HailError) -> String {
    e.to_string()
}

fn parse(tb: &Testbed, filter: &str, projection: &str) -> R<HailQuery> {
    HailQuery::parse(filter, projection, &tb.schema).map_err(err)
}

/// The first `n` of Bob's queries.
pub fn bob(tb: &Testbed, n: usize) -> R<Vec<HailQuery>> {
    bob_queries()
        .iter()
        .take(n)
        .map(|spec| spec.to_query(&tb.schema).map_err(err))
        .collect()
}

/// The ~5 %-selective range on the unindexed `duration` column.
pub fn duration_query(tb: &Testbed) -> R<HailQuery> {
    parse(tb, "@9 <= 500", "{@1, @9}")
}

/// A solo job with explicit (1, 1) parallelism: no knob, no default,
/// decides how many threads it gets.
fn solo(sys: &SystemSetup, tb: &Testbed, query: &HailQuery) -> R<JobRun> {
    run_query_overlapped(sys, &tb.spec, query, true, 1, 1).map_err(err)
}

/// An advisor that advises whatever the environment says: the suite
/// measures the loop, it does not let a knob turn it off.
pub fn advisor() -> ReindexAdvisor {
    ReindexAdvisor::new(ReindexPolicy {
        enabled: true,
        ..ReindexPolicy::default()
    })
}

fn check_rows(expected: &Expected, rows: &[hail_types::Row], what: &str) -> R<()> {
    if expected.matches(rows) {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} rows, expected {} (or digest differs)",
            rows.len(),
            expected.rows
        ))
    }
}

fn stored_ratio(sys: &SystemSetup, tb: &Testbed) -> f64 {
    sys.cluster.stored_bytes() as f64 / text_bytes(tb) as f64
}

/// A queried system plus the oracle-verified expectation per query.
struct Verified {
    tb: Testbed,
    sys: SystemSetup,
    queries: Vec<(HailQuery, Expected)>,
}

impl Verified {
    /// Uploads with `IDX3_SYN`, runs each query once and compares its
    /// rows with the oracle's.
    fn setup(tb: Testbed, queries: Vec<HailQuery>) -> R<Verified> {
        let sys = setup_hail_with_config(&tb, &idx3_syn()).map_err(err)?;
        let mut verified = Vec::with_capacity(queries.len());
        for (i, query) in queries.into_iter().enumerate() {
            let run = solo(&sys, &tb, &query)?;
            let expected = verify_against_oracle(&tb, &query, &run.output, &format!("query {i}"))?;
            verified.push((query, expected));
        }
        Ok(Verified {
            tb,
            sys,
            queries: verified,
        })
    }

    /// One round of the queries as solo jobs; `gate` inspects each run.
    fn round(&self, gate: impl Fn(usize, &JobRun) -> R<()>) -> OpReport {
        let started = Instant::now();
        let runs: R<Vec<JobRun>> = self
            .queries
            .iter()
            .map(|(q, _)| solo(&self.sys, &self.tb, q))
            .collect();
        let wall = started.elapsed().as_secs_f64();
        let runs = match runs {
            Ok(runs) => runs,
            Err(e) => return OpReport::failed(e),
        };
        let sim = runs.iter().map(|r| r.report.end_to_end_seconds).sum();
        let check = runs.iter().enumerate().try_for_each(|(i, run)| {
            check_rows(&self.queries[i].1, &run.output, &format!("query {i}"))?;
            gate(i, run)
        });
        OpReport::new(wall, sim, check)
    }

    /// The same round replayed job by job with cold per-job planning,
    /// as the solo runner plans.
    fn replay_round(&self, tracer: &mut Tracer) -> OpReport {
        let jobs = self.queries.iter().map(|(q, expected)| (q, expected));
        self.replay_jobs(tracer, &PlannerConfig::default(), jobs)
    }

    /// Replays `jobs` one after the other and holds each one's rows to
    /// its expectation.
    fn replay_jobs<'a>(
        &self,
        tracer: &mut Tracer,
        config: &PlannerConfig,
        jobs: impl Iterator<Item = (&'a HailQuery, &'a Expected)>,
    ) -> OpReport {
        let started = Instant::now();
        let mut check = Ok(());
        for (i, (query, expected)) in jobs.enumerate() {
            match replay::job(tracer, &self.sys, &self.tb.spec, query, config) {
                Ok(job) if check.is_ok() => {
                    check = check_rows(expected, &job.rows, &format!("replayed job {i}"));
                }
                Ok(_) => {}
                Err(e) => return OpReport::failed(e),
            }
        }
        OpReport::new(started.elapsed().as_secs_f64(), 0.0, check)
    }
}

/// `upload`: one `setup_hail_with_config(UV16K, IDX3_SYN)` into a fresh
/// cluster per op.
struct Upload {
    tb: Testbed,
    config: ReplicaIndexConfig,
    blocks: usize,
    stored_bytes: u64,
    sim_s: f64,
}

impl Upload {
    fn setup(spec: DatasetSpec, seed: u64) -> R<Upload> {
        let tb = testbed(spec, seed);
        let config = idx3_syn();
        let sys = setup_hail_with_config(&tb, &config).map_err(err)?;
        // Everything uploaded reads back: a full scan returns the
        // oracle's rows.
        let everything = HailQuery::full_scan();
        let run = solo(&sys, &tb, &everything)?;
        verify_against_oracle(&tb, &everything, &run.output, "uploaded rows")?;
        Ok(Upload {
            blocks: sys.dataset.blocks.len(),
            stored_bytes: sys.cluster.stored_bytes(),
            sim_s: sys.upload_seconds,
            tb,
            config,
        })
    }

    /// An upload is deterministic: the same text must store the same
    /// blocks, bytes and simulated seconds every time.
    fn check(&self, blocks: usize, stored: u64, sim_s: f64) -> R<()> {
        if (blocks, stored, sim_s) == (self.blocks, self.stored_bytes, self.sim_s) {
            Ok(())
        } else {
            Err(format!(
                "upload stored {blocks} blocks / {stored} B / {sim_s} sim s, \
                 expected {} / {} / {}",
                self.blocks, self.stored_bytes, self.sim_s
            ))
        }
    }
}

impl Workload for Upload {
    fn op(&mut self) -> OpReport {
        let started = Instant::now();
        let sys = setup_hail_with_config(&self.tb, &self.config);
        let wall = started.elapsed().as_secs_f64();
        match sys {
            Ok(sys) => OpReport::new(
                wall,
                sys.upload_seconds,
                self.check(
                    sys.dataset.blocks.len(),
                    sys.cluster.stored_bytes(),
                    sys.upload_seconds,
                ),
            ),
            Err(e) => OpReport::failed(err(e)),
        }
    }

    fn replay(&mut self, tracer: &mut Tracer) -> OpReport {
        let started = Instant::now();
        let replayed = replay::upload(tracer, &self.tb, &self.config);
        let wall = started.elapsed().as_secs_f64();
        match replayed {
            Ok(up) => OpReport::new(
                wall,
                up.upload_seconds,
                self.check(up.blocks, up.stored_bytes, up.upload_seconds),
            ),
            Err(e) => OpReport::failed(e),
        }
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        self.stored_bytes as f64 / text_bytes(&self.tb) as f64
    }
}

/// `bob_index`: one round of Bob-Q1..Q4 as solo jobs on
/// `UV240K`/`IDX3_SYN`.
struct BobIndex(Verified);

impl BobIndex {
    fn setup(spec: DatasetSpec, seed: u64) -> R<BobIndex> {
        let tb = testbed(spec, seed);
        let queries = bob(&tb, 4)?;
        Ok(BobIndex(Verified::setup(tb, queries)?))
    }
}

impl Workload for BobIndex {
    fn op(&mut self) -> OpReport {
        self.0.round(|i, run| {
            // Bob-Q2 is the needle: the sourceIP synopses must prove
            // most blocks empty.
            if i == 1 && run.report.blocks_pruned() == 0 {
                return Err("Bob-Q2 pruned no block".into());
            }
            Ok(())
        })
    }

    fn replay(&mut self, tracer: &mut Tracer) -> OpReport {
        self.0.replay_round(tracer)
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        stored_ratio(&self.0.sys, &self.0.tb)
    }
}

/// `scan`: one round of S1 (narrow) and S2 (wide) on `UV96K`; no
/// replica serves either filter column, so every block streams.
struct Scan(Verified);

impl Scan {
    fn setup(spec: DatasetSpec, seed: u64) -> R<Scan> {
        let tb = testbed(spec, seed);
        let queries = vec![
            duration_query(&tb)?,
            parse(&tb, "@6 = 'DEU'", "{@1, @2, @3, @4, @5, @6, @7, @8, @9}")?,
        ];
        Ok(Scan(Verified::setup(tb, queries)?))
    }
}

impl Workload for Scan {
    fn op(&mut self) -> OpReport {
        let blocks = self.0.sys.dataset.blocks.len() as u64;
        self.0.round(|i, run| {
            let full = run.report.path_counts().get(AccessPathKind::FullScan);
            if full == blocks {
                Ok(())
            } else {
                Err(format!(
                    "scan query {i}: {full} of {blocks} blocks were full scans"
                ))
            }
        })
    }

    fn replay(&mut self, tracer: &mut Tracer) -> OpReport {
        self.0.replay_round(tracer)
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        stored_ratio(&self.0.sys, &self.0.tb)
    }
}

/// `batch_c2`: one managed batch of 20 Bob jobs at concurrency 2 over
/// one persistent shared infrastructure (warm plan cache, scan
/// sharing, job pool, node gate).
struct BatchC2 {
    bed: Verified,
    /// The batch: Bob-Q1..Q5 ×4, with the index of each job's
    /// expectation in `bed.queries`.
    queries: Vec<HailQuery>,
    manager: JobManager,
    infra: SharedJobInfra,
    /// The replay's own warm plan cache (the replay plans on the client
    /// thread, outside the manager).
    replay_cache: Arc<PlanCache>,
}

impl BatchC2 {
    fn setup(spec: DatasetSpec, seed: u64) -> R<BatchC2> {
        let tb = testbed(spec, seed);
        let distinct = bob(&tb, 5)?;
        let bed = Verified::setup(tb, distinct)?;
        let queries = (0..BATCH_REPEATS)
            .flat_map(|_| bed.queries.iter().map(|(q, _)| q.clone()))
            .collect();
        Ok(BatchC2 {
            bed,
            queries,
            manager: JobManager::new(CONCURRENCY),
            infra: SharedJobInfra::for_jobs(CONCURRENCY),
            replay_cache: Arc::new(PlanCache::default()),
        })
    }

    fn expected(&self, job: usize) -> &Expected {
        &self.bed.queries[job % self.bed.queries.len()].1
    }
}

impl Workload for BatchC2 {
    fn op(&mut self) -> OpReport {
        let started = Instant::now();
        let batch = run_queries_managed(
            &self.bed.sys,
            &self.bed.tb.spec,
            &self.queries,
            true,
            &self.manager,
            &self.infra,
        );
        let wall = started.elapsed().as_secs_f64();
        let batch = match batch {
            Ok(batch) => batch,
            Err(e) => return OpReport::failed(err(e)),
        };
        let sim = batch.runs.iter().map(|r| r.report.end_to_end_seconds).sum();
        let check = batch.runs.iter().enumerate().try_for_each(|(i, run)| {
            check_rows(self.expected(i), &run.output, &format!("batch job {i}"))
        });
        OpReport::new(wall, sim, check)
    }

    fn replay(&mut self, tracer: &mut Tracer) -> OpReport {
        let config = PlannerConfig {
            plan_cache: Some(Arc::clone(&self.replay_cache)),
            ..PlannerConfig::default()
        };
        let jobs = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| (q, self.expected(i)));
        self.bed.replay_jobs(tracer, &config, jobs)
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        stored_ratio(&self.bed.sys, &self.bed.tb)
    }
}

/// `lifecycle`: on a fresh two-index upload of `UV16K`, twelve
/// identical jobs on an unindexed column drive the advisor to rebuild
/// one replica per block, then Bob-Q1 survives a node killed at half
/// progress.
struct Lifecycle {
    tb: Testbed,
    scan_query: HailQuery,
    scan_expected: Expected,
    bob_q1: HailQuery,
    bob_q1_expected: Expected,
    stored_ratio: f64,
}

/// What one adaptive-then-failover pass needs besides the data; built
/// per op, outside the timed section.
struct LifecycleOp {
    sys: SystemSetup,
    manager: JobManager,
    infra: SharedJobInfra,
    advisor: ReindexAdvisor,
    feedback: Arc<SelectivityFeedback>,
}

impl Lifecycle {
    fn setup(spec: DatasetSpec, seed: u64) -> R<Lifecycle> {
        let tb = testbed(spec, seed);
        let scan_query = duration_query(&tb)?;
        let bob_q1 = bob(&tb, 1)?.remove(0);
        let sys = setup_hail(&tb, &[2, 0]).map_err(err)?;
        let scan_expected = verify_against_oracle(
            &tb,
            &scan_query,
            &solo(&sys, &tb, &scan_query)?.output,
            "lifecycle scan query",
        )?;
        let bob_q1_expected = verify_against_oracle(
            &tb,
            &bob_q1,
            &solo(&sys, &tb, &bob_q1)?.output,
            "lifecycle Bob-Q1",
        )?;
        Ok(Lifecycle {
            tb,
            scan_query,
            scan_expected,
            bob_q1,
            bob_q1_expected,
            stored_ratio: 0.0,
        })
    }

    /// The fresh deployment an op runs against (untimed: the op is the
    /// life of the data after upload, not the upload).
    fn fresh(&self) -> R<LifecycleOp> {
        Ok(LifecycleOp {
            sys: setup_hail(&self.tb, &[2, 0]).map_err(err)?,
            manager: JobManager::new(CONCURRENCY),
            infra: SharedJobInfra::for_jobs(CONCURRENCY),
            advisor: advisor(),
            feedback: Arc::new(SelectivityFeedback::default()),
        })
    }

    fn check_failover(&self, d: &LifecycleOp, rows: &[hail_types::Row]) -> R<()> {
        check_rows(&self.bob_q1_expected, rows, "failover Bob-Q1")?;
        if d.sys.cluster.namenode().is_dead(FAILED_NODE) {
            Ok(())
        } else {
            Err(format!(
                "the namenode does not mark node {FAILED_NODE} dead"
            ))
        }
    }
}

/// Post-flip jobs must be served by the index the advisor built.
fn check_flipped(kinds: &hail_mr::PathCounts, job: usize) -> R<()> {
    if kinds.get(AccessPathKind::ClusteredIndexScan) > 0 && kinds.get(AccessPathKind::FullScan) == 0
    {
        Ok(())
    } else {
        Err(format!(
            "post-flip job {job} did not plan onto the new index"
        ))
    }
}

impl Workload for Lifecycle {
    fn op(&mut self) -> OpReport {
        let mut d = match self.fresh() {
            Ok(d) => d,
            Err(e) => return OpReport::failed(e),
        };
        let jobs = vec![self.scan_query.clone(); ADAPTIVE_JOBS];
        let started = Instant::now();
        let adaptive = run_adaptive_workload(
            &mut d.sys,
            &self.tb.spec,
            &jobs,
            true,
            &d.manager,
            &d.infra,
            &d.advisor,
            &d.feedback,
            1,
        );
        let failover = adaptive.and_then(|a| {
            let scenario = FailureScenario::at_half(FAILED_NODE);
            run_query_with_failure(&mut d.sys, &self.tb.spec, &self.bob_q1, false, scenario)
                .map(|f| (a, f))
        });
        let wall = started.elapsed().as_secs_f64();
        let (adaptive, failover) = match failover {
            Ok(pair) => pair,
            Err(e) => return OpReport::failed(err(e)),
        };
        let sim = adaptive
            .runs
            .iter()
            .map(|r| r.report.end_to_end_seconds)
            .sum::<f64>()
            + failover.with_failure.end_to_end_seconds;
        let check = (|| {
            if adaptive.events.len() != 1 {
                return Err(format!(
                    "{} re-index events, expected 1",
                    adaptive.events.len()
                ));
            }
            let flip = adaptive.events[0].after_job;
            for (i, run) in adaptive.runs.iter().enumerate() {
                check_rows(
                    &self.scan_expected,
                    &run.output,
                    &format!("adaptive job {i}"),
                )?;
                if i >= flip {
                    check_flipped(&run.report.path_counts(), i)?;
                }
            }
            self.check_failover(&d, &failover.output)
        })();
        self.stored_ratio = stored_ratio(&d.sys, &self.tb);
        OpReport::new(wall, sim, check)
    }

    fn replay(&mut self, tracer: &mut Tracer) -> OpReport {
        let mut d = match self.fresh() {
            Ok(d) => d,
            Err(e) => return OpReport::failed(e),
        };
        let started = Instant::now();
        let jobs = match replay::adaptive(
            tracer,
            &mut d.sys,
            &self.tb.spec,
            &self.scan_query,
            ADAPTIVE_JOBS,
            &d.advisor,
            &d.feedback,
        ) {
            Ok(jobs) => jobs,
            Err(e) => return OpReport::failed(e),
        };
        let scenario = FailureScenario::at_half(FAILED_NODE);
        let failover = tracer.span("mr.failover_job", |_| {
            run_query_with_failure(&mut d.sys, &self.tb.spec, &self.bob_q1, false, scenario)
        });
        let wall = started.elapsed().as_secs_f64();
        let failover = match failover {
            Ok(f) => f,
            Err(e) => return OpReport::failed(err(e)),
        };
        let check = (|| {
            let rebuilds: usize = jobs.fired.iter().sum();
            if rebuilds != 1 {
                return Err(format!(
                    "replay fired {rebuilds} re-index events, expected 1"
                ));
            }
            for (i, job) in jobs.jobs.iter().enumerate() {
                check_rows(&self.scan_expected, &job.rows, &format!("replayed job {i}"))?;
                if jobs.fired[..i].iter().sum::<usize>() > 0 {
                    check_flipped(&job.paths, i)?;
                }
            }
            self.check_failover(&d, &failover.output)
        })();
        OpReport::new(wall, 0.0, check)
    }

    fn stored_bytes_per_user_byte(&self) -> f64 {
        self.stored_ratio
    }
}
