//! Per-layer probes: each times one layer's public functions from the
//! harness, on bytes the workloads' own generator and upload produced,
//! and reports the cost per unit of work (block, row, MB, call). A
//! layer is a crate. The probe bed is the same for every workload, so
//! a probe's value depends on the seed and the code, not on which
//! workload's traced run printed it.
//!
//! README.md says which end-to-end metric, on which workload, each
//! probe is predicted to move.

use crate::data::{idx3_syn, testbed, text_bytes, DatasetSpec, NODES, UV16K, UV96K};
use crate::replay;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{advisor, bob, duration_query, err, ADAPTIVE_JOBS, R};
use hail_bench::{
    make_shared_format, paper, run_adaptive_workload, run_queries_managed, run_query,
    run_query_overlapped, run_query_with_failure, setup_hadoop, setup_hail, setup_hail_with_config,
    setup_hpp, uv_testbed, ExperimentScale, SharedJobInfra, SystemSetup, Testbed,
};
use hail_core::HailQuery;
use hail_dfs::{hail_upload_block, hdfs_upload_block, rewrite_replica, DfsCluster, FaultPlan};
use hail_exec::{
    plan_hail_splits, read_hail_block, PlanCache, PlannerConfig, QueryPlanner, ScanShareRegistry,
    SelectivityFeedback,
};
use hail_index::{
    BloomSynopsis, IndexedBlock, KeyBounds, ReplicaIndexConfig, SortOrder, ZoneMapSynopsis,
};
use hail_mr::{run_map_reduce_job, FailureScenario, JobManager, MapReduceJob};
use hail_pax::{chunk_checksums, verify_chunks, PaxBlock, PaxBlockBuilder};
use hail_sim::{CostLedger, HardwareProfile};
use hail_types::{parse_line, AccessPathKind, BlockId, DatanodeId, Row, Value};
use hail_workloads::{bob_queries, UserVisitsGenerator};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every metric [`run`] produces, layer by layer.
pub const NAMES: [&str; 63] = [
    "types.parse_line_ns_per_row",
    "types.value_cmp_ns",
    "pax.text_to_pax_ms_per_mb",
    "pax.checksum_mb_per_s",
    "pax.parse_us_per_block",
    "pax.decode_column_ns_per_value",
    "pax.value_ns",
    "pax.reconstruct_ns_per_row.w2",
    "pax.reconstruct_ns_per_row.w9",
    "pax.bytes_per_user_byte",
    "index.build_ms_per_block",
    "index.parse_us_per_block",
    "index.lookup_ns",
    "index.synopsis_build_us_per_block",
    "index.synopsis_probe_ns",
    "index.bytes_per_user_byte",
    "dfs.upload_block_ms",
    "dfs.hdfs_upload_block_ms",
    "dfs.read_replica_us_per_block",
    "dfs.read_range_us",
    "dfs.rewrite_replica_ms",
    "dfs.dir_rep_lookup_ns",
    "core.upload_hail_ms_per_mb",
    "core.upload_hadoop_ms_per_mb",
    "core.upload_hail_over_hadoop",
    "core.query_parse_us",
    "exec.plan_cold_us_per_block",
    "exec.plan_warm_us_per_block",
    "exec.cost_evals_per_job",
    "exec.plan_cache_hit_rate",
    "exec.blocks_pruned_share",
    "exec.zero_row_blocks_share",
    "exec.splits_us",
    "exec.execute_block_us.clustered",
    "exec.execute_block_us.full_scan",
    "exec.execute_block_us.pruned",
    "exec.produce_decoded_us_per_block",
    "exec.apply_residual_us_per_block",
    "exec.residual_ns_per_row_in",
    "exec.rows_examined_per_row_out",
    "exec.read_hail_block_us",
    "exec.scan_share_attach_share",
    "exec.advisor_note_round_us",
    "exec.apply_reindex_ms",
    "exec.jobs_until_flip",
    "exec.hadoop_text_job_ms",
    "exec.hpp_job_ms",
    "mr.job_wall_ms",
    "mr.job_overhead_ms",
    "mr.reader_wall_share",
    "mr.queue_wait_ms_p50",
    "mr.batch_wall_over_solo_sum",
    "mr.failover_job_ms",
    "mr.failover_sim_slowdown_pct",
    "mr.shuffle_job_ms",
    "sim.ledger_price_ns",
    "sim.paper_rel_err_fig4a_hail3",
    "sim.paper_rel_err_fig6a_hail_mean",
    "sim.paper_rel_err_fig9c_bob_hail",
    "sync.ordered_mutex_acquire_ns",
    "workloads.gen_mb_per_s",
    "bench.probe_seconds",
    "bench.probe_bed_mb",
];

/// Times calls: the median over `rounds` rounds of the mean seconds
/// per call, each round long enough for the clock.
struct Clock {
    round: Duration,
    rounds: usize,
}

impl Clock {
    fn new(quick: bool) -> Clock {
        if quick {
            Clock {
                round: Duration::from_micros(500),
                rounds: 3,
            }
        } else {
            Clock {
                round: Duration::from_millis(15),
                rounds: 5,
            }
        }
    }

    /// Seconds per call of `f`.
    fn per_call(&self, mut f: impl FnMut()) -> f64 {
        let started = Instant::now();
        f();
        let once = started.elapsed().as_secs_f64().max(1e-9);
        let calls = ((self.round.as_secs_f64() / once) as usize).clamp(1, 1_000_000);
        let means: Vec<f64> = (0..self.rounds)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..calls {
                    f();
                }
                started.elapsed().as_secs_f64() / calls as f64
            })
            .collect();
        median(&means)
    }

    /// Seconds per call of a fallible `f` that takes milliseconds or
    /// more: the median of `rounds` single calls.
    fn per_heavy_call<T>(&self, mut f: impl FnMut() -> R<T>) -> R<f64> {
        let mut seconds = Vec::with_capacity(self.rounds);
        for _ in 0..self.rounds {
            let started = Instant::now();
            black_box(f()?);
            seconds.push(started.elapsed().as_secs_f64());
        }
        Ok(median(&seconds))
    }
}

#[derive(Default)]
struct Out(Vec<(String, f64)>);

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        debug_assert!(NAMES.contains(&name), "{name} is not declared in NAMES");
        self.0.push((name.to_string(), value));
    }
}

/// The data every probe works on: one mid-sized `IDX3_SYN` upload plus
/// the text and PAX form of its first block.
struct Bed {
    tb: Testbed,
    hail: SystemSetup,
    /// The lines of node 0's first block, and the PAX block the client
    /// cuts from them.
    text0: String,
    pax0: PaxBlock,
    /// A stored block and its replica clustered on visitDate.
    block: BlockId,
    date_replica: DatanodeId,
    bob: Vec<HailQuery>,
    /// S1 of the `scan` workload: no replica serves @9.
    scan: HailQuery,
}

impl Bed {
    fn build(spec: DatasetSpec, seed: u64) -> R<Bed> {
        let tb = testbed(spec, seed);
        let hail = setup_hail_with_config(&tb, &idx3_syn()).map_err(err)?;
        let mut builder = PaxBlockBuilder::new(tb.schema.clone(), tb.storage.clone());
        let mut text0 = String::new();
        for line in tb.texts[0].1.lines() {
            builder.push_line(line).map_err(err)?;
            text0.push_str(line);
            text0.push('\n');
            if builder.is_full() {
                break;
            }
        }
        let pax0 = builder.finish().map_err(err)?;
        let block = *hail
            .dataset
            .blocks
            .first()
            .ok_or("the probe bed has no block")?;
        let date_replica = *hail
            .cluster
            .namenode()
            .get_hosts_with_index(block, 2)
            .map_err(err)?
            .first()
            .ok_or("no replica is clustered on visitDate")?;
        let bob = bob(&tb, 4)?;
        let scan = duration_query(&tb)?;
        Ok(Bed {
            tb,
            hail,
            text0,
            pax0,
            block,
            date_replica,
            bob,
            scan,
        })
    }

    fn blocks(&self) -> usize {
        self.hail.dataset.blocks.len()
    }

    fn indexed(&self, block: BlockId, node: DatanodeId) -> R<IndexedBlock> {
        let bytes = self
            .hail
            .cluster
            .datanode(node)
            .and_then(|dn| dn.peek_replica(block))
            .map_err(err)?;
        IndexedBlock::parse(bytes).map_err(err)
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn types_layer(bed: &Bed, clock: &Clock, out: &mut Out) -> R<()> {
    let lines: Vec<&str> = bed.text0.lines().collect();
    let per_pass = clock.per_call(|| {
        for line in &lines {
            black_box(parse_line(line, &bed.tb.schema, '|'));
        }
    });
    out.put(
        "types.parse_line_ns_per_row",
        per_pass * 1e9 / lines.len() as f64,
    );

    // sourceIP strings: the comparison sorting and index build make most.
    let column = bed.pax0.decode_column(0).map_err(err)?;
    let values: Vec<Value> = (0..column.len()).map(|i| column.value(i)).collect();
    let per_pass = clock.per_call(|| {
        for pair in values.windows(2) {
            black_box(pair[0].total_cmp(&pair[1]));
        }
    });
    out.put(
        "types.value_cmp_ns",
        per_pass * 1e9 / (values.len() - 1).max(1) as f64,
    );
    Ok(())
}

fn pax_layer(bed: &Bed, clock: &Clock, out: &mut Out) -> R<()> {
    let pax = &bed.pax0;
    let rows = pax.row_count();
    let per_block = clock.per_call(|| {
        let mut b = PaxBlockBuilder::new(bed.tb.schema.clone(), bed.tb.storage.clone());
        for line in bed.text0.lines() {
            b.push_line(line).expect("probe text parses");
        }
        black_box(b.finish().expect("probe block builds"));
    });
    out.put(
        "pax.text_to_pax_ms_per_mb",
        per_block * 1e3 / mb(bed.text0.len()),
    );

    // One compute + one verify pass, as an upload and a later read pay.
    let bytes = pax.bytes();
    let per_pair = clock.per_call(|| {
        let sums = chunk_checksums(bytes);
        verify_chunks(bytes, &sums).expect("fresh checksums verify");
    });
    out.put("pax.checksum_mb_per_s", 2.0 * mb(bytes.len()) / per_pair);

    let per_parse = clock.per_call(|| {
        black_box(PaxBlock::parse(bytes.clone()).expect("probe block parses"));
    });
    out.put("pax.parse_us_per_block", per_parse * 1e6);

    let columns = pax.schema().len();
    let per_decode = clock.per_call(|| {
        for c in 0..columns {
            black_box(pax.decode_column(c).expect("column decodes"));
        }
    });
    out.put(
        "pax.decode_column_ns_per_value",
        per_decode * 1e9 / (rows * columns) as f64,
    );

    let per_pass = clock.per_call(|| {
        for row in 0..rows {
            black_box(pax.value(2, row).expect("value reads"));
        }
    });
    out.put("pax.value_ns", per_pass * 1e9 / rows as f64);

    let all: Vec<usize> = (0..columns).collect();
    for (name, projection) in [
        ("pax.reconstruct_ns_per_row.w2", &[0usize, 8][..]),
        ("pax.reconstruct_ns_per_row.w9", &all[..]),
    ] {
        let per_pass = clock.per_call(|| {
            for row in 0..rows {
                black_box(pax.reconstruct(row, projection).expect("row reconstructs"));
            }
        });
        out.put(name, per_pass * 1e9 / rows as f64);
    }
    Ok(())
}

/// `pax.bytes_per_user_byte` and `index.bytes_per_user_byte`: what the
/// PAX payload and what indexes + sidecars add, over all replicas.
fn space(bed: &Bed, out: &mut Out) -> R<()> {
    let nn = bed.hail.cluster.namenode();
    let (mut pax_bytes, mut index_bytes) = (0u64, 0u64);
    for &block in &bed.hail.dataset.blocks {
        for node in nn.get_hosts(block).map_err(err)? {
            let meta = nn
                .replica_index(block, node)
                .ok_or("a replica has no Dir_rep entry")?;
            let extra = (meta.index_bytes + meta.sidecar_bytes_total()) as u64;
            let stored = bed
                .hail
                .cluster
                .datanode(node)
                .and_then(|d| d.replica_len(block));
            index_bytes += extra;
            pax_bytes += stored.map_err(err)? as u64 - extra;
        }
    }
    let text = text_bytes(&bed.tb) as f64;
    out.put("pax.bytes_per_user_byte", pax_bytes as f64 / text);
    out.put("index.bytes_per_user_byte", index_bytes as f64 / text);
    Ok(())
}

fn index_layer(bed: &Bed, clock: &Clock, out: &mut Out) -> R<()> {
    let config = idx3_syn();
    let per_three = clock.per_call(|| {
        for pos in 0..config.replication() {
            black_box(
                IndexedBlock::build_with(&bed.pax0, config.orders()[pos], config.sidecar(pos))
                    .expect("replica builds"),
            );
        }
    });
    out.put(
        "index.build_ms_per_block",
        per_three * 1e3 / config.replication() as f64,
    );

    let indexed = bed.indexed(bed.block, bed.date_replica)?;
    let bytes = indexed.bytes().clone();
    let per_parse = clock.per_call(|| {
        black_box(IndexedBlock::parse(bytes.clone()).expect("replica parses"));
    });
    out.put("index.parse_us_per_block", per_parse * 1e6);

    let index = indexed
        .index()
        .ok_or("the visitDate replica has no index")?;
    let bounds = bed.bob[0]
        .bounds_on(2)
        .ok_or("Bob-Q1 has no bounds on @3")?;
    let per_lookup = clock.per_call(|| {
        black_box(index.lookup(black_box(&bounds)));
    });
    out.put("index.lookup_ns", per_lookup * 1e9);

    let column = bed.pax0.decode_column(0).map_err(err)?;
    let values: Vec<Value> = (0..column.len()).map(|i| column.value(i)).collect();
    let per_build = clock.per_call(|| {
        black_box(ZoneMapSynopsis::build(0, &values, 0));
        black_box(BloomSynopsis::build(0, &values, 0));
    });
    out.put("index.synopsis_build_us_per_block", per_build * 1e6);

    let zone = ZoneMapSynopsis::build(0, &values, 0);
    let bloom = BloomSynopsis::build(0, &values, 0);
    let needle = Value::Str(hail_workloads::uservisits::MAGIC_IP.to_string());
    let point = KeyBounds::point(needle.clone());
    let per_pair = clock.per_call(|| {
        black_box(zone.overlaps(black_box(&point)));
        black_box(bloom.might_contain(black_box(&needle)));
    });
    out.put("index.synopsis_probe_ns", per_pair * 1e9 / 2.0);
    Ok(())
}

fn dfs_layer(bed: &Bed, clock: &Clock, out: &mut Out) -> R<()> {
    let config = idx3_syn();
    let mut scratch = DfsCluster::new(NODES, bed.tb.storage.clone());
    let per_upload = clock.per_call(|| {
        hail_upload_block(&mut scratch, 0, &bed.pax0, &config, &FaultPlan::none())
            .expect("probe block uploads");
    });
    out.put("dfs.upload_block_ms", per_upload * 1e3);

    let mut scratch = DfsCluster::new(NODES, bed.tb.storage.clone());
    let per_upload = clock.per_call(|| {
        let raw = bed.text0.as_bytes().to_vec().into();
        hdfs_upload_block(&mut scratch, 0, raw, &FaultPlan::none()).expect("probe text uploads");
    });
    out.put("dfs.hdfs_upload_block_ms", per_upload * 1e3);

    let dn = bed.hail.cluster.datanode(bed.date_replica).map_err(err)?;
    let per_read = clock.per_call(|| {
        let mut ledger = CostLedger::new();
        black_box(
            dn.read_replica(bed.block, &mut ledger)
                .expect("replica reads"),
        );
    });
    out.put("dfs.read_replica_us_per_block", per_read * 1e6);

    let len = dn.replica_len(bed.block).map_err(err)?;
    let per_range = clock.per_call(|| {
        let mut ledger = CostLedger::new();
        black_box(
            dn.read_range(bed.block, len / 4, len / 8, &mut ledger)
                .expect("range reads"),
        );
    });
    out.put("dfs.read_range_us", per_range * 1e6);

    // The adaptive path's unit of work: re-sort one unsorted replica on
    // the scanned column, in place.
    let mut scratch = DfsCluster::new(NODES, bed.tb.storage.clone());
    let plain = ReplicaIndexConfig::unindexed(config.replication());
    let block =
        hail_upload_block(&mut scratch, 0, &bed.pax0, &plain, &FaultPlan::none()).map_err(err)?;
    let holder = *scratch
        .namenode()
        .get_hosts(block)
        .map_err(err)?
        .first()
        .ok_or("the rewritten block has no replica")?;
    let order = SortOrder::Clustered { column: 8 };
    let per_rewrite = clock.per_call(|| {
        rewrite_replica(&mut scratch, block, holder, order, &Default::default())
            .expect("replica rewrites");
    });
    out.put("dfs.rewrite_replica_ms", per_rewrite * 1e3);

    let nn = bed.hail.cluster.namenode();
    let per_three = clock.per_call(|| {
        black_box(nn.get_hosts_with_index(bed.block, 2).expect("known block"));
        black_box(
            nn.get_hosts_with_zone_map(bed.block, 0)
                .expect("known block"),
        );
        black_box(nn.get_hosts_with_bloom(bed.block, 0).expect("known block"));
    });
    out.put("dfs.dir_rep_lookup_ns", per_three * 1e9 / 3.0);
    Ok(())
}

fn core_layer(seed: u64, quick: bool, clock: &Clock, out: &mut Out) -> R<()> {
    // Fig. 4 in the measured domain: the `upload` workload's dataset
    // through both clients.
    let tb = testbed(if quick { UV16K.quick() } else { UV16K }, seed);
    let text_mb = mb(text_bytes(&tb) as usize);
    let config = idx3_syn();
    let hail = clock.per_heavy_call(|| setup_hail_with_config(&tb, &config).map_err(err))?;
    let hadoop = clock.per_heavy_call(|| setup_hadoop(&tb).map_err(err))?;
    out.put("core.upload_hail_ms_per_mb", hail * 1e3 / text_mb);
    out.put("core.upload_hadoop_ms_per_mb", hadoop * 1e3 / text_mb);
    out.put("core.upload_hail_over_hadoop", hail / hadoop);

    let q3 = &bob_queries()[2];
    let per_parse = clock.per_call(|| {
        black_box(HailQuery::parse(&q3.filter, &q3.projection, &tb.schema).expect("Bob-Q3 parses"));
    });
    out.put("core.query_parse_us", per_parse * 1e6);
    Ok(())
}

fn cached(cache: &Arc<PlanCache>) -> PlannerConfig {
    PlannerConfig {
        plan_cache: Some(Arc::clone(cache)),
        ..PlannerConfig::default()
    }
}

fn exec_planning(bed: &Bed, clock: &Clock, out: &mut Out) -> R<()> {
    let cluster = &bed.hail.cluster;
    let dataset = &bed.hail.dataset;
    let planned = (bed.bob.len() * bed.blocks()) as f64;

    let mut evaluations = 0u64;
    let cold = clock.per_call(|| {
        let cache = Arc::new(PlanCache::default());
        let planner = QueryPlanner::with_config(cluster, cached(&cache));
        for q in &bed.bob {
            black_box(planner.plan_dataset(dataset, q).expect("Bob query plans"));
        }
        evaluations = cache.stats().cost_evaluations;
    });
    out.put("exec.plan_cold_us_per_block", cold * 1e6 / planned);
    out.put(
        "exec.cost_evals_per_job",
        evaluations as f64 / bed.bob.len() as f64,
    );

    let cache = Arc::new(PlanCache::default());
    let planner = QueryPlanner::with_config(cluster, cached(&cache));
    let warm = clock.per_call(|| {
        for q in &bed.bob {
            black_box(planner.plan_dataset(dataset, q).expect("Bob query plans"));
        }
    });
    out.put("exec.plan_warm_us_per_block", warm * 1e6 / planned);

    let plan = planner.plan_dataset(dataset, &bed.bob[0]).map_err(err)?;
    let slots = bed.tb.spec.profile.map_slots;
    let per_split = clock.per_call(|| {
        black_box(plan_hail_splits(black_box(&plan), slots));
    });
    out.put("exec.splits_us", per_split * 1e6);
    Ok(())
}

/// Times `execute_block` over the blocks of `query`'s plan that took
/// `kind` (pruned blocks when `pruned`), per block.
fn execute_block_us(
    bed: &Bed,
    clock: &Clock,
    query: &HailQuery,
    kind: AccessPathKind,
    pruned: bool,
) -> R<f64> {
    let planner = QueryPlanner::new(&bed.hail.cluster);
    let plan = planner
        .plan_dataset(&bed.hail.dataset, query)
        .map_err(err)?;
    let chosen: Vec<(BlockId, DatanodeId)> = plan
        .blocks
        .iter()
        .filter(|bp| bp.pruned.is_some() == pruned && (pruned || bp.kind == kind))
        .map(|bp| (bp.block, bp.replica))
        .collect();
    if chosen.is_empty() {
        return Err(format!(
            "no block of the probe plan is {kind} (pruned: {pruned})"
        ));
    }
    let schema = &bed.hail.dataset.schema;
    let per_pass = clock.per_call(|| {
        for &(block, node) in &chosen {
            let stats = planner
                .execute_block(&plan, block, node, schema, query, &mut |rec| {
                    black_box(rec);
                })
                .expect("block executes");
            black_box(stats);
        }
    });
    Ok(per_pass * 1e6 / chosen.len() as f64)
}

fn exec_reading(bed: &Bed, clock: &Clock, out: &mut Out) -> R<()> {
    use AccessPathKind::{ClusteredIndexScan, FullScan};
    out.put(
        "exec.execute_block_us.clustered",
        execute_block_us(bed, clock, &bed.bob[0], ClusteredIndexScan, false)?,
    );
    out.put(
        "exec.execute_block_us.full_scan",
        execute_block_us(bed, clock, &bed.scan, FullScan, false)?,
    );
    out.put(
        "exec.execute_block_us.pruned",
        execute_block_us(bed, clock, &bed.bob[1], FullScan, true)?,
    );

    // The two halves of a full scan, on the block the planner picks.
    let planner = QueryPlanner::new(&bed.hail.cluster);
    let plan = planner
        .plan_dataset(&bed.hail.dataset, &bed.scan)
        .map_err(err)?;
    let bp = plan
        .block_plan(bed.block)
        .ok_or("the probe block is not planned")?;
    let access = hail_exec::BlockAccess {
        cluster: &bed.hail.cluster,
        block: bed.block,
        replica: bp.replica,
        task_node: bp.replica,
        schema: &bed.hail.dataset.schema,
        query: &bed.scan,
    };
    let per_decode = clock.per_call(|| {
        black_box(bp.path.produce_decoded(&access).expect("block decodes"));
    });
    out.put("exec.produce_decoded_us_per_block", per_decode * 1e6);
    let decoded = bp.path.produce_decoded(&access).map_err(err)?;
    let rows_in = decoded.indexed().pax().row_count();
    let per_residual = clock.per_call(|| {
        let stats = bp
            .path
            .apply_residual(&decoded, &access, &mut |rec| {
                black_box(rec);
            })
            .expect("residual applies");
        black_box(stats);
    });
    out.put("exec.apply_residual_us_per_block", per_residual * 1e6);
    out.put(
        "exec.residual_ns_per_row_in",
        per_residual * 1e9 / rows_in as f64,
    );

    let per_read = clock.per_call(|| {
        let stats = read_hail_block(
            &bed.hail.cluster,
            bed.block,
            bed.date_replica,
            &bed.hail.dataset.schema,
            &bed.bob[0],
            &mut |rec| {
                black_box(rec);
            },
        )
        .expect("block reads");
        black_box(stats);
    });
    out.put("exec.read_hail_block_us", per_read * 1e6);
    Ok(())
}

/// Counts over one replayed round of Bob-Q1..Q4: how much pruning
/// saved, how often a block that was read gave nothing, and how many
/// rows were looked at per row returned.
fn exec_quality(bed: &Bed, out: &mut Out) -> R<()> {
    let mut tracer = Tracer::new();
    let (mut pruned, mut read, mut zero_row) = (0u64, 0u64, 0u64);
    let (mut examined, mut returned) = (0u64, 0u64);
    for q in &bed.bob {
        let job = replay::job(
            &mut tracer,
            &bed.hail,
            &bed.tb.spec,
            q,
            &PlannerConfig::default(),
        )?;
        for stats in &job.stats {
            if stats.blocks_pruned > 0 {
                pruned += stats.blocks_pruned;
                continue;
            }
            read += 1;
            zero_row += u64::from(stats.records == 0);
            examined += stats.selectivity.iter().map(|o| o.total).sum::<u64>();
        }
        returned += job.rows.len() as u64;
    }
    let planned = (bed.bob.len() * bed.blocks()) as f64;
    out.put("exec.blocks_pruned_share", pruned as f64 / planned);
    out.put(
        "exec.zero_row_blocks_share",
        zero_row as f64 / read.max(1) as f64,
    );
    out.put(
        "exec.rows_examined_per_row_out",
        examined as f64 / returned.max(1) as f64,
    );
    Ok(())
}

/// One solo job against its own replay, and one managed batch against
/// the solo jobs it is made of.
fn jobs_and_batches(bed: &Bed, clock: &Clock, out: &mut Out) -> R<()> {
    let q1 = &bed.bob[0];
    let spec = &bed.tb.spec;
    let solo = |q: &HailQuery| run_query_overlapped(&bed.hail, spec, q, true, 1, 1).map_err(err);
    let mut reader_share = 0.0;
    let job_wall = clock.per_heavy_call(|| {
        let started = Instant::now();
        let run = solo(q1)?;
        reader_share = run.report.reader_wall_seconds() / started.elapsed().as_secs_f64();
        Ok(run)
    })?;
    let mut tracer = Tracer::new();
    let replay_wall = clock.per_heavy_call(|| {
        replay::job(&mut tracer, &bed.hail, spec, q1, &PlannerConfig::default())
    })?;
    out.put("mr.job_wall_ms", job_wall * 1e3);
    out.put("mr.job_overhead_ms", (job_wall - replay_wall) * 1e3);
    out.put("mr.reader_wall_share", reader_share);

    // Bob-Q1..Q4 ×5: 20 jobs, two in flight, as in `batch_c2`.
    let queries: Vec<HailQuery> = bed.bob.iter().cycle().take(20).cloned().collect();
    let mut solo_sum = 0.0;
    for q in &queries {
        let started = Instant::now();
        black_box(solo(q)?);
        solo_sum += started.elapsed().as_secs_f64();
    }
    let manager = JobManager::new(2);
    let infra = SharedJobInfra::for_jobs(2);
    let mut last = None;
    let batch_wall = clock.per_heavy_call(|| {
        let batch =
            run_queries_managed(&bed.hail, spec, &queries, true, &manager, &infra).map_err(err)?;
        last = Some(batch.summary);
        Ok(())
    })?;
    let summary = last.ok_or("no batch ran")?;
    let cache = infra.plan_cache.stats();
    out.put("mr.batch_wall_over_solo_sum", batch_wall / solo_sum);
    out.put("mr.queue_wait_ms_p50", summary.queue_wait_p50_seconds * 1e3);
    out.put(
        "exec.scan_share_attach_share",
        summary.blocks_read_shared as f64 / summary.logical_blocks.max(1) as f64,
    );
    // Over a cold batch and the warm ones after it.
    out.put(
        "exec.plan_cache_hit_rate",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    Ok(())
}

/// The formats no workload runs: Bob-Q1 on text and on Hadoop++, and a
/// count-by-country through the shuffle.
fn uncovered_paths(bed: &Bed, clock: &Clock, out: &mut Out) -> R<()> {
    let q1 = &bed.bob[0];
    let spec = &bed.tb.spec;
    let hadoop = setup_hadoop(&bed.tb).map_err(err)?;
    let text_job = clock
        .per_heavy_call(|| run_query_overlapped(&hadoop, spec, q1, false, 1, 1).map_err(err))?;
    out.put("exec.hadoop_text_job_ms", text_job * 1e3);
    drop(hadoop);
    let (hpp, _) = setup_hpp(&bed.tb, Some(0)).map_err(err)?;
    let hpp_job =
        clock.per_heavy_call(|| run_query_overlapped(&hpp, spec, q1, false, 1, 1).map_err(err))?;
    out.put("exec.hpp_job_ms", hpp_job * 1e3);
    drop(hpp);

    let everything = HailQuery::parse("", "{@6}", &bed.tb.schema).map_err(err)?;
    let infra = SharedJobInfra::for_jobs(1);
    let format = make_shared_format(&bed.hail, spec, &everything, true, &infra);
    let job = MapReduceJob {
        name: "count-by-country".into(),
        input: bed.hail.dataset.blocks.clone(),
        format: format.as_ref(),
        map: Box::new(|rec, out| {
            if let (false, Some(country)) = (rec.bad, rec.row.get(0)) {
                out.push((country.clone(), Row::new(vec![Value::Long(1)])));
            }
        }),
        reduce: Box::new(|key, rows, out| {
            out.push(Row::new(vec![key.clone(), Value::Long(rows.len() as i64)]));
        }),
        reducers: 2,
        parallelism: Some(1),
        job_parallelism: Some(1),
    };
    let rows = bed.tb.scale.rows_per_node * NODES;
    let shuffle = clock.per_heavy_call(|| {
        let run = run_map_reduce_job(&bed.hail.cluster, spec, &job).map_err(err)?;
        let counted: i64 = run
            .output
            .iter()
            .filter_map(|r| r.get(1).map(Value::as_i64))
            .sum();
        if counted as usize == rows {
            Ok(())
        } else {
            Err(format!("the shuffle counted {counted} of {rows} rows"))
        }
    })?;
    out.put("mr.shuffle_job_ms", shuffle * 1e3);
    Ok(())
}

/// The `lifecycle` workload's parts, each under its own clock.
fn adaptation(seed: u64, quick: bool, clock: &Clock, out: &mut Out) -> R<()> {
    let tb = testbed(if quick { UV16K.quick() } else { UV16K }, seed);
    let scan = duration_query(&tb)?;
    let q1 = bob(&tb, 1)?.remove(0);

    let mut sys = setup_hail(&tb, &[2, 0]).map_err(err)?;
    let adaptive = run_adaptive_workload(
        &mut sys,
        &tb.spec,
        &vec![scan.clone(); ADAPTIVE_JOBS],
        true,
        &JobManager::new(2),
        &SharedJobInfra::for_jobs(2),
        &advisor(),
        &SelectivityFeedback::default(),
        1,
    )
    .map_err(err)?;
    let flip = adaptive.events.first().ok_or("the advisor never fired")?;
    out.put("exec.jobs_until_flip", flip.after_job as f64);

    // The same loop replayed, for the advisor's and the rewrite's own time.
    let mut sys = setup_hail(&tb, &[2, 0]).map_err(err)?;
    let mut tracer = Tracer::new();
    replay::adaptive(
        &mut tracer,
        &mut sys,
        &tb.spec,
        &scan,
        ADAPTIVE_JOBS,
        &advisor(),
        &Arc::new(SelectivityFeedback::default()),
    )?;
    let mean_ms = |name: &str| {
        let spans: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        spans.iter().sum::<f64>() / spans.len().max(1) as f64
    };
    out.put(
        "exec.advisor_note_round_us",
        mean_ms("exec.note_round") * 1e3,
    );
    out.put("exec.apply_reindex_ms", mean_ms("exec.apply_reindex"));

    let mut slowdown = 0.0;
    let mut job_seconds = Vec::with_capacity(clock.rounds);
    for _ in 0..clock.rounds {
        let mut sys = setup_hail(&tb, &[2, 0]).map_err(err)?;
        let started = Instant::now();
        let run =
            run_query_with_failure(&mut sys, &tb.spec, &q1, false, FailureScenario::at_half(1))
                .map_err(err)?;
        job_seconds.push(started.elapsed().as_secs_f64());
        slowdown = run.slowdown_percent();
    }
    out.put("mr.failover_job_ms", median(&job_seconds) * 1e3);
    out.put("mr.failover_sim_slowdown_pct", slowdown);
    Ok(())
}

fn small_layers(bed: &Bed, seed: u64, clock: &Clock, out: &mut Out) {
    // A ledger a real upload filled, priced both ways.
    let ledger = bed.hail.cluster.upload_ledgers().swap_remove(0);
    let (hw, scale) = (&bed.tb.spec.profile, bed.tb.spec.scale);
    let per_pair = clock.per_call(|| {
        black_box(black_box(&ledger).pipelined_seconds(hw, scale));
        black_box(black_box(&ledger).serial_seconds(hw, scale));
    });
    out.put("sim.ledger_price_ns", per_pair * 1e9 / 2.0);

    // `hail-sync` is not a dependency of `hail-bench`; `retained()` on
    // an empty registry is one uncontended `OrderedMutex` acquire and
    // nothing else, through a public call.
    let registry = ScanShareRegistry::new();
    let per_acquire = clock.per_call(|| {
        black_box(black_box(&registry).retained());
    });
    out.put("sync.ordered_mutex_acquire_ns", per_acquire * 1e9);

    let generator = UserVisitsGenerator {
        seed,
        magic_rows_per_node: 5,
    };
    let rows = bed.tb.scale.rows_per_node.min(4_000);
    let mut bytes = 0;
    let per_text = clock.per_call(|| {
        bytes = black_box(generator.node_text(0, rows)).len();
    });
    out.put("workloads.gen_mb_per_s", mb(bytes) / per_text);
}

fn rel_err(measured: f64, paper: f64) -> f64 {
    (measured - paper).abs() / paper
}

/// The paper scoreboard: simulated seconds against Fig. 4(a), 6(a) and
/// 9(c) at the figure benches' own scales and generator seed. It is
/// deterministic and independent of `--seed`: it guards `sim_op_s`
/// against "improving" by breaking the cost model.
fn paper_scoreboard(quick: bool, out: &mut Out) -> R<()> {
    let scaled = |rows: usize| {
        if quick {
            ExperimentScale::upload(4, rows / 50).with_blocks_per_node(8)
        } else {
            ExperimentScale::upload(10, rows)
        }
    };
    let index_columns = [2usize, 0, 3];

    let tb = uv_testbed(scaled(6_000), HardwareProfile::physical());
    let hail3 = setup_hail(&tb, &index_columns).map_err(err)?;
    out.put(
        "sim.paper_rel_err_fig4a_hail3",
        rel_err(hail3.upload_seconds, paper::fig4a::HAIL[3]),
    );
    drop((hail3, tb));

    let tb = uv_testbed(scaled(20_000), HardwareProfile::physical());
    let hail = setup_hail(&tb, &index_columns).map_err(err)?;
    let (mut fig6a, mut fig9c) = (0.0, 0.0);
    let queries = bob_queries();
    for (qi, spec) in queries.iter().enumerate() {
        let q = spec.to_query(&tb.schema).map_err(err)?;
        let unsplit = run_query(&hail, &tb.spec, &q, false).map_err(err)?;
        fig6a += rel_err(unsplit.report.end_to_end_seconds, paper::fig6a::HAIL[qi]);
        let split = run_query(&hail, &tb.spec, &q, true).map_err(err)?;
        fig9c += split.report.end_to_end_seconds;
    }
    out.put(
        "sim.paper_rel_err_fig6a_hail_mean",
        fig6a / queries.len() as f64,
    );
    out.put(
        "sim.paper_rel_err_fig9c_bob_hail",
        rel_err(fig9c, paper::fig9::BOB_TOTALS[2]),
    );
    Ok(())
}

/// Runs every probe; the values come back under [`NAMES`].
pub fn run(seed: u64, quick: bool) -> R<Vec<(String, f64)>> {
    let started = Instant::now();
    let mut out = Out::default();
    let clock = Clock::new(quick);
    let bed = Bed::build(if quick { UV96K.quick() } else { UV96K }, seed)?;
    out.put("bench.probe_bed_mb", mb(text_bytes(&bed.tb) as usize));
    types_layer(&bed, &clock, &mut out)?;
    pax_layer(&bed, &clock, &mut out)?;
    space(&bed, &mut out)?;
    index_layer(&bed, &clock, &mut out)?;
    dfs_layer(&bed, &clock, &mut out)?;
    exec_planning(&bed, &clock, &mut out)?;
    exec_reading(&bed, &clock, &mut out)?;
    exec_quality(&bed, &mut out)?;
    jobs_and_batches(&bed, &clock, &mut out)?;
    uncovered_paths(&bed, &clock, &mut out)?;
    small_layers(&bed, seed, &clock, &mut out);
    drop(bed);
    core_layer(seed, quick, &clock, &mut out)?;
    adaptation(seed, quick, &clock, &mut out)?;
    paper_scoreboard(quick, &mut out)?;
    out.put("bench.probe_seconds", started.elapsed().as_secs_f64());
    Ok(out.0)
}
