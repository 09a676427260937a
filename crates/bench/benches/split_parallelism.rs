//! Split-level executor parallelism: per-split wall clock at 1/2/4/8
//! workers on multi-block splits, plus the Bob query jobs end to end.
//!
//! The executor changes **real** wall clock only: for every
//! parallelism the emitted records and the simulated-clock reports are
//! asserted identical to the serial run. Two tables:
//!
//! 1. *Per-split fan-out* — one multi-block split (all of the
//!    dataset's blocks) read as a batch of one at each
//!    parallelism, on a scan-heavy query where each block read does
//!    real decode work. This is where wall clock improves
//!    monotonically from 1 to 4 workers (8 plateaus at the machine's
//!    core count and the per-node slot structure).
//! 2. *Bob queries end to end* — the paper's index-served workload at
//!    each parallelism. HAIL's per-block index reads are microseconds,
//!    so fan-out overhead roughly breaks even; the table documents
//!    that the executor never costs correctness and what it does to
//!    wall clock when there is little work to overlap.

use hail_bench::{
    json_mode, run_query_at, setup_hail, uv_testbed, BenchSummary, ExperimentScale, Report,
};
use hail_core::HailQuery;
use hail_exec::PlannedInputFormat;
use hail_mr::{read_one_split, InputSplit, SplitContext};
use hail_sim::HardwareProfile;
use hail_workloads::bob_queries;
use std::time::Instant;

const PARALLELISMS: [usize; 4] = [1, 2, 4, 8];
const SAMPLES: usize = 5;

fn main() {
    let scale = ExperimentScale::query(4, 120_000)
        .with_blocks_per_node(16)
        .with_partition_size(64);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let hail = setup_hail(&tb, &[2, 0, 3]).expect("hail setup"); // visitDate, sourceIP, adRevenue

    // ── 1. Per-split fan-out on a scan-heavy query ──────────────────
    // Equality on searchWord (@7, unindexed): every block is a full
    // scan, so a multi-block split carries real per-block decode work.
    let scan_query =
        HailQuery::parse("@7 = 'searchword0'", "{@1, @7}", &tb.schema).expect("scan query");
    let format = PlannedInputFormat::new(hail.dataset.clone(), scan_query);
    let split = InputSplit::new(hail.dataset.blocks.clone(), hail.cluster.live_nodes());

    let mut per_split = Report::new(
        "split-parallelism/per-split",
        format!(
            "One {}-block full-scan split via read_one_split",
            split.blocks.len()
        ),
        "measured ms (min of 5)",
    );
    let mut baseline_records: Option<Vec<String>> = None;
    let mut wall_by_parallelism = Vec::new();
    for parallelism in PARALLELISMS {
        let ctx = SplitContext::on(0).with_parallelism(parallelism);
        let mut best_ms = f64::INFINITY;
        let mut rows: Vec<String> = Vec::new();
        for _ in 0..SAMPLES {
            rows.clear();
            let started = Instant::now();
            read_one_split(&format, &hail.cluster, &split, ctx, &mut |rec| {
                rows.push(rec.row.to_string())
            })
            .expect("split read");
            best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
        }
        match &baseline_records {
            None => baseline_records = Some(rows),
            Some(b) => assert_eq!(b, &rows, "p={parallelism} changed records or their order"),
        }
        wall_by_parallelism.push(best_ms);
        per_split.row(format!("p={parallelism}"), None, best_ms);
    }
    let speedup_4 = wall_by_parallelism[0] / wall_by_parallelism[2];
    per_split.note(format!(
        "wall clock 1→4 workers: {:.2}× ({}monotone 1→2→4)",
        speedup_4,
        if wall_by_parallelism[0] >= wall_by_parallelism[1]
            && wall_by_parallelism[1] >= wall_by_parallelism[2]
        {
            ""
        } else {
            "NOT "
        }
    ));
    per_split.note(format!(
        "machine cores: {} (speedup is bounded by min(cores, workers, blocks))",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    per_split.note("records and their order identical at every parallelism");

    // ── 2. Bob queries end to end ───────────────────────────────────
    let mut jobs = Report::new(
        "split-parallelism/bob-jobs",
        "Measured record-reader wall clock, Bob queries × executor parallelism",
        "measured ms",
    );
    for spec in bob_queries() {
        let q = spec.to_query(&tb.schema).expect(spec.id);
        let mut baseline: Option<(Vec<String>, f64, f64)> = None;
        for parallelism in PARALLELISMS {
            let run = run_query_at(&hail, &tb.spec, &q, true, parallelism).expect(spec.id);
            let reader_ms = run.report.reader_wall_seconds() * 1e3;
            let rows: Vec<String> = run.output.iter().map(|r| r.to_string()).collect();
            match &baseline {
                None => {
                    baseline = Some((
                        rows,
                        run.report.end_to_end_seconds,
                        run.report.total_reader_seconds(),
                    ));
                }
                Some((b_rows, b_e2e, b_work)) => {
                    assert_eq!(b_rows, &rows, "{}: rows diverged", spec.id);
                    assert_eq!(
                        *b_e2e, run.report.end_to_end_seconds,
                        "{}: simulated end-to-end diverged",
                        spec.id
                    );
                    assert_eq!(
                        *b_work,
                        run.report.total_reader_seconds(),
                        "{}: simulated reader work diverged",
                        spec.id
                    );
                }
            }
            jobs.row(format!("{} p={parallelism}", spec.id), None, reader_ms);
        }
    }
    jobs.note("outputs and simulated reports identical at every parallelism");

    // `--json` bundles both tables plus the headline speedups into one
    // machine-readable BenchSummary document; plain runs print the
    // aligned tables as before.
    let mut summary = BenchSummary::new("split_parallelism");
    for (i, p) in PARALLELISMS.iter().enumerate() {
        summary.metric(format!("per_split_wall_ms_p{p}"), wall_by_parallelism[i]);
    }
    summary.metric("per_split_speedup_1_to_4", speedup_4);
    summary.report(per_split.clone());
    summary.report(jobs.clone());
    if json_mode() {
        println!("{}", summary.to_json());
    } else {
        per_split.print();
        jobs.print();
    }
}
