//! One workload, one process: set-up, the timed closed loop, and the
//! numbers that come out of it. `--trace 0` measures the end-to-end
//! metrics with no span anywhere; `--trace 1` replays the workload
//! with spans and runs the per-layer probes.

use crate::json::Json;
use crate::probes;
use crate::spans::{self_times, Tracer};
use crate::spec::Spec;
use crate::stats::{median, percentile, segment_median_rate};
use crate::workloads::{self, OpReport, R};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up runs at least this often, and until it has taken
/// [`SETUP_SECONDS`] in all (at most [`MAX_SETUPS`] times); `setup_s`
/// is the median. A quarter-second set-up timed three times is still
/// at the mercy of one stall; timed nine times it is not.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 2.0;
/// The first tenth of the run is warm-up and discarded.
const WARMUP_SHARE: f64 = 0.1;
/// `ops_per_s` is the median rate over this many equal segments. On a
/// shared box a neighbour slows stretches of a run; with 15 segments
/// of about a second each, up to seven of them can be hit before the
/// figure moves.
const SEGMENTS: usize = 15;
/// `peak_rss_mb` is read after this many ops (warm-up included), the
/// same count on every commit and machine: the allocator's high-water
/// mark creeps up with every op, and a loop bounded by time does more
/// of them on a quiet day (it read 15 MB after 3 s and 21 MB after 15).
const RSS_OPS: usize = 30;
/// Failure reasons kept for the report; the rest are only counted.
const REASONS_KEPT: usize = 5;

/// Span names the replays record; each becomes a
/// `span.<name>.self_share` metric: its self time as a share of all
/// the replay's span time (0 where a workload never opens it).
pub const SPAN_NAMES: [&str; 13] = [
    "job",
    "exec.plan",
    "exec.splits",
    "exec.execute_block",
    "exec.produce_decoded",
    "exec.apply_residual",
    "exec.note_round",
    "exec.apply_reindex",
    "mr.failover_job",
    "core.upload_hail",
    "pax.text_to_pax",
    "index.build",
    "dfs.upload_block",
];
/// Timed a second time next to the pipeline that already contains it
/// (see `replay::upload`), so it is left out of the coverage sum.
const DUPLICATED_SPAN: &str = "index.build";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub spans_out: Option<String>,
}

/// What one run reports; rendered as the last stdout line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Timed ops behind the percentiles (warm-up excluded).
    pub samples: usize,
    /// Figures printed for the reader but not part of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self, spec: &Spec) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec.unit_of(name).unwrap_or("");
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Runs ops until `seconds` have passed and at least `min_timed` are
/// on record. Ops that start in the first tenth are warm-up.
struct Loop {
    op_seconds: Vec<f64>,
    sim_seconds: Vec<f64>,
    warmup_ops: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Loop {
    fn drive(seconds: f64, min_timed: usize, mut op: impl FnMut() -> OpReport) -> Loop {
        let mut state = Loop {
            op_seconds: Vec::new(),
            sim_seconds: Vec::new(),
            warmup_ops: 0,
            failed: 0,
            reasons: Vec::new(),
        };
        let begin = Instant::now();
        loop {
            let warm = begin.elapsed().as_secs_f64() < seconds * WARMUP_SHARE;
            let report = op();
            if let Some(reason) = report.failure {
                state.failed += 1;
                if state.reasons.len() < REASONS_KEPT {
                    state.reasons.push(reason);
                }
            }
            if warm {
                state.warmup_ops += 1;
            } else {
                state.op_seconds.push(report.wall_s);
                state.sim_seconds.push(report.sim_s);
            }
            if begin.elapsed().as_secs_f64() >= seconds && state.op_seconds.len() >= min_timed {
                return state;
            }
        }
    }

    fn attempted(&self) -> u64 {
        self.warmup_ops + self.op_seconds.len() as u64
    }

    fn op_ms(&self) -> Vec<f64> {
        self.op_seconds.iter().map(|s| s * 1e3).collect()
    }
}

fn min_timed(quick: bool) -> usize {
    if quick {
        2
    } else {
        2 * SEGMENTS
    }
}

/// `VmHWM` of this process in MB: the peak resident set so far, set-up
/// and all, since each workload is its own process.
fn peak_rss_mb() -> R<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The untraced run: every end-to-end metric, no span anywhere.
pub fn end_to_end(args: &Args) -> R<Outcome> {
    let mut setup_seconds: Vec<f64> = Vec::with_capacity(MAX_SETUPS);
    let mut workload = loop {
        let started = Instant::now();
        let workload = workloads::setup(&args.workload, args.seed, args.quick)?;
        setup_seconds.push(started.elapsed().as_secs_f64());
        let enough = setup_seconds.len() >= MIN_SETUPS
            && (setup_seconds.iter().sum::<f64>() >= SETUP_SECONDS || args.quick);
        if enough || setup_seconds.len() == MAX_SETUPS {
            break workload;
        }
        // Dropped before the next set-up starts, so the peak resident
        // set is one set-up's.
        drop(workload);
    };

    let mut ops = 0usize;
    let mut rss_at_fixed_count = None;
    let run = Loop::drive(args.seconds, min_timed(args.quick), || {
        let report = workload.op();
        ops += 1;
        if ops == RSS_OPS {
            rss_at_fixed_count = peak_rss_mb().ok();
        }
        report
    });
    // A `--quick` run ends before the fixed count; it takes the end.
    let peak_rss = match rss_at_fixed_count {
        Some(mb) => mb,
        None => peak_rss_mb()?,
    };
    let op_ms = run.op_ms();
    let metrics = vec![
        ("setup_s".to_string(), median(&setup_seconds)),
        (
            "ops_per_s".to_string(),
            segment_median_rate(&run.op_seconds, SEGMENTS),
        ),
        ("op_ms_p50".to_string(), median(&op_ms)),
        ("sim_op_s".to_string(), median(&run.sim_seconds)),
        (
            "stored_bytes_per_user_byte".to_string(),
            workload.stored_bytes_per_user_byte(),
        ),
        ("peak_rss_mb".to_string(), peak_rss),
    ];
    Ok(Outcome {
        attempted: run.attempted(),
        failed: run.failed,
        reasons: run.reasons,
        metrics,
        samples: op_ms.len(),
        notes: vec![
            format!(
                "op_ms_p90 {:.4} ms (not bounded: a neighbour's burst moves it more than a change does)",
                percentile(&op_ms, 90.0)
            ),
            format!("set-up ran {} times", setup_seconds.len()),
        ],
    })
}

/// The traced run: a quarter of the time untraced (the reference), a
/// quarter replayed with spans, then the per-layer probes.
pub fn per_layer(args: &Args, spec: &Spec) -> R<Outcome> {
    let mut workload = workloads::setup(&args.workload, args.seed, args.quick)?;
    let quarter = args.seconds / 4.0;
    let floor = min_timed(args.quick);

    let untraced = Loop::drive(quarter, floor, || workload.op());
    let mut tracer = Tracer::new();
    let replayed = Loop::drive(quarter, floor, || {
        tracer.next_op();
        workload.replay(&mut tracer)
    });

    let untraced_ms = untraced.op_ms();
    let untraced_p50 = median(&untraced_ms);
    let replayed_p50 = median(&replayed.op_ms());
    let ops = tracer.ops().max(1) as f64;
    let by_name = self_times(tracer.spans());
    let span_ms: f64 = by_name.values().map(|st| st.self_ns as f64 / 1e6).sum();
    let duplicated_ms = by_name
        .get(DUPLICATED_SPAN)
        .map_or(0.0, |st| st.self_ns as f64 / 1e6);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    values.insert(
        "bench.trace_overhead_pct".into(),
        (replayed_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    values.insert(
        "bench.replay_coverage_pct".into(),
        (span_ms - duplicated_ms) / ops / untraced_p50 * 100.0,
    );
    values.insert("bench.untraced_op_ms_p50".into(), untraced_p50);
    values.insert(
        "bench.untraced_op_ms_p90".into(),
        percentile(&untraced_ms, 90.0),
    );
    values.insert("bench.replayed_op_ms_p50".into(), replayed_p50);
    for name in SPAN_NAMES {
        let self_ms = by_name.get(name).map_or(0.0, |st| st.self_ns as f64 / 1e6);
        values.insert(format!("span.{name}.self_share"), self_ms / span_ms);
    }
    values.extend(probes::run(args.seed, args.quick)?);

    if let Some(path) = &args.spans_out {
        std::fs::write(path, tracer.render_lines())
            .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
    }

    // Exactly the declared per-layer metrics, in declared order.
    let metrics = spec
        .per_layer
        .iter()
        .map(|m| {
            values
                .get(&m.name)
                .map(|v| (m.name.clone(), *v))
                .ok_or_else(|| format!("per-layer metric '{}' was not measured", m.name))
        })
        .collect::<R<Vec<_>>>()?;
    Ok(Outcome {
        attempted: untraced.attempted() + replayed.attempted(),
        failed: untraced.failed + replayed.failed,
        samples: replayed.op_seconds.len(),
        reasons: [untraced.reasons, replayed.reasons].concat(),
        metrics,
        notes: Vec::new(),
    })
}

/// Every metric name the traced run can produce — what
/// `BENCHMARK.json`'s `per_layer` list is checked against.
#[cfg(test)]
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "bench.trace_overhead_pct",
        "bench.replay_coverage_pct",
        "bench.untraced_op_ms_p50",
        "bench.untraced_op_ms_p90",
        "bench.replayed_op_ms_p50",
    ]
    .iter()
    .map(|n| n.to_string())
    .collect();
    names.extend(SPAN_NAMES.iter().map(|n| format!("span.{n}.self_share")));
    names.extend(probes::NAMES.iter().map(|n| n.to_string()));
    names
}
