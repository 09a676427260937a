//! The paper's §6 evaluation in one run: Fig. 4–9, Tables 1–2 and the
//! three §3 ablations, each printed as a paper-vs-measured table and
//! checked against the paper's *shape* — who wins, roughly by how much.
//! Times are simulated seconds, so every number is deterministic. CI
//! runs it: `cargo bench -q -p hail-bench --bench paper_figures`.
//!
//! Each figure is one function returning its tables. The two query
//! beds are built once: Fig. 6, Fig. 8's no-failure runtimes and
//! Fig. 9(a) share the Bob bed; Table 1, Fig. 7 and Fig. 9(b) share the
//! Synthetic one. Fig. 8's node kills mutate their clusters, so they
//! upload their own from the Bob testbed.

use hail_bench::setup::SYN_BLOCKS_PER_NODE;
use hail_bench::{
    paper, run_query, run_query_with_failure, setup_hadoop, setup_hail, setup_hail_with_config,
    setup_hpp, syn_testbed, uv_testbed, ExperimentScale, SystemSetup, Testbed,
};
use hail_core::{upload_hail, upload_hail_naive, upload_seconds};
use hail_dfs::DfsCluster;
use hail_index::{ClusteredIndex, KeyBounds, ReplicaIndexConfig, UnclusteredIndex};
use hail_mr::{FailureScenario, JobReport};
use hail_sim::{HardwareProfile, Jitter};
use hail_types::{DataType, Value};
use hail_workloads::{bob_queries, canonical, synthetic_queries, QuerySpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// HAIL's UserVisits indexes, one per replica: Bob's filter columns
/// visitDate (@3), sourceIP (@1), adRevenue (@4).
const BOB_INDEXES: [usize; 3] = [2, 0, 3];

/// One paper-vs-measured table: `(series, paper, measured)` rows.
struct Table {
    head: String,
    rows: Vec<(String, Option<f64>, f64)>,
    notes: Vec<String>,
}

impl Table {
    fn new(id: &str, title: impl fmt::Display, unit: impl fmt::Display) -> Self {
        Table {
            head: format!("{id} — {title} [{unit}]"),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn row(&mut self, series: impl Into<String>, paper: Option<f64>, measured: f64) {
        self.rows.push((series.into(), paper, measured));
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    fn measured(&self, row: usize) -> f64 {
        self.rows[row].2
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.head)?;
        let w = self.rows.iter().map(|r| r.0.len()).fold(6, usize::max);
        writeln!(
            f,
            "{:<w$}  {:>12}  {:>12}  {:>8}",
            "series", "paper", "measured", "ratio"
        )?;
        for (series, paper, measured) in &self.rows {
            let (paper, ratio) = match paper {
                Some(p) => (format!("{p:.2}"), format!("{:.2}", measured / p)),
                None => ("—".to_string(), "—".to_string()),
            };
            writeln!(f, "{series:<w$}  {paper:>12}  {measured:>12.2}  {ratio:>8}")?;
        }
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// A query bed (§6.4.1): Hadoop unindexed, Hadoop++ clustered on @1 on
/// every replica, HAIL with one clustered index per replica — and every
/// workload query already run on each.
struct Bed {
    tb: Testbed,
    blocks: usize,
    queries: Vec<QuerySpec>,
    /// Per query: Hadoop, Hadoop++, HAIL, HAIL with HailSplitting (the
    /// baselines always split per block).
    runs: Vec<[JobReport; 4]>,
}

impl Bed {
    fn new(tb: Testbed, hail_indexes: &[usize], queries: Vec<QuerySpec>) -> Bed {
        let hadoop = setup_hadoop(&tb).expect("hadoop setup");
        let (hpp, _) = setup_hpp(&tb, Some(0)).expect("hadoop++ setup");
        let hail = setup_hail(&tb, hail_indexes).expect("hail setup");
        let runs = queries
            .iter()
            .map(|spec| {
                let q = spec.to_query(&tb.schema).expect(spec.id);
                let run = |setup: &SystemSetup, split| {
                    run_query(setup, &tb.spec, &q, split).expect(spec.id)
                };
                let runs = [
                    run(&hadoop, false),
                    run(&hpp, false),
                    run(&hail, false),
                    run(&hail, true),
                ];
                // Correctness: identical result sets across systems.
                let expected = canonical(&runs[0].output);
                for r in &runs[1..] {
                    assert_eq!(expected, canonical(&r.output), "{} diverges", spec.id);
                }
                runs.map(|r| r.report)
            })
            .collect();
        Bed {
            blocks: hadoop.dataset.block_count(),
            tb,
            queries,
            runs,
        }
    }
}

/// Fig. 4(a): UserVisits upload time by number of created indexes (0–3
/// for HAIL, 0–1 for Hadoop++). Paper shape: HAIL-0 ≈ Hadoop (+2 %);
/// HAIL-3 ≤ +14 %; Hadoop++ is 5.1×/7.3× slower than HAIL.
fn fig4a() -> Vec<Table> {
    let scale = ExperimentScale::upload(10, 6000);
    let tb = uv_testbed(scale, HardwareProfile::physical());
    let mut t = Table::new(
        "Fig. 4(a)",
        "Upload time, UserVisits, 10-node physical cluster",
        "simulated s",
    );
    let hadoop = setup_hadoop(&tb).expect("hadoop upload");
    t.row("Hadoop", Some(paper::fig4a::HADOOP), hadoop.upload_seconds);
    for n in 0..=3usize {
        let hail = setup_hail(&tb, &BOB_INDEXES[..n]).expect("hail upload");
        t.row(
            format!("HAIL {n} idx"),
            Some(paper::fig4a::HAIL[n]),
            hail.upload_seconds,
        );
    }
    for (n, key) in [(0usize, None), (1, Some(0usize))] {
        let (hpp, _) = setup_hpp(&tb, key).expect("hadoop++ upload");
        t.row(
            format!("Hadoop++ {n} idx"),
            Some(paper::fig4a::HADOOP_PP[n]),
            hpp.upload_seconds,
        );
    }
    t.note(format!(
        "materialized {} nodes x {} rows, {} blocks/node, scale factor {:.0}x",
        scale.nodes, scale.rows_per_node, scale.blocks_per_node, tb.spec.scale.0
    ));

    let (h, hail0, hail3, hpp1) = (t.measured(0), t.measured(1), t.measured(4), t.measured(6));
    assert!(
        hail0 / h < 1.25,
        "HAIL-0 should be close to Hadoop: {hail0:.0} vs {h:.0}"
    );
    assert!(
        hail3 / h < 1.45,
        "HAIL-3 overhead should stay modest: {hail3:.0} vs {h:.0}"
    );
    assert!(
        hpp1 / hail3 > 2.0,
        "Hadoop++ must be much slower than HAIL: {hpp1:.0} vs {hail3:.0}"
    );
    vec![t]
}

/// Fig. 4(b): Synthetic (19 INT attributes) upload time by number of
/// created indexes. Paper shape: binary PAX shrinks the data so much
/// that HAIL beats Hadoop by ≈1.6× even with three indexes; Hadoop++ is
/// 5.2×/8.2× slower than HAIL.
fn fig4b() -> Vec<Table> {
    let scale = ExperimentScale::upload(10, 8000).with_blocks_per_node(SYN_BLOCKS_PER_NODE);
    let tb = syn_testbed(scale, HardwareProfile::physical());
    let mut t = Table::new(
        "Fig. 4(b)",
        "Upload time, Synthetic, 10-node physical cluster",
        "simulated s",
    );
    let hadoop = setup_hadoop(&tb).expect("hadoop upload");
    t.row("Hadoop", Some(paper::fig4b::HADOOP), hadoop.upload_seconds);
    for n in 0..=3usize {
        let cols: Vec<usize> = (0..n).collect();
        let hail = setup_hail(&tb, &cols).expect("hail upload");
        t.row(
            format!("HAIL {n} idx"),
            Some(paper::fig4b::HAIL[n]),
            hail.upload_seconds,
        );
    }
    for (n, key) in [(0usize, None), (1, Some(0usize))] {
        let (hpp, _) = setup_hpp(&tb, key).expect("hadoop++ upload");
        t.row(
            format!("Hadoop++ {n} idx"),
            Some(paper::fig4b::HADOOP_PP[n]),
            hpp.upload_seconds,
        );
    }
    t.note(format!(
        "materialized {} nodes x {} rows, scale factor {:.0}x",
        scale.nodes, scale.rows_per_node, tb.spec.scale.0
    ));

    let (h, hail3, hpp0) = (t.measured(0), t.measured(4), t.measured(5));
    assert!(
        hail3 < h,
        "HAIL with 3 indexes must beat Hadoop on integer data: {hail3:.0} vs {h:.0}"
    );
    assert!(
        h / hail3 > 1.2,
        "binary shrink should give a clear win: {:.2}x",
        h / hail3
    );
    assert!(hpp0 > 2.0 * hail3, "Hadoop++ much slower: {hpp0:.0}");
    vec![t]
}

/// Fig. 4(c): Synthetic upload time by replication factor, HAIL creating
/// one clustered index per replica. Paper shape: HAIL stores six indexed
/// replicas in about the time Hadoop stores three unindexed ones, on only
/// slightly more disk (420 GB vs 390 GB).
fn fig4c() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 4(c)",
        "Upload time, Synthetic, varying replication factor",
        "simulated s",
    );
    let mut footprint = Table::new(
        "Fig. 4(c) footprint",
        "Disk space, scaled to the paper's 130 GB dataset",
        "logical GB",
    );
    let (mut hadoop_at_3, mut hail_at_6) = (f64::NAN, f64::NAN);
    for (i, &replicas) in paper::fig4c::REPLICAS.iter().enumerate() {
        let mut scale = ExperimentScale::upload(10, 6000).with_blocks_per_node(SYN_BLOCKS_PER_NODE);
        scale.replication = replicas;
        let tb = syn_testbed(scale, HardwareProfile::physical());
        let hadoop = setup_hadoop(&tb).expect("hadoop upload");
        t.row(
            format!("Hadoop r={replicas}"),
            Some(paper::fig4c::HADOOP[i]),
            hadoop.upload_seconds,
        );
        let cols: Vec<usize> = (0..replicas).collect();
        let hail = setup_hail(&tb, &cols).expect("hail upload");
        t.row(
            format!("HAIL r={replicas} ({replicas} idx)"),
            Some(paper::fig4c::HAIL[i]),
            hail.upload_seconds,
        );

        let to_gb = |bytes: u64| tb.spec.scale.bytes(bytes) / 1e9;
        if replicas == 3 {
            hadoop_at_3 = hadoop.upload_seconds;
            footprint.row(
                "Hadoop 3 replicas",
                Some(paper::fig4c::HADOOP_3REP_GB),
                to_gb(hadoop.cluster.stored_bytes()),
            );
        }
        if replicas == 6 {
            hail_at_6 = hail.upload_seconds;
            footprint.row(
                "HAIL 6 replicas (6 idx)",
                Some(paper::fig4c::HAIL_6REP_GB),
                to_gb(hail.cluster.stored_bytes()),
            );
        }
    }
    t.note("paper: HAIL@6 replicas ≈ Hadoop@3 replicas upload time");
    t.note(format!(
        "measured HAIL@6 / Hadoop@3 = {:.2} (paper: 0.96; our model uses one effective \
         disk per node, while the paper's nodes spread 6 replica writes over 6 disks)",
        hail_at_6 / hadoop_at_3
    ));
    assert!(
        hail_at_6 < 1.5 * hadoop_at_3,
        "HAIL with 6 indexed replicas ({hail_at_6:.0}s) should stay near Hadoop with 3 ({hadoop_at_3:.0}s)"
    );
    vec![t, footprint]
}

/// Table 2: scale-up upload times across node types, plus the System
/// Speedup (Hadoop ÷ HAIL). Paper shape: better CPUs help HAIL
/// (parsing/sorting) but barely help I/O-bound Hadoop, so the speedup
/// improves from m1.large to cc1.4xlarge — 0.54 → 0.87 on UserVisits,
/// 1.15 → 1.58 on Synthetic.
fn table2() -> Vec<Table> {
    let mut uv = Table::new("Table 2(a)", "Scale-up upload, UserVisits", "simulated s");
    let mut syn = Table::new("Table 2(b)", "Scale-up upload, Synthetic", "simulated s");
    let mut speedups = Table::new(
        "Table 2 speedup",
        "System Speedup (Hadoop / HAIL-3idx)",
        "x",
    );
    let (mut uv_speedups, mut syn_speedups) = (Vec::new(), Vec::new());
    let profiles = [
        HardwareProfile::ec2_large(),
        HardwareProfile::ec2_xlarge(),
        HardwareProfile::ec2_cc1_4xlarge(),
        HardwareProfile::physical(),
    ];
    for (i, profile) in profiles.into_iter().enumerate() {
        let name = profile.name.clone();

        let tb = uv_testbed(ExperimentScale::upload(10, 4000), profile.clone());
        let hadoop = setup_hadoop(&tb).expect("hadoop uv");
        let hail = setup_hail(&tb, &BOB_INDEXES).expect("hail uv");
        uv.row(
            format!("{name} Hadoop"),
            Some(paper::table2::UV_HADOOP[i]),
            hadoop.upload_seconds,
        );
        uv.row(
            format!("{name} HAIL"),
            Some(paper::table2::UV_HAIL[i]),
            hail.upload_seconds,
        );
        let uv_speedup = hadoop.upload_seconds / hail.upload_seconds;
        uv_speedups.push(uv_speedup);
        speedups.row(
            format!("{name} UserVisits"),
            Some(paper::table2::UV_HADOOP[i] / paper::table2::UV_HAIL[i]),
            uv_speedup,
        );

        let tb = syn_testbed(
            ExperimentScale::upload(10, 5000).with_blocks_per_node(SYN_BLOCKS_PER_NODE),
            profile,
        );
        let hadoop = setup_hadoop(&tb).expect("hadoop syn");
        let hail = setup_hail(&tb, &[0, 1, 2]).expect("hail syn");
        syn.row(
            format!("{name} Hadoop"),
            Some(paper::table2::SYN_HADOOP[i]),
            hadoop.upload_seconds,
        );
        syn.row(
            format!("{name} HAIL"),
            Some(paper::table2::SYN_HAIL[i]),
            hail.upload_seconds,
        );
        let syn_speedup = hadoop.upload_seconds / hail.upload_seconds;
        syn_speedups.push(syn_speedup);
        speedups.row(
            format!("{name} Synthetic"),
            Some(paper::table2::SYN_HADOOP[i] / paper::table2::SYN_HAIL[i]),
            syn_speedup,
        );
    }

    // The speedup must improve when scaling up CPU power (m1.large →
    // cc1.4xlarge) on both datasets.
    assert!(
        uv_speedups[2] > uv_speedups[0],
        "UV speedup should improve with better CPUs: {uv_speedups:?}"
    );
    assert!(
        syn_speedups[2] > syn_speedups[0],
        "Syn speedup should improve with better CPUs: {syn_speedups:?}"
    );
    // Synthetic favours HAIL more than UserVisits everywhere (binary
    // shrink), as in the paper.
    for (u, s) in uv_speedups.iter().zip(&syn_speedups) {
        assert!(
            s > u,
            "Synthetic speedup {s:.2} should exceed UserVisits {u:.2}"
        );
    }
    vec![uv, syn, speedups]
}

/// Fig. 5: scale-out upload times on 10/50/100 cc1.4xlarge nodes with
/// constant data per node, plus the runtime-variance note. Paper shape:
/// per-node upload times stay roughly flat, HAIL stays below Hadoop on
/// Synthetic at every size, and HAIL varies *less* than Hadoop.
fn fig5() -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 5",
        "Scale-out upload (cc1.4xlarge), constant data per node",
        "simulated s",
    );
    let mut variance = Table::new(
        "Fig. 5 variance",
        "Per-node runtime spread across the cluster",
        "relative spread",
    );
    for (i, &nodes) in paper::fig5::NODES.iter().enumerate() {
        let profile = HardwareProfile::ec2_cc1_4xlarge();

        let tb = syn_testbed(
            ExperimentScale::upload(nodes, 2500).with_blocks_per_node(SYN_BLOCKS_PER_NODE),
            profile.clone(),
        );
        let hadoop = setup_hadoop(&tb).expect("hadoop syn");
        let hail = setup_hail(&tb, &[0, 1, 2]).expect("hail syn");
        t.row(
            format!("Syn {nodes}n Hadoop"),
            Some(paper::fig5::SYN_HADOOP[i]),
            hadoop.upload_seconds,
        );
        t.row(
            format!("Syn {nodes}n HAIL"),
            Some(paper::fig5::SYN_HAIL[i]),
            hail.upload_seconds,
        );
        assert!(
            hail.upload_seconds < hadoop.upload_seconds,
            "HAIL must stay below Hadoop on Synthetic at {nodes} nodes"
        );

        let tb = uv_testbed(ExperimentScale::upload(nodes, 2000), profile.clone());
        let hadoop = setup_hadoop(&tb).expect("hadoop uv");
        let hail = setup_hail(&tb, &BOB_INDEXES).expect("hail uv");
        t.row(
            format!("UV {nodes}n Hadoop"),
            Some(paper::fig5::UV_HADOOP[i]),
            hadoop.upload_seconds,
        );
        t.row(
            format!("UV {nodes}n HAIL"),
            Some(paper::fig5::UV_HAIL[i]),
            hail.upload_seconds,
        );

        // Variance model (§6.3.4, [30]): Hadoop's makespan is set by the
        // slowest of N I/O-bound nodes (high EC2 I/O variance); HAIL's
        // CPU-heavy pipeline smooths it. Hadoop node times get full EC2
        // jitter, HAIL's half of it.
        let mut hadoop_jitter = Jitter::new(42 + nodes as u64, profile.variance);
        let mut hail_jitter = Jitter::new(42 + nodes as u64, profile.variance * 0.5);
        variance.row(
            format!("{nodes}n Hadoop"),
            None,
            hadoop_jitter.spread(hadoop.upload_seconds, nodes),
        );
        variance.row(
            format!("{nodes}n HAIL"),
            None,
            hail_jitter.spread(hail.upload_seconds, nodes),
        );
    }
    t.note("constant 2,500 Synthetic / 2,000 UserVisits rows per node");
    vec![t, variance]
}

/// Fig. 6: Bob's queries with HailSplitting **off** — (a) end-to-end
/// runtimes, (b) average record-reader times, (c) the framework
/// overhead `T_end-to-end − T_ideal`. Paper shape: HAIL's end-to-end
/// times are flat (~600 s) and below both baselines; its record readers
/// are up to 46× faster than Hadoop's; overhead dominates short tasks.
fn fig6(bob: &Bed) -> Vec<Table> {
    let mut e2e = Table::new(
        "Fig. 6(a)",
        "End-to-end job runtime, Bob queries",
        "simulated s",
    );
    let mut rr = Table::new(
        "Fig. 6(b)",
        "Average record-reader time, Bob queries",
        "simulated ms",
    );
    let mut overhead = Table::new(
        "Fig. 6(c)",
        "Framework overhead (T_end-to-end − T_ideal)",
        "simulated s",
    );
    let mut max_rr_speedup: f64 = 0.0;
    for (qi, (spec, [rh, rp, ra, _])) in bob.queries.iter().zip(&bob.runs).enumerate() {
        for (system, r, e2e_paper, rr_paper) in [
            ("Hadoop", rh, paper::fig6a::HADOOP, paper::fig6b::HADOOP),
            (
                "Hadoop++",
                rp,
                paper::fig6a::HADOOP_PP,
                paper::fig6b::HADOOP_PP,
            ),
            ("HAIL", ra, paper::fig6a::HAIL, paper::fig6b::HAIL),
        ] {
            let series = format!("{} {system}", spec.id);
            e2e.row(&series, Some(e2e_paper[qi]), r.end_to_end_seconds);
            rr.row(&series, Some(rr_paper[qi]), r.avg_reader_seconds() * 1e3);
            overhead.row(series, None, r.overhead_seconds());
        }
        max_rr_speedup = max_rr_speedup.max(rh.avg_reader_seconds() / ra.avg_reader_seconds());

        // HAIL end-to-end ≤ both baselines; overhead dominates HAIL's
        // end-to-end (the §6.4.1 observation motivating §6.5).
        assert!(ra.end_to_end_seconds <= rh.end_to_end_seconds * 1.02);
        assert!(ra.end_to_end_seconds <= rp.end_to_end_seconds * 1.02);
        assert!(
            ra.overhead_seconds() > 0.8 * ra.end_to_end_seconds,
            "{}: HAIL should be overhead-dominated",
            spec.id
        );
    }
    assert!(
        max_rr_speedup > 10.0,
        "HAIL record readers should be an order of magnitude faster (paper: up to 46x); got {max_rr_speedup:.1}x"
    );
    e2e.note(format!(
        "{} blocks, {} map slots, scale factor {:.0}x; HailSplitting disabled",
        bob.blocks,
        bob.tb.spec.total_map_slots(),
        bob.tb.spec.scale.0
    ));
    rr.note(format!(
        "max measured RR speedup vs Hadoop: {max_rr_speedup:.0}x (paper: 46x)"
    ));
    vec![e2e, rr, overhead]
}

/// Table 1 and Fig. 7: the Synthetic queries with HailSplitting **off**
/// — (a) end-to-end, (b) record-reader times across selectivity ×
/// projectivity, (c) overhead. All six filter @1, isolating the effect
/// of selectivity. Paper shape: end-to-end times are flat; reader times
/// fall with selectivity and projectivity.
fn fig7(syn: &Bed) -> Vec<Table> {
    let tb = &syn.tb;
    let mut table1 = Table::new("Table 1", "Synthetic queries", "selectivity");
    for spec in &syn.queries {
        let q = spec.to_query(&tb.schema).expect(spec.id);
        table1.row(
            format!(
                "{} ({} attrs projected)",
                spec.id,
                q.projected_columns(&tb.schema).len()
            ),
            Some(spec.paper_selectivity),
            spec.paper_selectivity,
        );
    }

    let mut e2e = Table::new(
        "Fig. 7(a)",
        "End-to-end job runtime, Synthetic",
        "simulated s",
    );
    let mut rr = Table::new(
        "Fig. 7(b)",
        "Average record-reader time, Synthetic",
        "simulated ms",
    );
    let mut overhead = Table::new("Fig. 7(c)", "Framework overhead, Synthetic", "simulated s");
    let mut hail_rr = Vec::new();
    for (qi, (spec, [rh, rp, ra, _])) in syn.queries.iter().zip(&syn.runs).enumerate() {
        for (system, r, e2e_paper, rr_paper) in [
            ("Hadoop", rh, paper::fig7a::HADOOP, paper::fig7b::HADOOP),
            (
                "Hadoop++",
                rp,
                paper::fig7a::HADOOP_PP,
                paper::fig7b::HADOOP_PP,
            ),
            ("HAIL", ra, paper::fig7a::HAIL, paper::fig7b::HAIL),
        ] {
            let series = format!("{} {system}", spec.id);
            e2e.row(&series, Some(e2e_paper[qi]), r.end_to_end_seconds);
            rr.row(&series, Some(rr_paper[qi]), r.avg_reader_seconds() * 1e3);
            overhead.row(series, None, r.overhead_seconds());
        }
        hail_rr.push(ra.avg_reader_seconds());
        // Index scans beat full scans at the reader level.
        assert!(
            ra.avg_reader_seconds() < rh.avg_reader_seconds(),
            "{}: HAIL RR must beat Hadoop RR",
            spec.id
        );
    }
    // Selectivity: Q2 (1 %) readers beat Q1 (10 %) at the same
    // projectivity; projectivity: c < b < a within Q1.
    assert!(hail_rr[3] < hail_rr[0], "Q2a < Q1a");
    assert!(
        hail_rr[2] < hail_rr[1] && hail_rr[1] < hail_rr[0],
        "c < b < a"
    );
    e2e.note("all queries filter the same attribute; HailSplitting disabled");
    vec![table1, e2e, rr, overhead]
}

/// Fig. 8: kill a node at 50 % job progress (expiry interval 30 s) and
/// measure the slowdown `(T_f − T_b) / T_b × 100` for Hadoop, HAIL
/// (three different indexes: a re-run may lose its index and scan) and
/// HAIL-1Idx (one index on all replicas: re-runs keep it). Paper shape:
/// Hadoop 10.3 %, HAIL 10.5 %, HAIL-1Idx 5.5 %.
fn fig8(bob: &Bed) -> Vec<Table> {
    let tb = &bob.tb;
    let q1 = bob.queries[0].to_query(&tb.schema).expect("Bob-Q1");
    let fail = |mut setup: SystemSetup| {
        run_query_with_failure(
            &mut setup,
            &tb.spec,
            &q1,
            false,
            FailureScenario::at_half(3),
        )
        .expect("failover run")
    };
    let rh = fail(setup_hadoop(tb).expect("hadoop setup"));
    let ra = fail(setup_hail(tb, &BOB_INDEXES).expect("hail setup"));
    // HAIL-1Idx: the visitDate index on every replica.
    let config = ReplicaIndexConfig::uniform(3, 2);
    let r1 = fail(setup_hail_with_config(tb, &config).expect("hail-1idx setup"));

    // The failure-free baselines are the shared bed's Bob-Q1 jobs.
    let [hadoop, _, hail, _] = &bob.runs[0];
    assert_eq!(rh.baseline.end_to_end_seconds, hadoop.end_to_end_seconds);
    assert_eq!(ra.baseline.end_to_end_seconds, hail.end_to_end_seconds);

    let mut t = Table::new(
        "Fig. 8",
        "Failover slowdown, Bob-Q1, node killed at 50%",
        "%",
    );
    t.row(
        "Hadoop",
        Some(paper::fig8::HADOOP_SLOWDOWN),
        rh.slowdown_percent(),
    );
    t.row(
        "HAIL",
        Some(paper::fig8::HAIL_SLOWDOWN),
        ra.slowdown_percent(),
    );
    t.row(
        "HAIL-1Idx",
        Some(paper::fig8::HAIL_1IDX_SLOWDOWN),
        r1.slowdown_percent(),
    );
    let mut runtimes = Table::new(
        "Fig. 8 runtimes",
        "Job runtime without failure",
        "simulated s",
    );
    runtimes.row(
        "Hadoop",
        Some(paper::fig8::HADOOP_RUNTIME),
        hadoop.end_to_end_seconds,
    );
    runtimes.row(
        "HAIL",
        Some(paper::fig8::HAIL_RUNTIME),
        hail.end_to_end_seconds,
    );
    runtimes.row("HAIL-1Idx", None, r1.baseline.end_to_end_seconds);

    assert!(rh.slowdown_percent() > 0.0, "Hadoop must slow down");
    assert!(ra.slowdown_percent() > 0.0, "HAIL must slow down");
    assert!(
        r1.slowdown_percent() <= ra.slowdown_percent() + 0.5,
        "HAIL-1Idx ({:.1}%) should not degrade more than HAIL ({:.1}%)",
        r1.slowdown_percent(),
        ra.slowdown_percent()
    );
    // Fallbacks happen only where the matching index died.
    let fallbacks = |r: &JobReport| {
        r.tasks
            .iter()
            .filter(|t| t.rerun && t.stats.fell_back_to_scan)
            .count()
    };
    let (hail_fallbacks, hail1_fallbacks) =
        (fallbacks(&ra.with_failure), fallbacks(&r1.with_failure));
    assert_eq!(
        hail1_fallbacks, 0,
        "HAIL-1Idx re-runs keep their index scans"
    );
    t.note(format!(
        "HAIL reruns falling back to scan: {hail_fallbacks}; HAIL-1Idx: {hail1_fallbacks}"
    ));
    t.note(format!(
        "reruns: Hadoop {}, HAIL {}, HAIL-1Idx {}",
        rh.rerun_count, ra.rerun_count, r1.rerun_count
    ));
    vec![t, runtimes]
}

/// Fig. 9: HailSplitting **on** for HAIL — (a) Bob, (b) Synthetic,
/// (c) whole-workload totals. Splits cover many blocks per index-holding
/// datanode, shrinking 3,200 map tasks to ≈20. Paper shape: HAIL up to
/// 68× faster than Hadoop on Bob's queries; whole workloads 39×/36×
/// (Bob) and 9×/8× (Synthetic) faster than Hadoop/Hadoop++.
fn fig9(bob: &Bed, syn: &Bed) -> Vec<Table> {
    let mut fig9a = Table::new(
        "Fig. 9(a)",
        "End-to-end runtime, Bob queries, HailSplitting on",
        "simulated s",
    );
    let mut bob_totals = [0.0f64; 3]; // Hadoop, H++, HAIL
    let mut max_speedup: f64 = 0.0;
    for (qi, (spec, [rh, rp, _, ra])) in bob.queries.iter().zip(&bob.runs).enumerate() {
        fig9a.row(
            format!("{} Hadoop", spec.id),
            Some(paper::fig6a::HADOOP[qi]),
            rh.end_to_end_seconds,
        );
        fig9a.row(
            format!("{} Hadoop++", spec.id),
            Some(paper::fig6a::HADOOP_PP[qi]),
            rp.end_to_end_seconds,
        );
        fig9a.row(
            format!("{} HAIL+split ({} tasks)", spec.id, ra.task_count()),
            Some(paper::fig9::BOB_HAIL[qi]),
            ra.end_to_end_seconds,
        );
        for (total, r) in bob_totals.iter_mut().zip([rh, rp, ra]) {
            *total += r.end_to_end_seconds;
        }
        max_speedup = max_speedup.max(rh.end_to_end_seconds / ra.end_to_end_seconds);
        assert!(
            ra.task_count() * 4 < rh.task_count(),
            "{}: HailSplitting must collapse the task count",
            spec.id
        );
    }
    fig9a.note(format!(
        "max end-to-end speedup vs Hadoop: {max_speedup:.0}x (paper: up to 68x)"
    ));
    assert!(
        max_speedup > 8.0,
        "HailSplitting should give an order-of-magnitude win, got {max_speedup:.1}x"
    );

    let mut fig9b = Table::new(
        "Fig. 9(b)",
        "End-to-end runtime, Synthetic queries, HailSplitting on",
        "simulated s",
    );
    let mut syn_totals = [0.0f64; 3];
    for (qi, (spec, [rh, rp, _, ra])) in syn.queries.iter().zip(&syn.runs).enumerate() {
        fig9b.row(
            format!("{} Hadoop", spec.id),
            Some(paper::fig7a::HADOOP[qi]),
            rh.end_to_end_seconds,
        );
        fig9b.row(
            format!("{} Hadoop++", spec.id),
            Some(paper::fig7a::HADOOP_PP[qi]),
            rp.end_to_end_seconds,
        );
        fig9b.row(
            format!("{} HAIL+split", spec.id),
            Some(paper::fig9::SYN_HAIL[qi]),
            ra.end_to_end_seconds,
        );
        for (total, r) in syn_totals.iter_mut().zip([rh, rp, ra]) {
            *total += r.end_to_end_seconds;
        }
        assert!(ra.end_to_end_seconds < rh.end_to_end_seconds);
    }

    let mut fig9c = Table::new("Fig. 9(c)", "Total workload runtime", "simulated s");
    for (workload, totals, paper_totals) in [
        ("Bob", bob_totals, paper::fig9::BOB_TOTALS),
        ("Synthetic", syn_totals, paper::fig9::SYN_TOTALS),
    ] {
        for (i, system) in ["Hadoop", "Hadoop++", "HAIL"].iter().enumerate() {
            fig9c.row(
                format!("{workload} workload {system}"),
                Some(paper_totals[i]),
                totals[i],
            );
        }
    }
    let bob_factor = bob_totals[0] / bob_totals[2];
    let syn_factor = syn_totals[0] / syn_totals[2];
    fig9c.note(format!(
        "Bob workload speedup vs Hadoop: {bob_factor:.0}x (paper: 39x); Synthetic: {syn_factor:.0}x (paper: 9x)"
    ));
    assert!(
        bob_factor > 5.0,
        "Bob workload speedup too small: {bob_factor:.1}"
    );
    assert!(
        syn_factor > 2.0,
        "Synthetic workload speedup too small: {syn_factor:.1}"
    );
    vec![fig9a, fig9b, fig9c]
}

/// Ablation (§3.1): the naive two-pass upload of the paper's first
/// prototype — store text like HDFS, then re-read and re-write every
/// replica to index it — vs the streaming pipeline. Paper: for 100 GB
/// of input the naive approach pays 600 GB of extra cluster I/O.
fn ablation_naive_upload() -> Vec<Table> {
    let tb = uv_testbed(
        ExperimentScale::upload(10, 5000),
        HardwareProfile::physical(),
    );
    let config = ReplicaIndexConfig::first_indexed(3, &BOB_INDEXES);
    let disk_io = |cluster: &DfsCluster| -> u64 {
        cluster
            .upload_ledgers()
            .iter()
            .map(|l| l.disk_read + l.disk_write)
            .sum()
    };

    let mut streaming = DfsCluster::new(tb.scale.nodes, tb.storage.clone());
    upload_hail(&mut streaming, &tb.schema, "uv", &tb.texts, &config).expect("streaming upload");
    let t_stream = upload_seconds(&streaming, &tb.spec);
    let mut naive = DfsCluster::new(tb.scale.nodes, tb.storage.clone());
    upload_hail_naive(&mut naive, &tb.schema, "uv", &tb.texts, &config).expect("naive upload");
    let t_naive = upload_seconds(&naive, &tb.spec);

    let mut t = Table::new(
        "Ablation: naive two-pass upload",
        "Streaming HAIL pipeline vs store-then-convert",
        "simulated s",
    );
    t.row("HAIL streaming", None, t_stream);
    t.row("HAIL naive two-pass", None, t_naive);
    let input_bytes: u64 = tb.texts.iter().map(|(_, t)| t.len() as u64).sum();
    let extra_io = disk_io(&naive).saturating_sub(disk_io(&streaming));
    t.note(format!(
        "extra cluster disk I/O: {:.1}x the input size (paper: 6x for replication 3 — one extra read + one extra write per replica)",
        extra_io as f64 / input_bytes as f64
    ));
    t.note(format!(
        "slowdown of the naive pipeline: {:.2}x",
        t_naive / t_stream
    ));
    assert!(t_naive > 1.5 * t_stream, "naive must be much slower");
    assert!(
        extra_io as f64 > 3.0 * input_bytes as f64,
        "naive pays several times the input in extra I/O"
    );
    vec![t]
}

/// Ablation (§3.5 "Why not a multi-level tree?"): a root read costs
/// `seek + size/transfer_rate`, a second level one more seek, so the
/// single level loses only once the root exceeds `transfer_rate × seek`
/// ≈ 500 KB — ≈5 GB blocks. Recomputed from the hardware profile and
/// checked against a real index.
fn ablation_index_levels() -> Vec<Table> {
    let hw = HardwareProfile::physical();
    let rate = hw.disk_read_mb_s * 1e6; // B/s
                                        // Root size for a block of 10 fixed-size attributes (the paper's
                                        // running example: 4 B values, 1,024-value partitions, one 4 B
                                        // entry per partition).
    let root_bytes = |block_bytes: f64| block_bytes / 10.0 / 4.0 / 1024.0 * 4.0;
    let mut t = Table::new(
        "Ablation: index levels",
        "Index access time, single-level vs two-level",
        "ms",
    );
    let mut crossover_gb = None;
    for gb_tenths in [1u64, 5, 10, 20, 50, 80, 120] {
        let block = gb_tenths as f64 * 0.1 * 1e9;
        let single = hw.seek_s + root_bytes(block) / rate;
        // Two-level: read a small root (fits a page), seek, read one
        // second-level node (also small).
        let two_level = 2.0 * hw.seek_s + 2.0 * 4096.0 / rate;
        t.row(
            format!("block {:.1} GB single-level", block / 1e9),
            None,
            single * 1e3,
        );
        t.row(
            format!("block {:.1} GB two-level", block / 1e9),
            None,
            two_level * 1e3,
        );
        if single > two_level && crossover_gb.is_none() {
            crossover_gb = Some(block / 1e9);
        }
    }

    // The paper's closed form: ~500 KB → ~5 GB blocks at 100 MB/s, 5 ms.
    let max_root = rate * hw.seek_s;
    let crossover_block = max_root * 1024.0 / 4.0 * 4.0 * 10.0;
    t.note(format!(
        "analytic max single-level root: {:.0} KB → crossover at {:.1} GB blocks (paper: ~500 KB / ~5 GB)",
        max_root / 1e3,
        crossover_block / 1e9
    ));
    let cross = crossover_gb.expect("a crossover must exist in the sweep");
    assert!(
        (2.0..10.0).contains(&cross),
        "crossover at {cross:.1} GB should be in single-digit GB (paper: ~5 GB)"
    );
    assert!(
        (200e3..1e6).contains(&max_root),
        "max root {max_root:.0} B should be ~500 KB"
    );

    // A real index over a 64 MB-equivalent block stays tiny (the
    // paper's "typically a few KB").
    let keys: Vec<Value> = (0..1_600_000).map(Value::Int).collect();
    let idx = ClusteredIndex::build(0, DataType::Int, 1024, &keys).unwrap();
    t.note(format!(
        "real index over 1.6M keys: {} bytes ({} partitions)",
        idx.byte_len(),
        idx.partition_count()
    ));
    assert!(idx.byte_len() < 16 * 1024);
    vec![t]
}

/// Ablation (§3.5 "Why Clustered Indexes?"): unclustered indexes are
/// dense (10–20 % space vs ~0.01 %) and, for all but very selective
/// queries, their random row accesses cost more than reading clustered
/// partitions sequentially. Both built over one block, selectivity swept.
fn ablation_unclustered() -> Vec<Table> {
    const ROWS: usize = 200_000;
    const ROW_BYTES: f64 = 40.0;
    let hw = HardwareProfile::physical();
    let rate = hw.disk_read_mb_s * 1e6;
    let mut rng = StdRng::seed_from_u64(99);
    // The unsorted key column (what the unclustered index indexes) and
    // its sorted version (what the clustered replica stores).
    let unsorted: Vec<Value> = (0..ROWS)
        .map(|_| Value::Int(rng.random_range(0..1_000_000)))
        .collect();
    let mut sorted = unsorted.clone();
    sorted.sort();
    let clustered = ClusteredIndex::build(0, DataType::Int, 1024, &sorted).unwrap();
    let unclustered = UnclusteredIndex::build(0, DataType::Int, &unsorted).unwrap();

    let block_bytes = ROWS as f64 * ROW_BYTES;
    let mut t = Table::new(
        "Ablation: unclustered index",
        "Access cost by selectivity (index read + data I/O)",
        "ms",
    );
    t.note(format!(
        "space: clustered {} B ({:.3}% of block) vs unclustered {} B ({:.1}% of block); paper: ~0.01% vs 10-20%",
        clustered.byte_len(),
        clustered.byte_len() as f64 / block_bytes * 100.0,
        unclustered.byte_len(),
        unclustered.byte_len() as f64 / block_bytes * 100.0
    ));
    let mut crossover_seen = false;
    let mut last_ratio = 0.0;
    for sel_ppm in [10u32, 100, 1_000, 10_000, 100_000, 300_000] {
        let sel = sel_ppm as f64 / 1e6;
        let hi = (1_000_000.0 * sel) as i32;
        let bounds = KeyBounds::between(Value::Int(0), Value::Int(hi.max(0)));

        // Clustered: one seek + contiguous partitions of whole rows.
        let (first, last) = clustered.lookup(&bounds).unwrap_or((0, 0));
        let rows_read = clustered.partition_rows(first, last).len() as f64;
        let clustered_ms = (hw.seek_s + rows_read * ROW_BYTES / rate) * 1e3
            + clustered.byte_len() as f64 / rate * 1e3;
        // Unclustered: read the dense index, then one seek per
        // non-adjacent matching rowid.
        let rowids = unclustered.lookup_rowids(&bounds);
        let seeks = UnclusteredIndex::seek_count(&rowids) as f64;
        let unclustered_ms = (unclustered.byte_len() as f64 / rate
            + seeks * hw.seek_s
            + rowids.len() as f64 * ROW_BYTES / rate)
            * 1e3;

        t.row(format!("sel {sel:.4} clustered"), None, clustered_ms);
        t.row(format!("sel {sel:.4} unclustered"), None, unclustered_ms);
        last_ratio = unclustered_ms / clustered_ms;
        crossover_seen |= unclustered_ms > clustered_ms;
    }
    assert!(
        crossover_seen,
        "unclustered must lose at low selectivities (random I/O)"
    );
    assert!(
        last_ratio > 5.0,
        "at selectivity 0.3 the unclustered index should lose badly ({last_ratio:.1}x)"
    );
    assert!(
        unclustered.byte_len() > 100 * clustered.byte_len(),
        "unclustered indexes are dense"
    );
    t.note("paper conclusion: clustered wins at all but extreme selectivities; HAIL uses clustered only");
    vec![t]
}

fn main() {
    let print = |tables: Vec<Table>| tables.iter().for_each(|t| println!("{t}"));
    print(fig4a());
    print(fig4b());
    print(fig4c());
    print(table2());
    print(fig5());
    let bob = Bed::new(
        uv_testbed(
            ExperimentScale::query(10, 20_000),
            HardwareProfile::physical(),
        ),
        &BOB_INDEXES,
        bob_queries(),
    );
    print(fig6(&bob));
    let syn = Bed::new(
        syn_testbed(
            ExperimentScale::query(10, 15_000).with_blocks_per_node(SYN_BLOCKS_PER_NODE),
            HardwareProfile::physical(),
        ),
        &[0, 1, 2],
        synthetic_queries(),
    );
    print(fig7(&syn));
    print(fig8(&bob));
    print(fig9(&bob, &syn));
    print(ablation_naive_upload());
    print(ablation_index_levels());
    print(ablation_unclustered());
}
