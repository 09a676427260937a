//! Bob's exploratory session from the paper's introduction: a sequence
//! of ad-hoc filters over a web log, run on standard Hadoop and on HAIL.
//!
//! Bob first looks for all sourceIPs with a 1999 visitDate, spots a
//! strange address, drills into all of its requests, then pivots to an
//! adRevenue range — three different filter columns, which is exactly
//! the workload per-replica divergent indexing is built for.
//!
//! ```sh
//! cargo run --release --example weblog_exploration
//! ```

use hail::prelude::*;

fn run_on(
    name: &str,
    cluster: &DfsCluster,
    spec: &ClusterSpec,
    dataset: &Dataset,
    query: &HailQuery,
) -> Result<(usize, f64)> {
    // One format type for both systems: it reads which one it serves
    // off `dataset.format`.
    let format = PlannedInputFormat::new(dataset.clone(), query.clone());
    let job = MapJob::collecting(name, dataset.blocks.clone(), &format);
    let run = run_map_job(cluster, spec, &job)?;
    Ok((run.output.len(), run.report.end_to_end_seconds))
}

fn main() -> Result<()> {
    let schema = bob_schema();
    let generator = UserVisitsGenerator::default();
    let texts = generator.generate(4, 4_000);
    let mut storage = StorageConfig::test_scale(4 * 1024);
    storage.index_partition_size = 8;
    let spec = ClusterSpec::new(4, HardwareProfile::physical())
        .with_scale(ScaleFactor::from_block_sizes(storage.block_size, 64 << 20));

    // Hadoop keeps the log as text; HAIL indexes visitDate, sourceIP and
    // adRevenue — one per replica.
    let mut hadoop_cluster = DfsCluster::new(4, storage.clone());
    let hadoop = upload_hadoop(&mut hadoop_cluster, &schema, "weblog", &texts)?;
    let mut hail_cluster = DfsCluster::new(4, storage);
    let hail = upload_hail(
        &mut hail_cluster,
        &schema,
        "weblog",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]),
    )?;

    // Bob's session: each step filters on a different attribute.
    let steps = [
        (
            "all sourceIPs with a 1999 visit",
            "@3 between(1999-01-01, 2000-01-01)",
            "{@1}",
        ),
        (
            "every request from the strange address",
            "@1 = '172.101.11.46'",
            "{@2, @3, @8}",
        ),
        (
            "low-revenue requests",
            "@4 >= 1 and @4 <= 10",
            "{@8, @9, @4}",
        ),
    ];

    println!(
        "Bob's exploratory session ({} rows of web log):\n",
        4 * 4_000
    );
    let mut hadoop_total = 0.0;
    let mut hail_total = 0.0;
    for (i, (what, filter, projection)) in steps.iter().enumerate() {
        let query = HailQuery::parse(filter, projection, &schema)?;
        let (n_hadoop, t_hadoop) = run_on("hadoop", &hadoop_cluster, &spec, &hadoop, &query)?;
        let (n_hail, t_hail) = run_on("hail", &hail_cluster, &spec, &hail, &query)?;
        assert_eq!(n_hadoop, n_hail, "systems disagree on step {i}");
        hadoop_total += t_hadoop;
        hail_total += t_hail;
        println!("step {}: {what}", i + 1);
        println!("  filter: {filter}");
        println!(
            "  {n_hail} results — Hadoop {t_hadoop:>7.1}s | HAIL {t_hail:>6.1}s ({:.0}x)",
            t_hadoop / t_hail
        );
    }
    println!(
        "\nsession total: Hadoop {hadoop_total:.0}s vs HAIL {hail_total:.0}s — {:.0}x less coffee",
        hadoop_total / hail_total
    );
    Ok(())
}
