//! Quickstart: generate a small web log, upload it through HAIL with
//! three different per-replica clustered indexes, and run one annotated
//! filter query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hail::prelude::*;

fn main() -> Result<()> {
    // 1. A 4-node cluster. Blocks are tiny so the demo builds many of
    //    them; the cost model scales them to 64 MB logical blocks.
    let mut storage = StorageConfig::test_scale(8 * 1024);
    storage.index_partition_size = 16;
    let mut cluster = DfsCluster::new(4, storage.clone());
    // Map each 8 KB real block onto the paper's 64 MB logical block, so
    // reported times are paper-scale seconds.
    let spec = ClusterSpec::new(4, HardwareProfile::physical())
        .with_scale(ScaleFactor::from_block_sizes(storage.block_size, 64 << 20));

    // 2. Generate a UserVisits-style web log, one portion per node.
    let generator = UserVisitsGenerator::default();
    let texts = generator.generate(4, 2_000);
    let schema = bob_schema();
    println!(
        "generated {} rows ({} KB of text)",
        4 * 2_000,
        texts.iter().map(|(_, t)| t.len()).sum::<usize>() / 1024
    );

    // 3. Upload through the HAIL client. Replica 1 is clustered on
    //    visitDate (@3), replica 2 on sourceIP (@1), replica 3 on
    //    adRevenue (@4) — Bob's configuration from the paper.
    let index_config = ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]);
    let dataset = upload_hail(&mut cluster, &schema, "weblog", &texts, &index_config)?;
    println!(
        "uploaded {} blocks x 3 replicas; simulated upload time {:.0} s at paper scale",
        dataset.block_count(),
        upload_seconds(&cluster, &spec)
    );

    // 4. Every replica of every block recovers the same logical rows —
    //    HAIL does not change HDFS's failover story.
    verify_replica_equivalence(&cluster)?;
    println!("replica equivalence verified (failover property holds)");

    // 5. Bob's Q1, exactly as annotated in the paper:
    //    @HailQuery(filter="@3 between(1999-01-01,2000-01-01)", projection={@1})
    let query = HailQuery::parse("@3 between(1999-01-01, 2000-01-01)", "{@1}", &schema)?;
    let format = PlannedInputFormat::new(dataset.clone(), query.clone());
    let job = MapJob::collecting("Bob-Q1", dataset.blocks.clone(), &format);
    let run = run_map_job(&cluster, &spec, &job)?;

    println!(
        "Bob-Q1: {} qualifying sourceIPs in {} map tasks, {:.1} simulated s end-to-end",
        run.output.len(),
        run.report.task_count(),
        run.report.end_to_end_seconds
    );
    for row in run.output.iter().take(5) {
        println!("  {row}");
    }

    // 6. Cross-check against a direct evaluation over the original text.
    let expected = oracle_eval(&texts, &schema, &query);
    assert_eq!(canonical(&run.output), canonical(&expected));
    println!("result verified against the text-level oracle ✓");
    Ok(())
}
