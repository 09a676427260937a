//! A full map-reduce analytics job on top of HAIL: total ad revenue by
//! country for visits in 1999 — the OLAP-style workload the paper's
//! introduction says also benefits from aggressive indexing.
//!
//! The HAIL record reader does the filtering (index scan on visitDate)
//! and projection; the map function emits `(countryCode, adRevenue)`;
//! the reduce sums per country.
//!
//! ```sh
//! cargo run --release --example revenue_by_country
//! ```

use hail::prelude::*;

fn main() -> Result<()> {
    let schema = bob_schema();
    let texts = UserVisitsGenerator::default().generate(4, 5_000);
    let mut storage = StorageConfig::test_scale(8 * 1024);
    storage.index_partition_size = 16;
    let spec = ClusterSpec::new(4, HardwareProfile::physical())
        .with_scale(ScaleFactor::from_block_sizes(storage.block_size, 64 << 20));

    let mut cluster = DfsCluster::new(4, storage);
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "weblog",
        &texts,
        &ReplicaIndexConfig::first_indexed(3, &[2, 0, 3]),
    )?;

    // Filter on visitDate (index scan), project countryCode + adRevenue.
    let query = HailQuery::parse("@3 between(1999-01-01, 2000-01-01)", "{@6, @4}", &schema)?;
    let format = PlannedInputFormat::new(dataset.clone(), query.clone());

    let job = MapReduceJob {
        name: "revenue-by-country".into(),
        input: dataset.blocks.clone(),
        format: &format,
        map: Box::new(|rec, out| {
            if rec.bad {
                return;
            }
            // Reader already projected to (countryCode, adRevenue).
            let country = rec.row.get(0).unwrap().clone();
            out.push((country, rec.row.clone()));
        }),
        reduce: Box::new(|country, rows, out| {
            let total: f64 = rows
                .iter()
                .filter_map(|r| r.get(1).and_then(Value::as_f64))
                .sum();
            out.push(Row::new(vec![
                country.clone(),
                Value::Float((total * 100.0).round() / 100.0),
                Value::Long(rows.len() as i64),
            ]));
        }),
        reducers: 2,
        parallelism: None,
        job_parallelism: None,
    };

    let run = run_map_reduce_job(&cluster, &spec, &job)?;
    println!("ad revenue by country, visits in 1999:\n");
    println!("{:<8} {:>12} {:>8}", "country", "revenue", "visits");
    for row in &run.output {
        println!(
            "{:<8} {:>12} {:>8}",
            row.get(0).unwrap(),
            row.get(1).unwrap(),
            row.get(2).unwrap()
        );
    }
    println!(
        "\nmap {:.1}s + shuffle {:.1}s + reduce {:.1}s = {:.1} simulated s \
         ({} map tasks over {} blocks)",
        run.map_run.report.end_to_end_seconds,
        run.shuffle_seconds,
        run.reduce_seconds,
        run.end_to_end_seconds,
        run.map_run.report.task_count(),
        dataset.block_count(),
    );

    // Sanity: totals agree with a direct oracle pass.
    let oracle_rows = oracle_eval(&texts, &schema, &query);
    let oracle_total: f64 = oracle_rows
        .iter()
        .filter_map(|r| r.get(1).and_then(Value::as_f64))
        .sum();
    let job_total: f64 = run
        .output
        .iter()
        .filter_map(|r| r.get(1).and_then(Value::as_f64))
        .sum();
    assert!(
        (oracle_total - job_total).abs() < 0.5,
        "{oracle_total} vs {job_total}"
    );
    println!("grand total {job_total:.2} verified against the oracle ✓");
    Ok(())
}
