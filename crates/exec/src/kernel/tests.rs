//! The kernel held to the naive per-row reference it replaced:
//! `PaxBlock::value` + `Predicate::matches_value` + `PaxBlock::reconstruct`,
//! row at a time, with the accounting the three PAX access paths did
//! around it. Rows, their order and the whole `TaskStats` must be equal.

use super::*;
use crate::path::{
    sole_filter_column, AccessPath, BitmapScan, BlockAccess, ClusteredIndexScan, FullScan,
    ScanLayout,
};
use bytes::Bytes;
use hail_core::{upload_hail, HailQuery};
use hail_dfs::DfsCluster;
use hail_index::{IndexedBlock, ReplicaIndexConfig, UnclusteredIndex};
use hail_mr::{MapRecord, SelectivityObservation, TaskStats};
use hail_pax::encode_block;
use hail_types::{AccessPathKind, DataType, Field, Schema, StorageConfig, Value};

const INT: usize = 0;
const LONG: usize = 1;
const FLOAT: usize = 2;
const DATE: usize = 3;
const STR: usize = 4;
/// Low-cardinality varchar: the bitmap column.
const TAG: usize = 5;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("l", DataType::Long),
        Field::new("f", DataType::Float),
        Field::new("d", DataType::Date),
        Field::new("s", DataType::VarChar),
        Field::new("tag", DataType::VarChar),
    ])
    .unwrap()
}

/// SplitMix64: a seeded generator without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const WORDS: [&str; 8] = [
    "",
    "a",
    "zebra",
    "żółw",
    "日本語",
    "x y",
    "ab",
    "naïve-café",
];
const TAGS: [&str; 4] = ["DE", "", "日本", "fr"];

/// Few distinct values per column, so every operator has matches, misses
/// and ties; empty and multi-byte strings included.
fn random_row(rng: &mut Rng) -> Vec<Value> {
    vec![
        Value::Int(rng.below(9) as i32 - 4),
        Value::Long((rng.below(7) as i64 - 3) * 5_000_000_000),
        Value::Float(rng.below(11) as f64 * 0.25 - 1.0),
        Value::Date(10_950 + rng.below(6) as i32),
        Value::Str(format!(
            "{}{}",
            WORDS[rng.below(WORDS.len())],
            WORDS[rng.below(WORDS.len())]
        )),
        Value::Str(TAGS[rng.below(TAGS.len())].to_string()),
    ]
}

fn line(row: &[Value]) -> String {
    let fields: Vec<String> = row.iter().map(Value::to_string).collect();
    fields.join("|")
}

/// `rows` good lines with a bad record after every 40th.
fn text(rng: &mut Rng, rows: usize) -> (String, Vec<Vec<Value>>) {
    let mut out = String::new();
    let mut good = Vec::new();
    for i in 0..rows {
        let row = random_row(rng);
        out.push_str(&line(&row));
        out.push('\n');
        good.push(row);
        if i % 40 == 39 {
            out.push_str("not|a|row\n");
        }
    }
    (out, good)
}

/// Every operator and `between` on every column against literals the data
/// holds, then conjunctions: the same column twice, `!=`, an `Int` column
/// against `Long` and varchar literals, three columns.
fn queries(rng: &mut Rng, rows: &[Vec<Value>]) -> Vec<HailQuery> {
    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let literal = |rng: &mut Rng, column: usize| rows[rng.below(rows.len())][column].clone();
    let cmp = |column, op, value| Predicate::Cmp { column, op, value };
    let between = |rng: &mut Rng, column| {
        let (a, b) = (literal(rng, column), literal(rng, column));
        Predicate::Between {
            column,
            lo: a.clone().min(b.clone()),
            hi: a.max(b),
        }
    };
    let mut conjunctions: Vec<Vec<Predicate>> = Vec::new();
    for column in 0..schema().len() {
        for op in OPS {
            conjunctions.push(vec![cmp(column, op, literal(rng, column))]);
        }
        conjunctions.push(vec![between(rng, column)]);
    }
    for op in OPS {
        conjunctions.push(vec![cmp(INT, op, Value::Long(rng.below(5) as i64 - 2))]);
        conjunctions.push(vec![cmp(INT, op, Value::Str("0".into()))]);
    }
    conjunctions.extend([
        vec![],
        vec![
            cmp(FLOAT, CmpOp::Ge, Value::Float(-0.5)),
            cmp(FLOAT, CmpOp::Le, Value::Float(1.0)),
        ],
        vec![
            cmp(STR, CmpOp::Gt, Value::Str("a".into())),
            cmp(STR, CmpOp::Ne, Value::Str("zebra".into())),
            cmp(STR, CmpOp::Lt, Value::Str("żółw日本語".into())),
        ],
        vec![
            cmp(TAG, CmpOp::Eq, Value::Str("日本".into())),
            between(rng, DATE),
        ],
        vec![
            cmp(TAG, CmpOp::Eq, Value::Str("".into())),
            cmp(INT, CmpOp::Ne, Value::Int(0)),
            cmp(LONG, CmpOp::Le, Value::Long(5_000_000_000)),
        ],
        vec![
            cmp(INT, CmpOp::Ge, Value::Long(-1)),
            cmp(TAG, CmpOp::Eq, Value::Str("DE".into())),
            cmp(TAG, CmpOp::Eq, Value::Str("DE".into())),
        ],
        vec![
            between(rng, LONG),
            cmp(DATE, CmpOp::Gt, Value::Date(10_951)),
        ],
        vec![
            cmp(TAG, CmpOp::Eq, Value::Str("no such tag".into())),
            cmp(STR, CmpOp::Eq, Value::Str("".into())),
        ],
    ]);
    const PROJECTIONS: [&[usize]; 4] = [&[], &[STR], &[TAG, INT, TAG], &[LONG, FLOAT, DATE]];
    conjunctions
        .into_iter()
        .enumerate()
        .map(|(i, predicates)| HailQuery {
            predicates,
            projection: PROJECTIONS[i % PROJECTIONS.len()].to_vec(),
        })
        .collect()
}

// ---- the reference: the per-row loops the kernel replaced ----

fn reference_match(query: &HailQuery, pax: &PaxBlock, row: usize) -> Result<bool> {
    for p in &query.predicates {
        if !p.matches_value(&pax.value(p.column(), row)?) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn reference_bad_records(
    pax: &PaxBlock,
    stats: &mut TaskStats,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<()> {
    for bad in pax.bad_records()? {
        emit(MapRecord::bad(bad));
        stats.records += 1;
    }
    Ok(())
}

fn charge_remote(a: &BlockAccess<'_>, stats: &mut TaskStats, bytes: u64) {
    if a.replica != a.task_node {
        stats.ledger.net_sent += bytes;
    }
}

fn reference_full_scan(a: &BlockAccess<'_>, emit: &mut dyn FnMut(MapRecord)) -> Result<TaskStats> {
    let dn = a.cluster.datanode(a.replica)?;
    let mut stats = TaskStats::default();
    let indexed = IndexedBlock::parse(dn.read_replica(a.block, &mut stats.ledger)?)?;
    let pax = indexed.pax();
    stats.ledger.scan_cpu += pax.byte_len() as u64;
    charge_remote(a, &mut stats, pax.byte_len() as u64);
    let mut matched = 0u64;
    let projection = a.query.projected_columns(a.schema);
    for row in 0..pax.row_count() {
        if reference_match(a.query, pax, row)? {
            matched += 1;
            emit(MapRecord::good(pax.reconstruct(row, &projection)?));
            stats.records += 1;
        }
    }
    if let Some((column, eq)) = sole_filter_column(a.query) {
        stats.selectivity.push(SelectivityObservation {
            column,
            eq,
            matched,
            total: pax.row_count() as u64,
        });
    }
    reference_bad_records(pax, &mut stats, emit)?;
    stats.paths.record(AccessPathKind::FullScan);
    Ok(stats)
}

fn reference_clustered(
    column: usize,
    a: &BlockAccess<'_>,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let dn = a.cluster.datanode(a.replica)?;
    let indexed = IndexedBlock::open(dn.open_replica(a.block)?)?;
    let index = indexed.index().expect("replica is clustered");
    let pax = indexed.pax();
    let mut stats = TaskStats {
        serial_pricing: true,
        ..Default::default()
    };
    dn.charge_range_read(indexed.metadata().index_bytes, &mut stats.ledger)?;
    let mut remote_bytes = indexed.metadata().index_bytes as u64;
    let bounds = a.query.bounds_on(column).expect("query bounds the key");
    let mut bounds_matched = 0u64;
    if let Some((first, last)) = index.lookup(&bounds) {
        let needed = a.query.needed_columns(a.schema);
        let scan_bytes = pax.partition_scan_bytes(&needed, first, last)?;
        for _ in &needed {
            dn.charge_range_read(0, &mut stats.ledger)?;
        }
        stats.ledger.disk_read += scan_bytes as u64;
        remote_bytes += scan_bytes as u64;
        stats.ledger.scan_cpu += scan_bytes as u64;
        let projection = a.query.projected_columns(a.schema);
        for row in index.partition_rows(first, last) {
            if !bounds.contains(&pax.value(column, row)?) {
                continue;
            }
            bounds_matched += 1;
            if !reference_match(a.query, pax, row)? {
                continue;
            }
            emit(MapRecord::good(pax.reconstruct(row, &projection)?));
            stats.records += 1;
        }
    }
    stats.selectivity.push(SelectivityObservation {
        column,
        eq: crate::feedback::has_eq_on(a.query, column),
        matched: bounds_matched,
        total: pax.row_count() as u64,
    });
    reference_bad_records(pax, &mut stats, emit)?;
    charge_remote(a, &mut stats, remote_bytes);
    stats.paths.record(AccessPathKind::ClusteredIndexScan);
    Ok(stats)
}

fn reference_bitmap(
    probe: &Value,
    a: &BlockAccess<'_>,
    emit: &mut dyn FnMut(MapRecord),
) -> Result<TaskStats> {
    let dn = a.cluster.datanode(a.replica)?;
    let indexed = IndexedBlock::open(dn.open_replica(a.block)?)?;
    let pax = indexed.pax();
    let (sidecar, bitmap) = indexed.bitmap_sidecar(TAG)?.expect("replica stores it");
    let mut stats = TaskStats {
        serial_pricing: true,
        ..Default::default()
    };
    dn.charge_range_read(sidecar.sidecar_bytes, &mut stats.ledger)?;
    stats.sidecar_bytes_read += sidecar.sidecar_bytes as u64;
    let mut remote_bytes = sidecar.sidecar_bytes as u64;
    let rows = bitmap.rows_equal(probe);
    stats.selectivity.push(SelectivityObservation {
        column: TAG,
        eq: true,
        matched: rows.len() as u64,
        total: pax.row_count() as u64,
    });
    stats.ledger.seeks += UnclusteredIndex::seek_count(&rows) as u64;
    let projection = a.query.projected_columns(a.schema);
    for row in rows {
        if !reference_match(a.query, pax, row)? {
            continue;
        }
        let out = pax.reconstruct(row, &projection)?;
        let row_bytes = out.encoded_len() as u64;
        stats.ledger.disk_read += row_bytes;
        stats.ledger.scan_cpu += row_bytes;
        remote_bytes += row_bytes;
        emit(MapRecord::good(out));
        stats.records += 1;
    }
    reference_bad_records(pax, &mut stats, emit)?;
    charge_remote(a, &mut stats, remote_bytes);
    stats.paths.record(AccessPathKind::BitmapScan);
    Ok(stats)
}

// ---- the comparison ----

type Read<'a> = &'a dyn Fn(&mut dyn FnMut(MapRecord)) -> Result<TaskStats>;

/// Rows, order and every `TaskStats` field (its `Debug` form prints them
/// all) of the engine's read against the reference's.
fn assert_same(what: &str, engine: Read<'_>, reference: Read<'_>) -> u64 {
    let run = |read: Read<'_>| {
        let mut records = Vec::new();
        let stats = read(&mut |r| records.push(r)).unwrap_or_else(|e| panic!("{what}: {e}"));
        (records, stats)
    };
    let (got, got_stats) = run(engine);
    let (want, want_stats) = run(reference);
    assert_eq!(got, want, "{what}: rows");
    assert_eq!(
        format!("{got_stats:?}"),
        format!("{want_stats:?}"),
        "{what}: stats"
    );
    got_stats.records
}

/// One upload of `text` with the given clustered columns (one replica
/// each) and the bitmap on `TAG`, compared block by block, replica by
/// replica, locally and remotely, for every query.
fn compare_upload(
    partition_size: usize,
    text: &str,
    clustered: [usize; 3],
    queries: &[HailQuery],
) -> u64 {
    let schema = schema();
    let config = StorageConfig {
        block_size: text.len() / 3 + 1,
        replication: 3,
        delimiter: '|',
        index_partition_size: partition_size,
    };
    let mut cluster = DfsCluster::new(4, config);
    let design = ReplicaIndexConfig::first_indexed(3, &clustered).with_bitmap(TAG);
    let dataset = upload_hail(
        &mut cluster,
        &schema,
        "t",
        &[(0, text.to_string())],
        &design,
    )
    .expect("upload succeeds");
    let mut emitted = 0;
    for &block in &dataset.blocks {
        let hosts = cluster.namenode().get_hosts(block).unwrap();
        for query in queries {
            for (i, &replica) in hosts.iter().enumerate() {
                // Alternate local and remote reads.
                let task_node = hosts[(i + i % 2) % hosts.len()];
                let a = BlockAccess {
                    cluster: &cluster,
                    block,
                    replica,
                    task_node,
                    schema: &schema,
                    query,
                };
                let what = format!(
                    "partition size {partition_size}, block {block}, replica {replica}, \
                     query {query:?}"
                );
                emitted += assert_same(
                    &format!("full scan, {what}"),
                    &|emit| FullScan::new(ScanLayout::HailPax).execute(&a, emit),
                    &|emit| reference_full_scan(&a, emit),
                );
                let namenode = cluster.namenode();
                let serves = |c| {
                    namenode
                        .get_hosts_with_index(block, c)
                        .unwrap()
                        .contains(&replica)
                };
                if let Some(column) = clustered
                    .into_iter()
                    .find(|&c| serves(c) && query.bounds_on(c).is_some())
                {
                    emitted += assert_same(
                        &format!("clustered @{}, {what}", column + 1),
                        &|emit| ClusteredIndexScan { column }.execute(&a, emit),
                        &|emit| reference_clustered(column, &a, emit),
                    );
                }
                let probe = query.predicates.iter().find_map(|p| match p {
                    Predicate::Cmp {
                        column: TAG,
                        op: CmpOp::Eq,
                        value,
                    } => Some(value),
                    _ => None,
                });
                if let Some(probe) = probe {
                    emitted += assert_same(
                        &format!("bitmap, {what}"),
                        &|emit| BitmapScan { column: TAG }.execute(&a, emit),
                        &|emit| reference_bitmap(probe, &a, emit),
                    );
                }
            }
        }
    }
    emitted
}

#[test]
fn kernel_equals_the_per_row_reference_on_every_path() {
    let mut rng = Rng(0x5EED_CAFE);
    for partition_size in [1, 4, 64] {
        // 150 rows in three blocks: no block is a multiple of 4 or 64.
        let (text, rows) = text(&mut rng, 150);
        let queries = queries(&mut rng, &rows);
        let mut emitted = 0;
        for clustered in [[INT, STR, FLOAT], [LONG, DATE, TAG]] {
            emitted += compare_upload(partition_size, &text, clustered, &queries);
        }
        assert!(emitted > 10_000, "the cases select rows: {emitted}");
    }
}

#[test]
fn kernel_equals_the_reference_on_a_block_without_rows() {
    // Only bad records: `row_count` is 0 on every replica.
    let text = "no|row\nhere\n";
    let queries = queries(&mut Rng(7), &[random_row(&mut Rng(7))]);
    let emitted = compare_upload(4, text, [INT, STR, TAG], &queries);
    assert!(emitted > 0, "bad records still ride along");
}

// ---- corrupt values ----

/// A three-partition block over (`Int`, `VarChar`) whose varchar value
/// data is damaged by `damage`; the header stays valid, so it parses.
fn damaged_block(damage: impl Fn(&mut [u8])) -> PaxBlock {
    use hail_pax::ColumnData;
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("s", DataType::VarChar),
    ])
    .unwrap();
    let columns = [
        ColumnData::Int((0..10).collect()),
        ColumnData::Str((0..10).map(|i| format!("v{i}")).collect()),
    ];
    let mut bytes = encode_block(&schema, &columns, &[], 4).unwrap().to_vec();
    let end = bytes.len();
    // The varchar column is the last region: 3 offsets, then ten 3-byte
    // values.
    damage(&mut bytes[end - 30..]);
    PaxBlock::parse(Bytes::from(bytes)).expect("only value bytes were damaged")
}

fn kernel_rows(pax: &PaxBlock, query: &HailQuery) -> Result<Vec<Row>> {
    let mut selection = candidates(0..pax.row_count())?;
    retain_conjunction(pax, &query.predicates, &mut selection)?;
    let mut rows = Vec::new();
    materialize(
        pax,
        &query.projected_columns(pax.schema()),
        &selection,
        |r| rows.push(r),
    )?;
    Ok(rows)
}

fn reference_rows(pax: &PaxBlock, query: &HailQuery) -> Result<Vec<Row>> {
    let projection = query.projected_columns(pax.schema());
    let mut rows = Vec::new();
    for row in 0..pax.row_count() {
        if reference_match(query, pax, row)? {
            rows.push(pax.reconstruct(row, &projection)?);
        }
    }
    Ok(rows)
}

/// A corrupt value fails the read wherever the per-row loop failed it —
/// never silently fewer rows — and a query that does not touch it is
/// answered as before.
#[test]
fn corrupt_values_are_errors_wherever_they_were() {
    let parse = |filter: &str, projection: &str, pax: &PaxBlock| {
        HailQuery::parse(filter, projection, pax.schema()).unwrap()
    };
    // Row 5's value "v5" becomes invalid UTF-8; the last value loses its
    // terminator.
    let invalid = damaged_block(|values| values[5 * 3 + 1] = 0xFF);
    let unterminated = damaged_block(|values| values[29] = b'!');
    for pax in [&invalid, &unterminated] {
        for (filter, projection) in [
            ("", ""),
            ("", "{@1}"),
            ("@1 >= 0", "{@2}"),
            ("@1 < 5", "{@2}"),
            ("@1 > 5", "{@2}"),
            ("@1 = 9", "{@2}"),
            ("@2 >= 'v0'", "{@1}"),
            ("@1 < 5 and @2 != 'v1'", "{@1}"),
            ("@1 > 5 and @2 != 'v7'", "{@1}"),
            ("@2 = 'v3'", ""),
        ] {
            let query = parse(filter, projection, pax);
            match (reference_rows(pax, &query), kernel_rows(pax, &query)) {
                (Ok(want), Ok(got)) => assert_eq!(got, want, "{filter} -> {projection}"),
                (Err(_), Err(HailError::Corrupt(_))) => {}
                (want, got) => panic!("{filter} -> {projection}: {want:?} but {got:?}"),
            }
        }
    }
    // The cases above include both outcomes.
    let q = parse("@1 < 5", "{@2}", &invalid);
    assert!(kernel_rows(&invalid, &q).is_ok());
    let q = parse("@2 >= 'v0'", "{@1}", &invalid);
    assert!(kernel_rows(&invalid, &q).is_err());
    let q = parse("@1 = 9", "{@2}", &unterminated);
    assert!(kernel_rows(&unterminated, &q).is_err());
}

// ---- the sorted key range ----

/// One value per `DataType` family, with duplicates, the float edge cases
/// and the empty string: the pool a sorted test column draws from.
fn key_pool(data_type: DataType) -> Vec<Value> {
    match data_type {
        DataType::Int => [i32::MIN, -3, -1, 0, 0, 2, 5, i32::MAX]
            .map(Value::Int)
            .to_vec(),
        DataType::Long => [i64::MIN, -5_000_000_000, -1, 0, 7, 5_000_000_000, i64::MAX]
            .map(Value::Long)
            .to_vec(),
        DataType::Float => [
            f64::NEG_INFINITY,
            -f64::NAN,
            -1.5,
            -0.0,
            0.0,
            0.25,
            f64::INFINITY,
            f64::NAN,
        ]
        .map(Value::Float)
        .to_vec(),
        DataType::Date => [-1, 0, 10_950, 10_951, 10_955].map(Value::Date).to_vec(),
        DataType::VarChar => ["", "", "a", "ab", "b", "żółw", "日本"]
            .map(|s| Value::Str(s.to_string()))
            .to_vec(),
    }
}

/// Literals of other types than the column: `Int` and `Long` compare by
/// number, every other pair by type tag, so each orders the column
/// monotonically or not at all.
fn cross_type_literals(data_type: DataType) -> Vec<Value> {
    let mut out = vec![Value::Str(String::new()), Value::Float(0.0), Value::Date(0)];
    out.extend(match data_type {
        DataType::Int => vec![
            Value::Long(-1),
            Value::Long(2),
            Value::Long(i64::MIN),
            Value::Long(i64::from(i32::MAX) + 1),
        ],
        DataType::Long => vec![Value::Int(0), Value::Int(-1), Value::Int(i32::MAX)],
        _ => vec![Value::Int(0), Value::Long(0)],
    });
    out.retain(|v| v.data_type() != data_type);
    out
}

/// A block of one column, `rows` values drawn from the pool and sorted
/// as the upload sorts them.
fn sorted_block(
    rng: &mut Rng,
    data_type: DataType,
    rows: usize,
    partition_size: usize,
) -> PaxBlock {
    use hail_pax::ColumnData;
    let pool = key_pool(data_type);
    let mut keys: Vec<Value> = (0..rows)
        .map(|_| pool[rng.below(pool.len())].clone())
        .collect();
    keys.sort_by(Value::total_cmp);
    let mut column = ColumnData::new(data_type);
    for key in &keys {
        match (&mut column, key) {
            (ColumnData::Int(c), Value::Int(v)) | (ColumnData::Date(c), Value::Date(v)) => {
                c.push(*v)
            }
            (ColumnData::Long(c), Value::Long(v)) => c.push(*v),
            (ColumnData::Float(c), Value::Float(v)) => c.push(*v),
            (ColumnData::Str(c), Value::Str(v)) => c.push(v.clone()),
            _ => unreachable!("the pool holds the column's type"),
        }
    }
    let schema = Schema::new(vec![Field::new("k", data_type)]).unwrap();
    let bytes = encode_block(&schema, &[column], &[], partition_size).unwrap();
    PaxBlock::parse(bytes).unwrap()
}

/// Every bound shape over `lo` and `hi`: unbounded, included, excluded.
fn bound_shapes(lo: &Value, hi: &Value) -> Vec<KeyBounds> {
    let shapes = |v: &Value| {
        [
            Bound::Unbounded,
            Bound::Included(v.clone()),
            Bound::Excluded(v.clone()),
        ]
    };
    let mut out = Vec::new();
    for lo in shapes(lo) {
        for hi in shapes(hi) {
            out.push(KeyBounds { lo: lo.clone(), hi });
        }
    }
    out
}

/// `sorted_range` over the partitions the clustered index looks up is
/// exactly the rows `retain_within` keeps there — and over the whole
/// block, exactly the rows it keeps anywhere — for every type, every
/// bound shape, empty ranges, and literals of other types.
#[test]
fn sorted_range_equals_retain_within_over_the_looked_up_partitions() {
    use hail_index::ClusteredIndex;
    let mut rng = Rng(0x5EED_0036);
    let (mut cases, mut nonempty, mut inverted) = (0, 0, 0);
    for data_type in [
        DataType::Int,
        DataType::Long,
        DataType::Float,
        DataType::Date,
        DataType::VarChar,
    ] {
        let mut literals = key_pool(data_type);
        literals.extend(cross_type_literals(data_type));
        for partition_size in [1, 3, 4, 16] {
            for rows in [0, 1, 7, 40] {
                let pax = sorted_block(&mut rng, data_type, rows, partition_size);
                let index = ClusteredIndex::over_sorted(&pax, 0).unwrap();
                for lo in &literals {
                    for hi in &literals {
                        for bounds in bound_shapes(lo, hi) {
                            let what = format!(
                                "{data_type:?}, {rows} rows in partitions of \
                                 {partition_size}, {bounds:?}"
                            );
                            let within = |range: Range<usize>| {
                                let mut selection = candidates(range).unwrap();
                                retain_within(&pax, 0, &bounds, &mut selection).unwrap();
                                selection
                            };
                            let searched = |range: Range<usize>| {
                                let found = sorted_range(&pax, 0, &bounds, range).unwrap();
                                candidates(found).unwrap()
                            };
                            let everywhere = within(0..pax.row_count());
                            assert_eq!(searched(0..pax.row_count()), everywhere, "{what}");
                            match index.lookup(&bounds) {
                                Some((first, last)) => {
                                    let rows = index.partition_rows(first, last);
                                    assert_eq!(searched(rows.clone()), within(rows), "{what}");
                                }
                                None => assert!(everywhere.is_empty(), "{what}"),
                            }
                            cases += 1;
                            nonempty += usize::from(!everywhere.is_empty());
                            let lo_above_hi = matches!(
                                (&bounds.lo, &bounds.hi),
                                (Bound::Included(l), Bound::Included(h)) if l > h
                            );
                            inverted += usize::from(lo_above_hi);
                        }
                    }
                }
            }
        }
    }
    assert!(cases > 50_000 && nonempty > cases / 4 && inverted > 1_000);
}

// ---- the row batch ----

/// The rows one `materialize` call returns share one allocation, laid
/// out row after row; a zero-width projection yields one empty row per
/// selected row; a decode error hands out no row at all.
#[test]
fn materialized_rows_share_one_batch() {
    let pax = damaged_block(|_| {});
    let mut rows = Vec::new();
    materialize(&pax, &[1, 0], &[0, 2, 5, 9], |r| rows.push(r)).unwrap();
    assert_eq!(rows.len(), 4);
    assert_eq!(
        rows[2],
        Row::new(vec![Value::Str("v5".into()), Value::Int(5)])
    );
    let base = rows[0].values().as_ptr();
    for (i, row) in rows.iter().enumerate() {
        assert!(std::ptr::eq(
            row.values().as_ptr(),
            base.wrapping_add(2 * i)
        ));
    }

    let mut empty = Vec::new();
    materialize(&pax, &[], &[1, 3, 4], |r| empty.push(r)).unwrap();
    assert_eq!(empty, vec![Row::new(Vec::new()); 3]);

    let invalid = damaged_block(|values| values[5 * 3 + 1] = 0xFF);
    let mut sunk = 0;
    let read = materialize(&invalid, &[0, 1], &[0, 2, 5, 9], |_| sunk += 1);
    assert!(matches!(read, Err(HailError::Corrupt(_))));
    assert_eq!(
        sunk, 0,
        "rows decoded before the failure are not handed out"
    );
}
