//! Zone maps and Bloom filters read off a located block
//! ([`BlockRows::values`], as [`BlockPrep`] builds them) equal the ones
//! built from a decoded `&[Value]`, for every column type and at the
//! edges of each: Float ±0.0, `Long` extremes, dates whose year has more
//! or fewer than four digits, empty and multi-byte strings, blocks with
//! no good rows, and partitions of one row.

use hail_index::{BlockPrep, BloomSynopsis, SidecarSpec, SortOrder, ZoneMapSynopsis};
use hail_pax::{BlockRows, PaxBlock, PaxBlockBuilder};
use hail_types::{DataType, Field, Row, Schema, StorageConfig, Value};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("l", DataType::Long),
        Field::new("f", DataType::Float),
        Field::new("d", DataType::Date),
        Field::new("s", DataType::VarChar),
        Field::new("t", DataType::VarChar),
    ])
    .unwrap()
}

/// Row `k` of a block: each column cycles through its edge values.
fn row(k: usize) -> Row {
    const INTS: [i32; 5] = [i32::MIN, -1, 0, 7, i32::MAX];
    const LONGS: [i64; 5] = [i64::MIN, i64::MIN + 1, 0, i64::MAX - 1, i64::MAX];
    const FLOATS: [f64; 6] = [0.0, -0.0, 1.5, -2.25, 1e300, -1e-300];
    // Years 0, 1, 1970, 9999 and 10000: the fixed-width text form and
    // the formatter's.
    const DATES: [i32; 5] = [-719_163, -719_162, 0, 2_932_896, 2_932_897];
    const WORDS: [&str; 6] = ["", "a", "żółw", "日本語", "😀 x", "elephant"];
    Row::new(vec![
        Value::Int(INTS[k % 5]),
        Value::Long(LONGS[k * 3 % 5]),
        Value::Float(FLOATS[k % 6]),
        Value::Date(DATES[k * 2 % 5]),
        Value::Str(WORDS[k % 6].into()),
        Value::Str(format!("{}{k}", WORDS[k * 5 % 6])),
    ])
}

fn block(rows: usize, bad: usize, partition_size: usize) -> PaxBlock {
    let mut storage = StorageConfig::test_scale(1 << 30);
    storage.index_partition_size = partition_size;
    let mut builder = PaxBlockBuilder::new(schema(), storage);
    for k in 0..rows.max(bad) {
        if k < rows {
            builder.push_row(row(k)).unwrap();
        }
        if k < bad {
            builder.push_line(&format!("bad record {k}")).unwrap();
        }
    }
    builder.finish().unwrap()
}

#[test]
fn located_synopses_equal_value_built_ones() {
    let all: Vec<usize> = (0..schema().len()).collect();
    let spec = SidecarSpec {
        zone_map_columns: all.clone(),
        bloom_columns: all.clone(),
    };
    for (rows, bad, partition_size) in [
        (0, 0, 1),
        (0, 3, 1),
        (0, 2, 64),
        (1, 0, 1),
        (30, 0, 1),
        (30, 2, 4),
        (97, 1, 64),
    ] {
        let block = block(rows, bad, partition_size);
        assert_eq!((block.row_count(), block.bad_count()), (rows, bad));
        let located = BlockRows::locate(&block).unwrap();
        let mut prep = BlockPrep::new(&block);
        let replicas: Vec<_> = std::iter::once(SortOrder::Unsorted)
            .chain(all.iter().map(|&column| SortOrder::Clustered { column }))
            .map(|order| prep.build(order, &spec).unwrap())
            .collect();
        for &column in &all {
            let decoded = block.decode_column(column).unwrap();
            let values: Vec<Value> = (0..decoded.len()).map(|i| decoded.value(i)).collect();
            let what =
                format!("{rows} rows, {bad} bad, partitions of {partition_size}, column {column}");
            let zone_map = ZoneMapSynopsis::build(column, &values, bad);
            let bloom = BloomSynopsis::build(column, &values, bad);
            let refs = || located.values(column).unwrap().map(Ok::<_, ()>);
            assert_eq!(located.values(column).unwrap().len(), rows, "{what}");
            assert_eq!(
                ZoneMapSynopsis::from_refs(column, refs(), bad),
                Ok(zone_map.clone()),
                "{what}"
            );
            assert_eq!(
                BloomSynopsis::from_refs(column, refs(), bad),
                Ok(bloom.clone()),
                "{what}"
            );
            assert!(values.iter().all(|v| bloom.might_contain(v)), "{what}");
            for replica in &replicas {
                assert_eq!(
                    replica.zone_map(column).unwrap().unwrap(),
                    zone_map,
                    "{what}"
                );
                assert_eq!(replica.bloom(column).unwrap().unwrap(), bloom, "{what}");
            }
        }
    }
}
