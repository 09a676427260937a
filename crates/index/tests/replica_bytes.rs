//! The on-disk bytes of a replica are a format, not an implementation
//! detail.
//!
//! - Golden digests: every digest below was taken with the
//!   per-row-`String` write path (`decode_all_columns` → `permute` →
//!   `encode_block`, synopses from `Vec<Value>`) before the byte-level
//!   gather replaced it. One fixed block × every kind of sort key ×
//!   every kind of sidecar; a moved byte in a replica or in its checksum
//!   file fails here first.
//! - Sidecars built from cursor-borrowed values equal the ones built from
//!   decoded `Vec<Value>`s, and a `BlockPrep` shared by a block's
//!   replicas builds what one `build_with` per replica builds.
//! - A damaged block builds or fails cleanly, never panics.

use hail_index::{IndexedBlock, SidecarSpec, SortOrder};
use hail_pax::{checksums_to_bytes, chunk_checksums, PaxBlock, PaxBlockBuilder};
use hail_types::{DataType, Field, Schema, StorageConfig};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("sourceIP", DataType::VarChar),
        Field::new("destURL", DataType::VarChar),
        Field::new("visitDate", DataType::Date),
        Field::new("adRevenue", DataType::Float),
        Field::new("countryCode", DataType::VarChar),
        Field::new("searchWord", DataType::VarChar),
        Field::new("duration", DataType::Int),
        Field::new("bytesSent", DataType::Long),
    ])
    .unwrap()
}

/// 403 lines: 397 rows (ties on every key column, empty and multi-byte
/// strings) and 6 bad records (short, long, unparseable, multi-byte).
fn fixed_block() -> PaxBlock {
    const COUNTRIES: [&str; 7] = ["USA", "DEU", "FRA", "BRA", "JPN", "IND", "ZAF"];
    const WORDS: [&str; 6] = ["", "elephant", "żółw", "日本語", "a b", "index"];
    let mut storage = StorageConfig::test_scale(1 << 30);
    storage.index_partition_size = 16;
    let mut builder = PaxBlockBuilder::new(schema(), storage);
    let mut x = 0x5EED_CAFEu64;
    for i in 0..403u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = x >> 33;
        let line = match i {
            40 => "too|few|fields".to_string(),
            41 => format!("1.2.3.4|u|2001-02-03|1.5|USA|w|7|9|extra{i}"),
            170 => "9.9.9.9|url|not-a-date|1.0|DEU|x|1|2".to_string(),
            171 => "żółw bez pól".to_string(),
            300 => "1.1.1.1|url|2000-01-01|NaN|FRA|x|1|2".to_string(),
            402 => "8.8.8.8|url|2000-01-01|2.5|FRA|x|one|2".to_string(),
            _ => format!(
                "{}.{}.{}.{}|http://example.org/{}|{:04}-{:02}-{:02}|{}|{}|{}|{}|{}",
                r % 223,
                (r >> 8) % 256,
                (r >> 16) % 7,
                i % 251,
                "p".repeat((r % 23) as usize),
                1995 + r % 17,
                1 + (r >> 5) % 12,
                1 + (r >> 9) % 28,
                ((r >> 3) % 4_000) as f64 / 8.0,
                COUNTRIES[(r % 7) as usize],
                WORDS[((r >> 4) % 6) as usize],
                (r >> 7) as i64 % 300 - 20,
                (r as i64) << 9,
            ),
        };
        builder.push_line(&line).unwrap();
    }
    let block = builder.finish().unwrap();
    assert_eq!((block.row_count(), block.bad_count()), (397, 6));
    block
}

const ORDERS: [(&str, SortOrder); 5] = [
    ("unsorted", SortOrder::Unsorted),
    ("date", SortOrder::Clustered { column: 2 }),
    ("float", SortOrder::Clustered { column: 3 }),
    ("int", SortOrder::Clustered { column: 6 }),
    ("varchar", SortOrder::Clustered { column: 0 }),
];

fn specs() -> [(&'static str, SidecarSpec); 2] {
    [
        ("none", SidecarSpec::default()),
        (
            "zone+bloom",
            SidecarSpec {
                zone_map_columns: vec![0, 2, 3],
                bloom_columns: vec![0, 2, 3, 6, 7],
            },
        ),
    ]
}

/// (replica bytes, checksum file) per order × spec, in that nesting.
const GOLDEN: [(u64, u64); 10] = [
    (0xA03F_1457_8CB9_9BF0, 0x565C_A251_B9C0_F307),
    (0x539D_EB6C_A31A_A375, 0xF53E_9342_7D3B_5E7C),
    (0x7D02_4007_B367_C348, 0xFFF4_8B72_7BE5_4D7D),
    (0x9C6E_D866_ED47_BB84, 0x1F5B_2CAD_711D_01EA),
    (0xBDC7_F3E9_1BB2_142E, 0xA29A_2E52_B8F9_0EA9),
    (0xC1DA_5014_282D_F0B8, 0xE820_2911_E1BD_472A),
    (0xC12C_7105_5F80_A606, 0x1DC6_5C3C_55C6_1B2A),
    (0x6072_4138_8BBA_F8C2, 0x30E6_C702_751C_2318),
    (0x7653_DA89_67B2_BE3D, 0x063B_0237_9514_EB64),
    (0x63F0_7303_CC08_02BF, 0x322F_8261_3BCF_D28E),
];

const GOLDEN_BUILDER: u64 = 0x9A9D_D107_0E4C_1F6A;

#[test]
fn builder_output_is_golden() {
    let block = fixed_block();
    assert_eq!(
        fnv(block.bytes()),
        GOLDEN_BUILDER,
        "PaxBlockBuilder::finish bytes moved: {:#018X}",
        fnv(block.bytes())
    );
}

#[test]
fn replica_bytes_and_checksum_files_are_golden() {
    let block = fixed_block();
    let mut actual = Vec::new();
    for (_, order) in ORDERS {
        for (_, spec) in specs() {
            let replica = IndexedBlock::build_with(&block, order, &spec).unwrap();
            let sums = checksums_to_bytes(&chunk_checksums(replica.bytes()));
            actual.push((fnv(replica.bytes()), fnv(&sums)));
        }
    }
    if actual != GOLDEN {
        let table: Vec<String> = actual
            .iter()
            .map(|(b, c)| format!("    ({b:#018X}, {c:#018X}),"))
            .collect();
        for (i, (a, g)) in actual.iter().zip(&GOLDEN).enumerate() {
            if a != g {
                eprintln!(
                    "moved: order {} × spec {}",
                    ORDERS[i / 2].0,
                    specs()[i % 2].0
                );
            }
        }
        panic!("replica bytes moved; actual table:\n{}", table.join("\n"));
    }
}

/// The structures built from values borrowed through a cursor are the
/// ones built from a decoded `Vec<Value>`, in every stored order.
#[test]
fn cursor_built_sidecars_equal_value_built_ones() {
    use hail_index::{BloomSynopsis, ZoneMapSynopsis};
    let block = fixed_block();
    for (name, order) in ORDERS {
        let stored = IndexedBlock::build(&block, order).unwrap();
        let pax = stored.pax();
        for column in 0..pax.schema().len() {
            let decoded = pax.decode_column(column).unwrap();
            let values: Vec<_> = (0..decoded.len()).map(|i| decoded.value(i)).collect();
            let refs = || {
                let mut cursor = pax.cursor(column).unwrap();
                (0..pax.row_count()).map(move |row| cursor.get(row))
            };
            let what = format!("{name} replica, column {column}");
            assert_eq!(
                ZoneMapSynopsis::from_refs(column, refs(), 6).unwrap(),
                ZoneMapSynopsis::build(column, &values, 6),
                "{what}"
            );
            let bloom = BloomSynopsis::from_refs(column, refs(), 6).unwrap();
            assert_eq!(bloom, BloomSynopsis::build(column, &values, 6), "{what}");
            assert!(values.iter().all(|v| bloom.might_contain(v)), "{what}");
        }
    }
}

/// One `BlockPrep` shared by the replicas of a block builds, byte for
/// byte, what one `build_with` per replica builds — and the synopses it
/// shares are the ones each replica's own stored order would give.
#[test]
fn shared_prep_builds_what_per_replica_builds_build() {
    use hail_index::{BlockPrep, BloomSynopsis, ZoneMapSynopsis};
    let block = fixed_block();
    let mut prep = BlockPrep::new(&block);
    for (name, order) in ORDERS {
        for (spec_name, spec) in specs() {
            let shared = prep.build(order, &spec).unwrap();
            let alone = IndexedBlock::build_with(&block, order, &spec).unwrap();
            assert_eq!(shared.bytes(), alone.bytes(), "{name} × {spec_name}");
            assert_eq!(shared.metadata(), alone.metadata(), "{name} × {spec_name}");

            let stored = |column: usize| -> Vec<_> {
                let decoded = shared.pax().decode_column(column).unwrap();
                (0..decoded.len()).map(|i| decoded.value(i)).collect()
            };
            for &column in &spec.zone_map_columns {
                assert_eq!(
                    shared.zone_map(column).unwrap().unwrap(),
                    ZoneMapSynopsis::build(column, &stored(column), 6),
                    "{name}: zone map on column {column}"
                );
            }
            for &column in &spec.bloom_columns {
                assert_eq!(
                    shared.bloom(column).unwrap().unwrap(),
                    BloomSynopsis::build(column, &stored(column), 6),
                    "{name}: Bloom filter on column {column}"
                );
            }
        }
    }
}

/// `build_with` takes `rewrite_replica`'s bytes from a "disk": whatever
/// one damaged byte does to a block that still parses, the build is
/// `Ok` or `Err`, never a panic — and damage the gather must notice is
/// `Corrupt`.
#[test]
fn damaged_blocks_build_or_fail_cleanly() {
    use bytes::Bytes;
    use hail_types::HailError;
    let mut storage = StorageConfig::test_scale(1 << 30);
    storage.index_partition_size = 4;
    let mut builder = PaxBlockBuilder::new(schema(), storage);
    for i in 0..23 {
        let line = format!(
            "10.0.0.{i}|u{}|2001-02-{:02}|{}.5|DEU|{}|{i}|{}",
            "é".repeat(i % 4),
            1 + i % 28,
            i % 7,
            ["", "żółw", "x"][i % 3],
            i * 1_000
        );
        builder.push_line(&line).unwrap();
    }
    builder.push_line("bad|line").unwrap();
    let good = builder.finish().unwrap();
    let spec = SidecarSpec {
        zone_map_columns: vec![0, 2],
        bloom_columns: vec![1, 6],
    };
    let build_all = |block: &PaxBlock| -> Vec<hail_types::Result<IndexedBlock>> {
        ORDERS
            .iter()
            .map(|(_, order)| IndexedBlock::build_with(block, *order, &spec))
            .collect()
    };
    assert!(build_all(&good).iter().all(Result::is_ok));

    for at in 0..good.byte_len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut raw = good.bytes().to_vec();
            raw[at] ^= mask;
            if let Ok(block) = PaxBlock::parse(Bytes::from(raw)) {
                build_all(&block);
            }
        }
    }

    // A terminator gone from a varchar column: one value fewer than rows.
    let damage = |needle: &[u8], with: u8| {
        let mut raw = good.bytes().to_vec();
        let at = raw.windows(needle.len()).position(|w| w == needle).unwrap();
        raw[at + needle.len() - 1] = with;
        PaxBlock::parse(Bytes::from(raw)).unwrap()
    };
    let unterminated = damage(b"10.0.0.22\0", b'!');
    // Invalid UTF-8 inside a value of the sourceIP column.
    let not_utf8 = damage(b"10.0.0.7", 0xFF);
    for block in [&unterminated, &not_utf8] {
        for (result, (name, order)) in build_all(block).iter().zip(ORDERS) {
            // The unsorted replica carries the bytes as they are, but its
            // zone map reads the damaged column.
            assert!(
                matches!(result, Err(HailError::Corrupt(_))),
                "{name}: {:?}",
                result.as_ref().map(|_| order)
            );
        }
    }
}
