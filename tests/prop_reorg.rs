//! Randomized property tests pinning the reorganization path the
//! adaptive re-indexing loop leans on: `pax::reorg::sort_block` (the
//! in-place rewrite's workhorse) and the `IndexedBlock` serialization
//! it re-runs.
//!
//! Properties:
//!
//! - `sort_block` preserves the row multiset exactly (data moves,
//!   never changes) and carries bad records over verbatim;
//! - `is_sorted_on` holds on every output of `sort_block` and rejects
//!   any block with an injected inversion;
//! - `sort_permutation` is stable: ties keep upload order, so
//!   re-sorting an already-sorted block is the identity permutation;
//! - `IndexedBlock` build → bytes → parse is lossless for random
//!   blocks, sort orders, and sidecar specs — metadata, sort order,
//!   payload rows, and byte length all round-trip.
//!
//! Driven by the workspace's deterministic `rand` stub (no vendored
//! proptest), same as `prop_storage`.

use hail::pax::{blocks_from_text, is_sorted_on, sort_block, PaxBlock};
use hail::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("key", DataType::Int),
        Field::new("tag", DataType::VarChar),
        Field::new("weight", DataType::Float),
    ])
    .unwrap()
}

/// Random (key, tag, weight) rows; keys drawn from a small domain so
/// duplicates (sort ties) are common, tags from a tiny alphabet.
fn random_rows(rng: &mut StdRng) -> Vec<(i32, String, f64)> {
    let n = rng.random_range(2..160usize);
    (0..n)
        .map(|_| {
            let tag = format!("t{}", rng.random_range(0..9u8));
            (
                rng.random_range(-40..40i32),
                tag,
                rng.random_range(0.0..1e4),
            )
        })
        .collect()
}

fn to_text(rows: &[(i32, String, f64)]) -> String {
    rows.iter()
        .map(|(k, t, w)| format!("{k}|{t}|{w}\n"))
        .collect()
}

/// One random single-block PAX encoding of `rows`.
fn block_of(rows: &[(i32, String, f64)], rng: &mut StdRng) -> PaxBlock {
    let mut storage = StorageConfig::test_scale(1 << 30);
    storage.index_partition_size = rng.random_range(1..48usize);
    let blocks = blocks_from_text(&to_text(rows), &schema(), &storage).unwrap();
    assert_eq!(blocks.len(), 1);
    blocks.into_iter().next().unwrap()
}

/// The block's rows as reconstructed strings (multiset fingerprint
/// when sorted).
fn row_strings(block: &PaxBlock) -> Vec<String> {
    (0..block.row_count())
        .map(|i| block.reconstruct_full(i).unwrap().to_string())
        .collect()
}

/// `sort_block` on any column keeps the row multiset and the
/// bad-record section bit-for-bit; `is_sorted_on` holds afterwards on
/// the sort column.
#[test]
fn sort_block_preserves_multiset_and_is_sorted() {
    let mut rng = StdRng::seed_from_u64(0xAD_0B1);
    for case in 0..64 {
        let rows = random_rows(&mut rng);
        let block = block_of(&rows, &mut rng);
        let col = rng.random_range(0..3usize);
        let (sorted, perm) = sort_block(&block, col).unwrap();

        assert!(
            is_sorted_on(&sorted, col).unwrap(),
            "case {case}: sorted on column {col}"
        );
        assert_eq!(sorted.row_count(), block.row_count(), "case {case}");
        assert_eq!(perm.len(), block.row_count(), "case {case}");

        let mut before = row_strings(&block);
        let mut after = row_strings(&sorted);
        before.sort();
        after.sort();
        assert_eq!(before, after, "case {case}: row multiset unchanged");

        assert_eq!(
            sorted.bad_records().unwrap(),
            block.bad_records().unwrap(),
            "case {case}: bad records carried over verbatim"
        );
    }
}

/// The sort is stable: `perm` applied to an already-sorted block is
/// the identity, and equal keys keep their relative upload order —
/// the property that makes adaptive rewrites deterministic across
/// re-uploads.
#[test]
fn sort_is_stable_and_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x0057_AB1E);
    for case in 0..48 {
        let rows = random_rows(&mut rng);
        let block = block_of(&rows, &mut rng);
        let col = rng.random_range(0..3usize);

        let (sorted_once, perm) = sort_block(&block, col).unwrap();
        // Stability: among equal keys, permutation indices ascend.
        let keys: Vec<Value> = (0..block.row_count())
            .map(|i| block.value(col, i).unwrap())
            .collect();
        for w in perm.windows(2) {
            let (a, b) = (w[0], w[1]);
            if keys[a] == keys[b] {
                assert!(a < b, "case {case}: ties keep upload order");
            }
        }

        // Idempotence: re-sorting the sorted block is the identity.
        let (sorted_twice, perm2) = sort_block(&sorted_once, col).unwrap();
        assert_eq!(
            perm2,
            (0..block.row_count()).collect::<Vec<usize>>(),
            "case {case}: re-sort of a sorted block is the identity"
        );
        assert_eq!(
            row_strings(&sorted_twice),
            row_strings(&sorted_once),
            "case {case}"
        );
    }
}

/// `is_sorted_on` agrees with a direct value-by-value check on raw
/// (usually unsorted) random blocks — it must flag exactly the real
/// inversions, through the decode path rather than the reconstruct
/// path.
#[test]
fn is_sorted_on_detects_inversions() {
    let mut rng = StdRng::seed_from_u64(0x001B_AD50);
    let mut saw_unsorted = false;
    for case in 0..48 {
        let rows = random_rows(&mut rng);
        let block = block_of(&rows, &mut rng);
        let col = rng.random_range(0..3usize);
        let ascends = (1..block.row_count())
            .all(|i| block.value(col, i - 1).unwrap() <= block.value(col, i).unwrap());
        assert_eq!(
            is_sorted_on(&block, col).unwrap(),
            ascends,
            "case {case}: verifier flags exactly the real inversions"
        );
        saw_unsorted |= !ascends;
    }
    assert!(saw_unsorted, "the negative case was actually exercised");
}

/// `IndexedBlock` build → serialize → parse is lossless for random
/// payloads, sort orders, and sidecar specs — exactly the path
/// `rewrite_replica` trusts when it re-encodes a replica in place.
#[test]
fn indexed_block_round_trip_lossless() {
    let mut rng = StdRng::seed_from_u64(0xCAFE_D1CE);
    for case in 0..48 {
        let rows = random_rows(&mut rng);
        let block = block_of(&rows, &mut rng);
        let order = match rng.random_range(0..4u8) {
            0 => SortOrder::Unsorted,
            n => SortOrder::Clustered {
                column: (n as usize - 1) % 3,
            },
        };
        let spec = SidecarSpec {
            zone_map_columns: if rng.random_range(0..2u8) == 0 {
                vec![0]
            } else {
                vec![]
            },
            bloom_columns: if rng.random_range(0..2u8) == 0 {
                vec![1]
            } else {
                vec![]
            },
        };

        let built = IndexedBlock::build_with(&block, order, &spec).unwrap();
        let parsed = IndexedBlock::parse(built.bytes().clone()).unwrap();

        assert_eq!(parsed.sort_order(), order, "case {case}: sort order");
        assert_eq!(
            parsed.metadata(),
            built.metadata(),
            "case {case}: metadata round-trips"
        );
        assert_eq!(parsed.byte_len(), built.byte_len(), "case {case}");

        // Payload rows survive — sorted when clustered, verbatim
        // otherwise — and the multiset is always the input's.
        if let SortOrder::Clustered { column } = order {
            assert!(
                is_sorted_on(parsed.pax(), column).unwrap(),
                "case {case}: clustered payload is sorted"
            );
        }
        let mut input = row_strings(&block);
        let mut output = row_strings(parsed.pax());
        input.sort();
        output.sort();
        assert_eq!(input, output, "case {case}: payload multiset");

        // Requested synopses materialized, and only those.
        assert_eq!(
            parsed.metadata().zone_map_on(0).is_some(),
            !spec.zone_map_columns.is_empty(),
            "case {case}: zone-map sidecar presence"
        );
        assert_eq!(
            parsed.metadata().bloom_on(1).is_some(),
            !spec.bloom_columns.is_empty(),
            "case {case}: Bloom sidecar presence"
        );
        assert_eq!(
            parsed.metadata().sidecars.len(),
            spec.zone_map_columns.len() + spec.bloom_columns.len(),
            "case {case}: sidecar count"
        );
    }
}
