//! ARCHITECTURE.md ("Concurrency invariants & enforcement") embeds two
//! tables the code also defines: the lock hierarchy and the knob
//! registry. This test fails when either drifts from the code.

use hail::sync::LockRank;

const ARCHITECTURE: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/ARCHITECTURE.md"));

/// The lines between `<!-- {marker}:begin -->` and `<!-- {marker}:end -->`.
fn section(marker: &str) -> &'static str {
    let begin = format!("<!-- {marker}:begin -->\n");
    let end = format!("<!-- {marker}:end -->");
    let start = ARCHITECTURE
        .find(&begin)
        .unwrap_or_else(|| panic!("ARCHITECTURE.md lacks {begin:?}"))
        + begin.len();
    let len = ARCHITECTURE[start..]
        .find(&end)
        .unwrap_or_else(|| panic!("ARCHITECTURE.md lacks {end:?}"));
    &ARCHITECTURE[start..start + len]
}

#[test]
fn architecture_tables_match_the_code() {
    // Rank table: the (rank, variant) cells of every row below the
    // header, in order, against `LockRank::ALL` (highest rank first).
    let documented: Vec<(String, String)> = section("lock-rank-table")
        .lines()
        .skip(2)
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            (cells[1].to_string(), cells[2].to_string())
        })
        .collect();
    let declared: Vec<(String, String)> = LockRank::ALL
        .iter()
        .map(|&rank| (format!("`{}`", rank as u8), format!("`{rank:?}`")))
        .collect();
    assert_eq!(documented, declared, "lock-rank-table vs LockRank::ALL");

    // Knob table: exactly what the registry renders — names, defaults
    // and effects.
    assert_eq!(
        section("knob-table"),
        hail::core::knobs::doc_table(),
        "knob-table vs hail_core::knobs::doc_table()"
    );
}
