//! ARCHITECTURE.md ("Concurrency invariants & enforcement") embeds a
//! table the code also defines: the knob registry. This test fails when
//! it drifts from the code.

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
    // Knob table: exactly what the registry renders — names, defaults
    // and effects.
    assert_eq!(
        section("knob-table"),
        hail::core::knobs::doc_table(),
        "knob-table vs hail_core::knobs::doc_table()"
    );
}
