//! Per-rule fixture tests (one seeded violation each, caught; clean
//! code passes) plus the self-test that the real workspace is clean.
//!
//! Fixtures live in `tests/fixtures/` — cargo does not compile files
//! in test subdirectories, so they can contain deliberately bad code.

use hail_lint::{
    check_doc_sync, check_knob_registry, check_no_lock_unwrap, check_no_raw_sync, marked_section,
    parse_knob_names, parse_lock_ranks, scan_workspace, strip_code, test_region_mask,
};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap();
    (path, src)
}

fn run_file_rules(name: &str) -> Vec<hail_lint::Violation> {
    let (path, src) = fixture(name);
    let stripped = strip_code(&src);
    let mask = test_region_mask(&stripped);
    let mut out = Vec::new();
    out.extend(check_no_raw_sync(&path, &stripped, &mask));
    out.extend(check_knob_registry(&path, &stripped, &mask));
    out.extend(check_no_lock_unwrap(&path, &stripped, &mask));
    out
}

#[test]
fn stripper_blanks_comments_strings_and_preserves_offsets() {
    let src = "let a = \"Mutex\"; // Mutex\nlet b = r#\"RwLock\"#; /* Condvar\n*/ let c = 'x';\n";
    let stripped = strip_code(src);
    assert_eq!(stripped.len(), src.len());
    assert_eq!(
        stripped.matches('\n').count(),
        src.matches('\n').count(),
        "newlines must survive for line numbering"
    );
    for word in ["Mutex", "RwLock", "Condvar"] {
        assert!(
            !stripped.contains(word),
            "{word} leaked through: {stripped}"
        );
    }
    assert!(stripped.contains("let a ="));
    assert!(stripped.contains("let c ="));
}

#[test]
fn raw_sync_fixture_is_caught() {
    let violations = run_file_rules("raw_sync.rs");
    let raw: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "no-raw-sync")
        .collect();
    // Mutex, RwLock, Condvar each appear in the use and in the struct.
    assert!(raw.len() >= 3, "expected ≥3 no-raw-sync hits, got {raw:?}");
    for word in ["Mutex", "RwLock", "Condvar"] {
        assert!(
            raw.iter().any(|v| v.excerpt.contains(word)),
            "missing {word} hit in {raw:?}"
        );
    }
    // unwrap_or_else recovery is NOT a no-lock-unwrap violation.
    assert!(violations.iter().all(|v| v.rule != "no-lock-unwrap"));
}

#[test]
fn env_read_fixture_is_caught() {
    let violations = run_file_rules("env_read.rs");
    let hits: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "knob-registry")
        .collect();
    assert_eq!(hits.len(), 1, "{violations:?}");
    assert_eq!(hits[0].line, 3);
}

#[test]
fn lock_unwrap_fixture_is_caught() {
    let violations = run_file_rules("lock_unwrap.rs");
    let hits: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "no-lock-unwrap")
        .collect();
    // .lock().unwrap(), .read().unwrap(), and the multi-line
    // .write()\n.unwrap() chain must all be caught.
    assert_eq!(hits.len(), 3, "{violations:?}");
}

/// `#[cfg(test)] mod tests;` (as `crates/exec/src/kernel.rs` has it)
/// gates only itself: the next item's body is still checked.
#[test]
fn braceless_test_item_does_not_mask_the_next_item() {
    let f = "pub fn f() { let m = std::sync::Mutex::new(0); }";
    let count = |src: &str| {
        let stripped = strip_code(src);
        let mask = test_region_mask(&stripped);
        check_no_raw_sync(Path::new("x.rs"), &stripped, &mask).len()
    };
    assert_eq!(count(f), 1);
    for gate in [
        "#[cfg(test)]\nmod tests;\n\n",
        "#[cfg(test)]\nuse a::{b, c};\n",
    ] {
        assert_eq!(count(&format!("{gate}{f}")), 1, "{gate:?} masked f");
    }
    // A `;` inside a type does not end a braced item early.
    let gated = "#[cfg(test)]\nfn g() -> [u8; 4] { let m = std::sync::Mutex::new(0); [0; 4] }\n";
    assert_eq!(count(gated), 0);
}

#[test]
fn clean_fixture_passes_every_rule() {
    let violations = run_file_rules("clean.rs");
    assert!(violations.is_empty(), "{violations:?}");
}

const GOOD_SYNC: &str = r#"
pub enum LockRank {
    A = 2,
    B = 1,
    C = 0,
}
"#;

const GOOD_KNOBS: &str = r#"
pub const X: Knob = Knob {
    name: "HAIL_X",
    kind: KnobKind::Count,
    default: "1",
    doc: "d",
};
"#;

const GOOD_DOC: &str = "\
# arch
<!-- lock-rank-table:begin -->
| Rank | Variant | Guards |
|---|---|---|
| `2` | `A` | a |
| `1` | `B` | b |
| `0` | `C` | c |
<!-- lock-rank-table:end -->
<!-- knob-table:begin -->
| Knob | Default | Effect |
|---|---|---|
| `HAIL_X` | 1 | d |
<!-- knob-table:end -->
";

#[test]
fn doc_sync_passes_when_tables_match() {
    assert_eq!(
        parse_lock_ranks(GOOD_SYNC),
        vec![
            ("A".to_string(), 2),
            ("B".to_string(), 1),
            ("C".to_string(), 0),
        ]
    );
    assert_eq!(parse_knob_names(GOOD_KNOBS), vec!["HAIL_X".to_string()]);
    let violations = check_doc_sync(GOOD_SYNC, GOOD_KNOBS, GOOD_DOC);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn doc_sync_catches_reordered_ranks_and_missing_knobs() {
    let reordered = GOOD_DOC.replace(
        "| `2` | `A` | a |\n| `1` | `B` | b |",
        "| `1` | `B` | b |\n| `2` | `A` | a |",
    );
    let violations = check_doc_sync(GOOD_SYNC, GOOD_KNOBS, &reordered);
    assert!(
        violations.iter().any(|v| v.excerpt.contains("drift")),
        "{violations:?}"
    );

    let missing_knob = GOOD_DOC.replace("| `HAIL_X` | 1 | d |\n", "");
    let violations = check_doc_sync(GOOD_SYNC, GOOD_KNOBS, &missing_knob);
    assert!(
        violations
            .iter()
            .any(|v| v.excerpt.contains("knob table drift")),
        "{violations:?}"
    );

    let no_markers = "# arch, tables deleted";
    let violations = check_doc_sync(GOOD_SYNC, GOOD_KNOBS, no_markers);
    assert_eq!(violations.len(), 2, "{violations:?}");
}

#[test]
fn marked_section_extracts_between_markers() {
    let body = marked_section(GOOD_DOC, "knob-table").unwrap();
    assert!(body.contains("HAIL_X"));
    assert!(!body.contains("Variant"));
    assert!(marked_section(GOOD_DOC, "absent").is_none());
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = scan_workspace(&root);
    assert!(
        violations.is_empty(),
        "the workspace must satisfy its own lint:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn real_lock_rank_enum_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sync = std::fs::read_to_string(root.join("crates/sync/src/lib.rs")).unwrap();
    let ranks = parse_lock_ranks(&sync);
    assert_eq!(ranks.len(), 10, "{ranks:?}");
    assert_eq!(ranks[0], ("ManagerSlot".to_string(), 9));
    assert_eq!(ranks[9], ("ShareRegistry".to_string(), 0));
    // Declaration order is descending rank.
    let discs: Vec<u8> = ranks.iter().map(|(_, d)| *d).collect();
    let mut sorted = discs.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(discs, sorted);

    let knobs = std::fs::read_to_string(root.join("crates/core/src/knobs.rs")).unwrap();
    assert_eq!(parse_knob_names(&knobs).len(), 7);
}
