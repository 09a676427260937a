//! Hand-rolled workspace source lint enforcing the HAIL concurrency
//! contract (no registry deps, consistent with `crates/compat`).
//!
//! Four rules, each converting a convention PRs 4–9 kept by hand into
//! a CI failure:
//!
//! - **no-raw-sync** — direct `std::sync::{Mutex, RwLock, Condvar}`
//!   use outside `hail-sync` (test code exempt). Every engine lock
//!   must carry a `LockRank`.
//! - **knob-registry** — `env::var` reads outside
//!   `hail_core::knobs` (test code exempt). Every `HAIL_*` knob goes
//!   through the one typed table.
//! - **no-lock-unwrap** — `.lock()/.read()/.write()` followed by
//!   `.unwrap()` outside test code: lock poisoning must be recovered
//!   (`hail-sync`'s `acquire`), never propagated.
//! - **doc-sync** — the `LockRank` enum (variants, order,
//!   discriminants) must match the marker-delimited rank table in
//!   ARCHITECTURE.md, and the knob registry must match the
//!   marker-delimited knob table — code and docs cannot drift.
//!
//! The scanner is deliberately lexical: comments and string literals
//! are blanked to spaces (byte offsets preserved) before any rule
//! runs, and `#[cfg(test)] mod` regions are masked by brace tracking.
//! That is exactly enough precision for these rules on this codebase,
//! with zero dependencies.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule slug (e.g. `no-raw-sync`).
    pub rule: &'static str,
    /// Path the violation was found in (workspace-relative when the
    /// scan was rooted at the workspace).
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file rules like doc-sync).
    pub line: usize,
    /// What was matched or what drifted.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.excerpt
        )
    }
}

/// Blanks comments, string literals, and char literals to spaces,
/// preserving every byte offset and newline — so rule matches report
/// true line numbers and never fire inside prose or literals.
pub fn strip_code(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\n' => {
                out[i] = b'\n';
                i += 1;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        out[i] = b'\n';
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                // r"...", r#"..."#, br"..." etc.: skip past the r/b
                // prefix and hashes, then scan to the matching close.
                let mut j = i + 1;
                if b[j] == b'r' {
                    j += 1;
                }
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                while j < b.len() {
                    if b[j] == b'\n' {
                        out[j] = b'\n';
                    } else if b[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while k < b.len() && seen < hashes && b[k] == b'#' {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
            }
            b'"' => {
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            out[i] = b'\n';
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' => {
                // Char literal or lifetime. A char literal closes with
                // a quote within a few bytes ('x', '\n', '\u{1F600}');
                // a lifetime ('a, 'static) never closes.
                if let Some(close) = char_literal_close(b, i) {
                    i = close + 1;
                } else {
                    out[i] = b'\'';
                    i += 1;
                }
            }
            c => {
                out[i] = c;
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("blanking multi-byte chars yields spaces, still UTF-8")
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r", r#, br", br# — and must not be part of an identifier
    // (e.g. `for r in ...` or `attr` are not raw strings).
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j >= b.len() || b[j] != b'r' {
            return j < b.len() && b[j] == b'"';
        }
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn char_literal_close(b: &[u8], open: usize) -> Option<usize> {
    let mut j = open + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        // Escape: scan to the closing quote (handles \u{...}).
        j += 1;
        while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
            j += 1;
        }
        return (j < b.len() && b[j] == b'\'').then_some(j);
    }
    // Unescaped: exactly one char (possibly multi-byte) then a quote.
    let ch_len = utf8_len(b[j]);
    let close = j + ch_len;
    (close < b.len() && b[close] == b'\'').then_some(close)
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b & 0xE0 == 0xC0 => 2,
        b if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    }
}

/// Per-byte mask of `#[cfg(test)]`-gated item regions (brace-tracked
/// from the attribute's following `{`), computed on stripped source.
/// A braceless item (`#[cfg(test)] mod tests;`, `#[cfg(test)] use …;`)
/// ends at its `;`.
pub fn test_region_mask(stripped: &str) -> Vec<bool> {
    const ATTR: &str = "#[cfg(test)]";
    let b = stripped.as_bytes();
    let mut mask = vec![false; b.len()];
    let mut from = 0;
    while let Some(rel) = stripped[from..].find(ATTR) {
        let attr = from + rel;
        // The item ends where its first `{…}` closes, or at a `;` before
        // that `{` and outside any `(…)`/`[…]` (not the one in `[u8; 4]`).
        let (mut nesting, mut depth) = (0usize, 0usize);
        let mut end = b.len();
        for (k, &c) in b.iter().enumerate().skip(attr + ATTR.len()) {
            let item_ends = match c {
                b'(' | b'[' => {
                    nesting += 1;
                    false
                }
                b')' | b']' => {
                    nesting = nesting.saturating_sub(1);
                    false
                }
                b'{' => {
                    depth += 1;
                    false
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    depth == 0
                }
                b';' => depth == 0 && nesting == 0,
                _ => false,
            };
            if item_ends {
                end = k + 1;
                break;
            }
        }
        mask[attr..end].fill(true);
        from = end;
    }
    mask
}

fn line_of(src: &str, offset: usize) -> usize {
    src.as_bytes()[..offset]
        .iter()
        .filter(|&&c| c == b'\n')
        .count()
        + 1
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Whole-word occurrences of `word` in `stripped`, as byte offsets.
fn word_offsets(stripped: &str, word: &str) -> Vec<usize> {
    let b = stripped.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = stripped[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(b[at - 1]);
        let after = at + word.len();
        let after_ok = after >= b.len() || !is_ident(b[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// True when `path` is test-adjacent code exempt from the engine-code
/// rules: integration tests, benches, examples, and the lint's own
/// fixtures.
pub fn is_test_path(path: &Path) -> bool {
    path.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("examples") | Some("fixtures")
        )
    })
}

/// Rule `no-raw-sync`: direct `std::sync` lock primitives outside
/// `hail-sync` (callers exempt: test code, `crates/sync` itself).
pub fn check_no_raw_sync(path: &Path, stripped: &str, mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    for word in ["Mutex", "RwLock", "Condvar"] {
        for at in word_offsets(stripped, word) {
            if mask.get(at).copied().unwrap_or(false) {
                continue;
            }
            out.push(Violation {
                rule: "no-raw-sync",
                file: path.to_path_buf(),
                line: line_of(stripped, at),
                excerpt: format!("raw std::sync::{word} — wrap it in a ranked hail_sync type"),
            });
        }
    }
    out
}

/// Rule `knob-registry`: `env::var` reads outside the central knob
/// registry (test code exempt).
pub fn check_knob_registry(path: &Path, stripped: &str, mask: &[bool]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = stripped[from..].find("env::var") {
        let at = from + rel;
        from = at + "env::var".len();
        if mask.get(at).copied().unwrap_or(false) {
            continue;
        }
        out.push(Violation {
            rule: "knob-registry",
            file: path.to_path_buf(),
            line: line_of(stripped, at),
            excerpt: "environment read outside hail_core::knobs — register the knob".into(),
        });
    }
    out
}

/// Rule `no-lock-unwrap`: `.lock()/.read()/.write()` with `.unwrap()`
/// chained straight on (whitespace permitted), outside test code.
pub fn check_no_lock_unwrap(path: &Path, stripped: &str, mask: &[bool]) -> Vec<Violation> {
    let b = stripped.as_bytes();
    let mut out = Vec::new();
    for call in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(rel) = stripped[from..].find(call) {
            let at = from + rel;
            from = at + call.len();
            if mask.get(at).copied().unwrap_or(false) {
                continue;
            }
            let mut j = at + call.len();
            while j < b.len() && (b[j] as char).is_whitespace() {
                j += 1;
            }
            if stripped[j..].starts_with(".unwrap()") {
                out.push(Violation {
                    rule: "no-lock-unwrap",
                    file: path.to_path_buf(),
                    line: line_of(stripped, at),
                    excerpt: format!(
                        "{call}.unwrap() — poisoning must be recovered, use hail_sync acquire"
                    ),
                });
            }
        }
    }
    out
}

/// The `(variant, discriminant)` list parsed from the `LockRank` enum
/// in hail-sync's source, declaration order.
pub fn parse_lock_ranks(sync_src: &str) -> Vec<(String, u8)> {
    let stripped = strip_code(sync_src);
    let Some(start) = stripped.find("pub enum LockRank") else {
        return Vec::new();
    };
    let Some(open_rel) = stripped[start..].find('{') else {
        return Vec::new();
    };
    let open = start + open_rel;
    let Some(close_rel) = stripped[open..].find('}') else {
        return Vec::new();
    };
    let body = &stripped[open + 1..open + close_rel];
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        let Some((name, rest)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim();
        let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
        if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            if let Ok(d) = digits.parse::<u8>() {
                out.push((name.to_string(), d));
            }
        }
    }
    out
}

/// Knob names (`HAIL_*`) parsed from the registry source, declaration
/// order.
pub fn parse_knob_names(knobs_src: &str) -> Vec<String> {
    // Names live in string literals, so parse the original source: a
    // `name: "HAIL_...",` field per registered knob.
    let mut out = Vec::new();
    for line in knobs_src.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name: \"") {
            if let Some(end) = rest.find('"') {
                let name = &rest[..end];
                if name.starts_with("HAIL_") {
                    out.push(name.to_string());
                }
            }
        }
    }
    out
}

/// Extracts the text between `<!-- {marker}:begin -->` and
/// `<!-- {marker}:end -->` in a markdown document.
pub fn marked_section<'a>(doc: &'a str, marker: &str) -> Option<&'a str> {
    let begin = format!("<!-- {marker}:begin -->");
    let end = format!("<!-- {marker}:end -->");
    let s = doc.find(&begin)? + begin.len();
    let e = doc[s..].find(&end)? + s;
    Some(&doc[s..e])
}

/// Backticked names in column `col` (0-based) of a markdown table
/// section, row order, skipping the header and separator rows.
fn table_column_names(section: &str, col: usize) -> Vec<String> {
    let mut out = Vec::new();
    for line in section.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        let Some(cell) = cells.get(col) else { continue };
        let Some(start) = cell.find('`') else {
            continue;
        };
        let rest = &cell[start + 1..];
        let Some(len) = rest.find('`') else { continue };
        out.push(rest[..len].to_string());
    }
    out
}

/// Rule `doc-sync`: the ARCHITECTURE.md rank table must list exactly
/// the `LockRank` variants, in declaration (descending-rank) order,
/// with matching discriminants; the knob table must list exactly the
/// registered knobs.
pub fn check_doc_sync(sync_src: &str, knobs_src: &str, arch_md: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let doc_path = PathBuf::from("ARCHITECTURE.md");

    let ranks = parse_lock_ranks(sync_src);
    if ranks.is_empty() {
        out.push(Violation {
            rule: "doc-sync",
            file: PathBuf::from("crates/sync/src/lib.rs"),
            line: 0,
            excerpt: "could not parse the LockRank enum".into(),
        });
    }
    match marked_section(arch_md, "lock-rank-table") {
        None => out.push(Violation {
            rule: "doc-sync",
            file: doc_path.clone(),
            line: 0,
            excerpt: "missing <!-- lock-rank-table:begin/end --> markers".into(),
        }),
        Some(section) => {
            let doc_names = table_column_names(section, 1);
            let code_names: Vec<String> = ranks.iter().map(|(n, _)| n.clone()).collect();
            if doc_names != code_names {
                out.push(Violation {
                    rule: "doc-sync",
                    file: doc_path.clone(),
                    line: 0,
                    excerpt: format!(
                        "rank table drift: doc lists {doc_names:?}, LockRank declares {code_names:?}"
                    ),
                });
            }
            let doc_ranks = table_column_names(section, 0);
            let code_ranks: Vec<String> = ranks.iter().map(|(_, d)| d.to_string()).collect();
            if doc_ranks != code_ranks {
                out.push(Violation {
                    rule: "doc-sync",
                    file: doc_path.clone(),
                    line: 0,
                    excerpt: format!(
                        "rank numbers drift: doc lists {doc_ranks:?}, LockRank declares {code_ranks:?}"
                    ),
                });
            }
        }
    }

    let knob_names = parse_knob_names(knobs_src);
    match marked_section(arch_md, "knob-table") {
        None => out.push(Violation {
            rule: "doc-sync",
            file: doc_path,
            line: 0,
            excerpt: "missing <!-- knob-table:begin/end --> markers".into(),
        }),
        Some(section) => {
            let doc_knobs = table_column_names(section, 0);
            if doc_knobs != knob_names {
                out.push(Violation {
                    rule: "doc-sync",
                    file: doc_path,
                    line: 0,
                    excerpt: format!(
                        "knob table drift: doc lists {doc_knobs:?}, registry declares {knob_names:?}"
                    ),
                });
            }
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir`, skipping build output
/// and VCS internals. Results are sorted for deterministic reports.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | ".github") {
                continue;
            }
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Runs every rule over the workspace rooted at `root`, returning all
/// violations (empty = clean). Per-file rules skip what their
/// contracts exempt: `crates/sync` for no-raw-sync,
/// `crates/core/src/knobs.rs` for knob-registry, test paths and
/// `#[cfg(test)]` regions for the engine-code rules.
pub fn scan_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    rust_files(root, &mut files);
    let mut out = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        if is_test_path(&rel) {
            continue;
        }
        let Ok(original) = std::fs::read_to_string(path) else {
            continue;
        };
        let stripped = strip_code(&original);
        let mask = test_region_mask(&stripped);
        let in_sync_crate = rel.starts_with("crates/sync");
        let is_knobs = rel == Path::new("crates/core/src/knobs.rs");
        if !in_sync_crate {
            out.extend(check_no_raw_sync(&rel, &stripped, &mask));
        }
        if !is_knobs {
            out.extend(check_knob_registry(&rel, &stripped, &mask));
        }
        out.extend(check_no_lock_unwrap(&rel, &stripped, &mask));
    }

    let sync_src = std::fs::read_to_string(root.join("crates/sync/src/lib.rs"));
    let knobs_src = std::fs::read_to_string(root.join("crates/core/src/knobs.rs"));
    let arch_md = std::fs::read_to_string(root.join("ARCHITECTURE.md"));
    match (sync_src, knobs_src, arch_md) {
        (Ok(s), Ok(k), Ok(a)) => out.extend(check_doc_sync(&s, &k, &a)),
        _ => out.push(Violation {
            rule: "doc-sync",
            file: root.to_path_buf(),
            line: 0,
            excerpt: "missing crates/sync/src/lib.rs, crates/core/src/knobs.rs, or ARCHITECTURE.md"
                .into(),
        }),
    }
    out
}
