//! The central registry of every `HAIL_*` environment knob.
//!
//! Every runtime-tunable environment variable the engine reads is
//! declared here — name, parse rule, default, and one documentation
//! line — and every read goes through [`Knob::read_raw`]. The
//! workspace `clippy.toml` disallows `std::env::{var, var_os, vars,
//! vars_os}` everywhere else, so a knob cannot be added without
//! registering it, and two call sites cannot silently parse the same
//! variable differently.
//!
//! A knob only supplies a *default*: each one seeds a config field
//! that callers can set explicitly (`MapJob::job_parallelism`,
//! `PlannerConfig::synopsis_pruning`, `ReindexPolicy::enabled`).
//! The test suite sets those fields to sweep every setting in one
//! process.
//!
//! [`doc_table`] renders the registry as the knob table in
//! ARCHITECTURE.md ("Concurrency invariants & enforcement");
//! `tests/architecture_tables.rs` fails if the two differ.
//!
//! One private `parse` function holds the parse rules, one per
//! [`KnobKind`], preserved bit-for-bit from the pre-registry call sites:
//!
//! - [`KnobKind::Count`]: unset, unparsable, or `0` mean 1 — "absent
//!   means no concurrency".
//! - [`KnobKind::DisableFlag`]: the feature is ON unless the variable
//!   is set to a non-empty value other than `0` (after trimming).
//! - [`KnobKind::DisableFlagExact`]: the feature is ON unless the
//!   variable is exactly `1` (the historical `HAIL_DISABLE_REINDEX`
//!   contract).

/// How a knob's raw string value is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// A positive count; unset/unparsable/`0` → 1.
    Count,
    /// Feature on unless set non-empty and not `0` (trimmed).
    DisableFlag,
    /// Feature on unless the value is exactly `1`.
    DisableFlagExact,
}

/// What `raw` (the variable's value, `None` when unset) means for a
/// knob of `kind`: a count parses to itself (at least 1), a flag to 1
/// when the feature it guards is on and to 0 when it is off.
fn parse(kind: KnobKind, raw: Option<&str>) -> usize {
    match kind {
        KnobKind::Count => raw
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        KnobKind::DisableFlag => {
            usize::from(!raw.is_some_and(|v| !v.trim().is_empty() && v.trim() != "0"))
        }
        KnobKind::DisableFlagExact => usize::from(raw != Some("1")),
    }
}

/// One registered environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable name (always `HAIL_*`).
    pub name: &'static str,
    /// Parse rule.
    pub kind: KnobKind,
    /// Human-readable effective default (what an unset variable means).
    pub default: &'static str,
    /// One-line description for the generated doc table.
    pub doc: &'static str,
}

impl Knob {
    /// The raw environment value, if set. The single environment read
    /// of the whole workspace.
    #[allow(
        clippy::disallowed_methods,
        reason = "the knob registry is the one place allowed to read the environment"
    )]
    pub fn read_raw(&self) -> Option<String> {
        std::env::var(self.name).ok()
    }

    /// Parses this knob as a [`KnobKind::Count`].
    pub fn count(&self) -> usize {
        debug_assert_eq!(self.kind, KnobKind::Count);
        parse(self.kind, self.read_raw().as_deref())
    }

    /// Whether the feature this flag guards is enabled.
    pub fn enabled(&self) -> bool {
        debug_assert_ne!(self.kind, KnobKind::Count);
        parse(self.kind, self.read_raw().as_deref()) != 0
    }
}

/// Split overlap: how many whole splits of one job may be read at
/// once.
pub const JOB_PARALLELISM: Knob = Knob {
    name: "HAIL_JOB_PARALLELISM",
    kind: KnobKind::Count,
    default: "1 (sequential splits)",
    doc: "Whole splits of one job read at once.",
};

/// Kill switch for zone-map/Bloom synopsis pruning.
pub const DISABLE_SYNOPSES: Knob = Knob {
    name: "HAIL_DISABLE_SYNOPSES",
    kind: KnobKind::DisableFlag,
    default: "pruning on",
    doc: "Set non-zero to price every block instead of skipping via synopses.",
};

/// Kill switch for adaptive re-indexing.
pub const DISABLE_REINDEX: Knob = Knob {
    name: "HAIL_DISABLE_REINDEX",
    kind: KnobKind::DisableFlagExact,
    default: "re-indexing on",
    doc: "Set to exactly 1 to freeze the physical design (no advisor rewrites).",
};

/// Every registered knob, in documentation order.
pub fn list() -> &'static [Knob] {
    &[JOB_PARALLELISM, DISABLE_SYNOPSES, DISABLE_REINDEX]
}

/// Renders the registry as the markdown table embedded in
/// ARCHITECTURE.md between the `knob-table` markers.
pub fn doc_table() -> String {
    let mut out = String::from("| Knob | Default | Effect |\n|---|---|---|\n");
    for k in list() {
        out.push_str(&format!("| `{}` | {} | {} |\n", k.name, k.default, k.doc));
    }
    out
}

/// Split overlap ([`JOB_PARALLELISM`]).
pub fn job_parallelism() -> usize {
    JOB_PARALLELISM.count()
}

/// Whether synopsis pruning is enabled.
pub fn synopsis_pruning_enabled() -> bool {
    DISABLE_SYNOPSES.enabled()
}

/// Whether adaptive re-indexing is enabled.
pub fn reindex_enabled() -> bool {
    DISABLE_REINDEX.enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_hail_prefixed() {
        let names: Vec<&str> = list().iter().map(|k| k.name).collect();
        for name in &names {
            assert!(name.starts_with("HAIL_"), "{name} must be HAIL_-prefixed");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate knob registered");
    }

    #[test]
    fn counts_clamp_to_one_and_flags_default_on() {
        for raw in [None, Some(""), Some("0"), Some("two"), Some("-3")] {
            assert_eq!(parse(KnobKind::Count, raw), 1, "{raw:?}");
        }
        assert_eq!(parse(KnobKind::Count, Some(" 4 ")), 4);
        assert_eq!(parse(KnobKind::DisableFlag, None), 1);
        assert_eq!(parse(KnobKind::DisableFlagExact, None), 1);
    }

    #[test]
    fn parse_rules_match_historical_call_sites() {
        let on = |kind, raw| parse(kind, raw) == 1;
        // DisableFlag: non-empty, non-zero disables (trimmed).
        let f = |raw| on(KnobKind::DisableFlag, raw);
        assert!(f(None) && f(Some("")) && f(Some("0")) && f(Some(" 0 ")));
        assert!(!f(Some("1")) && !f(Some("yes")));
        // DisableFlagExact: only the exact string "1" disables.
        let g = |raw| on(KnobKind::DisableFlagExact, raw);
        assert!(g(None) && g(Some("true")) && g(Some(" 1")));
        assert!(!g(Some("1")));
    }
}
