//! Frozen-suite residue: the engine reads no environment.
//!
//! The `hail-bench` suite refuses to run while a listed knob is set, so
//! it calls [`list`], [`Knob::read_raw`] and [`Knob::name`]; nothing
//! else does. The list is empty: every setting the engine has is a
//! config field the caller sets (`PlannerConfig::synopsis_pruning`,
//! `ReindexPolicy::enabled`).

/// An environment variable the suite's guard checks. None is listed.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable name.
    pub name: &'static str,
}

impl Knob {
    /// The raw environment value, if set.
    #[allow(
        clippy::disallowed_methods,
        reason = "frozen-suite residue: the suite's knob guard calls it, over an empty list"
    )]
    pub fn read_raw(&self) -> Option<String> {
        std::env::var(self.name).ok()
    }
}

/// Every knob: none.
pub fn list() -> &'static [Knob] {
    &[]
}
