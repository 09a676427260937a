//! The engine's one ordered fan-out, [`run_ordered`] (module
//! [`executor`]), and the machine width the upload and the rebuild fan
//! out at ([`machine_width`]).
//!
//! A leaf crate, so the job manager in `hail-mr`, the upload client in
//! `hail-core` and the adaptive rebuild in `hail-exec` share it. The
//! engine shares no mutable state between jobs, so there is no lock
//! hierarchy to keep: the few locks left are leaves, each a raw
//! `std::sync` lock allowed at its one site and listed in
//! ARCHITECTURE.md, "Concurrency invariants & enforcement".

pub mod executor;

pub use executor::{machine_width, run_ordered};
