//! The engine's one fan-out, [`run_pipelined`] (module [`executor`]):
//! tasks prepared on helper threads and committed on the caller's, in
//! index order, as they come; and the machine width the upload and the
//! rebuild fan out at ([`machine_width`]).
//!
//! A leaf crate, so the job manager in `hail-mr`, the upload client in
//! `hail-core` and the adaptive rebuild in `hail-exec` share it. The
//! engine shares no mutable state between jobs, so there is no lock
//! hierarchy to keep: the few locks left are leaves, each a raw
//! `std::sync` lock allowed at its one site and listed in
//! ARCHITECTURE.md, "Concurrency invariants & enforcement".

pub mod executor;

pub use executor::{machine_width, run_pipelined};
