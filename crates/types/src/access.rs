//! The cross-layer vocabulary of physical access paths.
//!
//! Every way the system can read a block replica at query time is named
//! here, so that the planner (`hail-exec`), the MapReduce engine's task
//! statistics (`hail-mr`), and experiment reports all speak the same
//! language without depending on the execution layer.

use std::fmt;

/// How a block replica is read at query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessPathKind {
    /// Stream the whole replica and filter row by row (text, PAX, or
    /// Hadoop++ row layout).
    FullScan,
    /// HAIL's sparse clustered index: resolve qualifying partitions in
    /// memory, read only those (§4.3).
    ClusteredIndexScan,
    /// Hadoop++'s dense trojan index over the block header (§5).
    TrojanIndexScan,
}

impl AccessPathKind {
    /// All kinds, in display order.
    pub const ALL: [AccessPathKind; 3] = [
        AccessPathKind::FullScan,
        AccessPathKind::ClusteredIndexScan,
        AccessPathKind::TrojanIndexScan,
    ];

    /// True for paths that avoid streaming the whole replica.
    pub fn is_index_scan(self) -> bool {
        !matches!(self, AccessPathKind::FullScan)
    }
}

impl fmt::Display for AccessPathKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessPathKind::FullScan => "full-scan",
            AccessPathKind::ClusteredIndexScan => "clustered-index-scan",
            AccessPathKind::TrojanIndexScan => "trojan-index-scan",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(AccessPathKind::FullScan.to_string(), "full-scan");
        assert_eq!(
            AccessPathKind::ClusteredIndexScan.to_string(),
            "clustered-index-scan"
        );
    }

    #[test]
    fn index_scan_classification() {
        assert!(!AccessPathKind::FullScan.is_index_scan());
        for k in AccessPathKind::ALL.into_iter().skip(1) {
            assert!(k.is_index_scan(), "{k}");
        }
    }
}
