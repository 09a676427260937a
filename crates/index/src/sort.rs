//! Sort orders: which attribute each replica is clustered on.

use hail_types::{Result, Schema};
use std::fmt;

/// The sort order of one block replica: the 0-based column it is sorted
/// and clustered on, or `None` for an unsorted (HDFS-equivalent) replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// Replica keeps upload order (no index).
    Unsorted,
    /// Replica is sorted ascending on the given 0-based column.
    Clustered { column: usize },
}

impl SortOrder {
    /// The clustered column, if any.
    pub fn column(&self) -> Option<usize> {
        match self {
            SortOrder::Unsorted => None,
            SortOrder::Clustered { column } => Some(*column),
        }
    }

    /// Validates the sort order against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if let SortOrder::Clustered { column } = self {
            schema.field(*column)?;
        }
        Ok(())
    }
}

impl fmt::Display for SortOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortOrder::Unsorted => f.write_str("unsorted"),
            SortOrder::Clustered { column } => write!(f, "clustered(@{})", column + 1),
        }
    }
}

/// Which sidecar synopses one replica stores next to its PAX data and
/// primary index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SidecarSpec {
    /// 0-based columns to build a zone-map (min/max) synopsis over, for
    /// block skipping.
    pub zone_map_columns: Vec<usize>,
    /// 0-based columns to build a Bloom-filter synopsis over, for
    /// equality-predicate block skipping.
    pub bloom_columns: Vec<usize>,
}

impl SidecarSpec {
    /// True when no sidecar is requested.
    pub fn is_empty(&self) -> bool {
        self.zone_map_columns.is_empty() && self.bloom_columns.is_empty()
    }
}

/// The index configuration for an upload: `orders[i]` is the sort order
/// of the replica at chain position `i`, so its length is the
/// replication factor, and one [`SidecarSpec`] names the sidecar
/// synopses every replica stores (synopses do not depend on the sort
/// order).
///
/// This is the paper's "configuration file" through which Bob tells HAIL
/// which clustered index to create on each replica. The design then
/// changes only at run time: a replica rewritten in place carries its own
/// order and spec in the namenode's `Dir_rep`, not in this config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaIndexConfig {
    orders: Vec<SortOrder>,
    sidecar: SidecarSpec,
}

impl ReplicaIndexConfig {
    pub fn new(orders: Vec<SortOrder>) -> Self {
        ReplicaIndexConfig {
            orders,
            sidecar: SidecarSpec::default(),
        }
    }

    /// All replicas unsorted (HAIL upload with zero indexes — still PAX,
    /// still binary, but no sorting).
    pub fn unindexed(replication: usize) -> Self {
        Self::new(vec![SortOrder::Unsorted; replication])
    }

    /// Clusters the first `columns.len()` replicas on the given columns,
    /// remaining replicas unsorted. This mirrors the experiments that vary
    /// "number of created indexes" from 0 to the replication factor.
    pub fn first_indexed(replication: usize, columns: &[usize]) -> Self {
        let mut orders = Vec::with_capacity(replication);
        for i in 0..replication {
            orders.push(match columns.get(i) {
                Some(&c) => SortOrder::Clustered { column: c },
                None => SortOrder::Unsorted,
            });
        }
        Self::new(orders)
    }

    /// The same clustered index on every replica (the paper's HAIL-1Idx
    /// failover variant).
    pub fn uniform(replication: usize, column: usize) -> Self {
        Self::new(vec![SortOrder::Clustered { column }; replication])
    }

    /// Stores a zone-map synopsis over `column` on every replica.
    pub fn with_zone_map(mut self, column: usize) -> Self {
        if !self.sidecar.zone_map_columns.contains(&column) {
            self.sidecar.zone_map_columns.push(column);
        }
        self
    }

    /// Stores a Bloom-filter synopsis over `column` on every replica.
    pub fn with_bloom(mut self, column: usize) -> Self {
        if !self.sidecar.bloom_columns.contains(&column) {
            self.sidecar.bloom_columns.push(column);
        }
        self
    }

    /// Stores both synopsis kinds (zone map + Bloom filter) over
    /// `column` on every replica — the usual block-skipping setup.
    pub fn with_synopses(self, column: usize) -> Self {
        self.with_zone_map(column).with_bloom(column)
    }

    pub fn orders(&self) -> &[SortOrder] {
        &self.orders
    }

    /// The sidecar spec every replica of the upload stores. The chain
    /// position is ignored: it is kept as frozen-suite residue, because
    /// the `hail-bench` suite asks per position.
    pub fn sidecar(&self, _replica: usize) -> &SidecarSpec {
        &self.sidecar
    }

    /// Replication factor implied by this configuration.
    pub fn replication(&self) -> usize {
        self.orders.len()
    }

    /// Validates all orders and sidecar columns against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        for o in &self.orders {
            o.validate(schema)?;
        }
        let spec = &self.sidecar;
        for &c in spec.zone_map_columns.iter().chain(&spec.bloom_columns) {
            schema.field(c)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hail_types::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::VarChar),
        ])
        .unwrap()
    }

    #[test]
    fn unindexed_config() {
        let c = ReplicaIndexConfig::unindexed(3);
        assert_eq!(c.replication(), 3);
        assert!(c.orders().iter().all(|o| *o == SortOrder::Unsorted));
        assert!(c.validate(&schema()).is_ok());
    }

    #[test]
    fn first_indexed_pads_with_unsorted() {
        let c = ReplicaIndexConfig::first_indexed(3, &[1]);
        assert_eq!(c.orders()[0], SortOrder::Clustered { column: 1 });
        assert_eq!(c.orders()[1..], [SortOrder::Unsorted; 2]);
    }

    #[test]
    fn uniform_config() {
        let c = ReplicaIndexConfig::uniform(3, 0);
        assert_eq!(c.orders(), [SortOrder::Clustered { column: 0 }; 3]);
    }

    #[test]
    fn validate_rejects_bad_column() {
        let c = ReplicaIndexConfig::uniform(3, 7);
        assert!(c.validate(&schema()).is_err());
    }

    #[test]
    fn sidecar_validate_rejects_bad_column() {
        let c = ReplicaIndexConfig::unindexed(3).with_zone_map(9);
        assert!(c.validate(&schema()).is_err());
        let c = ReplicaIndexConfig::unindexed(3).with_bloom(9);
        assert!(c.validate(&schema()).is_err());
    }

    /// The builders compose: the one spec gathers both kinds, each
    /// column once, in call order, and every position reads it.
    #[test]
    fn sidecar_knobs() {
        let c = ReplicaIndexConfig::first_indexed(3, &[0])
            .with_synopses(1)
            .with_zone_map(0)
            .with_bloom(1);
        for pos in 0..c.replication() {
            assert_eq!(c.sidecar(pos).zone_map_columns, [1, 0]);
            assert_eq!(c.sidecar(pos).bloom_columns, [1]);
        }
        assert!(c.validate(&schema()).is_ok());
    }

    #[test]
    fn synopsis_knobs() {
        let c = ReplicaIndexConfig::first_indexed(3, &[0]).with_synopses(1);
        assert_eq!(c.sidecar(0).zone_map_columns, [1]);
        assert_eq!(c.sidecar(0).bloom_columns, [1]);
        assert!(c.validate(&schema()).is_ok());

        assert!(ReplicaIndexConfig::first_indexed(3, &[0])
            .sidecar(0)
            .is_empty());

        // Duplicate calls don't duplicate the column.
        let c = ReplicaIndexConfig::unindexed(2)
            .with_zone_map(0)
            .with_zone_map(0)
            .with_bloom(1)
            .with_bloom(1);
        assert_eq!(c.sidecar(0).zone_map_columns, [0]);
        assert_eq!(c.sidecar(0).bloom_columns, [1]);
    }

    #[test]
    fn display() {
        assert_eq!(
            SortOrder::Clustered { column: 2 }.to_string(),
            "clustered(@3)"
        );
        assert_eq!(SortOrder::Unsorted.to_string(), "unsorted");
    }
}
