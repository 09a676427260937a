//! Cluster specifications: node count, hardware profile, data scaling.

use crate::cost::ScaleFactor;
use crate::profile::HardwareProfile;

/// A homogeneous cluster of worker nodes plus dedicated master nodes
/// (namenode and JobTracker run off the worker count, as the paper's EC2
/// setups allocate extra nodes for them).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes (each runs a datanode + TaskTracker).
    pub nodes: usize,
    /// Hardware of every worker node.
    pub profile: HardwareProfile,
    /// Logical-vs-materialized data scaling for experiments.
    pub scale: ScaleFactor,
}

impl ClusterSpec {
    pub fn new(nodes: usize, profile: HardwareProfile) -> Self {
        ClusterSpec {
            nodes,
            profile,
            scale: ScaleFactor::unit(),
        }
    }

    /// Builder-style scale override.
    pub fn with_scale(mut self, scale: ScaleFactor) -> Self {
        self.scale = scale;
        self
    }

    /// Total map slots across the cluster.
    pub fn total_map_slots(&self) -> usize {
        self.nodes * self.profile.map_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_cluster() {
        let c = ClusterSpec::new(10, HardwareProfile::physical());
        assert_eq!(c.nodes, 10);
        assert_eq!(c.total_map_slots(), 20);
    }

    #[test]
    fn scale_override() {
        let c = ClusterSpec::new(10, HardwareProfile::physical()).with_scale(ScaleFactor(64.0));
        assert_eq!(c.scale.0, 64.0);
    }
}
