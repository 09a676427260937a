//! The paper's reported numbers, transcribed from the figures and tables
//! of §6. `benches/paper_figures.rs` prints them next to measured values;
//! the `hail-bench` suite scores three of them (`sim.paper_rel_err_*`).

/// Fig. 4(a): UserVisits upload seconds by number of created indexes.
pub mod fig4a {
    pub const HADOOP: f64 = 1398.0;
    pub const HADOOP_PP: [f64; 2] = [7290.0, 11212.0]; // 0, 1 indexes
    pub const HAIL: [f64; 4] = [1427.0, 1529.0, 1554.0, 1600.0]; // 0..3
}

/// Fig. 4(b): Synthetic upload seconds by number of created indexes.
pub mod fig4b {
    pub const HADOOP: f64 = 1132.0;
    pub const HADOOP_PP: [f64; 2] = [3472.0, 5766.0];
    pub const HAIL: [f64; 4] = [671.0, 704.0, 712.0, 717.0];
}

/// Fig. 4(c): Synthetic upload seconds by replication factor.
pub mod fig4c {
    pub const REPLICAS: [usize; 5] = [3, 5, 6, 7, 10];
    pub const HADOOP: [f64; 5] = [1132.0, 1773.0, 2256.0, 2712.0, 3710.0];
    pub const HAIL: [f64; 5] = [717.0, 956.0, 1089.0, 1254.0, 1700.0];
    /// §6.3.2's footprint comparison: Hadoop needs 390 GB for 3
    /// replicas; HAIL 420 GB for 6.
    pub const HADOOP_3REP_GB: f64 = 390.0;
    pub const HAIL_6REP_GB: f64 = 420.0;
}

/// Table 2: scale-up upload seconds (Hadoop, HAIL) per node type.
pub mod table2 {
    pub const NODE_TYPES: [&str; 4] = [
        "ec2-m1.large",
        "ec2-m1.xlarge",
        "ec2-cc1.4xlarge",
        "physical",
    ];
    pub const UV_HADOOP: [f64; 4] = [1844.0, 1296.0, 1284.0, 1398.0];
    pub const UV_HAIL: [f64; 4] = [3418.0, 2039.0, 1742.0, 1600.0];
    pub const SYN_HADOOP: [f64; 4] = [1176.0, 788.0, 827.0, 1132.0];
    pub const SYN_HAIL: [f64; 4] = [1023.0, 640.0, 600.0, 717.0];
}

/// Fig. 5: scale-out upload seconds (10/50/100 cc1.4xlarge nodes,
/// constant data per node).
pub mod fig5 {
    pub const NODES: [usize; 3] = [10, 50, 100];
    pub const SYN_HADOOP: [f64; 3] = [827.0, 918.0, 1026.0];
    pub const SYN_HAIL: [f64; 3] = [600.0, 684.0, 633.0];
    pub const UV_HADOOP: [f64; 3] = [1284.0, 1836.0, 1476.0];
    pub const UV_HAIL: [f64; 3] = [1742.0, 1530.0, 1486.0];
}

/// Fig. 6(a): Bob-query end-to-end seconds (HailSplitting off).
pub mod fig6a {
    pub const QUERIES: [&str; 5] = ["Bob-Q1", "Bob-Q2", "Bob-Q3", "Bob-Q4", "Bob-Q5"];
    pub const HADOOP: [f64; 5] = [1094.0, 1006.0, 942.0, 1099.0, 1099.0];
    pub const HADOOP_PP: [f64; 5] = [1160.0, 705.0, 651.0, 1143.0, 1145.0];
    pub const HAIL: [f64; 5] = [601.0, 598.0, 598.0, 598.0, 602.0];
}

/// Fig. 6(b): Bob-query average record-reader milliseconds.
pub mod fig6b {
    pub const HADOOP: [f64; 5] = [3358.0, 2156.0, 2112.0, 2470.0, 2442.0];
    pub const HADOOP_PP: [f64; 5] = [2776.0, 53.0, 83.0, 2917.0, 2864.0];
    pub const HAIL: [f64; 5] = [573.0, 527.0, 333.0, 683.0, 683.0];
    /// Headline: HAIL RR is up to 46× faster than Hadoop, 38× than H++.
    pub const MAX_SPEEDUP_VS_HADOOP: f64 = 46.0;
}

/// Fig. 7(a): Synthetic-query end-to-end seconds (HailSplitting off).
pub mod fig7a {
    pub const QUERIES: [&str; 6] = [
        "Syn-Q1a", "Syn-Q1b", "Syn-Q1c", "Syn-Q2a", "Syn-Q2b", "Syn-Q2c",
    ];
    pub const HADOOP: [f64; 6] = [572.0, 517.0, 473.0, 460.0, 446.0, 450.0];
    pub const HADOOP_PP: [f64; 6] = [460.0, 463.0, 433.0, 404.0, 403.0, 403.0];
    pub const HAIL: [f64; 6] = [409.0, 466.0, 433.0, 433.0, 430.0, 433.0];
}

/// Fig. 7(b): Synthetic-query average record-reader milliseconds.
pub mod fig7b {
    pub const HADOOP: [f64; 6] = [2116.0, 1885.0, 1708.0, 1652.0, 1615.0, 1610.0];
    pub const HADOOP_PP: [f64; 6] = [572.0, 331.0, 282.0, 74.0, 60.0, 58.0];
    pub const HAIL: [f64; 6] = [495.0, 274.0, 139.0, 131.0, 78.0, 60.0];
}

/// Fig. 8: failover slowdown percentages.
pub mod fig8 {
    pub const HADOOP_SLOWDOWN: f64 = 10.3;
    pub const HAIL_SLOWDOWN: f64 = 10.5;
    pub const HAIL_1IDX_SLOWDOWN: f64 = 5.5;
    pub const HADOOP_RUNTIME: f64 = 1099.0;
    pub const HAIL_RUNTIME: f64 = 598.0;
}

/// Fig. 9: end-to-end seconds with HailSplitting on.
pub mod fig9 {
    pub const BOB_HAIL: [f64; 5] = [16.0, 15.0, 15.0, 22.0, 65.0];
    pub const SYN_HAIL: [f64; 6] = [127.0, 63.0, 28.0, 57.0, 23.0, 17.0];
    /// Fig. 9(c): total workload seconds.
    pub const BOB_TOTALS: [f64; 3] = [5240.0, 4804.0, 133.0]; // Hadoop, H++, HAIL
    pub const SYN_TOTALS: [f64; 3] = [2918.0, 2655.0, 315.0];
    /// Headline factors: HAIL up to 68× faster than Hadoop (Bob), 39×
    /// on the whole Bob workload, 9× on Synthetic.
    pub const MAX_SPEEDUP: f64 = 68.0;
}

#[cfg(test)]
mod tests {
    #[test]
    fn headline_ratios_consistent() {
        // Fig. 9(c) totals reproduce the paper's 39×/36× claims.
        let bob = super::fig9::BOB_TOTALS;
        assert!((bob[0] / bob[2] - 39.4).abs() < 1.0);
        assert!((bob[1] / bob[2] - 36.1).abs() < 1.0);
        let syn = super::fig9::SYN_TOTALS;
        assert!((syn[0] / syn[2] - 9.26).abs() < 0.5);
    }

    #[test]
    fn fig4_upload_factors() {
        // §6.3.1: Hadoop++ is 5.2×/8.2× slower than HAIL on Synthetic.
        let f0 = super::fig4b::HADOOP_PP[0] / super::fig4b::HAIL[0];
        let f1 = super::fig4b::HADOOP_PP[1] / super::fig4b::HAIL[1];
        assert!((f0 - 5.2).abs() < 0.1);
        assert!((f1 - 8.2).abs() < 0.1);
    }
}
