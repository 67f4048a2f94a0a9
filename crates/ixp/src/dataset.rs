//! The Table 1 datasets, as published.
//!
//! The paper characterizes one week (January 1–6, 2014) of RIPE RIS BGP
//! updates at the three largest IXPs. These constants are the calibration
//! targets for the synthetic generators; `tests/table1.rs` regenerates the
//! table from synthetic traces and checks the columns against these.

/// Published statistics for one IXP dataset (Table 1).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct IxpDataset {
    /// IXP name.
    pub name: &'static str,
    /// Peers visible at the RIS collector.
    pub collector_peers: usize,
    /// Total member ASes at the IXP.
    pub total_peers: usize,
    /// Distinct prefixes in the collector's tables.
    pub prefixes: usize,
    /// BGP updates over the measurement week (after discarding
    /// session-reset churn per Zhang et al.).
    pub updates: u64,
    /// Fraction of prefixes that saw at least one update all week.
    pub pct_prefixes_with_updates: f64,
}

/// AMS-IX (Amsterdam), the largest IXP in the study.
pub const AMS_IX: IxpDataset = IxpDataset {
    name: "AMS-IX",
    collector_peers: 116,
    total_peers: 639,
    prefixes: 518_082,
    updates: 11_161_624,
    pct_prefixes_with_updates: 9.88,
};

/// DE-CIX (Frankfurt).
pub const DE_CIX: IxpDataset = IxpDataset {
    name: "DE-CIX",
    collector_peers: 92,
    total_peers: 580,
    prefixes: 518_391,
    updates: 30_934_525,
    pct_prefixes_with_updates: 13.64,
};

/// LINX (London).
pub const LINX: IxpDataset = IxpDataset {
    name: "LINX",
    collector_peers: 71,
    total_peers: 496,
    prefixes: 503_392,
    updates: 16_658_819,
    pct_prefixes_with_updates: 12.67,
};

/// All three datasets, in the paper's column order.
pub const ALL: [IxpDataset; 3] = [AMS_IX, DE_CIX, LINX];

/// Seconds in the paper's measurement window (Jan 1–6 = six days).
pub const MEASUREMENT_WINDOW_SECS: u64 = 6 * 24 * 3600;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_table1() {
        assert_eq!(AMS_IX.collector_peers, 116);
        assert_eq!(AMS_IX.total_peers, 639);
        assert_eq!(DE_CIX.updates, 30_934_525);
        assert_eq!(LINX.prefixes, 503_392);
        assert!(ALL.iter().all(|d| d.pct_prefixes_with_updates < 15.0));
        assert!(ALL.iter().all(|d| d.pct_prefixes_with_updates > 9.0));
    }

    #[test]
    fn update_rates_are_plausible() {
        // Sanity: the busiest IXP sees ~60 updates/second on average.
        for d in ALL {
            let rate = d.updates as f64 / MEASUREMENT_WINDOW_SECS as f64;
            assert!(rate > 10.0 && rate < 100.0, "{}: {rate}", d.name);
        }
    }
}
