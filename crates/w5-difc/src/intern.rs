//! Label-layer counters read by `w5bench`.
//!
//! The store keys partitions by the [`crate::LabelPair`] each one holds, so
//! nothing label-derived is global or append-only and there is no label id
//! table to count. `labels`, `intern_hits`, `intern_misses` and `flow_hits`
//! are therefore always 0; they remain because the benchmark reads
//! [`InternStats`] by this path and reports them by these names.

/// The label layer's counters (they feed `w5bench`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct InternStats {
    /// Always 0: there is no label id table.
    pub labels: u64,
    /// Always 0: there is no label id table.
    pub intern_hits: u64,
    /// Always 0: there is no label id table.
    pub intern_misses: u64,
    /// Always 0: there is no flow cache to hit.
    pub flow_hits: u64,
    /// Subset tests run by [`crate::rules::can_flow_unprivileged`].
    pub flow_misses: u64,
}

/// Snapshot of the global counters.
pub fn stats() -> InternStats {
    InternStats { flow_misses: crate::rules::unprivileged_tests_run(), ..InternStats::default() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Label, LabelPair, Tag};

    #[test]
    fn stats_move() {
        let before = stats();
        let l = |ids: &[u64]| Label::from_iter(ids.iter().map(|&i| Tag::from_raw(i)));
        let narrow = LabelPair::new(l(&[700_001]), Label::empty());
        let wide = LabelPair::new(l(&[700_001, 700_002]), Label::empty());
        assert!(crate::rules::can_flow_unprivileged(&narrow, &wide));
        let after = stats();
        assert!(after.flow_misses > before.flow_misses, "a subset test was run");
        assert_eq!(InternStats { flow_misses: 0, ..after }, InternStats::default(), "the rest are 0");
    }
}
