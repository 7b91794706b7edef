//! Machine-independent execution work counters.
//!
//! The paper's experiments report wall-clock time on 2006-era hardware; to
//! make comparisons portable this engine additionally counts the *work* each
//! technique performs. ACQUIRE's central claim — each region of data is
//! executed at most once (§5) — shows up directly in `tuples_scanned`.

use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated by an [`crate::Executor`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Cell queries issued (§5.1: the only sub-query ACQUIRE ever executes).
    pub cell_queries: u64,
    /// Full refined-query executions (baselines re-execute whole queries).
    pub full_queries: u64,
    /// Tuples examined across all scans and joins.
    pub tuples_scanned: u64,
    /// Output rows produced by join operators.
    pub rows_joined: u64,
    /// Probes into a grid index (§7.4).
    pub index_probes: u64,
    /// Cell queries skipped because the index proved them empty (§7.4).
    pub cells_skipped: u64,
}

impl ExecStats {
    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Total queries issued against the evaluation layer.
    #[must_use]
    pub fn total_queries(&self) -> u64 {
        self.cell_queries + self.full_queries
    }

    /// Every counter as a stable `(name, value)` list — the bridge used by
    /// observability snapshots and the CLI's JSON output, so neither needs
    /// to hard-code the field set.
    #[must_use]
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("cell_queries", self.cell_queries),
            ("full_queries", self.full_queries),
            ("tuples_scanned", self.tuples_scanned),
            ("rows_joined", self.rows_joined),
            ("index_probes", self.index_probes),
            ("cells_skipped", self.cells_skipped),
        ]
    }
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: Self) {
        self.cell_queries += rhs.cell_queries;
        self.full_queries += rhs.full_queries;
        self.tuples_scanned += rhs.tuples_scanned;
        self.rows_joined += rhs.rows_joined;
        self.index_probes += rhs.index_probes;
        self.cells_skipped += rhs.cells_skipped;
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell_queries={} full_queries={} tuples_scanned={} rows_joined={} \
             index_probes={} cells_skipped={}",
            self.cell_queries,
            self.full_queries,
            self.tuples_scanned,
            self.rows_joined,
            self.index_probes,
            self.cells_skipped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_reset() {
        let mut a = ExecStats {
            cell_queries: 1,
            tuples_scanned: 10,
            ..Default::default()
        };
        let b = ExecStats {
            cell_queries: 2,
            full_queries: 3,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.cell_queries, 3);
        assert_eq!(a.full_queries, 3);
        assert_eq!(a.total_queries(), 6);
        a.reset();
        assert_eq!(a, ExecStats::default());
    }
}
