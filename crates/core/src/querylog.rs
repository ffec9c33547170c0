//! Query-log-aware selection (the §3.3 remark).
//!
//! CATAPULT is deliberately query-log-*oblivious* — logs are unavailable in
//! cold-start settings — but the paper notes that the canned-pattern
//! selection step "can be extended to incorporate frequency of patterns in
//! past subgraph queries". This module provides that extension: a
//! [`QueryLog`] measures how often a candidate pattern occurred inside
//! logged queries, and [`crate::select::SelectionConfig::query_log`]
//! multiplies the Eq. 2 score by `1 + λ · freq(p)`, biasing selection
//! toward patterns users actually compose with — without ever *excluding*
//! data-driven patterns (a zero-frequency pattern keeps its base score).

use catapult_graph::iso::{for_each_embedding, MatchOptions};
use catapult_graph::{Graph, SearchBudget, Tally};
use std::ops::ControlFlow;

/// A log of previously formulated subgraph queries.
#[derive(Clone, Debug, Default)]
pub struct QueryLog {
    queries: Vec<Graph>,
}

/// Default VF2 node cap per containment probe; logged queries are small
/// (≤ ~40 edges) so this is ample. A user [`SearchBudget`] node cap
/// overrides it.
pub const LOG_ISO_BUDGET: u64 = 200_000;

impl QueryLog {
    /// Build a log from recorded queries.
    pub fn new(queries: Vec<Graph>) -> Self {
        QueryLog { queries }
    }

    /// Number of logged queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Append one query to the log.
    pub fn record(&mut self, q: Graph) {
        self.queries.push(q);
    }

    /// Fraction of logged queries containing `pattern` (0 for an empty
    /// log). Each VF2 probe runs under `budget` (its node cap defaulting
    /// to [`LOG_ISO_BUDGET`]) and is recorded in `tally`.
    pub fn pattern_frequency(&self, pattern: &Graph, budget: &SearchBudget, tally: &Tally) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        let probe = budget.with_default_cap(LOG_ISO_BUDGET);
        let hits = self
            .queries
            .iter()
            .filter(|q| {
                let opts = MatchOptions {
                    max_embeddings: 1,
                    budget: probe.clone(),
                    ..MatchOptions::default()
                };
                // A tripped probe under-counts the boost factor — it can
                // only weaken the log bias, never corrupt the base score.
                let out = for_each_embedding(q, pattern, opts, |_| ControlFlow::Break(()));
                tally.record(out.completeness);
                out.embeddings > 0
            })
            .count();
        hits as f64 / self.queries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::Label;

    fn freq(log: &QueryLog, p: &Graph) -> f64 {
        log.pattern_frequency(p, &SearchBudget::unbounded(), &Tally::new())
    }

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn cycle(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    fn path(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn frequency_counts_containing_queries() {
        let log = QueryLog::new(vec![cycle(6), cycle(5), path(4)]);
        // A 3-path embeds in all three; a triangle in none.
        assert!((freq(&log, &path(3)) - 1.0).abs() < 1e-12);
        assert_eq!(freq(&log, &cycle(3)), 0.0);
        // cycle(5) only in the 5-cycle query.
        assert!((freq(&log, &cycle(5)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_is_neutral() {
        let log = QueryLog::default();
        assert!(log.is_empty());
        assert_eq!(freq(&log, &path(3)), 0.0);
    }

    #[test]
    fn record_grows_log() {
        let mut log = QueryLog::default();
        log.record(cycle(4));
        assert_eq!(log.len(), 1);
        assert_eq!(freq(&log, &cycle(4)), 1.0);
    }

    #[test]
    fn probes_run_under_the_callers_budget() {
        let log = QueryLog::new(vec![cycle(6), cycle(5), path(4)]);
        let tally = Tally::new();
        log.pattern_frequency(&path(3), &SearchBudget::unbounded(), &tally);
        assert_eq!(tally.counts().total(), 3, "one audited probe per query");
        assert!(tally.counts().all_exact());
        // A zero node cap reaches the log probes too.
        let exhausted = Tally::new();
        log.pattern_frequency(&cycle(5), &SearchBudget::nodes(0), &exhausted);
        assert!(exhausted.counts().degraded() > 0);
    }
}
