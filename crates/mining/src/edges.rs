//! Labeled-edge statistics over a graph database.
//!
//! Used in three places in the paper:
//! * the *edge label weight* `elw` (§3.3) — the global occurrence of a
//!   labeled edge, `lcov(e, D) = |L(e, D)| / |D|`;
//! * the per-cluster local occurrence `lcov(e, C)` used for weighted CSGs
//!   (§5);
//! * the top-`|P|` frequent-edge baseline of Exp 5 (Fig. 11).

use catapult_graph::{EdgeLabel, Graph};
use std::collections::HashMap;

/// Per-edge-label transaction counts over a set of graphs.
#[derive(Clone, Debug, Default)]
pub struct EdgeLabelStats {
    counts: HashMap<EdgeLabel, usize>,
    total_graphs: usize,
}

impl EdgeLabelStats {
    /// Count, for each distinct edge label, the number of graphs in `db`
    /// containing at least one edge with that label.
    pub fn from_graphs<'a, I: IntoIterator<Item = &'a Graph>>(db: I) -> Self {
        let mut counts: HashMap<EdgeLabel, usize> = HashMap::new();
        let mut total = 0usize;
        for g in db {
            total += 1;
            for el in g.edge_label_set() {
                *counts.entry(el).or_insert(0) += 1;
            }
        }
        EdgeLabelStats {
            counts,
            total_graphs: total,
        }
    }

    /// Number of graphs containing an edge with label `el`.
    pub fn count(&self, el: EdgeLabel) -> usize {
        self.counts.get(&el).copied().unwrap_or(0)
    }

    /// `lcov(e, D) = |L(e, D)| / |D|` — the fraction of graphs containing
    /// an edge with this label (§3.2).
    pub fn lcov(&self, el: EdgeLabel) -> f64 {
        if self.total_graphs == 0 {
            return 0.0;
        }
        self.count(el) as f64 / self.total_graphs as f64
    }

    /// Distinct edge labels observed, sorted.
    pub fn labels(&self) -> Vec<EdgeLabel> {
        let mut v: Vec<EdgeLabel> = self.counts.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The `k` most frequent edge labels (by transaction count, ties broken
    /// by label order for determinism).
    fn top_k(&self, k: usize) -> Vec<(EdgeLabel, usize)> {
        let mut v: Vec<(EdgeLabel, usize)> = self.counts.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Materialize the top-`k` frequent edges as one-edge pattern graphs —
    /// the Exp 5 baseline.
    pub fn top_k_as_patterns(&self, k: usize) -> Vec<Graph> {
        self.top_k(k)
            .into_iter()
            .map(|(el, _)| edge_pattern(el))
            .collect()
    }
}

/// Build the one-edge pattern graph for an edge label.
fn edge_pattern(el: EdgeLabel) -> Graph {
    Graph::from_parts(&[el.0, el.1], &[(0, 1)])
}

/// Distinct edge labels of a whole pattern set (used for label coverage of
/// a canned pattern set, §3.2).
pub fn pattern_set_edge_labels(patterns: &[Graph]) -> Vec<EdgeLabel> {
    let mut out: Vec<EdgeLabel> = patterns.iter().flat_map(|p| p.edge_label_set()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `lcov(P, D)`: fraction of graphs in the stats' population containing at
/// least one edge whose label appears in `labels`.
///
/// Exact computation needs the graphs themselves; this helper takes them
/// explicitly (the per-label counts alone cannot give the union).
pub fn label_coverage(db: &[Graph], labels: &[EdgeLabel]) -> f64 {
    if db.is_empty() {
        return 0.0;
    }
    let set: std::collections::HashSet<EdgeLabel> = labels.iter().copied().collect();
    let covered = db
        .iter()
        .filter(|g| g.edge_label_set().iter().any(|el| set.contains(el)))
        .count();
    covered as f64 / db.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn db() -> Vec<Graph> {
        vec![
            // C-O-C
            Graph::from_parts(&[l(0), l(1), l(0)], &[(0, 1), (1, 2)]),
            // C-C
            Graph::from_parts(&[l(0), l(0)], &[(0, 1)]),
            // C-O
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
        ]
    }

    #[test]
    fn counts_are_per_transaction() {
        let db = db();
        let stats = EdgeLabelStats::from_graphs(&db);
        // (C,O) appears in graphs 0 and 2 → count 2 even though graph 0 has
        // two C-O edges.
        assert_eq!(stats.count(EdgeLabel::new(l(0), l(1))), 2);
        assert_eq!(stats.count(EdgeLabel::new(l(0), l(0))), 1);
        assert_eq!(stats.count(EdgeLabel::new(l(1), l(1))), 0);
    }

    #[test]
    fn lcov_normalizes() {
        let db = db();
        let stats = EdgeLabelStats::from_graphs(&db);
        assert!((stats.lcov(EdgeLabel::new(l(0), l(1))) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_ordering() {
        let db = db();
        let stats = EdgeLabelStats::from_graphs(&db);
        let top = stats.top_k(2);
        assert_eq!(top[0].0, EdgeLabel::new(l(0), l(1)));
        assert_eq!(top.len(), 2);
        let pats = stats.top_k_as_patterns(1);
        assert_eq!(pats[0].edge_count(), 1);
        assert_eq!(pats[0].label(catapult_graph::VertexId(0)), l(0));
    }

    #[test]
    fn set_label_coverage() {
        let db = db();
        let labels = vec![EdgeLabel::new(l(0), l(0))];
        // Only graph 1 contains a C-C edge.
        assert!((label_coverage(&db, &labels) - 1.0 / 3.0).abs() < 1e-12);
        let all = EdgeLabelStats::from_graphs(&db).labels();
        assert!((label_coverage(&db, &all) - 1.0).abs() < 1e-12);
        assert_eq!(label_coverage(&[], &all), 0.0);
    }

    #[test]
    fn pattern_set_labels_dedup() {
        let p1 = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        let p2 = Graph::from_parts(&[l(1), l(0), l(0)], &[(0, 1), (1, 2)]);
        let labels = pattern_set_edge_labels(&[p1, p2]);
        assert_eq!(labels.len(), 2); // (0,1) and (0,0)
    }

    #[test]
    fn empty_stats() {
        let stats = EdgeLabelStats::from_graphs(std::iter::empty());
        assert_eq!(stats.total_graphs, 0);
        assert_eq!(stats.lcov(EdgeLabel::new(l(0), l(1))), 0.0);
        assert!(stats.top_k(3).is_empty());
    }
}
