//! Cluster weights (`cw`), edge-label weights (`elw`) and weighted CSGs
//! (§3.3, §5).
//!
//! * `cw_i = |C_i| / |D|` measures cluster importance; patterns derived
//!   from heavy CSGs are likelier to achieve high coverage.
//! * `elw(e) = lcov(e, D)` is the global occurrence of the labeled edge.
//! * A weighted CSG assigns each closure edge
//!   `w_e = lcov(e, D) × lcov(e, C)` — global × local label coverage —
//!   which seeds and steers the §5 random walks.
//! * After a pattern is selected, both weight families are damped with the
//!   multiplicative-weights update `w' = (1 − n) · w`, `n = 0.5` [2].

// Eq. 2 scores feed a greedy argmax whose picks must not depend on
// float noise: compare with ranges or `total_cmp`, never `==`.
#![warn(clippy::float_cmp)]

use crate::summary::Csg;
use catapult_graph::{EdgeId, EdgeLabel, Graph};
use catapult_mining::edges::EdgeLabelStats;
use std::collections::HashMap;

/// The multiplicative-weights damping factor `n` (paper uses 0.5 per [2]).
pub const WEIGHT_DAMPING: f64 = 0.5;

/// Per-cluster importance weights `cw`.
#[derive(Clone, Debug)]
pub struct ClusterWeights {
    weights: Vec<f64>,
}

impl ClusterWeights {
    /// `cw_i = |C_i| / |D|` (§3.3). `db_size` is `|D|`.
    pub fn new(csgs: &[Csg], db_size: usize) -> Self {
        let weights = csgs
            .iter()
            .map(|c| {
                if db_size == 0 {
                    0.0
                } else {
                    c.cluster_size() as f64 / db_size as f64
                }
            })
            .collect();
        ClusterWeights { weights }
    }

    /// Weight of cluster `i`.
    pub fn get(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Damp the weight of cluster `i`: `w' = (1 − n) w` (§5).
    pub fn damp(&mut self, i: usize) {
        self.weights[i] *= 1.0 - WEIGHT_DAMPING;
    }
}

/// Per-edge-label weights `elw`.
#[derive(Clone, Debug)]
pub struct EdgeLabelWeights {
    weights: HashMap<EdgeLabel, f64>,
    stats: EdgeLabelStats,
}

impl EdgeLabelWeights {
    /// Initialize from database statistics: `elw(e) = lcov(e, D)`.
    pub fn new(stats: EdgeLabelStats) -> Self {
        let weights = stats
            .labels()
            .into_iter()
            .map(|el| (el, stats.lcov(el)))
            .collect();
        EdgeLabelWeights { weights, stats }
    }

    /// Current weight of an edge label (0 for labels absent from `D`).
    pub fn get(&self, el: EdgeLabel) -> f64 {
        self.weights.get(&el).copied().unwrap_or(0.0)
    }

    /// The (immutable) original global coverage `lcov(e, D)`.
    pub fn lcov(&self, el: EdgeLabel) -> f64 {
        self.stats.lcov(el)
    }

    /// Damp the weight of every edge label occurring in `pattern` (§5).
    pub fn damp_pattern(&mut self, pattern: &Graph) {
        for el in pattern.edge_label_set() {
            if let Some(w) = self.weights.get_mut(&el) {
                *w *= 1.0 - WEIGHT_DAMPING;
            }
        }
    }

    /// Underlying database-wide statistics.
    pub fn stats(&self) -> &EdgeLabelStats {
        &self.stats
    }
}

/// A CSG with per-edge random-walk weights (§5, "weighted CSG").
#[derive(Clone, Debug)]
pub struct WeightedCsg<'a> {
    /// The summarized cluster.
    pub csg: &'a Csg,
    /// `w_e = elw(e) × lcov(e, C)` per closure edge, where the *current*
    /// (possibly damped) `elw` supplies the global part.
    pub edge_weights: Vec<f64>,
}

impl<'a> WeightedCsg<'a> {
    /// Compute edge weights from the current `elw` (Algorithm 4 line 2;
    /// recomputed per iteration because `elw` is damped between patterns).
    pub fn new(csg: &'a Csg, elw: &EdgeLabelWeights) -> Self {
        let n = csg.cluster_size() as f64;
        let edge_weights = csg
            .graph
            .edges()
            .map(|(eid, _)| {
                let el = csg.graph.edge_label(eid);
                // Local coverage: members containing this labeled edge. The
                // closure may hold several parallel copies of one label;
                // support of this structural edge is what we track.
                let local = csg.edge_support(eid).len() as f64 / n;
                elw.get(el) * local
            })
            .collect();
        WeightedCsg { csg, edge_weights }
    }

    /// The edge with the largest weight — the random-walk *seed edge*.
    /// Deterministic tie-break on edge id.
    pub fn seed_edge(&self) -> Option<EdgeId> {
        self.edge_weights
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_finite())
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Weight of edge `e`.
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.edge_weights[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::build_csgs;
    use catapult_graph::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn db() -> Vec<Graph> {
        vec![
            Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (0, 2), (1, 2)]),
            Graph::from_parts(&[l(0), l(1), l(2), l(3)], &[(0, 1), (0, 2), (0, 3)]),
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
        ]
    }

    #[test]
    fn cluster_weights_are_fractions() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let cw = ClusterWeights::new(&csgs, db.len());
        assert!((cw.get(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((cw.get(1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn damping_halves() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let mut cw = ClusterWeights::new(&csgs, db.len());
        cw.damp(0);
        assert!((cw.get(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn elw_matches_lcov_and_damps() {
        let db = db();
        let stats = EdgeLabelStats::from_graphs(&db);
        let mut elw = EdgeLabelWeights::new(stats);
        let co = EdgeLabel::new(l(0), l(1));
        assert!((elw.get(co) - 1.0).abs() < 1e-12); // C-O in all 3 graphs
        let pattern = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        elw.damp_pattern(&pattern);
        assert!((elw.get(co) - 0.5).abs() < 1e-12);
        // lcov stays fixed even after damping.
        assert!((elw.lcov(co) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_csg_seed_is_heaviest() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1]]);
        let elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(&db));
        let w = WeightedCsg::new(&csgs[0], &elw);
        let seed = w.seed_edge().unwrap();
        // The C-O closure edge is in both cluster members and all 3 graphs:
        // weight 1.0 × 1.0; strictly heaviest.
        let el = csgs[0].graph.edge_label(seed);
        assert_eq!(el, EdgeLabel::new(l(0), l(1)));
        for (eid, _) in csgs[0].graph.edges() {
            assert!(w.weight(seed) >= w.weight(eid));
        }
    }

    #[test]
    #[allow(clippy::float_cmp)] // an unseen label weighs exactly zero
    fn unknown_label_weight_zero() {
        let db = db();
        let elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(&db));
        assert_eq!(elw.get(EdgeLabel::new(l(7), l(8))), 0.0);
    }
}
