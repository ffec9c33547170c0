//! Clustering quality metrics.
//!
//! Lemma 4.2 analyzes small-graph clustering through the
//! *misclassification error distance* to an optimum clustering [29]; this
//! module implements that distance (via an optimal cluster matching,
//! solved with the Hungarian algorithm) plus intra-/inter-cluster MCCS
//! similarity summaries used by the ablations to characterize partitions.

use catapult_graph::matching::hungarian;
use catapult_graph::mcs::{similarity, McsConfig};
use catapult_graph::{Graph, SearchBudget, Tally};

/// Misclassification error distance between two clusterings of the same
/// `n` items: `|D'| / n` where `|D'|` is the minimum number of items
/// falling outside an optimal 1-1 matching of clusters [29].
///
/// 0 means identical partitions (up to cluster renaming); approaches 1 as
/// the partitions decorrelate.
pub fn misclassification_distance(a: &[Vec<u32>], b: &[Vec<u32>], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let k = a.len().max(b.len());
    if k == 0 {
        return 1.0;
    }
    // Overlap matrix, padded square; Hungarian minimizes, so negate.
    let overlap = |x: &[u32], y: &[u32]| -> usize {
        let sy: std::collections::HashSet<u32> = y.iter().copied().collect();
        x.iter().filter(|v| sy.contains(v)).count()
    };
    let mut cost = vec![vec![0.0f64; k]; k];
    for (i, row) in cost.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let o = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => overlap(x, y),
                _ => 0,
            };
            *cell = -(o as f64);
        }
    }
    let (neg_matched, _) = hungarian(&cost);
    let matched = -neg_matched;
    ((n as f64 - matched) / n as f64).clamp(0.0, 1.0)
}

/// Mean pairwise MCCS similarity within clusters vs across clusters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeparationReport {
    /// Mean ω_mccs over same-cluster pairs.
    pub intra: f64,
    /// Mean ω_mccs over cross-cluster pairs (sampled).
    pub inter: f64,
    /// Same-cluster pairs measured.
    pub intra_pairs: usize,
    /// Cross-cluster pairs measured.
    pub inter_pairs: usize,
    /// Pairs whose MCCS search tripped its budget — their similarity is a
    /// lower bound, so treat `intra`/`inter` as approximate when nonzero.
    pub degraded_pairs: usize,
}

/// Measure cluster separation: all intra-cluster pairs, and up to
/// `inter_cap` cross-cluster pairs (strided deterministically). Accepts
/// any budget convertible to [`SearchBudget`] (a bare `u64` node cap
/// included) and reports how many pair similarities were degraded.
pub fn separation(
    db: &[Graph],
    clusters: &[Vec<u32>],
    budget: impl Into<SearchBudget>,
    inter_cap: usize,
) -> SeparationReport {
    let cfg = McsConfig {
        budget: budget.into(),
        ..McsConfig::connected()
    };
    let tally = Tally::new();
    let sim = |x: u32, y: u32| {
        let (s, c) = similarity(&db[x as usize], &db[y as usize], cfg.clone());
        tally.record(c);
        s
    };
    let mut intra = Vec::new();
    for c in clusters {
        for i in 0..c.len() {
            for j in (i + 1)..c.len() {
                intra.push(sim(c[i], c[j]));
            }
        }
    }
    // Cross-cluster pairs: first members of distinct clusters, strided.
    let mut inter = Vec::new();
    'outer: for (ci, c) in clusters.iter().enumerate() {
        for d in clusters.iter().skip(ci + 1) {
            for (&x, &y) in c.iter().zip(d.iter()) {
                if inter.len() >= inter_cap {
                    break 'outer;
                }
                inter.push(sim(x, y));
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    SeparationReport {
        intra: mean(&intra),
        inter: mean(&inter),
        intra_pairs: intra.len(),
        inter_pairs: inter.len(),
        degraded_pairs: tally.counts().degraded() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::{Label, VertexId};

    fn ring(n: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(Label(0));
        }
        for i in 0..n {
            g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
        }
        g
    }

    fn chain(n: u32, label: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(Label(label));
        }
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
        }
        g
    }

    #[test]
    fn identical_partitions_have_zero_distance() {
        let a = vec![vec![0, 1, 2], vec![3, 4]];
        assert_eq!(misclassification_distance(&a, &a, 5), 0.0);
        // Renamed clusters too.
        let b = vec![vec![3, 4], vec![0, 1, 2]];
        assert_eq!(misclassification_distance(&a, &b, 5), 0.0);
    }

    #[test]
    fn single_misplacement_costs_one_over_n() {
        let a = vec![vec![0, 1, 2], vec![3, 4]];
        let b = vec![vec![0, 1], vec![2, 3, 4]];
        assert!((misclassification_distance(&a, &b, 5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn different_cluster_counts_are_handled() {
        let a = vec![vec![0, 1, 2, 3]];
        let b = vec![vec![0, 1], vec![2, 3]];
        // Best match keeps 2 of 4 together.
        assert!((misclassification_distance(&a, &b, 4) - 0.5).abs() < 1e-12);
        assert_eq!(misclassification_distance(&[], &[], 0), 0.0);
    }

    #[test]
    fn separation_detects_structure() {
        // Two families: rings of different labels vs chains.
        let db: Vec<Graph> = vec![
            ring(6),
            ring(6),
            ring(6),
            chain(6, 1),
            chain(6, 1),
            chain(6, 1),
        ];
        let clusters = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let r = separation(&db, &clusters, 50_000u64, 10);
        assert!(r.intra > r.inter, "intra {} vs inter {}", r.intra, r.inter);
        assert_eq!(r.intra_pairs, 6);
        assert!(r.inter_pairs > 0);
        assert_eq!(r.degraded_pairs, 0, "generous budget must stay exact");
    }

    #[test]
    fn separation_reports_degraded_pairs() {
        let db: Vec<Graph> = vec![ring(6), ring(6), chain(6, 1), chain(6, 1)];
        let clusters = vec![vec![0, 1], vec![2, 3]];
        let r = separation(&db, &clusters, SearchBudget::nodes(1), 10);
        assert!(r.degraded_pairs > 0, "1-node budget must trip");
    }
}
