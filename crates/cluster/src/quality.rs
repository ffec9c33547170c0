//! Clustering quality metrics.
//!
//! Lemma 4.2 analyzes small-graph clustering through the
//! *misclassification error distance* to an optimum clustering [29]; this
//! module implements that distance (via an optimal cluster matching,
//! solved with the Hungarian algorithm).

use catapult_graph::matching::hungarian;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
