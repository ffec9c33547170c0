//! Coarse clustering (Algorithm 2).
//!
//! 1. Mine frequent subtrees from the database ([10]);
//! 2. refine the subtree set with greedy facility-location selection
//!    (Appendix B) so near-duplicate features are dropped;
//! 3. represent each graph as a binary feature vector over the selected
//!    subtrees;
//! 4. cluster the vectors with k-means (k-means++ seeds), `k = |D| / N`.

use crate::kmeans::{as_clusters, kmeans, KMeansConfig};
use catapult_graph::Graph;
use catapult_mining::facility::select_features;
use catapult_mining::subtree::{feature_matrix, FrequentSubtree, SubtreeMinerConfig};
use rand::Rng;

/// Parameters for coarse clustering.
#[derive(Clone, Copy, Debug)]
pub struct CoarseConfig {
    /// Maximum cluster size `N`; the k-means `k` is `max(|D| / N, 1)`.
    pub max_cluster_size: usize,
    /// Frequent-subtree mining parameters (`min_fr` etc.).
    pub miner: SubtreeMinerConfig,
    /// Maximum number of subtree features kept by the facility-location
    /// refinement.
    pub max_features: usize,
    /// k-means iteration cap.
    pub kmeans_iterations: usize,
}

impl Default for CoarseConfig {
    fn default() -> Self {
        CoarseConfig {
            max_cluster_size: 20,
            miner: SubtreeMinerConfig::default(),
            max_features: 64,
            kmeans_iterations: 30,
        }
    }
}

/// Output of coarse clustering.
#[derive(Clone, Debug)]
pub struct CoarseResult {
    /// Clusters of graph indices (a partition of `0..|D|`).
    pub clusters: Vec<Vec<u32>>,
    /// The selected frequent-subtree features.
    pub features: Vec<FrequentSubtree>,
}

/// Run Algorithm 2 with pre-mined frequent subtrees (the sampling path of
/// §4.3 mines them from an eager sample and recounts on `db`).
pub fn coarse_cluster_with_subtrees<R: Rng>(
    db: &[Graph],
    subtrees: Vec<FrequentSubtree>,
    cfg: &CoarseConfig,
    rng: &mut R,
) -> CoarseResult {
    let n = db.len();
    if n == 0 {
        return CoarseResult {
            clusters: Vec::new(),
            features: Vec::new(),
        };
    }
    // Facility-location refinement of the subtree set (Appendix B).
    let canon: Vec<_> = subtrees.iter().map(|t| t.canonical.clone()).collect();
    let selected = select_features(&canon, cfg.max_features, 0.0);
    let features: Vec<FrequentSubtree> =
        selected.into_iter().map(|i| subtrees[i].clone()).collect();

    if features.is_empty() {
        // No frequent structure at all: a single cluster.
        return CoarseResult {
            clusters: vec![(0..n as u32).collect()],
            features,
        };
    }

    let matrix = feature_matrix(n, &features);
    let points: Vec<Vec<f32>> = matrix
        .iter()
        .map(|row| row.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect())
        .collect();
    let k = (n / cfg.max_cluster_size).max(1);
    let result = kmeans(
        &points,
        &KMeansConfig {
            k,
            max_iterations: cfg.kmeans_iterations,
        },
        rng,
    );
    CoarseResult {
        clusters: as_clusters(&result.assignment, result.centroids.len()),
        features,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::{Label, VertexId};
    use catapult_mining::subtree::mine_frequent_subtrees;
    use rand::SeedableRng;

    /// Algorithm 2 end to end, mining included.
    fn coarse_cluster(db: &[Graph], cfg: &CoarseConfig, rng: &mut impl Rng) -> CoarseResult {
        coarse_cluster_with_subtrees(db, mine_frequent_subtrees(db, &cfg.miner), cfg, rng)
    }

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn ring(n: u32, label: Label) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(label);
        }
        for i in 0..n {
            g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
        }
        g
    }

    fn chain(n: u32, label: Label) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(label);
        }
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
        }
        g
    }

    /// Two clearly distinct families: rings of label-0 and chains of label-1.
    fn bimodal_db() -> Vec<Graph> {
        let mut db = Vec::new();
        for i in 0..10 {
            db.push(ring(5 + i % 2, l(0)));
            db.push(chain(5 + i % 2, l(1)));
        }
        db
    }

    #[test]
    fn partitions_the_database() {
        let db = bimodal_db();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let cfg = CoarseConfig {
            max_cluster_size: 10,
            ..Default::default()
        };
        let r = coarse_cluster(&db, &cfg, &mut rng);
        let mut all: Vec<u32> = r.clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..db.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn separates_label_families() {
        let db = bimodal_db();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let cfg = CoarseConfig {
            max_cluster_size: 10,
            ..Default::default()
        };
        let r = coarse_cluster(&db, &cfg, &mut rng);
        // Every cluster must be label-pure: rings (even indices) never share
        // a cluster with chains (odd indices).
        for c in &r.clusters {
            let has_ring = c.iter().any(|&i| i % 2 == 0);
            let has_chain = c.iter().any(|&i| i % 2 == 1);
            assert!(!(has_ring && has_chain), "mixed cluster {c:?}");
        }
    }

    #[test]
    fn empty_db() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = coarse_cluster(&[], &CoarseConfig::default(), &mut rng);
        assert!(r.clusters.is_empty());
    }

    #[test]
    fn degenerate_features_fall_back_to_single_cluster() {
        // Graphs with all-distinct labels: nothing is frequent at 90%.
        let db = vec![
            chain(3, l(10)),
            chain(3, l(11)),
            chain(3, l(12)),
            chain(3, l(13)),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cfg = CoarseConfig {
            miner: catapult_mining::subtree::SubtreeMinerConfig {
                min_support: 0.9,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = coarse_cluster(&db, &cfg, &mut rng);
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].len(), 4);
    }
}
