//! k-means clustering with k-means++ seeding (§4.1, [4]).
//!
//! Coarse clustering runs k-means over binary frequent-subtree feature
//! vectors with `k = |D| / N` and k-means++ seed selection. The paper notes
//! the framework is orthogonal to the specific feature-vector clustering
//! algorithm; this implementation is the standard Lloyd iteration with
//! squared-Euclidean distance, deterministic under a seeded RNG.

use catapult_graph::random::weighted_choice;
use rand::Rng;

/// k-means parameters.
#[derive(Clone, Copy, Debug)]
pub struct KMeansConfig {
    /// Number of clusters (`k = |D| / N` in Algorithm 2).
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iterations: 50,
        }
    }
}

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// Cluster assignment per point.
    pub assignment: Vec<usize>,
    /// Final centroids.
    pub centroids: Vec<Vec<f32>>,
    /// Iterations executed.
    pub iterations: usize,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
}

fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum()
}

/// k-means++ seeding: first centroid uniform, subsequent centroids sampled
/// with probability proportional to squared distance to the nearest chosen
/// centroid [4].
fn kmeans_pp_seeds<R: Rng>(points: &[Vec<f32>], k: usize, rng: &mut R) -> Vec<usize> {
    let n = points.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let mut seeds = Vec::with_capacity(k);
    seeds.push(rng.gen_range(0..n));
    let mut d2: Vec<f64> = points
        .iter()
        .map(|p| sq_dist(p, &points[seeds[0]]))
        .collect();
    while seeds.len() < k {
        let weights: Vec<f64> = d2.clone();
        let next = match weighted_choice(&weights, rng) {
            Some(i) => i,
            // All points coincide with an existing seed: pick any unused.
            None => match (0..n).find(|i| !seeds.contains(i)) {
                Some(i) => i,
                None => break,
            },
        };
        seeds.push(next);
        for (i, p) in points.iter().enumerate() {
            let d = sq_dist(p, &points[next]);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    seeds
}

/// Run k-means over `points` (k-means++ seeded Lloyd iterations).
///
/// Empty clusters are re-seeded with the point farthest from its centroid,
/// so exactly `min(k, n)` non-degenerate clusters come out for distinct
/// inputs.
pub fn kmeans<R: Rng>(points: &[Vec<f32>], cfg: &KMeansConfig, rng: &mut R) -> KMeansResult {
    let n = points.len();
    if n == 0 || cfg.k == 0 {
        return KMeansResult {
            assignment: Vec::new(),
            centroids: Vec::new(),
            iterations: 0,
            inertia: 0.0,
        };
    }
    let dim = points[0].len();
    let k = cfg.k.min(n);
    let seeds = kmeans_pp_seeds(points, k, rng);
    let mut centroids: Vec<Vec<f32>> = seeds.iter().map(|&i| points[i].clone()).collect();
    let mut assignment = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..cfg.max_iterations {
        iterations = it + 1;
        // Assign.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            // `total_cmp` tolerates NaN distances; `unwrap_or(0)` covers the
            // degenerate k = 0 case without a panicking path.
            let best = (0..centroids.len())
                .min_by(|&a, &b| sq_dist(p, &centroids[a]).total_cmp(&sq_dist(p, &centroids[b])))
                .unwrap_or(0);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        // Update.
        let mut sums = vec![vec![0.0f64; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            counts[assignment[i]] += 1;
            for (s, &x) in sums[assignment[i]].iter_mut().zip(p) {
                *s += x as f64;
            }
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if count > 0 {
                for (ci, &s) in c.iter_mut().zip(sum) {
                    *ci = (s / count as f64) as f32;
                }
            }
        }
        // Re-seed empty clusters with the worst-fit point.
        for c in 0..centroids.len() {
            if counts[c] == 0 {
                if let Some((i, _)) = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, sq_dist(p, &centroids[assignment[i]])))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                {
                    centroids[c] = points[i].clone();
                    assignment[i] = c;
                }
            }
        }
    }
    let inertia = points
        .iter()
        .zip(&assignment)
        .map(|(p, &a)| sq_dist(p, &centroids[a]))
        .sum();
    KMeansResult {
        assignment,
        centroids,
        iterations,
        inertia,
    }
}

/// Group point indices by cluster id, dropping empty clusters; output
/// clusters are sorted by smallest member for determinism.
pub fn as_clusters(assignment: &[usize], k: usize) -> Vec<Vec<u32>> {
    let mut clusters = vec![Vec::new(); k];
    for (i, &a) in assignment.iter().enumerate() {
        clusters[a].push(i as u32);
    }
    clusters.retain(|c| !c.is_empty());
    clusters.sort_by_key(|c| c[0]);
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn two_blobs() -> Vec<Vec<f32>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + (i % 3) as f32 * 0.01, 0.0]);
            pts.push(vec![5.0 + (i % 3) as f32 * 0.01, 5.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                max_iterations: 50,
            },
            &mut rng,
        );
        // All even-indexed points (blob A) share a cluster; odds share the other.
        let a = r.assignment[0];
        let b = r.assignment[1];
        assert_ne!(a, b);
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(r.assignment[i], a);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_eq!(r.assignment[i], b);
        }
        assert!(r.inertia < 0.1);
    }

    #[test]
    fn k_capped_at_n() {
        let pts = vec![vec![0.0f32], vec![1.0]];
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 10,
                max_iterations: 10,
            },
            &mut rng,
        );
        assert_eq!(r.centroids.len(), 2);
    }

    #[test]
    fn seeds_are_distinct_for_distinct_points() {
        let pts = two_blobs();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let seeds = kmeans_pp_seeds(&pts, 2, &mut rng);
        assert_eq!(seeds.len(), 2);
        assert_ne!(pts[seeds[0]], pts[seeds[1]]);
    }

    #[test]
    fn identical_points_degenerate() {
        let pts = vec![vec![1.0f32, 1.0]; 5];
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let seeds = kmeans_pp_seeds(&pts, 3, &mut rng);
        assert_eq!(seeds.len(), 3); // falls back to unused indices
        let r = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                max_iterations: 10,
            },
            &mut rng,
        );
        assert_eq!(r.assignment.len(), 5);
    }

    #[test]
    fn empty_input() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let r = kmeans(&[], &KMeansConfig::default(), &mut rng);
        assert!(r.assignment.is_empty());
    }

    #[test]
    fn as_clusters_groups_and_drops_empty() {
        let clusters = as_clusters(&[0, 2, 0, 2], 4);
        assert_eq!(clusters, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn deterministic_under_seed() {
        let pts = two_blobs();
        let r1 = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                max_iterations: 20,
            },
            &mut rand::rngs::StdRng::seed_from_u64(9),
        );
        let r2 = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                max_iterations: 20,
            },
            &mut rand::rngs::StdRng::seed_from_u64(9),
        );
        assert_eq!(r1.assignment, r2.assignment);
    }
}
