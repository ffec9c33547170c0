//! Eager and lazy sampling for very large repositories (§4.3).
//!
//! * **Eager sampling** draws a uniform random sample before clustering;
//!   its size `|S_eager| ≥ (1 / 2ε²) ln(2/ρ)` bounds, via Hoeffding / the
//!   Toivonen association-rule argument [38], the probability `ρ` that any
//!   subtree's sampled frequency deviates from its true frequency by more
//!   than `ε`. Frequent subtrees are mined on the sample at a lowered
//!   support `low_fr < min_fr − √((1 / 2|S|) ln(1/φ))` (Lemma 4.4) and then
//!   recounted on the full database at `min_fr`.
//! * **Lazy sampling** stratified-samples oversized clusters after coarse
//!   clustering, with the Cochran representative-sample size
//!   `|S_sample| = Z² p q / e²` prorated per cluster (Lemma 4.5).

use catapult_graph::random::sample_indices;
use rand::Rng;

/// Eager-sampling parameters (`ρ`, `ε`, and the miss probability `φ` of
/// Lemma 4.4).
#[derive(Clone, Copy, Debug)]
pub struct EagerConfig {
    /// Error bound `ε` on sampled subtree frequency.
    pub epsilon: f64,
    /// Maximum probability `ρ` of exceeding `ε`.
    pub rho: f64,
    /// Miss probability `φ` used to derive the lowered support.
    pub phi: f64,
}

impl Default for EagerConfig {
    fn default() -> Self {
        // The paper's settings (Exp 2): ρ = 0.01, ε = 0.02.
        EagerConfig {
            epsilon: 0.02,
            rho: 0.01,
            phi: 0.01,
        }
    }
}

/// `|S_eager| = ⌈(1 / 2ε²) ln(2/ρ)⌉` — e.g. 6623 for ε = 0.02, ρ = 0.01.
fn eager_sample_size(cfg: &EagerConfig) -> usize {
    ((1.0 / (2.0 * cfg.epsilon * cfg.epsilon)) * (2.0 / cfg.rho).ln()).ceil() as usize
}

/// Lowered support threshold for mining on the sample (Lemma 4.4):
/// `low_fr = min_fr − √((1 / 2|S|) ln(1/φ))`, floored at a small positive
/// value so the miner still prunes.
pub fn lowered_support(min_fr: f64, sample_size: usize, cfg: &EagerConfig) -> f64 {
    if sample_size == 0 {
        return min_fr;
    }
    let delta = ((1.0 / (2.0 * sample_size as f64)) * (1.0 / cfg.phi).ln()).sqrt();
    (min_fr - delta).max(0.01)
}

/// Draw the eager sample: `min(|S_eager|, n)` distinct indices.
pub fn eager_sample<R: Rng>(n: usize, cfg: &EagerConfig, rng: &mut R) -> Vec<usize> {
    let size = eager_sample_size(cfg).min(n);
    let mut s = sample_indices(n, size, rng);
    s.sort_unstable();
    s
}

/// Lazy-sampling parameters (Cochran).
#[derive(Clone, Copy, Debug)]
pub struct LazyConfig {
    /// Abscissa `Z` of the normal curve for the desired confidence
    /// (the paper uses `Z_{0.95/2} = 1.65` in its worked example).
    pub z: f64,
    /// Estimated proportion `p` (0.5 is the conservative maximum-variance
    /// choice).
    pub p: f64,
    /// Desired precision `e`.
    pub e: f64,
}

impl Default for LazyConfig {
    fn default() -> Self {
        // Paper settings (Exp 2): p = 0.5, Z = 1.65, e = 0.03.
        LazyConfig {
            z: 1.65,
            p: 0.5,
            e: 0.03,
        }
    }
}

/// Cochran representative sample size `|S_sample| = Z² p q / e²`.
fn cochran_sample_size(cfg: &LazyConfig) -> f64 {
    let q = 1.0 - cfg.p;
    cfg.z * cfg.z * cfg.p * q / (cfg.e * cfg.e)
}

/// Per-cluster lazy sample size (Lemma 4.5):
/// `|S_lazy(C)| = (|S_sample| / Σ|C_i|) × |C|`, at least 1 for non-empty
/// clusters and never more than `|C|`.
fn lazy_sample_size(cluster_size: usize, total_size: usize, cfg: &LazyConfig) -> usize {
    if cluster_size == 0 || total_size == 0 {
        return 0;
    }
    let s = (cochran_sample_size(cfg) / total_size as f64) * cluster_size as f64;
    (s.round() as usize).clamp(1, cluster_size)
}

/// Stratified lazy sampling: clusters larger than `threshold` are reduced
/// to their lazy sample; smaller clusters pass through untouched.
/// `total_size` is `Σ|C_i|` over all clusters (i.e. `|D|` after eager
/// sampling).
pub fn lazy_sample_clusters<R: Rng>(
    clusters: &[Vec<u32>],
    total_size: usize,
    threshold: usize,
    cfg: &LazyConfig,
    rng: &mut R,
) -> Vec<Vec<u32>> {
    clusters
        .iter()
        .map(|c| {
            if c.len() <= threshold {
                return c.clone();
            }
            let target = lazy_sample_size(c.len(), total_size, cfg).max(threshold.min(c.len()));
            let mut picked: Vec<u32> = sample_indices(c.len(), target, rng)
                .into_iter()
                .map(|i| c[i])
                .collect();
            picked.sort_unstable();
            picked
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn paper_eager_example() {
        // §4.3: ρ = 0.01, ε = 0.02 → |S_eager| = 6623.
        let cfg = EagerConfig {
            epsilon: 0.02,
            rho: 0.01,
            phi: 0.01,
        };
        assert_eq!(eager_sample_size(&cfg), 6623);
    }

    #[test]
    fn paper_lazy_example() {
        // §4.3: 50K graphs, cluster of 1000, p=0.5, Z=1.65, e=0.03
        // → |S_lazy| = (1.65²·0.25/0.03² / 50000) × 1000 ≈ 15.13 → 15.
        let cfg = LazyConfig {
            z: 1.65,
            p: 0.5,
            e: 0.03,
        };
        assert!((cochran_sample_size(&cfg) - 756.25).abs() < 0.01);
        assert_eq!(lazy_sample_size(1000, 50_000, &cfg), 15);
    }

    #[test]
    fn eager_sample_is_capped_and_sorted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let s = eager_sample(100, &EagerConfig::default(), &mut rng);
        assert_eq!(s.len(), 100); // sample size 6623 > n
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn lowered_support_is_below_min_fr() {
        let cfg = EagerConfig::default();
        let low = lowered_support(0.1, 6623, &cfg);
        assert!(low < 0.1);
        assert!(low > 0.0);
        // Tiny samples floor at 0.01.
        assert_eq!(lowered_support(0.05, 10, &cfg), 0.01);
    }

    #[test]
    fn lazy_clusters_shrink_only_large_ones() {
        let clusters: Vec<Vec<u32>> = vec![(0..5).collect(), (5..205).collect()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let out = lazy_sample_clusters(&clusters, 205, 20, &LazyConfig::default(), &mut rng);
        assert_eq!(out[0], clusters[0]);
        assert!(out[1].len() < 205);
        assert!(out[1].len() >= 20);
        // Sampled ids come from the original cluster.
        assert!(out[1].iter().all(|&i| (5..205).contains(&i)));
    }

    #[test]
    fn degenerate_sizes() {
        let cfg = LazyConfig::default();
        assert_eq!(lazy_sample_size(0, 100, &cfg), 0);
        assert_eq!(lazy_sample_size(10, 0, &cfg), 0);
        assert_eq!(lazy_sample_size(3, 1, &cfg), 3); // capped at cluster size
    }
}
