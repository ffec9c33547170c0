//! Frequent-subtree feature selection via uncapacitated facility location
//! (§4.1 + Appendix B).
//!
//! A set of frequent subtrees may contain many near-duplicates. The paper
//! refines the feature set by maximizing the monotone submodular function
//! `q(T_sel) = Σ_{i ∈ T_all} max_{j ∈ T_sel} σ_subtree(i, j)` with a greedy
//! search, which is (1 − 1/e)-optimal for monotone submodular maximization
//! [17, 21].
//!
//! `σ_subtree(i, j) = |lcs(i, j)| / max(|i|, |j|)` where `i`, `j` are the
//! canonical strings of the subtrees and `lcs` is the longest common
//! subsequence — computed token-wise over the Fig. 5 canonical token
//! streams so multi-digit label ids cannot alias.

use catapult_graph::canonical::CanonTokens;

/// Longest common subsequence length of two token streams (O(n·m) DP).
fn token_lcs(a: &[u32], b: &[u32]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    for &x in a {
        for (j, &y) in b.iter().enumerate() {
            cur[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// `σ_subtree(i, j) = |lcs(i, j)| / max(|i|, |j|)` on canonical tokens.
fn subtree_similarity(a: &[u32], b: &[u32]) -> f64 {
    let m = a.len().max(b.len());
    if m == 0 {
        return 1.0;
    }
    token_lcs(a, b) as f64 / m as f64
}

/// Greedy facility-location selection: pick at most `k` subtrees whose
/// coverage `q(T_sel)` of the full set is (1 − 1/e)-near-optimal.
///
/// Returns indices into `all`, in selection order. Stops early when the
/// marginal gain drops below `min_gain` (0 disables early stopping).
pub fn select_features(all: &[CanonTokens], k: usize, min_gain: f64) -> Vec<usize> {
    let n = all.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    // Precompute the symmetric similarity matrix once; the candidate sets
    // are small (tens to a few hundreds of subtrees).
    let sim: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| subtree_similarity(&all[i], &all[j]))
                .collect()
        })
        .collect();
    let mut best_cover = vec![0.0f64; n]; // max_{j∈sel} σ(i,j)
    let mut selected: Vec<usize> = Vec::new();
    let mut in_sel = vec![false; n];
    while selected.len() < k.min(n) {
        let mut best: Option<(usize, f64)> = None;
        for cand in 0..n {
            if in_sel[cand] {
                continue;
            }
            let gain: f64 = (0..n)
                .map(|i| (sim[i][cand] - best_cover[i]).max(0.0))
                .sum();
            if best.is_none_or(|(_, g)| gain > g) {
                best = Some((cand, gain));
            }
        }
        // The while-guard (`selected.len() < k.min(n)`) leaves at least one
        // unselected candidate, so `best` is always `Some`; breaking keeps
        // the refinement loop panic-free.
        let Some((cand, gain)) = best else { break };
        if gain <= min_gain && !selected.is_empty() {
            break;
        }
        in_sel[cand] = true;
        selected.push(cand);
        for i in 0..n {
            if sim[i][cand] > best_cover[i] {
                best_cover[i] = sim[i][cand];
            }
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The objective `q(T_sel)` for a given selection.
    fn coverage_objective(all: &[CanonTokens], selected: &[usize]) -> f64 {
        all.iter()
            .map(|i| {
                selected
                    .iter()
                    .map(|&j| subtree_similarity(i, &all[j]))
                    .fold(0.0, f64::max)
            })
            .sum()
    }

    #[test]
    fn lcs_basics() {
        assert_eq!(token_lcs(&[1, 2, 3], &[1, 2, 3]), 3);
        assert_eq!(token_lcs(&[1, 2, 3], &[3, 2, 1]), 1);
        assert_eq!(token_lcs(&[1, 3, 5, 7], &[0, 3, 7, 9]), 2);
        assert_eq!(token_lcs(&[], &[1]), 0);
    }

    #[test]
    fn similarity_is_normalized_and_symmetric() {
        let a = vec![1, 2, 3, 4];
        let b = vec![1, 2, 9];
        let s = subtree_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(s, subtree_similarity(&b, &a));
        assert_eq!(subtree_similarity(&a, &a), 1.0);
    }

    #[test]
    fn greedy_picks_representatives() {
        // Two tight clusters of near-identical streams; k=2 must take one
        // from each.
        let all: Vec<CanonTokens> = vec![
            vec![1, 1, 1, 1],
            vec![1, 1, 1, 2],
            vec![9, 8, 7, 6],
            vec![9, 8, 7, 5],
        ];
        let sel = select_features(&all, 2, 0.0);
        assert_eq!(sel.len(), 2);
        let a_cluster = sel.iter().any(|&i| i < 2);
        let b_cluster = sel.iter().any(|&i| i >= 2);
        assert!(a_cluster && b_cluster, "selection {sel:?} misses a cluster");
    }

    #[test]
    fn objective_is_monotone_in_selection() {
        let all: Vec<CanonTokens> = vec![vec![1, 2], vec![2, 3], vec![5, 6], vec![1, 6]];
        let s1 = select_features(&all, 1, 0.0);
        let s2 = select_features(&all, 2, 0.0);
        assert!(coverage_objective(&all, &s2) >= coverage_objective(&all, &s1));
    }

    #[test]
    fn early_stop_on_small_gain() {
        // All identical: after the first pick, marginal gain is 0.
        let all: Vec<CanonTokens> = vec![vec![1, 2, 3]; 5];
        let sel = select_features(&all, 5, 1e-9);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn empty_inputs() {
        assert!(select_features(&[], 3, 0.0).is_empty());
        let all: Vec<CanonTokens> = vec![vec![1]];
        assert!(select_features(&all, 0, 0.0).is_empty());
    }

    #[test]
    fn greedy_is_near_optimal_on_small_instance() {
        // Brute-force the optimum for k=2 over 6 streams and check the
        // greedy value is ≥ (1 - 1/e) of it.
        let all: Vec<CanonTokens> = vec![
            vec![1, 2, 3],
            vec![1, 2, 4],
            vec![7, 8, 9],
            vec![7, 8, 3],
            vec![5, 5, 5],
            vec![5, 5, 1],
        ];
        let sel = select_features(&all, 2, 0.0);
        let greedy = coverage_objective(&all, &sel);
        let mut best = 0.0f64;
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                best = best.max(coverage_objective(&all, &[i, j]));
            }
        }
        assert!(greedy >= (1.0 - 1.0 / std::f64::consts::E) * best);
    }
}
