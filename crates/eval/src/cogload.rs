//! Simulated cognitive-load ranking study (Exp 10, Fig. 18).
//!
//! The paper asks 15 participants to decide `p ⊆ Q` for pattern/query
//! pairs, ranks patterns by decision time, and correlates (Kendall τ) that
//! "actual" ranking with the rankings induced by three candidate measures:
//! F1 = |E|·ρ (density-based, the paper's choice), F2 = 2|E|
//! (degree-based), F3 = 2|E|/|V| (average degree). It finds F1 (≈ 0.8)
//! ≻ F3 (≈ 0.78) ≫ F2 (≈ 0.28), and that cliques take longest due to edge
//! crossings [25].
//!
//! Our simulated participant implements the published mechanism: decision
//! time = base + α · (exact crossings in a circular layout) + β · |V| +
//! lognormal noise. Crossings — not raw edge count — drive the time, which
//! is precisely why the density-sensitive F1 correlates and the pure
//! edge-count F2 does not.

use crate::stats::{kendall_tau, mean};
use catapult_graph::layout::best_effort_crossings;
use catapult_graph::metrics::{cognitive_load, cognitive_load_f2, cognitive_load_f3};
use catapult_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One participant's simulated decision time for one pattern (seconds).
fn simulate_decision_time(pattern: &Graph, rng: &mut StdRng) -> f64 {
    let crossings = best_effort_crossings(pattern) as f64;
    let vertices = pattern.vertex_count() as f64;
    // Crossing-dominated per [25]: a long sparse pattern reads quickly, a
    // small dense one slowly — this is exactly the regime where the
    // edge-count measure F2 fails and the density measure F1 succeeds.
    let base = 2.0;
    let deterministic = base + 1.6 * crossings + 0.08 * vertices;
    let z = standard_normal(rng);
    deterministic * (0.2 * z).exp()
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Average rank of each pattern across simulated participants, following
/// the paper's protocol (rank per participant, then average ranks — not
/// times — to avoid outlier-driven rank reversal).
fn simulated_actual_ranking(patterns: &[Graph], participants: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = patterns.len();
    let mut rank_sums = vec![0.0f64; n];
    for _ in 0..participants {
        let times: Vec<f64> = patterns
            .iter()
            .map(|p| simulate_decision_time(p, &mut rng))
            .collect();
        // Rank = position when sorted ascending by time.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        for (rank, &i) in order.iter().enumerate() {
            rank_sums[i] += rank as f64;
        }
    }
    rank_sums.iter().map(|s| s / participants as f64).collect()
}

/// Kendall τ of the simulated actual ranking against F1/F2/F3 for one
/// pattern set.
#[derive(Clone, Copy, Debug)]
pub struct CogLoadCorrelation {
    /// τ(actual, F1) — the paper's density measure.
    pub f1: f64,
    /// τ(actual, F2) — degree sum.
    pub f2: f64,
    /// τ(actual, F3) — average degree.
    pub f3: f64,
}

/// Run the Exp 10 protocol on one pattern set.
fn correlate(patterns: &[Graph], participants: usize, seed: u64) -> CogLoadCorrelation {
    let actual = simulated_actual_ranking(patterns, participants, seed);
    let f1: Vec<f64> = patterns.iter().map(cognitive_load).collect();
    let f2: Vec<f64> = patterns.iter().map(cognitive_load_f2).collect();
    let f3: Vec<f64> = patterns.iter().map(cognitive_load_f3).collect();
    CogLoadCorrelation {
        f1: kendall_tau(&actual, &f1),
        f2: kendall_tau(&actual, &f2),
        f3: kendall_tau(&actual, &f3),
    }
}

/// Average correlations over several repetitions (different participant
/// pools), as the paper averages over datasets.
pub fn correlate_repeated(
    patterns: &[Graph],
    participants: usize,
    repetitions: usize,
    seed: u64,
) -> CogLoadCorrelation {
    let runs: Vec<CogLoadCorrelation> = (0..repetitions)
        .map(|r| correlate(patterns, participants, seed.wrapping_add(r as u64)))
        .collect();
    CogLoadCorrelation {
        f1: mean(&runs.iter().map(|c| c.f1).collect::<Vec<_>>()),
        f2: mean(&runs.iter().map(|c| c.f2).collect::<Vec<_>>()),
        f3: mean(&runs.iter().map(|c| c.f3).collect::<Vec<_>>()),
    }
}

/// The Exp 10 stimulus set shape: patterns of varied topology and load,
/// |V| ∈ [4, 13], |E| ∈ [3, 13], including a clique (the paper's
/// slowest stimulus).
pub fn exp10_stimuli() -> Vec<Graph> {
    use catapult_graph::{Label, VertexId};
    let l = Label(0);
    let path = |n: usize| {
        let labels = vec![l; n];
        let e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &e)
    };
    let cycle = |n: usize| {
        let labels = vec![l; n];
        let mut e: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        e.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &e)
    };
    let clique = |n: u32| {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(l);
        }
        for i in 0..n {
            for j in (i + 1)..n {
                // `i < j < n` are distinct in-bounds vertices visited once.
                let _ = g.add_edge(VertexId(i), VertexId(j));
            }
        }
        g
    };
    let star9 = {
        let labels = vec![l; 9];
        let e: Vec<(u32, u32)> = (1..9u32).map(|i| (0, i)).collect();
        Graph::from_parts(&labels, &e)
    };
    let wheel5 = {
        // 5-cycle plus hub: dense, many crossings.
        let mut g = cycle(5);
        let hub = g.add_vertex(l);
        for i in 0..5u32 {
            // Every spoke targets the fresh hub, so the insert cannot fail.
            let _ = g.add_edge(VertexId(i), hub);
        }
        g
    };
    // Large sparse (fast) vs small dense (slow) stimuli — the contrast
    // that separates F1/F3 from F2.
    vec![path(13), cycle(12), star9, clique(4), clique(5), wheel5]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stimuli_are_in_paper_ranges() {
        for p in exp10_stimuli() {
            assert!((3..=13).contains(&p.edge_count()), "|E|={}", p.edge_count());
            assert!((4..=13).contains(&p.vertex_count()));
        }
    }

    #[test]
    fn f1_beats_f2_like_the_paper() {
        let stimuli = exp10_stimuli();
        let c = correlate_repeated(&stimuli, 15, 10, 42);
        assert!(c.f1 > c.f2, "F1 {:.2} must beat F2 {:.2}", c.f1, c.f2);
        assert!(c.f1 > 0.4, "F1 correlation too weak: {:.2}", c.f1);
    }

    #[test]
    fn clique_is_slowest_on_average() {
        let stimuli = exp10_stimuli();
        let actual = simulated_actual_ranking(&stimuli, 30, 7);
        // K5 is index 4 — the densest, crossing-heaviest stimulus must rank
        // slower than the long path (index 0), despite having fewer edges.
        let clique_rank = actual[4];
        let path_rank = actual[0];
        assert!(
            clique_rank > path_rank,
            "clique rank {clique_rank} vs path {path_rank}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let stimuli = exp10_stimuli();
        let a = correlate(&stimuli, 15, 1);
        let b = correlate(&stimuli, 15, 1);
        assert_eq!(a.f1, b.f1);
        assert_eq!(a.f2, b.f2);
    }

    #[test]
    fn rankings_average_over_participants() {
        let stimuli = exp10_stimuli();
        let r = simulated_actual_ranking(&stimuli, 15, 3);
        assert_eq!(r.len(), stimuli.len());
        // Ranks average to (n-1)/2 overall.
        let avg: f64 = r.iter().sum::<f64>() / r.len() as f64;
        assert!((avg - 2.5).abs() < 1e-9);
    }
}
