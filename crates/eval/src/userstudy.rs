//! Simulated user study (Exp 4, Fig. 10 + Table 1).
//!
//! The paper measures query formulation time (QFT) and step counts for 25
//! human volunteers formulating 5 queries per GUI. Humans are not available
//! to a reproduction harness, so we simulate the published mechanism: QFT
//! is driven by the number and kind of formulation steps (drag a pattern,
//! add a vertex, add an edge, relabel a vertex) plus a visual-search time
//! for locating a suitable pattern in the panel — which grows with the
//! panel size and the patterns' cognitive load, per the §3.1 discussion and
//! Exp 10's finding that decision time tracks the density measure F1.
//! Per-user variability is lognormal noise. See DESIGN.md §3.

use crate::steps::Formulation;
use catapult_graph::metrics::cognitive_load;
use catapult_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-action base times (seconds). Values are representative HCI action
/// times; only *relative* QFT comparisons are meaningful (DESIGN.md §3).
#[derive(Clone, Copy, Debug)]
pub struct ActionTimes {
    /// Dragging a canned pattern onto the canvas.
    pub pattern_drag: f64,
    /// Adding one vertex (includes choosing its label).
    pub vertex_add: f64,
    /// Drawing one edge.
    pub edge_add: f64,
    /// Relabeling one vertex (the 1-step labelling of Exp 3).
    pub relabel: f64,
    /// Base visual-search time for one pattern lookup in the panel.
    pub search_base: f64,
}

impl Default for ActionTimes {
    fn default() -> Self {
        ActionTimes {
            pattern_drag: 2.5,
            vertex_add: 1.8,
            edge_add: 2.2,
            relabel: 1.5,
            search_base: 0.9,
        }
    }
}

/// One simulated user's QFT for one formulated query.
///
/// `relabel_steps` is the number of steps inside `formulation.steps` that
/// are vertex relabels (non-zero only for the unlabeled-GUI model); the
/// remaining non-pattern steps split into vertex and edge additions
/// proportionally to the uncovered counts.
fn simulate_qft(
    formulation: &Formulation,
    panel: &[Graph],
    relabel_steps: usize,
    times: &ActionTimes,
    rng: &mut StdRng,
) -> f64 {
    let pattern_steps = formulation.used.len();
    // Manual (vertex/edge) steps: the step model's total minus pattern
    // drags and relabels; charged at the mean of the two action times
    // (the exact vertex/edge split does not change any relative result).
    let manual_steps = formulation
        .steps
        .saturating_sub(pattern_steps + relabel_steps);
    let manual_cost = (times.vertex_add + times.edge_add) / 2.0;

    // Visual search: each pattern use requires scanning the panel; harder
    // (denser) panels take longer. Exp 10: time grows with F1.
    let panel_cog = if panel.is_empty() {
        0.0
    } else {
        panel.iter().map(cognitive_load).sum::<f64>() / panel.len() as f64
    };
    let search = times.search_base * (panel.len() as f64).sqrt() * (1.0 + panel_cog / 4.0);

    let deterministic = pattern_steps as f64 * (times.pattern_drag + search)
        + manual_steps as f64 * manual_cost
        + relabel_steps as f64 * times.relabel;
    // Lognormal user noise, σ = 0.15.
    let noise: f64 = {
        let z: f64 = sample_standard_normal(rng);
        (0.15 * z).exp()
    };
    deterministic * noise
}

/// Box–Muller standard normal sample.
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Aggregate of a simulated study cell (one query × one GUI).
#[derive(Clone, Copy, Debug)]
pub struct StudyCell {
    /// Mean QFT across simulated participants (seconds).
    pub mean_qft: f64,
    /// Steps taken (deterministic, from the step model).
    pub steps: usize,
}

/// Simulate `participants` users formulating one query.
pub fn run_cell(
    formulation: &Formulation,
    panel: &[Graph],
    relabel_steps: usize,
    participants: usize,
    seed: u64,
) -> StudyCell {
    let times = ActionTimes::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let total: f64 = (0..participants)
        .map(|_| simulate_qft(formulation, panel, relabel_steps, &times, &mut rng))
        .sum();
    StudyCell {
        mean_qft: total / participants.max(1) as f64,
        steps: formulation.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steps::{formulate, formulate_unlabeled, relabel_uniform};
    use catapult_graph::Label;

    fn cycle(n: usize) -> Graph {
        let labels = vec![Label(1); n];
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn fewer_steps_means_less_time() {
        let q = cycle(6);
        let with_pattern = formulate(&q, &[cycle(6)], 100);
        let without = formulate(&q, &[], 100);
        let panel = vec![cycle(6)];
        let fast = run_cell(&with_pattern, &panel, 0, 10, 1);
        let slow = run_cell(&without, &[], 0, 10, 1);
        assert!(fast.mean_qft < slow.mean_qft);
        assert!(fast.steps < slow.steps);
    }

    #[test]
    fn relabeling_costs_time() {
        // An unlabeled panel (needs 6 relabels) must be slower than a
        // labeled panel with the same structural pattern.
        let q = cycle(6);
        let labeled_panel = vec![cycle(6)];
        let f_lab = formulate(&q, &labeled_panel, 100);
        let unlabeled_panel = vec![relabel_uniform(&cycle(6), Label(0))];
        let f_unl = formulate_unlabeled(&q, &unlabeled_panel, 100);
        let lab = run_cell(&f_lab, &labeled_panel, 0, 10, 2);
        let unl = run_cell(&f_unl, &unlabeled_panel, 6, 10, 2);
        assert!(unl.mean_qft > lab.mean_qft);
        assert!(unl.steps > lab.steps);
    }

    #[test]
    fn bigger_panels_search_slower() {
        let q = cycle(6);
        let f = formulate(&q, &[cycle(6)], 100);
        let small_panel = vec![cycle(6)];
        let big_panel: Vec<Graph> = (3..15).map(cycle).collect();
        let small = run_cell(&f, &small_panel, 0, 20, 3);
        let big = run_cell(&f, &big_panel, 0, 20, 3);
        assert!(big.mean_qft > small.mean_qft);
    }

    #[test]
    fn deterministic_under_seed() {
        let q = cycle(5);
        let f = formulate(&q, &[cycle(5)], 100);
        let panel = vec![cycle(5)];
        let a = run_cell(&f, &panel, 0, 5, 7);
        let b = run_cell(&f, &panel, 0, 5, 7);
        assert_eq!(a.mean_qft, b.mean_qft);
    }
}
