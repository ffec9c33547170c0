//! Aggregate performance measures of §6.1:
//! subgraph/label coverage of a pattern set, missed percentage (MP),
//! reduction ratios (μ and the relative μ_G / μ_F / μ_DS), and pattern-set
//! diversity / cognitive-load summaries.

use crate::steps::{formulate, Formulation, DEFAULT_EMBEDDING_CAP};
use catapult_graph::ged::ged;
use catapult_graph::iso::{contains_prepared, PreparedGraph, DEFAULT_NODE_CAP};
use catapult_graph::metrics::cognitive_load;
use catapult_graph::{Graph, SearchBudget};
use rayon::{par_filter_map, par_map};

/// `scov(P, D)`: fraction of data graphs containing at least one pattern.
pub fn subgraph_coverage(patterns: &[Graph], db: &[Graph]) -> f64 {
    if db.is_empty() {
        return 0.0;
    }
    // Offline evaluation measure under the default node cap: a tripped
    // probe only lowers the reported coverage (a conservative estimate),
    // never correctness. Each pattern is prepared once for the whole
    // database, each data graph once for the whole panel.
    let budget = SearchBudget::unbounded().with_default_cap(DEFAULT_NODE_CAP);
    let prepared: Vec<PreparedGraph> = patterns.iter().map(PreparedGraph::new).collect();
    let covered = par_filter_map(db, |g| {
        let target = PreparedGraph::new(g);
        patterns
            .iter()
            .zip(&prepared)
            .any(|(p, pp)| {
                // `contains_tagged`'s size test: no search for a pattern
                // larger than the data graph.
                p.vertex_count() <= g.vertex_count()
                    && p.edge_count() <= g.edge_count()
                    && contains_prepared(&target, pp, &budget).0
            })
            .then_some(())
    })
    .len();
    covered as f64 / db.len() as f64
}

/// `lcov(P, D)`: fraction of data graphs containing at least one edge
/// whose label occurs in the pattern set.
pub fn label_coverage(patterns: &[Graph], db: &[Graph]) -> f64 {
    let labels = catapult_mining::edges::pattern_set_edge_labels(patterns);
    catapult_mining::edges::label_coverage(db, &labels)
}

/// Per-query formulation results over a workload.
#[derive(Clone, Debug)]
pub struct WorkloadEvaluation {
    /// One formulation per query.
    pub formulations: Vec<Formulation>,
}

impl WorkloadEvaluation {
    /// Evaluate `patterns` over `queries` with the §6.1 step model.
    pub fn evaluate(patterns: &[Graph], queries: &[Graph]) -> Self {
        Self::evaluate_recorded(patterns, queries, &catapult_obs::Recorder::disabled())
    }

    /// [`evaluate`](Self::evaluate) under an observability recorder: wraps
    /// the workload sweep in an `evaluate` span and reports workload sizes
    /// and total formulation steps as `eval.workload.*` counters.
    pub fn evaluate_recorded(
        patterns: &[Graph],
        queries: &[Graph],
        recorder: &catapult_obs::Recorder,
    ) -> Self {
        let _span = recorder.span("evaluate");
        // Progress accounting (`--progress` ETA): one item per query.
        // `Counter` is an atomic cell, so bumping it from the parallel
        // map is commutative and cannot perturb the ordered results.
        let items_done = recorder.counter("evaluate.items.done");
        recorder
            .counter("evaluate.items.total")
            .add(queries.len() as u64);
        // Parallel audit: `formulate` is a pure function of its arguments
        // and `par_map` keeps input order, so `formulations[i]` always
        // belongs to `queries[i]` regardless of thread count.
        let formulations: Vec<Formulation> = par_map(queries, |q| {
            let f = formulate(q, patterns, DEFAULT_EMBEDDING_CAP);
            items_done.incr();
            f
        });
        if recorder.is_enabled() {
            recorder
                .counter("eval.workload.queries")
                .add(queries.len() as u64);
            recorder
                .counter("eval.workload.patterns")
                .add(patterns.len() as u64);
            recorder
                .counter("eval.workload.steps")
                .add(formulations.iter().map(|f| f.steps as u64).sum());
        }
        WorkloadEvaluation { formulations }
    }

    /// Missed percentage `MP = |Q_M| / |Q| × 100` — queries containing no
    /// canned pattern at all.
    pub fn missed_percentage(&self) -> f64 {
        if self.formulations.is_empty() {
            return 0.0;
        }
        let missed = self
            .formulations
            .iter()
            .filter(|f| !f.used_any_pattern())
            .count();
        missed as f64 / self.formulations.len() as f64 * 100.0
    }

    /// Mean reduction ratio μ over the workload.
    pub fn mean_reduction(&self) -> f64 {
        crate::stats::mean(
            &self
                .formulations
                .iter()
                .map(Formulation::reduction_ratio)
                .collect::<Vec<_>>(),
        )
    }

    /// Maximum reduction ratio μ over the workload.
    pub fn max_reduction(&self) -> f64 {
        crate::stats::max(
            &self
                .formulations
                .iter()
                .map(Formulation::reduction_ratio)
                .collect::<Vec<_>>(),
        )
    }

    /// Total `step_P` across the workload.
    pub fn total_steps(&self) -> usize {
        self.formulations.iter().map(|f| f.steps).sum()
    }
}

/// Relative reduction of `ours` versus `baseline` step counts:
/// `μ_rel = (step_baseline − step_ours) / step_baseline` (used for μ_G in
/// Exp 3, μ_F in Exp 9 and μ_DS in Exp 6). Positive means `ours` is
/// better; may be negative.
fn relative_reduction(baseline_steps: usize, our_steps: usize) -> f64 {
    if baseline_steps == 0 {
        return 0.0;
    }
    (baseline_steps as f64 - our_steps as f64) / baseline_steps as f64
}

/// Mean per-query relative reduction between two evaluations of the same
/// workload.
pub fn mean_relative_reduction(baseline: &WorkloadEvaluation, ours: &WorkloadEvaluation) -> f64 {
    assert_eq!(baseline.formulations.len(), ours.formulations.len());
    let ratios: Vec<f64> = baseline
        .formulations
        .iter()
        .zip(&ours.formulations)
        .map(|(b, o)| relative_reduction(b.steps, o.steps))
        .collect();
    crate::stats::mean(&ratios)
}

/// Pattern-set diversity: mean over patterns of `min GED` to the others
/// (the paper reports e.g. div 7.4 / 9 for its sets). 0 for sets of < 2.
pub fn mean_diversity(patterns: &[Graph]) -> f64 {
    if patterns.len() < 2 {
        return 0.0;
    }
    let budget = SearchBudget::nodes(30_000);
    let indices: Vec<usize> = (0..patterns.len()).collect();
    let mins: Vec<f64> = par_map(&indices, |&i| {
        (0..patterns.len())
            .filter(|&j| j != i)
            .map(|j| ged(&patterns[i], &patterns[j], None, &budget).distance as f64)
            .fold(f64::INFINITY, f64::min)
    });
    crate::stats::mean(&mins)
}

/// Mean cognitive load (F1) of a pattern set.
pub fn mean_cog(patterns: &[Graph]) -> f64 {
    if patterns.is_empty() {
        return 0.0;
    }
    crate::stats::mean(&patterns.iter().map(cognitive_load).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn cycle(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    fn path(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn coverage_measures() {
        let db = vec![cycle(5), cycle(6), path(4)];
        let p = vec![cycle(5)];
        assert!((subgraph_coverage(&p, &db) - 1.0 / 3.0).abs() < 1e-12);
        // All graphs share the (0,0) edge label.
        assert!((label_coverage(&p, &db) - 1.0).abs() < 1e-12);
        assert_eq!(subgraph_coverage(&p, &[]), 0.0);
    }

    #[test]
    fn workload_metrics() {
        let queries = vec![cycle(5), path(6)];
        let patterns = vec![cycle(5)];
        let ev = WorkloadEvaluation::evaluate(&patterns, &queries);
        assert!((ev.missed_percentage() - 50.0).abs() < 1e-12);
        assert!(ev.max_reduction() > 0.8);
        assert!(ev.mean_reduction() > 0.0);
        assert!(ev.total_steps() > 0);
    }

    #[test]
    fn relative_reduction_signs() {
        assert!((relative_reduction(10, 5) - 0.5).abs() < 1e-12);
        assert!(relative_reduction(5, 10) < 0.0);
        assert_eq!(relative_reduction(0, 5), 0.0);
    }

    #[test]
    fn diversity_of_identical_patterns_is_zero() {
        let p = vec![cycle(4), cycle(4)];
        assert_eq!(mean_diversity(&p), 0.0);
        let q = vec![cycle(3), path(8)];
        assert!(mean_diversity(&q) > 3.0);
        assert_eq!(mean_diversity(&[cycle(3)]), 0.0);
    }

    #[test]
    fn mean_relative_reduction_pairs_queries() {
        let queries = vec![cycle(6), cycle(6)];
        let good = WorkloadEvaluation::evaluate(&[cycle(6)], &queries);
        let bad = WorkloadEvaluation::evaluate(&[path(2)], &queries);
        let rel = mean_relative_reduction(&bad, &good);
        assert!(rel > 0.0, "good patterns should reduce steps: {rel}");
    }

    #[test]
    fn mean_cog_sanity() {
        assert_eq!(mean_cog(&[]), 0.0);
        assert!(mean_cog(&[cycle(6)]) > 0.0);
    }
}
