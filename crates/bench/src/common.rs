//! Shared helpers for the experiment runners.

use catapult_cluster::{ClusteringConfig, SimilarityKind, Strategy};
use catapult_core::{CatapultConfig, CatapultResult, PatternBudget};
use catapult_graph::{Graph, SearchBudget};
use catapult_mining::subtree::SubtreeMinerConfig;

/// Default small-graph-clustering settings tuned for the harness scale:
/// hybrid MCCS with `N = 20` (the paper's default) and a mining support of
/// 10% capped at 3-edge subtree features.
pub fn harness_clustering(max_cluster_size: usize) -> ClusteringConfig {
    ClusteringConfig {
        strategy: Strategy::Hybrid(SimilarityKind::Mccs),
        max_cluster_size,
        miner: SubtreeMinerConfig {
            min_support: 0.1,
            max_edges: 3,
            max_patterns_per_level: 400,
        },
        max_features: 48,
        search: SearchBudget::nodes(30_000),
        sampling: None,
        ..Default::default()
    }
}

/// Run the full pipeline with harness defaults for a given budget.
pub fn run_pipeline(
    db: &[Graph],
    budget: PatternBudget,
    walks: usize,
    seed: u64,
) -> CatapultResult {
    let cfg = CatapultConfig {
        clustering: harness_clustering(20),
        budget,
        walks,
        seed,
        ..Default::default()
    };
    catapult_core::run_catapult(db, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_datasets::{aids_profile, generate};

    #[test]
    fn pipeline_runs_at_smoke_scale() {
        let db = generate(&aids_profile(), 24, 1).graphs;
        let r = run_pipeline(&db, PatternBudget::new(3, 5, 4).unwrap(), 10, 2);
        assert!(!r.patterns().is_empty());
    }
}
