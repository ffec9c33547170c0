//! The small-graph clustering phase: coarse + fine clustering with
//! optional eager/lazy sampling — the left half of Fig. 3.
//!
//! Exp 1 compares five strategies: coarse only (`CC`), fine only with MCCS
//! or MCS (`mccsFC` / `mcsFC`), and the hybrid coarse-then-fine pipelines
//! (`mccsH` / `mcsH`, the paper's recommended configuration).

use crate::ckpt_io::{
    decode_clustering, decode_coarse, decode_mining, encode_clustering, encode_coarse,
    encode_mining, ClusteringCkpt, CoarseCkpt, MiningCkpt,
};
use crate::coarse::{coarse_cluster_with_subtrees, CoarseConfig, CoarseResult};
use crate::fine::{fine_inner, FineConfig, SimilarityKind};
use crate::sampling::{
    eager_sample, lazy_sample_clusters, lowered_support, EagerConfig, LazyConfig,
};
use catapult_ckpt::{CkptError, StageStore};
use catapult_graph::iso::PreparedGraph;
use catapult_graph::{Graph, SearchBudget, Tally, TallyCounts};
use catapult_mining::subtree::{count_support, mine_subtrees, FrequentSubtree, SubtreeMinerConfig};
use catapult_obs::{Recorder, Stopwatch};
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// Clustering strategy (Exp 1 naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Coarse (feature-vector k-means) clustering only.
    CoarseOnly,
    /// Fine (seed-splitting) clustering only, from one all-graph cluster.
    FineOnly(SimilarityKind),
    /// Coarse then fine — the paper's hybrid.
    Hybrid(SimilarityKind),
}

impl Strategy {
    /// The paper's short name for the strategy (CC, mccsFC, mcsFC, mccsH,
    /// mcsH).
    pub fn paper_name(&self) -> &'static str {
        match self {
            Strategy::CoarseOnly => "CC",
            Strategy::FineOnly(SimilarityKind::Mccs) => "mccsFC",
            Strategy::FineOnly(SimilarityKind::Mcs) => "mcsFC",
            Strategy::Hybrid(SimilarityKind::Mccs) => "mccsH",
            Strategy::Hybrid(SimilarityKind::Mcs) => "mcsH",
        }
    }
}

/// Full clustering-phase configuration.
#[derive(Clone, Debug)]
pub struct ClusteringConfig {
    /// Strategy to run.
    pub strategy: Strategy,
    /// Maximum cluster size `N` (paper default 20).
    pub max_cluster_size: usize,
    /// Frequent-subtree mining settings for coarse clustering.
    pub miner: SubtreeMinerConfig,
    /// Facility-location feature cap.
    pub max_features: usize,
    /// Execution budget shared by the phase's NP-hard kernels. Its node
    /// cap (default [`fine::DEFAULT_MCS_CAP`], 100k) bounds every search
    /// the phase runs: each MCS/MCCS fine-clustering search *and* each
    /// VF2 containment probe of feature mining and the sampling recount
    /// (their own 10M `iso::DEFAULT_NODE_CAP` applies only when this cap
    /// is unbounded).
    ///
    /// [`fine::DEFAULT_MCS_CAP`]: crate::fine::DEFAULT_MCS_CAP
    pub search: SearchBudget,
    /// Enable §4.3 sampling (eager + lazy).
    pub sampling: Option<SamplingConfig>,
    /// Observability recorder (disabled by default). When enabled, the
    /// phase emits `clustering` spans (with `mining` / `coarse` /
    /// `lazy_sample` / `fine` children) and attributes kernel effort to
    /// the `mining.*` and `clustering.*` counters.
    pub recorder: Recorder,
}

/// Combined sampling settings.
#[derive(Clone, Copy, Debug, Default)]
pub struct SamplingConfig {
    /// Eager (pre-clustering) sampling parameters.
    pub eager: EagerConfig,
    /// Lazy (post-coarse) stratified sampling parameters.
    pub lazy: LazyConfig,
}

impl Default for ClusteringConfig {
    fn default() -> Self {
        ClusteringConfig {
            strategy: Strategy::Hybrid(SimilarityKind::Mccs),
            max_cluster_size: 20,
            miner: SubtreeMinerConfig::default(),
            max_features: 64,
            search: SearchBudget::nodes(crate::fine::DEFAULT_MCS_CAP),
            sampling: None,
            recorder: Recorder::disabled(),
        }
    }
}

/// Output of the clustering phase.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// Clusters of indices into the *original* database. With sampling
    /// enabled this is a partition of the sampled subset, not of all of
    /// `0..|D|`.
    pub clusters: Vec<Vec<u32>>,
    /// Frequent subtrees used as coarse features (empty for fine-only).
    pub features: Vec<FrequentSubtree>,
    /// Wall-clock time of the whole phase.
    pub elapsed: Duration,
    /// Completeness audit of the mining-stage kernel calls (subtree
    /// mining + sampling recounts).
    pub mining: TallyCounts,
    /// Completeness audit of the fine-clustering MCS/MCCS calls.
    pub fine: TallyCounts,
}

impl Clustering {
    /// Number of graphs covered by the clustering.
    pub fn covered(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }
}

/// Mine coarse features, honouring eager sampling when configured:
/// mine on the sample at the lowered support (Lemma 4.4), then recount the
/// survivors on the full database at the original support, through the
/// miner's own fanned-out [`count_support`] over the database prepared
/// once. The returned
/// [`TallyCounts`] audits every containment probe the stage ran; degraded
/// probes can only under-count support (lower bounds), never invent it.
fn mine_features<R: Rng>(
    db: &[Graph],
    cfg: &ClusteringConfig,
    search: &SearchBudget,
    rng: &mut R,
) -> (Vec<FrequentSubtree>, TallyCounts) {
    let _span = cfg.recorder.span("mining");
    match &cfg.sampling {
        None => {
            let out = mine_subtrees(db, &cfg.miner, search);
            (out.subtrees, out.kernel)
        }
        Some(s) => {
            let sample_idx = {
                let _s = cfg.recorder.span("eager_sample");
                eager_sample(db.len(), &s.eager, rng)
            };
            let sample: Vec<Graph> = sample_idx.iter().map(|&i| db[i].clone()).collect();
            let low = lowered_support(cfg.miner.min_support, sample.len(), &s.eager);
            let low_cfg = SubtreeMinerConfig {
                min_support: low,
                ..cfg.miner
            };
            let mined = {
                let _s = cfg.recorder.span("mine_sample");
                mine_subtrees(&sample, &low_cfg, search)
            };
            // Recount each potential subtree on the full database at min_fr.
            let _recount_span = cfg.recorder.span("recount");
            let probe = search.with_default_cap(catapult_graph::iso::DEFAULT_NODE_CAP);
            let tally = Tally::new();
            let min_count = ((cfg.miner.min_support * db.len() as f64).ceil() as usize).max(1);
            let mut confirmed = Vec::new();
            // Progress accounting (`--progress` ETA): one item per
            // candidate subtree recounted on the full database.
            search
                .probe
                .add("items", "total", mined.subtrees.len() as u64);
            let full: Vec<PreparedGraph> = db.iter().map(PreparedGraph::new).collect();
            let all: Vec<u32> = (0..db.len() as u32).collect();
            for t in mined.subtrees {
                let txs = count_support(&full, &all, &t.tree, &probe, &tally);
                if txs.len() >= min_count {
                    confirmed.push(FrequentSubtree {
                        transactions: txs,
                        ..t
                    });
                }
                search.probe.add("items", "done", 1);
            }
            (confirmed, mined.kernel.merge(tally.counts()))
        }
    }
}

/// Run the configured small-graph clustering strategy over `db`.
pub fn cluster_graphs(db: &[Graph], cfg: &ClusteringConfig, rng: &mut StdRng) -> Clustering {
    match cluster_inner(db, cfg, rng, None) {
        Ok(c) => c,
        // A store-free run performs no checkpoint I/O and cannot fail.
        Err(_) => unreachable!("checkpoint-free clustering cannot fail"),
    }
}

/// As [`cluster_graphs`], writing a checkpoint at every stage boundary
/// (`mining` → `coarse` → `fine` → `clustering`) and — when `store` is
/// resuming — continuing from the furthest compatible checkpoint on
/// disk, including mid-fine-clustering. An interrupted-then-resumed run
/// returns exactly what the uninterrupted run would have (`elapsed`
/// excepted: wall-clock restarts with the process).
pub fn cluster_graphs_resumable(
    db: &[Graph],
    cfg: &ClusteringConfig,
    rng: &mut StdRng,
    store: &StageStore,
) -> Result<Clustering, CkptError> {
    cluster_inner(db, cfg, rng, Some(store))
}

/// The mining stage with checkpoint load/save around [`mine_features`].
fn mining_stage(
    db: &[Graph],
    cfg: &ClusteringConfig,
    search: &SearchBudget,
    rng: &mut StdRng,
    store: Option<&StageStore>,
) -> Result<(Vec<FrequentSubtree>, TallyCounts), CkptError> {
    if let Some(st) = store {
        if let Some((_seq, m)) = st.load_decoded("mining", decode_mining)? {
            *rng = StdRng::from_state(m.rng);
            return Ok((m.features, m.mining));
        }
    }
    let (features, kernel) = mine_features(db, cfg, search, rng);
    if let Some(st) = store {
        let ck = MiningCkpt {
            features,
            mining: kernel,
            rng: rng.state(),
        };
        st.save("mining", 0, &encode_mining(&ck))?;
        return Ok((ck.features, ck.mining));
    }
    Ok((features, kernel))
}

/// The coarse stage (mining → k-means → lazy sampling) with checkpoint
/// load/save. The returned [`CoarseCkpt`] carries the post-lazy
/// clusters, the selected features, and the mining audit.
fn coarse_stage(
    db: &[Graph],
    cfg: &ClusteringConfig,
    mining_search: &SearchBudget,
    coarse_cfg: &CoarseConfig,
    rng: &mut StdRng,
    store: Option<&StageStore>,
) -> Result<CoarseCkpt, CkptError> {
    if let Some(st) = store {
        if let Some((_seq, c)) = st.load_decoded("coarse", decode_coarse)? {
            *rng = StdRng::from_state(c.rng);
            return Ok(c);
        }
    }
    let (subtrees, mine_kernel) = mining_stage(db, cfg, mining_search, rng, store)?;
    let CoarseResult { clusters, features } = {
        let _s = cfg.recorder.span("coarse");
        coarse_cluster_with_subtrees(db, subtrees, coarse_cfg, rng)
    };
    // Lazy sampling shrinks oversized clusters before fine clustering.
    let clusters = match &cfg.sampling {
        Some(s) => {
            let _s2 = cfg.recorder.span("lazy_sample");
            lazy_sample_clusters(&clusters, db.len(), cfg.max_cluster_size, &s.lazy, rng)
        }
        None => clusters,
    };
    let ck = CoarseCkpt {
        clusters,
        features,
        mining: mine_kernel,
        rng: rng.state(),
    };
    if let Some(st) = store {
        st.save("coarse", 0, &encode_coarse(&ck))?;
    }
    Ok(ck)
}

/// The shared engine behind [`cluster_graphs`] and
/// [`cluster_graphs_resumable`].
fn cluster_inner(
    db: &[Graph],
    cfg: &ClusteringConfig,
    rng: &mut StdRng,
    store: Option<&StageStore>,
) -> Result<Clustering, CkptError> {
    let _span = cfg.recorder.span("clustering");
    // Whole-phase checkpoint present: the phase already ran to
    // completion — reuse its output and fast-forward the RNG.
    if let Some(st) = store {
        if let Some((_seq, c)) = st.load_decoded("clustering", decode_clustering)? {
            *rng = StdRng::from_state(c.rng);
            return Ok(c.clustering);
        }
    }
    let start = Stopwatch::start();
    // Kernel effort is attributed per stage: subtree mining (and its
    // sampling recounts) to `mining.*`, fine-clustering MCS/MCCS to
    // `clustering.*` — matching the two TallyCounts this phase reports.
    let mining_search = cfg
        .search
        .clone()
        .with_probe(cfg.recorder.stage_probe("mining"));
    let fine_search = cfg
        .search
        .clone()
        .with_probe(cfg.recorder.stage_probe("clustering"));
    let fine_cfg = |kind| FineConfig {
        max_cluster_size: cfg.max_cluster_size,
        similarity: kind,
        budget: fine_search.clone(),
    };
    let coarse_cfg = CoarseConfig {
        max_cluster_size: cfg.max_cluster_size,
        miner: cfg.miner,
        max_features: cfg.max_features,
        kmeans_iterations: 30,
    };

    let mut mining = TallyCounts::default();
    let mut fine = TallyCounts::default();
    let (clusters, features) = match cfg.strategy {
        Strategy::FineOnly(kind) => {
            let all: Vec<u32> = (0..db.len() as u32).collect();
            let initial = if all.is_empty() { vec![] } else { vec![all] };
            let _s = cfg.recorder.span("fine");
            let out = fine_inner(db, initial, &fine_cfg(kind), rng, store)?;
            fine = out.kernel;
            (out.clusters, Vec::new())
        }
        Strategy::CoarseOnly | Strategy::Hybrid(_) => {
            let coarse = coarse_stage(db, cfg, &mining_search, &coarse_cfg, rng, store)?;
            mining = coarse.mining;
            match cfg.strategy {
                Strategy::CoarseOnly => (coarse.clusters, coarse.features),
                Strategy::Hybrid(kind) => {
                    let _s = cfg.recorder.span("fine");
                    let out = fine_inner(db, coarse.clusters, &fine_cfg(kind), rng, store)?;
                    fine = out.kernel;
                    (out.clusters, coarse.features)
                }
                Strategy::FineOnly(_) => unreachable!(),
            }
        }
    };
    // Sampling pipelines keep only the sampled subset, so they cannot be
    // held to the partition contract — membership soundness still applies.
    catapult_graph::debug_invariants!(crate::invariants::validate_assignment(
        db.len(),
        &clusters,
        cfg.sampling.is_none(),
    ));
    let clustering = Clustering {
        clusters,
        features,
        elapsed: start.elapsed(),
        mining,
        fine,
    };
    if let Some(st) = store {
        let ck = ClusteringCkpt {
            clustering,
            rng: rng.state(),
        };
        st.save("clustering", 0, &encode_clustering(&ck))?;
        return Ok(ck.clustering);
    }
    Ok(clustering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::{Label, VertexId};
    use rand::SeedableRng;

    fn ring(n: u32, label: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(Label(label));
        }
        for i in 0..n {
            g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
        }
        g
    }

    fn db() -> Vec<Graph> {
        (0..30).map(|i| ring(4 + (i % 3), i % 2)).collect()
    }

    #[test]
    fn all_strategies_partition() {
        let db = db();
        for strategy in [
            Strategy::CoarseOnly,
            Strategy::FineOnly(SimilarityKind::Mccs),
            Strategy::FineOnly(SimilarityKind::Mcs),
            Strategy::Hybrid(SimilarityKind::Mccs),
            Strategy::Hybrid(SimilarityKind::Mcs),
        ] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let cfg = ClusteringConfig {
                strategy,
                max_cluster_size: 8,
                ..Default::default()
            };
            let c = cluster_graphs(&db, &cfg, &mut rng);
            let mut all: Vec<u32> = c.clusters.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..db.len() as u32).collect::<Vec<_>>(),
                "strategy {strategy:?}"
            );
        }
    }

    #[test]
    fn fine_strategies_respect_cap() {
        let db = db();
        for kind in [SimilarityKind::Mccs, SimilarityKind::Mcs] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let cfg = ClusteringConfig {
                strategy: Strategy::Hybrid(kind),
                max_cluster_size: 5,
                ..Default::default()
            };
            let c = cluster_graphs(&db, &cfg, &mut rng);
            assert!(c.clusters.iter().all(|cl| cl.len() <= 5));
        }
    }

    #[test]
    fn sampling_reduces_covered_set() {
        // With a tiny Cochran sample, large clusters shrink.
        let db: Vec<Graph> = (0..60).map(|_| ring(5, 0)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let cfg = ClusteringConfig {
            strategy: Strategy::CoarseOnly,
            max_cluster_size: 10,
            sampling: Some(SamplingConfig {
                eager: EagerConfig::default(),
                lazy: LazyConfig {
                    z: 1.65,
                    p: 0.5,
                    e: 0.3, // tiny representative sample
                },
            }),
            ..Default::default()
        };
        let c = cluster_graphs(&db, &cfg, &mut rng);
        assert!(c.covered() <= 60);
    }

    #[test]
    fn paper_names() {
        assert_eq!(Strategy::CoarseOnly.paper_name(), "CC");
        assert_eq!(Strategy::Hybrid(SimilarityKind::Mccs).paper_name(), "mccsH");
        assert_eq!(
            Strategy::FineOnly(SimilarityKind::Mcs).paper_name(),
            "mcsFC"
        );
    }

    #[test]
    fn empty_db() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let c = cluster_graphs(&[], &ClusteringConfig::default(), &mut rng);
        assert!(c.clusters.is_empty());
    }

    fn ckpt_store(dir: &std::path::Path, resume: bool) -> StageStore {
        let mut ck = catapult_ckpt::CheckpointConfig::new(dir);
        ck.resume = resume;
        // Tiny chunks so fine clustering flushes mid-split many times.
        ck.chunk_pairs = 2;
        let fp = catapult_ckpt::Fingerprint {
            dataset_hash: 0xDB,
            config_hash: 0xCF6,
            eta_min: 3,
            eta_max: 8,
            gamma: 30,
        };
        StageStore::open(&ck, fp, Recorder::disabled()).unwrap()
    }

    #[test]
    fn resumable_run_matches_plain_run_and_resumes_from_disk() {
        let db = db();
        for (i, strategy) in [
            Strategy::CoarseOnly,
            Strategy::Hybrid(SimilarityKind::Mccs),
            Strategy::FineOnly(SimilarityKind::Mcs),
        ]
        .into_iter()
        .enumerate()
        {
            let cfg = ClusteringConfig {
                strategy,
                max_cluster_size: 6,
                ..Default::default()
            };
            let mut plain_rng = rand::rngs::StdRng::seed_from_u64(9);
            let plain = cluster_graphs(&db, &cfg, &mut plain_rng);

            let dir = std::env::temp_dir().join(format!("catapult-cluster-resume-{i}"));
            std::fs::remove_dir_all(&dir).ok();
            let store = ckpt_store(&dir, false);
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let first = cluster_graphs_resumable(&db, &cfg, &mut rng, &store).unwrap();
            assert_eq!(first.clusters, plain.clusters, "strategy {strategy:?}");
            assert_eq!(first.mining, plain.mining, "strategy {strategy:?}");
            assert_eq!(first.fine, plain.fine, "strategy {strategy:?}");
            assert_eq!(rng.state(), plain_rng.state(), "strategy {strategy:?}");

            // A full re-run in resume mode short-circuits on the
            // whole-phase checkpoint and fast-forwards the RNG to the
            // same post-phase state.
            let store2 = ckpt_store(&dir, true);
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(9);
            let second = cluster_graphs_resumable(&db, &cfg, &mut rng2, &store2).unwrap();
            assert_eq!(second.clusters, first.clusters);
            assert_eq!(second.fine, first.fine);
            assert_eq!(rng2.state(), rng.state());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn resume_recomputes_only_missing_stages() {
        // Simulate a crash between fine clustering and the phase-level
        // checkpoint: delete the later checkpoints and resume. The
        // earlier stage snapshots (mining/coarse + their RNG states)
        // must be enough to reproduce the uninterrupted result.
        let db = db();
        let cfg = ClusteringConfig {
            strategy: Strategy::Hybrid(SimilarityKind::Mccs),
            max_cluster_size: 5,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join("catapult-cluster-resume-stage");
        std::fs::remove_dir_all(&dir).ok();
        let store = ckpt_store(&dir, false);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let full = cluster_graphs_resumable(&db, &cfg, &mut rng, &store).unwrap();

        for doomed in [&["clustering"][..], &["clustering", "fine"][..]] {
            let resumed = ckpt_store(&dir, true);
            for stage in doomed {
                resumed.discard(stage).unwrap();
            }
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(11);
            let redo = cluster_graphs_resumable(&db, &cfg, &mut rng2, &resumed).unwrap();
            assert_eq!(redo.clusters, full.clusters, "deleted {doomed:?}");
            assert_eq!(redo.fine, full.fine, "deleted {doomed:?}");
            assert_eq!(rng2.state(), rng.state(), "deleted {doomed:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
