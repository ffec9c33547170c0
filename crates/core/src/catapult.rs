//! The end-to-end CATAPULT pipeline — Algorithm 1.
//!
//! ```text
//! 1  C_coarse ← CoarseClustering(D)            (Algorithm 2)
//! 2  C_fine   ← FineClustering(C_coarse)       (Algorithm 3)
//! 3  S        ← ClusterSummaryGraphSet(C_fine) (§4.2)
//! 4  elw      ← GetEdgeLabelWeight(D)
//! 5  cw       ← GetGraphClusterWeights(C_fine)
//! 6  P        ← FindCannedPatternSet(elw, cw, S, b)  (Algorithm 4)
//! ```
//!
//! Steps 4–5 are folded into [`crate::select::find_canned_patterns`];
//! this module wires clustering, summarization, and selection together and
//! reports the two timing measures used throughout §6 (clustering time and
//! pattern-generation time, PGT).

use crate::budget::PatternBudget;
use crate::ckpt_io;
use crate::report::PipelineReport;
use crate::select::{find_canned_patterns, SelectionConfig, SelectionResult};
use catapult_ckpt::{CheckpointConfig, CkptError, StageStore};
use catapult_cluster::{cluster_graphs, cluster_graphs_resumable, Clustering, ClusteringConfig};
use catapult_csg::{build_csgs_recorded, Csg};
use catapult_graph::{Graph, SearchBudget};
use catapult_obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Full-pipeline configuration.
#[derive(Clone, Debug)]
pub struct CatapultConfig {
    /// Small-graph clustering settings (strategy, `N`, sampling, …).
    pub clustering: ClusteringConfig,
    /// Pattern budget `b = (ηmin, ηmax, γ)`.
    pub budget: PatternBudget,
    /// Random walks per (CSG, size) pair.
    pub walks: usize,
    /// RNG seed (the whole pipeline is deterministic given the seed).
    pub seed: u64,
    /// Global execution budget overlaid on every stage: an explicit node
    /// cap overrides the per-stage defaults, and its deadline reaches
    /// mining, clustering, and the greedy selection loop. Leave
    /// unbounded for the per-stage defaults (and an exact run).
    pub search: SearchBudget,
    /// Observability recorder (disabled by default — a no-op). When
    /// enabled, the run emits a `pipeline` span tree covering every stage
    /// and per-stage kernel counters; snapshot it afterwards to build a
    /// [`catapult_obs::RunManifest`].
    pub recorder: Recorder,
}

impl Default for CatapultConfig {
    fn default() -> Self {
        CatapultConfig {
            clustering: ClusteringConfig::default(),
            budget: PatternBudget::paper_default(),
            walks: 100,
            seed: 0xCA7A_9017,
            search: SearchBudget::unbounded(),
            recorder: Recorder::disabled(),
        }
    }
}

/// Everything the pipeline produced.
#[derive(Clone, Debug)]
pub struct CatapultResult {
    /// The canned pattern set `P`, in selection order with scores.
    pub selection: SelectionResult,
    /// The cluster summary graphs.
    pub csgs: Vec<Csg>,
    /// The clustering output (clusters, features, clustering time).
    pub clustering: Clustering,
}

impl CatapultResult {
    /// The selected canned patterns.
    pub fn patterns(&self) -> Vec<Graph> {
        self.selection.patterns()
    }

    /// Clustering time (§6.1 measure a).
    pub fn clustering_time(&self) -> Duration {
        self.clustering.elapsed
    }

    /// Pattern generation time, PGT (§6.1 measure b).
    pub fn pattern_generation_time(&self) -> Duration {
        self.selection.elapsed
    }

    /// The per-stage completeness audit of the whole run.
    pub fn report(&self) -> &PipelineReport {
        &self.selection.report
    }
}

/// Run Algorithm 1 end to end over `db`.
pub fn run_catapult(db: &[Graph], cfg: &CatapultConfig) -> CatapultResult {
    match run_inner(db, cfg, None) {
        Ok(r) => r,
        // A store-free run performs no checkpoint I/O and cannot fail.
        Err(_) => unreachable!("checkpoint-free pipeline cannot fail"),
    }
}

/// As [`run_catapult`], writing a checkpoint at every stage boundary
/// (clustering's `mining`/`coarse`/`fine`/`clustering` slots, then
/// `csg` and `selection`) and — when `ckpt.resume` is set — continuing
/// from the furthest compatible checkpoint in `ckpt.dir`, including
/// mid-fine-clustering. Checkpoints are fingerprinted by
/// [`ckpt_io::fingerprint`]: a directory written under a different
/// dataset, config, or budget is rejected with a diagnostic naming the
/// mismatched field. Given the same seed and inputs, an
/// interrupted-then-resumed run reproduces the uninterrupted run's
/// [`ckpt_io::result_digest`] exactly.
pub fn run_catapult_resumable(
    db: &[Graph],
    cfg: &CatapultConfig,
    ckpt: &CheckpointConfig,
) -> Result<CatapultResult, CkptError> {
    let store = StageStore::open(ckpt, ckpt_io::fingerprint(db, cfg), cfg.recorder.clone())?;
    run_inner(db, cfg, Some(&store))
}

/// The shared engine behind [`run_catapult`] and
/// [`run_catapult_resumable`].
fn run_inner(
    db: &[Graph],
    cfg: &CatapultConfig,
    store: Option<&StageStore>,
) -> Result<CatapultResult, CkptError> {
    let _span = cfg.recorder.span("pipeline");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let clustering_cfg = ClusteringConfig {
        // The global budget overrides the clustering stage's own settings
        // where explicit; stage defaults apply otherwise.
        search: cfg.search.overlay(&cfg.clustering.search),
        recorder: cfg.recorder.clone(),
        ..cfg.clustering.clone()
    };
    let clustering = match store {
        Some(st) => cluster_graphs_resumable(db, &clustering_cfg, &mut rng, st)?,
        None => cluster_graphs(db, &clustering_cfg, &mut rng),
    };
    // CSG summarization is RNG-free, so its checkpoint carries no RNG
    // state: the stream position entering selection is exactly the one
    // the clustering checkpoint restored.
    let csgs = match load_stage(store, "csg", ckpt_io::decode_csgs)? {
        Some(csgs) => csgs,
        None => {
            let csgs = build_csgs_recorded(db, &clustering.clusters, &cfg.recorder);
            if let Some(st) = store {
                st.save("csg", 0, &ckpt_io::encode_csgs(&csgs))?;
            }
            csgs
        }
    };
    let selection = match load_stage(store, "selection", ckpt_io::decode_selection)? {
        Some(selection) => selection,
        None => {
            let mut selection = find_canned_patterns(
                db,
                &csgs,
                &SelectionConfig {
                    budget: cfg.budget.clone(),
                    walks: cfg.walks,
                    search: cfg.search.clone(),
                    recorder: cfg.recorder.clone(),
                    ..Default::default()
                },
                &mut rng,
            );
            // Selection only audited its own kernels; splice in the
            // earlier stages so the report covers the full Algorithm 1
            // run. The checkpoint stores the post-splice result, so a
            // resumed load is already complete.
            selection.report.mining = clustering.mining;
            selection.report.clustering = clustering.fine;
            if let Some(st) = store {
                st.save("selection", 0, &ckpt_io::encode_selection(&selection))?;
            }
            selection
        }
    };
    Ok(CatapultResult {
        selection,
        csgs,
        clustering,
    })
}

/// Load and decode one stage checkpoint when running with a store (see
/// [`StageStore::load_decoded`]).
fn load_stage<T>(
    store: Option<&StageStore>,
    stage: &'static str,
    decode: impl FnOnce(&[u8]) -> Result<T, catapult_ckpt::wire::WireError>,
) -> Result<Option<T>, CkptError> {
    let Some(st) = store else { return Ok(None) };
    Ok(st.load_decoded(stage, decode)?.map(|(_seq, v)| v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::{Label, VertexId};

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

    fn chain(n: u32, labels: &[u32]) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.add_vertex(Label(labels[i as usize % labels.len()]));
        }
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
        }
        g
    }

    fn small_db() -> Vec<Graph> {
        let mut db = Vec::new();
        for i in 0..10 {
            db.push(ring(5 + i % 2, 0));
            db.push(chain(6, &[0, 1]));
        }
        db
    }

    #[test]
    fn end_to_end_produces_patterns() {
        let db = small_db();
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 5, 6).unwrap(),
            walks: 20,
            clustering: catapult_cluster::ClusteringConfig {
                max_cluster_size: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = run_catapult(&db, &cfg);
        assert!(!r.patterns().is_empty());
        assert!(!r.csgs.is_empty());
        for p in r.patterns() {
            assert!((3..=5).contains(&p.edge_count()));
            assert!(catapult_graph::components::is_connected(&p));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let db = small_db();
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 4, 3).unwrap(),
            walks: 10,
            seed: 99,
            ..Default::default()
        };
        let fingerprint = |r: &CatapultResult| {
            r.patterns()
                .iter()
                .map(|p| p.invariant_signature())
                .collect::<Vec<_>>()
        };
        let r1 = run_catapult(&db, &cfg);
        let r2 = run_catapult(&db, &cfg);
        assert_eq!(fingerprint(&r1), fingerprint(&r2));
    }

    #[test]
    fn happy_path_reports_all_exact() {
        let db = small_db();
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 4, 3).unwrap(),
            walks: 10,
            ..Default::default()
        };
        let r = run_catapult(&db, &cfg);
        assert!(r.report().all_exact(), "default run must be exact");
        assert!(r.report().total() > 0, "all stages must be audited");
        assert!(r.report().mining.total() > 0 || r.report().clustering.total() > 0);
    }

    #[test]
    fn expired_deadline_degrades_but_still_returns() {
        let db = small_db();
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 4, 3).unwrap(),
            walks: 10,
            search: SearchBudget::unbounded()
                .with_deadline(catapult_graph::Deadline::at(catapult_obs::now())),
            ..Default::default()
        };
        let r = run_catapult(&db, &cfg);
        // Patterns selected (possibly none) must still conform to the
        // budget, and the report must name at least one degraded stage.
        for p in r.patterns() {
            assert!((3..=4).contains(&p.edge_count()));
        }
        assert!(!r.report().all_exact());
        assert!(!r.report().degraded_stages().is_empty());
    }

    #[test]
    fn empty_database() {
        let cfg = CatapultConfig::default();
        let r = run_catapult(&[], &cfg);
        assert!(r.patterns().is_empty());
        assert!(r.csgs.is_empty());
    }

    #[test]
    fn resumable_run_matches_plain_and_resumes_from_disk() {
        let db = small_db();
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 4, 3).unwrap(),
            walks: 10,
            seed: 42,
            ..Default::default()
        };
        let plain = run_catapult(&db, &cfg);
        let dir = std::env::temp_dir().join("catapult-core-resume");
        std::fs::remove_dir_all(&dir).ok();
        let ck = CheckpointConfig::new(&dir);
        let first = run_catapult_resumable(&db, &cfg, &ck).unwrap();
        assert_eq!(
            ckpt_io::result_digest(&first),
            ckpt_io::result_digest(&plain),
            "checkpointed run must reproduce the plain run"
        );

        // Resuming from the completed run reloads every stage from disk.
        let mut resume = CheckpointConfig::new(&dir);
        resume.resume = true;
        let second = run_catapult_resumable(&db, &cfg, &resume).unwrap();
        assert_eq!(
            ckpt_io::result_digest(&second),
            ckpt_io::result_digest(&first)
        );

        // Deleting the later stages resumes mid-pipeline and still
        // reproduces the original bytes.
        for stage in ["selection", "csg", "clustering"] {
            std::fs::remove_file(dir.join(format!("{stage}.ckpt"))).unwrap();
            let redo = run_catapult_resumable(&db, &cfg, &resume).unwrap();
            assert_eq!(
                ckpt_io::result_digest(&redo),
                ckpt_io::result_digest(&first),
                "after deleting {stage}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A payload that passes its checksum but does not decode (schema
    /// drift within a version) is discarded with a warning naming its
    /// stage, and the stage recomputes to the cold run's bytes — for the
    /// pipeline's own `csg` stage and for clustering's `fine` stage.
    #[test]
    fn undecodable_checkpoints_warn_and_recompute() {
        let db = small_db();
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 4, 3).unwrap(),
            walks: 10,
            seed: 42,
            clustering: catapult_cluster::ClusteringConfig {
                max_cluster_size: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let cold = ckpt_io::result_digest(&run_catapult(&db, &cfg));
        for (stage, later) in [
            ("csg", &["selection"][..]),
            ("fine", &["clustering", "csg", "selection"][..]),
        ] {
            let dir = std::env::temp_dir().join(format!("catapult-core-undecodable-{stage}"));
            std::fs::remove_dir_all(&dir).ok();
            run_catapult_resumable(&db, &cfg, &CheckpointConfig::new(&dir)).unwrap();
            for s in later {
                std::fs::remove_file(dir.join(format!("{s}.ckpt"))).unwrap();
            }
            let mut resume = CheckpointConfig::new(&dir);
            resume.resume = true;
            let fp = ckpt_io::fingerprint(&db, &cfg);
            StageStore::open(&resume, fp, Recorder::disabled())
                .unwrap()
                .save(stage, 0, b"xx")
                .unwrap();
            let recorder = Recorder::enabled();
            let watched = CatapultConfig {
                recorder: recorder.clone(),
                ..cfg.clone()
            };
            let resumed = run_catapult_resumable(&db, &watched, &resume).unwrap();
            assert_eq!(ckpt_io::result_digest(&resumed), cold, "stage {stage}");
            let snapshot = recorder.snapshot().unwrap();
            assert!(
                snapshot
                    .events
                    .iter()
                    .any(|e| e.name == "flight.log.warning" && e.detail == stage),
                "no warning naming `{stage}`: {:?}",
                snapshot.events
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn foreign_checkpoints_are_rejected_by_fingerprint() {
        let db = small_db();
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 4, 2).unwrap(),
            walks: 10,
            seed: 7,
            ..Default::default()
        };
        let dir = std::env::temp_dir().join("catapult-core-foreign");
        std::fs::remove_dir_all(&dir).ok();
        let ck = CheckpointConfig::new(&dir);
        run_catapult_resumable(&db, &cfg, &ck).unwrap();

        let mut resume = CheckpointConfig::new(&dir);
        resume.resume = true;
        // A different seed changes the config hash.
        let reseeded = CatapultConfig {
            seed: 8,
            ..cfg.clone()
        };
        let err = run_catapult_resumable(&db, &reseeded, &resume).unwrap_err();
        assert!(err.to_string().contains("config_hash"), "{err}");
        // A different budget changes a first-class fingerprint field.
        let rebudgeted = CatapultConfig {
            budget: PatternBudget::new(3, 4, 3).unwrap(),
            ..cfg.clone()
        };
        let err = run_catapult_resumable(&db, &rebudgeted, &resume).unwrap_err();
        assert!(err.to_string().contains("budget.gamma"), "{err}");
        // A different database changes the dataset hash.
        let mut other_db = db;
        other_db.pop();
        let err = run_catapult_resumable(&other_db, &cfg, &resume).unwrap_err();
        assert!(err.to_string().contains("dataset_hash"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timings_are_populated() {
        let db = small_db();
        let cfg = CatapultConfig {
            budget: PatternBudget::new(3, 4, 2).unwrap(),
            walks: 10,
            ..Default::default()
        };
        let r = run_catapult(&db, &cfg);
        // Durations exist (may be sub-millisecond but non-negative by type).
        let _ = r.clustering_time();
        let _ = r.pattern_generation_time();
    }
}
