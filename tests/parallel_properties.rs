//! Property tests: every parallel stage equals its sequential self.
//!
//! Where `tests/parallel_determinism.rs` pins the end-to-end pipeline,
//! these tests compare the individual parallel fan-outs — subtree
//! mining, fine clustering, candidate scoring, and workload evaluation —
//! element-for-element between one worker and eight, over a spread of
//! randomly generated molecule repositories. The comparison includes the
//! [`Completeness`] audit tags: budget accounting must not drift with
//! the thread count either.
//!
//! [`Completeness`]: catapult::graph::Completeness

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult::cluster::fine::{fine_cluster, FineConfig};
use catapult::datasets::{
    aids_profile, emol_profile, generate, pubchem_profile, random_queries, MoleculeProfile,
};
use catapult::eval::measures::{mean_diversity, subgraph_coverage};
use catapult::eval::WorkloadEvaluation;
use catapult::graph::{Graph, SearchBudget};
use catapult::mining::subtree::mine_subtrees;
use catapult::mining::SubtreeMinerConfig;
use catapult::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `rayon::set_threads` is process-global; hold this across every flip.
#[allow(clippy::disallowed_types)] // a test lock, not pipeline state
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_threads(n);
    let out = f();
    rayon::set_threads(0);
    out
}

/// A deterministic spread of small random repositories.
fn random_dbs() -> Vec<(String, Vec<Graph>)> {
    let profiles: [(&str, MoleculeProfile); 3] = [
        ("aids", aids_profile()),
        ("pubchem", pubchem_profile()),
        ("emol", emol_profile()),
    ];
    let mut dbs = Vec::new();
    for (name, profile) in profiles {
        for seed in [1u64, 99] {
            let db = generate(&profile, 24, seed);
            dbs.push((format!("{name}/seed{seed}"), db.graphs));
        }
    }
    dbs
}

#[test]
fn subtree_mining_is_threadcount_invariant() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SubtreeMinerConfig {
        min_support: 0.2,
        max_edges: 3,
        ..Default::default()
    };
    for (name, db) in random_dbs() {
        let budget = SearchBudget::unbounded();
        let seq = with_threads(1, || mine_subtrees(&db, &cfg, &budget));
        let par = with_threads(8, || mine_subtrees(&db, &cfg, &budget));
        assert_eq!(
            seq.subtrees.len(),
            par.subtrees.len(),
            "{name}: subtree count diverged"
        );
        for (a, b) in seq.subtrees.iter().zip(&par.subtrees) {
            assert_eq!(a.canonical, b.canonical, "{name}: canonical form diverged");
            assert_eq!(
                a.transactions, b.transactions,
                "{name}: transaction list diverged"
            );
        }
        assert_eq!(
            seq.candidates_counted, par.candidates_counted,
            "{name}: candidate count diverged"
        );
        assert_eq!(seq.kernel, par.kernel, "{name}: kernel tally diverged");
        assert_eq!(
            seq.completeness, par.completeness,
            "{name}: completeness tag diverged"
        );
    }
}

#[test]
fn subtree_mining_tally_matches_even_when_budgeted() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A tight node cap degrades some probes; the *counts* of degraded
    // probes are still deterministic because each probe runs exactly once
    // with its own budget meter, wherever it is scheduled.
    let cfg = SubtreeMinerConfig {
        min_support: 0.2,
        max_edges: 3,
        ..Default::default()
    };
    let budget = SearchBudget::nodes(40);
    for (name, db) in random_dbs().into_iter().take(2) {
        let seq = with_threads(1, || mine_subtrees(&db, &cfg, &budget));
        let par = with_threads(8, || mine_subtrees(&db, &cfg, &budget));
        assert_eq!(seq.kernel, par.kernel, "{name}: budgeted tally diverged");
        assert_eq!(
            seq.completeness, par.completeness,
            "{name}: budgeted completeness diverged"
        );
        for (a, b) in seq.subtrees.iter().zip(&par.subtrees) {
            assert_eq!(
                a.transactions, b.transactions,
                "{name}: budgeted transactions diverged"
            );
        }
    }
}

#[test]
fn fine_clustering_is_threadcount_invariant() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = FineConfig {
        max_cluster_size: 4,
        ..Default::default()
    };
    // MCCS splitting is the priciest kernel here; three repositories keep
    // the binary affordable while still spanning all profiles.
    for (name, db) in random_dbs().into_iter().step_by(2) {
        // One oversized cluster holding everything forces real splits.
        let all: Vec<u32> = (0..db.len() as u32).collect();
        // Identical RNG seeds: the splitting seeds are drawn *outside*
        // the parallel region, so the whole trajectory must replay.
        let seq = with_threads(1, || {
            let mut rng = StdRng::seed_from_u64(5);
            fine_cluster(&db, vec![all.clone()], &cfg, &mut rng)
        });
        let par = with_threads(8, || {
            let mut rng = StdRng::seed_from_u64(5);
            fine_cluster(&db, vec![all.clone()], &cfg, &mut rng)
        });
        assert_eq!(seq.clusters, par.clusters, "{name}: clusters diverged");
        assert_eq!(seq.kernel, par.kernel, "{name}: kernel tally diverged");
    }
}

#[test]
fn candidate_scoring_is_threadcount_invariant() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // run_catapult exercises the parallel scoring loop of Algorithm 4;
    // scores and CSG provenance must match element-for-element (the
    // greedy argmax consumes the whole scored vector, so any divergence
    // would cascade into different patterns).
    let cfg = CatapultConfig {
        budget: PatternBudget::new(3, 5, 4).unwrap(),
        walks: 10,
        seed: 13,
        ..Default::default()
    };
    for (name, db) in random_dbs().into_iter().take(3) {
        let seq = with_threads(1, || run_catapult(&db, &cfg));
        let par = with_threads(8, || run_catapult(&db, &cfg));
        assert_eq!(
            seq.selection.selected.len(),
            par.selection.selected.len(),
            "{name}: selection length diverged"
        );
        for (a, b) in seq.selection.selected.iter().zip(&par.selection.selected) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{name}: score bits diverged"
            );
            assert_eq!(a.source_csg, b.source_csg, "{name}: provenance diverged");
            assert_eq!(
                a.pattern.invariant_signature(),
                b.pattern.invariant_signature(),
                "{name}: pattern diverged"
            );
        }
        assert_eq!(
            seq.selection.report, par.selection.report,
            "{name}: pipeline report diverged"
        );
    }
}

#[test]
fn workload_evaluation_is_threadcount_invariant() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (name, db) = &random_dbs()[0];
    let queries = random_queries(db, 20, (3, 8), 17);
    let patterns: Vec<Graph> = db.iter().take(4).cloned().collect();
    let seq = with_threads(1, || {
        let ev = WorkloadEvaluation::evaluate(&patterns, &queries);
        (
            ev.mean_reduction().to_bits(),
            ev.missed_percentage().to_bits(),
            subgraph_coverage(&patterns, db).to_bits(),
            mean_diversity(&patterns).to_bits(),
        )
    });
    let par = with_threads(8, || {
        let ev = WorkloadEvaluation::evaluate(&patterns, &queries);
        (
            ev.mean_reduction().to_bits(),
            ev.missed_percentage().to_bits(),
            subgraph_coverage(&patterns, db).to_bits(),
            mean_diversity(&patterns).to_bits(),
        )
    });
    assert_eq!(seq, par, "{name}: evaluation measures diverged");
}
