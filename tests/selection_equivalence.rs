//! Selection equivalence: the lazy, memoized greedy argmax in
//! `find_canned_patterns` must pick exactly what an eager Algorithm 4 —
//! every candidate scored in full, every iteration — picks. Likewise the
//! bound-skipped assignment in `IncrementalCatapult::insert_batch` must
//! place every arrival where an MCCS against every CSG places it.
//!
//! The eager reference below is assembled from the public `walk`, `fcp`
//! and `score` items and makes one kernel call per term per candidate per
//! iteration. Both runs must produce byte-identical selections (pattern
//! bytes, score bits, source CSG) across thread counts, every
//! `ScoreVariant`, query logs (including a negative boost factor), and
//! node caps tight enough to degrade VF2 and GED. The lazy run's
//! `scoring` tally may only be smaller.
//!
//! Candidate generation has its own reference: the incremental-frontier
//! walks and the dense FCP frequency table must produce the libraries,
//! FCPs and RNG stream of the full-scan walker and `HashMap` table they
//! replaced.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult::cluster::{cluster_graphs, ClusteringConfig};
use catapult::core::budget::SizeCounts;
use catapult::core::fcp::generate_fcp;
use catapult::core::score::{ccov, covering_csgs, diversity, eq2_score, prepare_csgs};
use catapult::core::walk::{generate_library, generate_pcp, Pcp};
use catapult::core::{
    find_canned_patterns, EdgeLabelIndex, IncrementalCatapult, IncrementalConfig, PatternBudget,
    QueryLog, ScoreVariant, SelectionConfig, SelectionResult,
};
use catapult::csg::{build_csgs, ClusterWeights, Csg, EdgeLabelWeights, WeightedCsg};
use catapult::datasets::{aids_profile, emol_profile, generate, pubchem_profile, MoleculeProfile};
use catapult::graph::fmt::{parse_graphs, write_graphs};
use catapult::graph::iso::are_isomorphic_tagged;
use catapult::graph::mcs::{similarity, McsConfig};
use catapult::graph::metrics::cognitive_load;
use catapult::graph::{EdgeId, Graph, Label, LabelInterner, SearchBudget, TallyCounts};
use catapult::mining::EdgeLabelStats;
use catapult_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// `rayon::set_threads` is process-global; serialize the tests that flip it.
#[allow(clippy::disallowed_types)] // a test lock, not pipeline state
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with the pool pinned to `n` workers, restoring auto sizing.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_threads(n);
    let out = f();
    rayon::set_threads(0);
    out
}

/// One selected pattern as bytes: labels, edge list, score bits, source.
type Pick = (Vec<Label>, Vec<(u32, u32)>, u64, usize);

fn pick(pattern: &Graph, score: f64, source_csg: usize) -> Pick {
    let edges = pattern.edges().map(|(_, e)| (e.u.0, e.v.0)).collect();
    (
        pattern.labels().to_vec(),
        edges,
        score.to_bits(),
        source_csg,
    )
}

fn picks(r: &SelectionResult) -> Vec<Pick> {
    r.selected
        .iter()
        .map(|s| pick(&s.pattern, s.score, s.source_csg))
        .collect()
}

/// Eager Algorithm 4: the same walks (and so the same RNG draws), the same
/// dedup, then every candidate scored from scratch and the best one picked
/// under the `(score total_cmp, lowest index)` rule.
fn eager<R: Rng>(
    db: &[Graph],
    csgs: &[Csg],
    cfg: &SelectionConfig,
    rng: &mut R,
) -> (Vec<Pick>, TallyCounts) {
    let search = &cfg.search;
    let budget = &cfg.budget;
    let mut elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(db));
    let mut cw = ClusterWeights::new(csgs, db.len());
    let prepared = prepare_csgs(csgs);
    let index = EdgeLabelIndex::build(db);
    let mut selected = Vec::new();
    let mut selected_graphs: Vec<Graph> = Vec::new();
    let mut counts = SizeCounts::new();
    let mut scoring = TallyCounts::default();
    while selected.len() < budget.gamma() {
        let sizes = budget.open_sizes(&counts);
        if sizes.is_empty() {
            break;
        }
        let mut candidates: Vec<(Graph, usize)> = Vec::new();
        for (ci, csg) in csgs.iter().enumerate() {
            let weighted = WeightedCsg::new(csg, &elw);
            for &size in &sizes {
                let library = generate_library(&weighted, size, cfg.walks, rng);
                if let Some((fcp, _)) = generate_fcp(csg, &library, size) {
                    let got = fcp.edge_count();
                    if got >= budget.eta_min()
                        && got <= budget.eta_max()
                        && counts.count(got) < budget.size_cap(got)
                    {
                        candidates.push((fcp, ci));
                    }
                }
            }
        }
        let mut iso_eq = |a: &Graph, b: &Graph| {
            let (eq, c) = are_isomorphic_tagged(a, b, search);
            scoring.record(c);
            eq
        };
        candidates.retain(|(c, _)| !selected_graphs.iter().any(|p| iso_eq(p, c)));
        let mut unique: Vec<(Graph, usize)> = Vec::new();
        for (c, ci) in candidates {
            if !unique.iter().any(|(u, _)| iso_eq(u, &c)) {
                unique.push((c, ci));
            }
        }
        let mut candidates = unique;
        if candidates.is_empty() {
            break;
        }
        let scored: Vec<(f64, usize)> = candidates
            .iter()
            .enumerate()
            .map(|(i, (c, _))| {
                let cov = ccov(&covering_csgs(c, &prepared, search, &mut scoring), &cw);
                let cog = cognitive_load(c);
                let div = if cfg.variant.uses_diversity() && cog > 0.0 {
                    diversity(c, &selected_graphs, search, &mut scoring)
                } else {
                    None
                };
                let boost = cfg.query_log.as_ref().map(|log| {
                    1.0 + cfg.log_weight * log.pattern_frequency(c, search, &mut scoring)
                });
                let div = div.map_or(1.0, |d| d as f64);
                (
                    eq2_score(cfg.variant, cov, index.lcov(c), div, cog, boost),
                    i,
                )
            })
            .collect();
        let &(best_score, best_idx) = scored
            .iter()
            .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
            .unwrap();
        if best_score <= 0.0 {
            break;
        }
        let (pattern, source_csg) = candidates.swap_remove(best_idx);
        for ci in covering_csgs(&pattern, &prepared, search, &mut scoring) {
            cw.damp(ci);
        }
        elw.damp_pattern(&pattern);
        counts.record(pattern.edge_count());
        selected.push(pick(&pattern, best_score, source_csg));
        selected_graphs.push(pattern);
    }
    (selected, scoring)
}

/// A small `aids`-profile database with CSGs over fixed index blocks.
fn fixture() -> (Vec<Graph>, Vec<Csg>) {
    let db = generate(&aids_profile(), 36, 7).graphs;
    let clusters: Vec<Vec<u32>> = (0..6).map(|b| (b * 6..b * 6 + 6).collect()).collect();
    let csgs = build_csgs(&db, &clusters);
    (db, csgs)
}

fn config(search: SearchBudget) -> SelectionConfig {
    SelectionConfig {
        budget: PatternBudget::new(3, 7, 8).unwrap(),
        walks: 20,
        search,
        ..Default::default()
    }
}

/// Require `lazy` to pick exactly what the eager reference picks from the
/// same seed, with a `scoring` tally no larger than the reference's.
fn assert_matches_eager(
    lazy: &SelectionResult,
    db: &[Graph],
    csgs: &[Csg],
    cfg: &SelectionConfig,
    seed: u64,
    ctx: &str,
) {
    let (reference, eager_tally) = eager(db, csgs, cfg, &mut StdRng::seed_from_u64(seed));
    assert!(
        !reference.is_empty(),
        "{ctx}: the reference selected nothing"
    );
    assert_eq!(picks(lazy), reference, "{ctx}: lazy selection diverged");
    assert!(
        lazy.report.scoring.total() <= eager_tally.total(),
        "{ctx}: lazy scoring tally {} exceeds eager {}",
        lazy.report.scoring.total(),
        eager_tally.total()
    );
}

/// [`assert_matches_eager`] for a direct `find_canned_patterns` call.
fn assert_equivalent(db: &[Graph], csgs: &[Csg], cfg: &SelectionConfig, seed: u64, ctx: &str) {
    let lazy = find_canned_patterns(db, csgs, cfg, &mut StdRng::seed_from_u64(seed));
    assert_matches_eager(&lazy, db, csgs, cfg, seed, ctx);
}

#[test]
fn lazy_selection_matches_eager_across_threads_and_variants() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (db, csgs) = fixture();
    for threads in [1, 8] {
        for variant in [
            ScoreVariant::Full,
            ScoreVariant::NoDiversity,
            ScoreVariant::NoCognitiveLoad,
            ScoreVariant::Additive,
        ] {
            let cfg = SelectionConfig {
                variant,
                ..config(SearchBudget::unbounded())
            };
            let ctx = format!("threads={threads} variant={variant:?}");
            with_threads(threads, || assert_equivalent(&db, &csgs, &cfg, 11, &ctx));
        }
    }
}

#[test]
fn lazy_selection_matches_eager_under_degrading_node_caps() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (db, csgs) = fixture();
    for threads in [1, 8] {
        for cap in [40, 120] {
            let recorder = Recorder::enabled();
            let cfg = SelectionConfig {
                recorder: recorder.clone(),
                ..config(SearchBudget::nodes(cap))
            };
            let ctx = format!("threads={threads} cap={cap}");
            with_threads(threads, || assert_equivalent(&db, &csgs, &cfg, 5, &ctx));
            let snap = recorder.snapshot().unwrap();
            let counter = |name: &str| {
                snap.counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |(_, v)| *v)
            };
            assert!(
                counter("scoring.iso.degraded") > 0,
                "{ctx}: no VF2 degraded"
            );
            assert!(
                counter("scoring.ged.degraded") > 0,
                "{ctx}: no GED degraded"
            );
            assert!(
                counter("scoring.greedy.rescored") > 0,
                "{ctx}: nothing rescored"
            );
            assert!(
                counter("scoring.greedy.rescored") <= counter("scoring.greedy.candidates"),
                "{ctx}: rescored more candidates than were proposed"
            );
        }
    }
}

#[test]
fn lazy_selection_matches_eager_with_a_query_log() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (db, csgs) = fixture();
    // Logged queries: whole database graphs, so most candidates hit some.
    let log = QueryLog::new(db.iter().step_by(3).cloned().collect());
    for threads in [1, 8] {
        // λ < −1 makes the boost factor negative for frequent patterns.
        for log_weight in [2.0, -3.0] {
            for search in [SearchBudget::unbounded(), SearchBudget::nodes(120)] {
                let cfg = SelectionConfig {
                    query_log: Some(log.clone()),
                    log_weight,
                    ..config(search.clone())
                };
                let ctx = format!("threads={threads} λ={log_weight} cap={}", search.node_cap);
                with_threads(threads, || assert_equivalent(&db, &csgs, &cfg, 3, &ctx));
            }
        }
    }
}

#[test]
fn incremental_refresh_matches_eager() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (db, _) = fixture();
    let (seed_db, arrivals) = db.split_at(24);
    let clusters: Vec<Vec<u32>> = (0..4).map(|b| (b * 6..b * 6 + 6).collect()).collect();
    for (threads, search) in [
        (1, SearchBudget::unbounded()),
        (8, SearchBudget::nodes(120)),
    ] {
        let cfg = IncrementalConfig {
            selection: config(search.clone()),
            max_cluster_size: 6,
            ..Default::default()
        };
        let mut inc = IncrementalCatapult::new(seed_db.to_vec(), clusters.clone(), cfg.clone());
        inc.insert_batch(arrivals.to_vec());
        let lazy = with_threads(threads, || inc.refresh_patterns());
        let ctx = format!("threads={threads} cap={}", search.node_cap);
        assert_matches_eager(&lazy, &db, inc.csgs(), &cfg.selection, cfg.seed, &ctx);
    }
}

/// The exhaustive assignment loop: an MCCS against every CSG. Returns each
/// similarity and the number of degraded calls.
fn exhaustive_similarities(g: &Graph, csgs: &[Csg], search: &SearchBudget) -> (Vec<f64>, usize) {
    let cfg = McsConfig {
        budget: search.clone(),
        ..McsConfig::connected()
    };
    let mut degraded = 0;
    let sims = csgs
        .iter()
        .map(|c| {
            let (sim, completeness) = similarity(g, &c.graph, cfg.clone());
            degraded += usize::from(!completeness.is_exact());
            sim
        })
        .collect();
    (sims, degraded)
}

/// The exhaustive decision: strict-`>` argmax in index order, then the
/// threshold.
fn exhaustive_choice(sims: &[f64], threshold: f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &sim) in sims.iter().enumerate() {
        if best.is_none_or(|(_, s)| sim > s) {
            best = Some((i, sim));
        }
    }
    best.filter(|&(_, s)| s >= threshold).map(|(i, _)| i)
}

/// `count` graphs of `profile` from `seed`, interned into `interner` so
/// that equal element names get equal labels across profiles.
fn load(
    profile: &MoleculeProfile,
    count: usize,
    seed: u64,
    interner: &mut LabelInterner,
) -> Vec<Graph> {
    let generated = generate(profile, count, seed);
    parse_graphs(
        &write_graphs(&generated.graphs, &generated.interner),
        interner,
    )
    .unwrap()
}

#[test]
fn incremental_assignment_matches_exhaustive() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: usize = 10;
    let (mut top_ties, mut chosen_at_one, mut degraded_at_cap) = (0, 0, 0);
    for data_seed in [7u64, 11, 23] {
        let mut interner = LabelInterner::new();
        let repo = load(&aids_profile(), 60, data_seed, &mut interner);
        let clustering = ClusteringConfig {
            max_cluster_size: N,
            ..Default::default()
        };
        let clusters =
            cluster_graphs(&repo, &clustering, &mut StdRng::seed_from_u64(data_seed)).clusters;
        // At most N arrivals per batch: the outlier pool never matures, so
        // every arrival's placement is its assignment decision.
        let batch: Vec<Graph> = [emol_profile(), pubchem_profile(), aids_profile()]
            .iter()
            .flat_map(|p| load(p, 3, data_seed.wrapping_mul(1_000) + 1, &mut interner))
            .collect();
        let base = IncrementalCatapult::new(repo.clone(), clusters.clone(), Default::default());
        for cap in [1, 120, 20_000] {
            let search = SearchBudget::nodes(cap);
            let reference: Vec<(Vec<f64>, usize)> = batch
                .iter()
                .map(|g| exhaustive_similarities(g, base.csgs(), &search))
                .collect();
            let reference_degraded: usize = reference.iter().map(|r| r.1).sum();
            if cap < 20_000 {
                degraded_at_cap += reference_degraded;
            }
            for threshold in [0.0, 0.7, 1.0] {
                let ctx = format!("data_seed={data_seed} cap={cap} threshold={threshold}");
                let expected: Vec<Option<usize>> = reference
                    .iter()
                    .map(|(sims, _)| exhaustive_choice(sims, threshold))
                    .collect();
                for ((sims, _), choice) in reference.iter().zip(&expected) {
                    if let Some(c) = *choice {
                        top_ties += usize::from(sims.iter().filter(|&&s| s == sims[c]).count() > 1);
                        chosen_at_one += usize::from(threshold == 1.0);
                    }
                }
                let cfg = IncrementalConfig {
                    assignment_threshold: threshold,
                    search: search.clone(),
                    max_cluster_size: N,
                    ..Default::default()
                };
                let runs: Vec<_> = [1, 8]
                    .into_iter()
                    .map(|threads| {
                        let mut inc =
                            IncrementalCatapult::new(repo.clone(), clusters.clone(), cfg.clone());
                        let stats = with_threads(threads, || inc.insert_batch(batch.clone()));
                        (threads, stats, inc)
                    })
                    .collect();
                for (threads, stats, inc) in &runs {
                    let ctx = format!("{ctx} threads={threads}");
                    assert_eq!(stats.new_clusters, 0, "{ctx}: the pool matured");
                    for (k, want) in expected.iter().enumerate() {
                        let id = (repo.len() + k) as u32;
                        let got = inc.clusters().iter().position(|c| c.contains(&id));
                        assert_eq!(got, *want, "{ctx}: arrival {k} misplaced");
                    }
                    assert!(
                        stats.degraded_probes <= reference_degraded,
                        "{ctx}: {} degraded calls exceed the exhaustive {reference_degraded}",
                        stats.degraded_probes
                    );
                }
                assert_eq!(runs[0].1, runs[1].1, "{ctx}: stats differ across threads");
            }
        }
    }
    // The fixture must exercise what the skips could get wrong: a winner
    // at threshold 1.0, winners tied with a later CSG, and degraded calls.
    assert!(chosen_at_one > 0, "no arrival reached ω = 1.0");
    assert!(top_ties > 0, "no arrival had a tied winner");
    assert!(degraded_at_cap > 0, "no MCCS call degraded");
}

/// The walker and FCP assembly as they were before the incremental
/// frontier: every walk recomputes the seed edge, every step rescans all
/// CSG edges for candidate adjacent edges, and the FCP takes its argmaxes
/// over a `HashMap` frequency table.
mod full_scan {
    use super::*;
    use catapult::graph::random::weighted_choice;

    fn candidate_adjacent_edges(
        w: &WeightedCsg<'_>,
        in_pattern: &[bool],
        in_vertices: &[bool],
    ) -> Vec<EdgeId> {
        w.csg
            .graph
            .edges()
            .filter(|&(eid, e)| {
                !in_pattern[eid.index()] && (in_vertices[e.u.index()] || in_vertices[e.v.index()])
            })
            .map(|(eid, _)| eid)
            .collect()
    }

    fn mark(g: &Graph, eid: EdgeId, in_pattern: &mut [bool], in_vertices: &mut [bool]) {
        in_pattern[eid.index()] = true;
        let e = g.edge(eid);
        in_vertices[e.u.index()] = true;
        in_vertices[e.v.index()] = true;
    }

    pub(super) fn generate_pcp<R: Rng>(
        w: &WeightedCsg<'_>,
        target: usize,
        rng: &mut R,
    ) -> Option<Pcp> {
        let seed = w.seed_edge()?;
        if target == 0 {
            return None;
        }
        let g = &w.csg.graph;
        let mut in_pattern = vec![false; g.edge_count()];
        let mut in_vertices = vec![false; g.vertex_count()];
        mark(g, seed, &mut in_pattern, &mut in_vertices);
        let mut pcp = vec![seed];
        while pcp.len() < target {
            let caes = candidate_adjacent_edges(w, &in_pattern, &in_vertices);
            if caes.is_empty() {
                break;
            }
            let weights: Vec<f64> = caes.iter().map(|&e| w.weight(e)).collect();
            let chosen = match weighted_choice(&weights, rng) {
                Some(i) => caes[i],
                None => caes[rng.gen_range(0..caes.len())],
            };
            mark(g, chosen, &mut in_pattern, &mut in_vertices);
            pcp.push(chosen);
        }
        Some(pcp)
    }

    pub(super) fn generate_library<R: Rng>(
        w: &WeightedCsg<'_>,
        target: usize,
        walks: usize,
        rng: &mut R,
    ) -> Vec<Pcp> {
        (0..walks)
            .filter_map(|_| generate_pcp(w, target, rng))
            .collect()
    }

    pub(super) fn generate_fcp(csg: &Csg, library: &[Pcp], target: usize) -> Option<Vec<EdgeId>> {
        let mut freq: HashMap<EdgeId, usize> = HashMap::new();
        for &e in library.iter().flatten() {
            *freq.entry(e).or_insert(0) += 1;
        }
        if freq.is_empty() || target == 0 {
            return None;
        }
        let g = &csg.graph;
        let first = *freq
            .iter()
            .max_by_key(|&(e, &c)| (c, std::cmp::Reverse(e.0)))
            .map(|(e, _)| e)?;
        let mut in_pattern = vec![false; g.edge_count()];
        let mut in_vertices = vec![false; g.vertex_count()];
        mark(g, first, &mut in_pattern, &mut in_vertices);
        let mut chosen = vec![first];
        while chosen.len() < target {
            let next = freq
                .iter()
                .filter(|&(&eid, _)| {
                    let e = g.edge(eid);
                    !in_pattern[eid.index()]
                        && (in_vertices[e.u.index()] || in_vertices[e.v.index()])
                })
                .max_by_key(|&(&eid, &c)| (c, std::cmp::Reverse(eid.0)))
                .map(|(&eid, _)| eid);
            match next {
                Some(eid) => {
                    mark(g, eid, &mut in_pattern, &mut in_vertices);
                    chosen.push(eid);
                }
                None => break,
            }
        }
        Some(chosen)
    }
}

/// Require the walker and FCP assembly to match [`full_scan`] on `w` for
/// every size in `sizes`: identical libraries and FCPs, and the same next
/// RNG value after each library. Returns how many libraries saturated
/// (some walk ran out of candidate edges before reaching its size).
fn assert_walks_match(w: &WeightedCsg<'_>, sizes: &[usize], seed: u64, ctx: &str) -> usize {
    const WALKS: usize = 20;
    let (mut new_rng, mut old_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let mut saturated = 0;
    for &size in sizes {
        let ctx = format!("{ctx} size={size}");
        let library = generate_library(w, size, WALKS, &mut new_rng);
        let reference = full_scan::generate_library(w, size, WALKS, &mut old_rng);
        assert_eq!(library, reference, "{ctx}: libraries differ");
        assert_eq!(library.len(), WALKS, "{ctx}: a walk was dropped");
        saturated += usize::from(library.iter().any(|p| p.len() < size));
        // One edge more than the walks took: the FCP must stop where the
        // library's edges run out, not reach for an unseen adjacent edge.
        for target in [size, size + 1] {
            assert_eq!(
                generate_fcp(w.csg, &library, target).map(|(_, edges)| edges),
                full_scan::generate_fcp(w.csg, &reference, target),
                "{ctx}: FCPs of {target} edges differ"
            );
        }
        assert_eq!(
            new_rng.next_u64(),
            old_rng.next_u64(),
            "{ctx}: RNG streams diverged"
        );
        assert_eq!(
            generate_pcp(w, size, &mut new_rng),
            full_scan::generate_pcp(w, size, &mut old_rng),
            "{ctx}: single walks differ"
        );
    }
    saturated
}

#[test]
fn frontier_walks_and_dense_fcp_match_the_full_scan() {
    let (mut csgs_checked, mut saturated) = (0, 0);
    for data_seed in [7u64, 11, 23] {
        let db = generate(&aids_profile(), 60, data_seed).graphs;
        let clustering = ClusteringConfig {
            max_cluster_size: 10,
            ..Default::default()
        };
        let clusters =
            cluster_graphs(&db, &clustering, &mut StdRng::seed_from_u64(data_seed)).clusters;
        let csgs = build_csgs(&db, &clusters);
        let mut elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(&db));
        for (ci, csg) in csgs.iter().enumerate() {
            let edges = csg.graph.edge_count();
            let sizes: Vec<usize> = (1..=12).chain([edges + 1]).collect();
            let ctx = format!("data_seed={data_seed} csg={ci}");
            let seed = data_seed * 1_000 + ci as u64;
            let w = WeightedCsg::new(csg, &elw);
            saturated += assert_walks_match(&w, &sizes, seed, &ctx);
            csgs_checked += 1;
            if ci == 0 {
                // All-zero weights: every step takes the uniform fallback.
                let zero = WeightedCsg {
                    csg,
                    edge_weights: vec![0.0; edges],
                };
                assert_walks_match(&zero, &sizes, seed, &format!("{ctx} zero-weight"));
                // Damped weights, as after the greedy loop picks a pattern.
                let before = w.edge_weights.clone();
                elw.damp_pattern(&db[clusters[ci][0] as usize]);
                let damped = WeightedCsg::new(csg, &elw);
                assert_ne!(damped.edge_weights, before, "{ctx}: damping had no effect");
                assert_walks_match(&damped, &sizes, seed, &format!("{ctx} damped"));
            }
        }
    }
    assert!(csgs_checked >= 9, "only {csgs_checked} CSGs checked");
    assert!(saturated > 0, "no library saturated its CSG");
}
