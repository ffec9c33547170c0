//! Kernel-equivalence suite: the optimized search kernels — label-bucket
//! candidate generation, bitset adjacency, edge-label upper-bound pruning
//! and the incremental MCCS component tracker — must be *observationally
//! identical* to the reference unpruned search ([`McsConfig::pruning`]
//! `= false` disables every bound-derived shortcut and restores the plain
//! McGregor enumeration).
//!
//! Over randomized labeled graph pairs, swept across budgets
//! {exact, exhausted, zero-cap} and thread settings {1, 8}:
//!
//! * **Exact runs agree exactly**: same common-subgraph size, same
//!   `Completeness` tag, and both mappings verify as genuine common
//!   subgraphs of the claimed size (an independent validity oracle — not
//!   a comparison of one search against the other).
//! * **Tripped budgets stay truthful**: a non-`Exact` tag never
//!   accompanies a value above the true optimum, the returned mapping is
//!   still a valid common subgraph (a sound lower bound), and a
//!   budget-tripped-but-proven search is tagged `Exact` only when its
//!   value matches the unbounded optimum.
//! * **Pruning only removes work**: under the unbounded budget the
//!   optimized MCS/MCCS never spends more search probes on a pair than
//!   the reference search.
//! * **Determinism**: every kernel returns bit-identical results on
//!   repeated calls and across thread settings (the kernels are
//!   sequential; the sweep proves no hidden dependence on the pool).
//! * **Isomorphism agrees with brute force**: on small graphs,
//!   `are_isomorphic` matches an exhaustive permutation check.
//! * **GED visits the reference tree**: the bitset GED branch-and-bound
//!   returns the same distance and tag after the same number of probes
//!   as the pre-bitset search kept below, at every cap and cutoff.
//! * **Prepared VF2 visits the reference tree**: containment over
//!   prepared graphs and induced/non-induced enumeration report the same
//!   embeddings, tag, probes and meter calls as the per-call-setup matcher
//!   kept below, at every cap.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult::core::score::DIV_GED_BUDGET;
use catapult::datasets::{aids_profile, generate};
use catapult::graph::ged::{ged, ged_upper_bound, GedResult};
use catapult::graph::iso::MatchOutcome;
use catapult::graph::mcs::{mcs, McsConfig, McsResult};
use catapult::graph::random::random_connected_subgraph;
use catapult::graph::{iso, Completeness, Graph, Label, SearchBudget, VertexId};
use catapult_obs::Recorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `set_threads` is process-global; tests that sweep it serialize here.
#[allow(clippy::disallowed_types)] // a test lock, not pipeline state
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Random labeled graph: `n` vertices over a small label alphabet, each
/// candidate edge kept with probability ~`density`/n.
fn random_graph(rng: &mut StdRng, n: u32, labels: u32, density: f64) -> Graph {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_vertex(Label(rng.gen_range(0..labels)));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool((density / f64::from(n)).min(1.0)) {
                g.add_edge(VertexId(i), VertexId(j)).unwrap();
            }
        }
    }
    g
}

/// Deterministic pool of graph pairs spanning sparse/dense and
/// narrow/wide label alphabets.
fn pair_pool() -> Vec<(Graph, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xE015);
    let mut pairs = Vec::new();
    for (n, labels, density) in [
        (4, 1, 2.0),
        (5, 2, 2.5),
        (6, 2, 2.0),
        (7, 3, 3.0),
        (8, 2, 2.0),
        (8, 4, 4.0),
        (9, 3, 2.5),
    ] {
        for _ in 0..3 {
            let a = random_graph(&mut rng, n, labels, density);
            let b = random_graph(&mut rng, n, labels, density);
            pairs.push((a, b));
        }
    }
    pairs
}

/// Independent validity oracle: `pairs` is an injective, label-preserving
/// partial mapping, and the common-edge subgraph it induces has exactly
/// `edges` edges. Validates a result without trusting either search.
fn assert_valid_common_subgraph(a: &Graph, b: &Graph, r: &McsResult, ctx: &str) {
    let mut seen_a = std::collections::BTreeSet::new();
    let mut seen_b = std::collections::BTreeSet::new();
    for &(va, vb) in &r.pairs {
        assert!(seen_a.insert(va.0), "{ctx}: duplicate a-vertex {va:?}");
        assert!(seen_b.insert(vb.0), "{ctx}: duplicate b-vertex {vb:?}");
        assert_eq!(a.label(va), b.label(vb), "{ctx}: label mismatch");
    }
    let mut common = 0usize;
    for i in 0..r.pairs.len() {
        for j in (i + 1)..r.pairs.len() {
            let (va, ta) = r.pairs[i];
            let (vb, tb) = r.pairs[j];
            let in_a = a.neighbors(va).iter().any(|&(w, _)| w == vb);
            let in_b = b.neighbors(ta).iter().any(|&(w, _)| w == tb);
            if in_a && in_b {
                common += 1;
            }
        }
    }
    assert_eq!(common, r.edges, "{ctx}: claimed size != induced size");
}

fn cfg(connected: bool, pruning: bool, budget: SearchBudget) -> McsConfig {
    McsConfig {
        connected,
        budget,
        pruning,
    }
}

/// Search probes (budget-metered node expansions) one unbounded `mcs`
/// call spends, read back through the stage counters its meter flushes.
fn probes_of(a: &Graph, b: &Graph, connected: bool, pruning: bool) -> u64 {
    let rec = Recorder::enabled();
    let budget = SearchBudget::unbounded().with_probe(rec.stage_probe("equivalence"));
    mcs(a, b, cfg(connected, pruning, budget));
    rec.snapshot()
        .map_or(0, |s| s.stage_metric_total("equivalence", "probes"))
}

/// Budgets swept: an exhaustive run, a tiny node cap that trips on every
/// non-trivial pair, and a zero cap that trips on the first expansion.
fn budgets() -> Vec<(&'static str, SearchBudget)> {
    vec![
        ("exact", SearchBudget::unbounded()),
        ("exhausted", SearchBudget::nodes(25)),
        ("zero-cap", SearchBudget::nodes(0)),
    ]
}

#[test]
fn pruned_search_is_equivalent_to_reference_unpruned() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pairs = pair_pool();
    for threads in [1usize, 8] {
        rayon::set_threads(threads);
        for connected in [false, true] {
            let kernel = if connected { "mccs" } else { "mcs" };
            // Ground truth per pair: the unbounded reference search.
            for (pi, (a, b)) in pairs.iter().enumerate() {
                let truth = mcs(a, b, cfg(connected, false, SearchBudget::unbounded()));
                assert!(truth.is_exact(), "unbounded reference must be exact");
                // Pruning only removes work: run to completion, the
                // optimized search never probes more than the reference.
                let pruned = probes_of(a, b, connected, true);
                let unpruned = probes_of(a, b, connected, false);
                assert!(
                    pruned <= unpruned,
                    "threads={threads} {kernel} pair={pi}: pruned search probed \
                     {pruned} > reference {unpruned}"
                );
                for (bname, budget) in budgets() {
                    let ctx = format!("threads={threads} {kernel} pair={pi} budget={bname}");
                    let opt = mcs(a, b, cfg(connected, true, budget.clone()));
                    let reference = mcs(a, b, cfg(connected, false, budget.clone()));

                    // Both mappings must verify independently, whatever
                    // the budget did.
                    assert_valid_common_subgraph(a, b, &opt, &format!("{ctx} optimized"));
                    assert_valid_common_subgraph(a, b, &reference, &format!("{ctx} reference"));

                    // Tag truthfulness: Exact claims the true optimum.
                    if opt.is_exact() {
                        assert_eq!(opt.edges, truth.edges, "{ctx}: Exact tag lied");
                    } else {
                        assert!(opt.edges <= truth.edges, "{ctx}: above the optimum");
                    }
                    if reference.is_exact() {
                        assert_eq!(reference.edges, truth.edges, "{ctx}: reference Exact lied");
                    }

                    // When the reference completes exactly under this
                    // budget, the optimized search must agree on the
                    // size, the mapping size, and the tag. (Under a
                    // tripped budget the two explore different
                    // prefixes, so only the bounds above apply.)
                    if reference.is_exact() {
                        assert_eq!(opt.edges, reference.edges, "{ctx}: size diverged");
                        assert!(opt.is_exact(), "{ctx}: optimized lost the Exact tag");
                        if reference.edges > 0 {
                            assert!(!opt.pairs.is_empty(), "{ctx}: empty mapping");
                        }
                    }

                    // Determinism: a second identical call is bit-identical.
                    let again = mcs(a, b, cfg(connected, true, budget));
                    assert_eq!(opt.edges, again.edges, "{ctx}: nondeterministic size");
                    assert_eq!(opt.pairs, again.pairs, "{ctx}: nondeterministic mapping");
                    assert_eq!(
                        opt.completeness, again.completeness,
                        "{ctx}: nondeterministic tag"
                    );
                }
            }
        }
    }
    rayon::set_threads(0);
}

#[test]
fn results_are_identical_across_thread_settings() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pairs = pair_pool();
    let mut baseline: Option<Vec<(usize, usize)>> = None;
    for threads in [1usize, 8] {
        rayon::set_threads(threads);
        let results: Vec<(usize, usize)> = pairs
            .iter()
            .map(|(a, b)| {
                let m = mcs(a, b, cfg(false, true, SearchBudget::nodes(500)));
                let c = mcs(a, b, cfg(true, true, SearchBudget::nodes(500)));
                (m.edges, c.edges)
            })
            .collect();
        match &baseline {
            None => baseline = Some(results),
            Some(prev) => assert_eq!(prev, &results, "threads={threads} changed results"),
        }
    }
    rayon::set_threads(0);
}

/// Exhaustive permutation check, feasible for the ≤ 7-vertex graphs it
/// is used on.
fn brute_force_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    let n = a.vertex_count();
    let mut perm: Vec<u32> = (0..u32::try_from(n).unwrap()).collect();
    loop {
        let ok = (0..n).all(|i| {
            let (va, vb) = (VertexId(u32::try_from(i).unwrap()), VertexId(perm[i]));
            a.label(va) == b.label(vb)
                && a.neighbors(va).iter().all(|&(w, _)| {
                    b.neighbors(vb)
                        .iter()
                        .any(|&(x, _)| x == VertexId(perm[w.index()]))
                })
        });
        if ok {
            return true;
        }
        // Next lexicographic permutation.
        let Some(i) = (0..n - 1).rfind(|&i| perm[i] < perm[i + 1]) else {
            return false;
        };
        let j = (i + 1..n).rfind(|&j| perm[j] > perm[i]).unwrap();
        perm.swap(i, j);
        perm[i + 1..].reverse();
    }
}

#[test]
fn iso_agrees_with_brute_force_on_small_graphs() {
    let mut rng = StdRng::seed_from_u64(0x0001_5015);
    let mut graphs = Vec::new();
    for _ in 0..10 {
        let n = rng.gen_range(3..=6);
        graphs.push(random_graph(&mut rng, n, 2, 2.5));
    }
    // Relabeled copies guarantee some positive cases.
    for i in 0..3 {
        let src: Graph = graphs[i].clone();
        let n = u32::try_from(src.vertex_count()).unwrap();
        let mut shuffled: Vec<u32> = (0..n).collect();
        for k in (1..n as usize).rev() {
            let j = rng.gen_range(0..=k);
            shuffled.swap(k, j);
        }
        let mut g = Graph::new();
        let mut position = vec![0u32; n as usize];
        for (pos, &orig) in shuffled.iter().enumerate() {
            position[orig as usize] = u32::try_from(pos).unwrap();
            g.add_vertex(src.label(VertexId(orig)));
        }
        for v in src.vertices() {
            for &(w, _) in src.neighbors(v) {
                if v.0 < w.0 {
                    let (p, q) = (position[v.index()], position[w.index()]);
                    g.add_edge(VertexId(p), VertexId(q)).unwrap();
                }
            }
        }
        graphs.push(g);
    }
    for i in 0..graphs.len() {
        for j in i..graphs.len() {
            let (a, b) = (&graphs[i], &graphs[j]);
            let expected = brute_force_isomorphic(a, b);
            assert_eq!(
                iso::are_isomorphic(a, b),
                expected,
                "iso disagreed with brute force on pair ({i}, {j})"
            );
            assert_eq!(
                iso::are_isomorphic_tagged(a, b, &SearchBudget::unbounded()),
                (expected, Completeness::Exact),
                "tagged iso disagreed with brute force on pair ({i}, {j})"
            );
        }
    }
}

/// Pairs of random connected subgraphs (3–12 edges, the `paper`
/// workload's pattern sizes) of aids-profile molecules at data seeds 7,
/// 11 and 23.
fn ged_pair_pool() -> Vec<(Graph, Graph)> {
    let mut pairs = Vec::new();
    for data_seed in [7, 11, 23] {
        let db = generate(&aids_profile(), 20, data_seed).graphs;
        let mut rng = StdRng::seed_from_u64(data_seed);
        let mut patterns = Vec::new();
        while patterns.len() < 2 * GED_PAIRS_PER_SEED {
            let g = &db[rng.gen_range(0..db.len())];
            let size = rng.gen_range(3..=12);
            patterns.extend(random_connected_subgraph(g, size, &mut rng));
        }
        for pair in patterns.chunks(2) {
            pairs.push((pair[0].clone(), pair[1].clone()));
        }
    }
    pairs
}

const GED_PAIRS_PER_SEED: usize = 4;

/// One GED call under a node cap (`None`: unbounded), with the search
/// probes its meter flushed.
fn ged_probed(
    cap: Option<u64>,
    search: impl FnOnce(&SearchBudget) -> GedResult,
) -> (GedResult, u64) {
    let rec = Recorder::enabled();
    let budget = cap
        .map_or_else(SearchBudget::unbounded, SearchBudget::nodes)
        .with_probe(rec.stage_probe("equivalence"));
    let r = search(&budget);
    let probes = rec
        .snapshot()
        .map_or(0, |s| s.stage_metric_total("equivalence", "probes"));
    (r, probes)
}

/// The bitset GED search visits exactly the reference search's tree: at
/// every node cap and cutoff, each call returns the same distance and
/// completeness tag after the same number of probes.
#[test]
fn ged_search_visits_the_reference_tree() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pairs = ged_pair_pool();
    let caps = [Some(1), Some(40), Some(2_000), Some(DIV_GED_BUDGET), None];
    let mut degraded = 0usize;
    for threads in [1usize, 8] {
        rayon::set_threads(threads);
        for (pi, (a, b)) in pairs.iter().enumerate() {
            let ub = ged_upper_bound(a, b);
            for cap in caps {
                for tau in std::iter::once(None).chain((0..=ub).map(Some)) {
                    let ctx = format!("threads={threads} pair={pi} cap={cap:?} τ={tau:?}");
                    let (got, got_probes) = ged_probed(cap, |budget| ged(a, b, tau, budget));
                    let (want, want_probes) =
                        ged_probed(cap, |budget| reference_ged::ged(a, b, tau, budget));
                    assert_eq!(got.distance, want.distance, "{ctx}: distance");
                    assert_eq!(got.completeness, want.completeness, "{ctx}: tag");
                    assert_eq!(got_probes, want_probes, "{ctx}: probes");
                    degraded += usize::from(!want.is_exact());
                }
            }
        }
    }
    rayon::set_threads(0);
    assert!(degraded > 0, "the fixture must contain degraded GED calls");
}

/// One VF2 call with the search probes and meter calls it flushed.
fn vf2_probed(
    cap: u64,
    search: impl FnOnce(&SearchBudget) -> MatchOutcome,
) -> (MatchOutcome, u64, u64) {
    let rec = Recorder::enabled();
    let budget = SearchBudget::nodes(cap).with_probe(rec.stage_probe("equivalence"));
    let out = search(&budget);
    let snap = rec.snapshot();
    let metric = |m| {
        snap.as_ref()
            .map_or(0, |s| s.stage_metric_total("equivalence", m))
    };
    (out, metric("probes"), metric("calls"))
}

/// Patterns and targets at data seeds 7, 11 and 23. Targets: aids-profile
/// molecules plus dense random graphs over two labels, where a pattern
/// vertex often has several back-neighbours and many feasible images.
/// Patterns: random connected subgraphs of 1–8 edges of both kinds (each
/// contained in its source) plus small random graphs, some of them
/// disconnected. Every pattern meets every target of its seed.
fn vf2_pool() -> Vec<(Vec<Graph>, Vec<Graph>)> {
    let mut pool = Vec::new();
    for data_seed in [7, 11, 23] {
        let mut targets = generate(&aids_profile(), 10, data_seed).graphs;
        let mut rng = StdRng::seed_from_u64(data_seed);
        for n in [7, 9, 11, 13] {
            targets.push(random_graph(&mut rng, n, 2, 5.0));
        }
        // Re-insert each target's edges in random order, so that neighbour
        // lists are not sorted by vertex id and the candidate order
        // depends on which mapped neighbour anchors it.
        for t in &mut targets {
            let mut edges: Vec<(u32, u32)> = t.edges().map(|(_, e)| (e.u.0, e.v.0)).collect();
            edges.shuffle(&mut rng);
            *t = Graph::from_parts(t.labels(), &edges);
        }
        let mut patterns = Vec::new();
        while patterns.len() < 10 {
            let g = &targets[rng.gen_range(0..targets.len())];
            let size = rng.gen_range(1..=8);
            patterns.extend(random_connected_subgraph(g, size, &mut rng));
        }
        for n in [3, 4, 5] {
            patterns.push(random_graph(&mut rng, n, 2, 2.0));
        }
        pool.push((patterns, targets));
    }
    pool
}

/// The prepared VF2 search visits exactly the reference matcher's tree:
/// call by call, at node caps {0, 1, small, default}, for containment
/// over prepared graphs and for induced and non-induced enumeration, it
/// reports the same embeddings, embedding count, completeness tag, search
/// probes and meter calls.
#[test]
fn prepared_vf2_visits_the_reference_tree() {
    use catapult::graph::iso::{
        contains_prepared, for_each_embedding, MatchOptions, PreparedGraph, DEFAULT_NODE_CAP,
    };
    use std::ops::ControlFlow;
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pool = vf2_pool();
    let caps = [0, 1, 6, DEFAULT_NODE_CAP];
    let mut calls = 0usize;
    let mut degraded = 0usize;
    let mut contained = 0usize;
    for threads in [1usize, 8] {
        rayon::set_threads(threads);
        for (si, (patterns, db)) in pool.iter().enumerate() {
            // Targets are prepared once and shared by every worker.
            let targets: Vec<PreparedGraph> = db.iter().map(PreparedGraph::new).collect();
            let tallies = rayon::par_map(patterns, |p| {
                let pp = PreparedGraph::new(p);
                let (mut n, mut deg, mut hit) = (0usize, 0usize, 0usize);
                for (ti, (t, pt)) in db.iter().zip(&targets).enumerate() {
                    for cap in caps {
                        let ctx = format!("threads={threads} seed#{si} target={ti} cap={cap}");
                        // Containment over prepared graphs.
                        let (got, got_probes, got_calls) = vf2_probed(cap, |b| {
                            let (found, completeness) = contains_prepared(pt, &pp, b);
                            MatchOutcome {
                                embeddings: usize::from(found),
                                completeness,
                            }
                        });
                        let (want, want_probes, want_calls) =
                            vf2_probed(cap, |b| {
                                let opts = MatchOptions {
                                    max_embeddings: 1,
                                    budget: b.clone(),
                                    ..MatchOptions::default()
                                };
                                reference_vf2::for_each_embedding(t, p, opts, |_| {
                                    ControlFlow::Break(())
                                })
                            });
                        assert_eq!(got, want, "{ctx} contains: outcome");
                        assert_eq!(got_probes, want_probes, "{ctx} contains: probes");
                        assert_eq!(got_calls, want_calls, "{ctx} contains: calls");
                        hit += want.embeddings;
                        // Enumeration, non-induced and induced.
                        for induced in [false, true] {
                            let ctx = format!("{ctx} induced={induced}");
                            let opts = |b: &SearchBudget| MatchOptions {
                                induced,
                                max_embeddings: 500,
                                budget: b.clone(),
                            };
                            let mut got_embs: Vec<Vec<VertexId>> = Vec::new();
                            let (got, got_probes, got_calls) = vf2_probed(cap, |b| {
                                for_each_embedding(t, p, opts(b), |e| {
                                    got_embs.push(e.to_vec());
                                    ControlFlow::Continue(())
                                })
                            });
                            let mut want_embs: Vec<Vec<VertexId>> = Vec::new();
                            let (want, want_probes, want_calls) = vf2_probed(cap, |b| {
                                reference_vf2::for_each_embedding(t, p, opts(b), |e| {
                                    want_embs.push(e.to_vec());
                                    ControlFlow::Continue(())
                                })
                            });
                            assert_eq!(got, want, "{ctx}: outcome");
                            assert_eq!(got_embs, want_embs, "{ctx}: embeddings");
                            assert_eq!(got_probes, want_probes, "{ctx}: probes");
                            assert_eq!(got_calls, want_calls, "{ctx}: calls");
                            deg += usize::from(!want.is_exact());
                        }
                        n += 3;
                    }
                }
                (n, deg, hit)
            });
            for (n, deg, hit) in tallies {
                calls += n;
                degraded += deg;
                contained += hit;
            }
        }
    }
    rayon::set_threads(0);
    assert!(degraded > 0, "the fixture must contain degraded VF2 calls");
    assert!(contained > 0, "the fixture must contain contained patterns");
    assert!(calls > degraded, "the fixture must contain exact VF2 calls");
}

/// The GED branch-and-bound as it stood before its bitset inner loop
/// (DESIGN.md §15, "GED inner loop"): a `HashMap` label alphabet, a
/// freshly sorted target vector per node, adjacency-list step costs and a
/// heuristic that re-sums the alphabet. The library search must visit
/// exactly this tree; `ged_search_visits_the_reference_tree` checks it
/// call by call.
mod reference_ged {
    use catapult::graph::budget::{BudgetMeter, Kernel};
    use catapult::graph::ged::{ged_lower_bound, ged_upper_bound, GedResult};
    use catapult::graph::{Completeness, Graph, Label, SearchBudget, VertexId};

    struct GedSearch<'a> {
        a: &'a Graph,
        b: &'a Graph,
        order: Vec<VertexId>,
        /// a-vertex → its position in `order` (O(1) decidedness checks).
        pos: Vec<usize>,
        /// `prefix_a_edges[d]` = number of A edges with both endpoints among
        /// the first `d` ordered vertices (precomputed once; the order is
        /// static).
        prefix_a_edges: Vec<usize>,
        /// Per-label running count of undecided A vertices / unused B
        /// vertices, packed as parallel counts over the union label alphabet.
        rem_a: Vec<i32>,
        avail_b: Vec<i32>,
        label_ids: std::collections::HashMap<Label, usize>,
        mapping: Vec<Option<VertexId>>,
        /// b-vertex → a-vertex that maps onto it (for O(1) preimage lookups).
        preimage: Vec<Option<VertexId>>,
        b_used: Vec<bool>,
        /// Number of used B vertices (incremental).
        b_used_count: usize,
        /// Number of B edges with both endpoints used (incremental).
        b_edges_used: usize,
        best: usize,
        meter: BudgetMeter,
    }

    impl<'a> GedSearch<'a> {
        fn label_id(&self, l: Label) -> usize {
            self.label_ids[&l]
        }

        /// Incremental cost of deciding `v` (the vertex at `depth`):
        /// counts vertex cost plus edge costs between `v` and already-decided
        /// vertices on both sides.
        fn step_cost(&self, v: VertexId, target: Option<VertexId>, depth: usize) -> usize {
            let mut c = 0usize;
            match target {
                None => {
                    c += 1; // deletion
                    for &(w, _) in self.a.neighbors(v) {
                        if self.pos[w.index()] < depth {
                            c += 1; // edge (v,w) deleted
                        }
                    }
                }
                Some(t) => {
                    if self.a.label(v) != self.b.label(t) {
                        c += 1;
                    }
                    for &(w, _) in self.a.neighbors(v) {
                        if self.pos[w.index()] >= depth {
                            continue;
                        }
                        match self.mapping[w.index()] {
                            Some(x) if self.b.has_edge(x, t) => {} // matched
                            _ => c += 1,                           // deleted
                        }
                    }
                    // B-side insertions: edges from t to already-used images
                    // with no corresponding A edge.
                    for &(y, _) in self.b.neighbors(t) {
                        if !self.b_used[y.index()] {
                            continue;
                        }
                        match self.preimage[y.index()] {
                            Some(w) if self.a.has_edge(w, v) => {} // matched above
                            Some(_) => c += 1,                     // inserted
                            None => {}
                        }
                    }
                }
            }
            c
        }

        /// Admissible heuristic on the remaining subproblem: label-multiset
        /// vertex bound + |remaining-edge-count| difference.
        fn heuristic(&self, depth: usize) -> usize {
            let ra = self.order.len() - depth;
            let rb = self.b.vertex_count() - self.b_used_count;
            let mut matched = 0usize;
            for (x, y) in self.rem_a.iter().zip(&self.avail_b) {
                matched += usize::try_from((*x).min(*y)).unwrap_or(0);
            }
            let v_h = ra.max(rb) - matched.min(ra.min(rb));
            let ea = self.a.edge_count() - self.prefix_a_edges[depth];
            let eb = self.b.edge_count() - self.b_edges_used;
            v_h + ea.abs_diff(eb)
        }

        fn completion_cost(&self) -> usize {
            // All A vertices decided; unused B vertices and their incident
            // edges are insertions.
            let unused = self.b.vertex_count() - self.b_used_count;
            unused + (self.b.edge_count() - self.b_edges_used)
        }

        fn use_b(&mut self, t: VertexId, v: VertexId) {
            self.b_used[t.index()] = true;
            self.b_used_count += 1;
            self.preimage[t.index()] = Some(v);
            let lid = self.label_id(self.b.label(t));
            self.avail_b[lid] -= 1;
            self.b_edges_used += self
                .b
                .neighbors(t)
                .iter()
                .filter(|(y, _)| self.b_used[y.index()])
                .count();
        }

        fn release_b(&mut self, t: VertexId) {
            self.b_edges_used -= self
                .b
                .neighbors(t)
                .iter()
                .filter(|(y, _)| self.b_used[y.index()])
                .count();
            self.b_used[t.index()] = false;
            self.b_used_count -= 1;
            self.preimage[t.index()] = None;
            let lid = self.label_id(self.b.label(t));
            self.avail_b[lid] += 1;
        }

        fn descend(&mut self, depth: usize, g: usize) {
            if self.meter.tick() {
                return;
            }
            if g + self.heuristic(depth) >= self.best {
                return;
            }
            if depth == self.order.len() {
                let total = g + self.completion_cost();
                if total < self.best {
                    self.best = total;
                    self.meter.note_improvement();
                }
                return;
            }
            let v = self.order[depth];
            let v_label_id = self.label_id(self.a.label(v));
            self.rem_a[v_label_id] -= 1;
            // Substitution branches, same-label targets first.
            let mut targets: Vec<VertexId> = self
                .b
                .vertices()
                .filter(|t| !self.b_used[t.index()])
                .collect();
            targets.sort_by_key(|&t| self.b.label(t) != self.a.label(v));
            for t in targets {
                let dc = self.step_cost(v, Some(t), depth);
                if g + dc >= self.best {
                    continue;
                }
                self.mapping[v.index()] = Some(t);
                self.use_b(t, v);
                self.descend(depth + 1, g + dc);
                self.release_b(t);
                self.mapping[v.index()] = None;
                if self.meter.tripped() {
                    self.rem_a[v_label_id] += 1;
                    return;
                }
            }
            // Deletion branch.
            let dc = self.step_cost(v, None, depth);
            self.descend(depth + 1, g + dc);
            self.rem_a[v_label_id] += 1;
        }
    }

    /// `min(GED, τ)` by the reference search.
    pub(crate) fn ged(
        a: &Graph,
        b: &Graph,
        tau: Option<usize>,
        budget: &SearchBudget,
    ) -> GedResult {
        let lb = ged_lower_bound(a, b);
        let seed = ged_upper_bound(a, b).min(tau.unwrap_or(usize::MAX));
        if lb >= seed {
            // `lb ≥ τ` proves `GED ≥ τ`, and `lb == ub` proves the GED, without
            // any search (and without consuming a kernel invocation).
            return GedResult {
                distance: seed,
                completeness: Completeness::Exact,
            };
        }
        let mut order: Vec<VertexId> = a.vertices().collect();
        order.sort_by_key(|&v| std::cmp::Reverse(a.degree(v)));
        let mut pos = vec![usize::MAX; a.vertex_count()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        // prefix_a_edges[d]: A edges with both endpoint positions < d.
        let mut prefix_a_edges = vec![0usize; order.len() + 1];
        for (_, e) in a.edges() {
            let later = pos[e.u.index()].max(pos[e.v.index()]);
            prefix_a_edges[later + 1] += 1;
        }
        for d in 1..prefix_a_edges.len() {
            prefix_a_edges[d] += prefix_a_edges[d - 1];
        }
        // Union label alphabet with per-side counts.
        let mut label_ids = std::collections::HashMap::new();
        for l in a.labels().iter().chain(b.labels()) {
            let next = label_ids.len();
            label_ids.entry(*l).or_insert(next);
        }
        let mut rem_a = vec![0i32; label_ids.len()];
        let mut avail_b = vec![0i32; label_ids.len()];
        for &l in a.labels() {
            rem_a[label_ids[&l]] += 1;
        }
        for &l in b.labels() {
            avail_b[label_ids[&l]] += 1;
        }
        let mut s = GedSearch {
            a,
            b,
            order,
            pos,
            prefix_a_edges,
            rem_a,
            avail_b,
            label_ids,
            mapping: vec![None; a.vertex_count()],
            preimage: vec![None; b.vertex_count()],
            b_used: vec![false; b.vertex_count()],
            b_used_count: 0,
            b_edges_used: 0,
            best: seed,
            meter: BudgetMeter::new(budget, Kernel::Ged),
        };
        s.descend(0, 0);
        // `s.best` only holds the seed or cheaper completed edit paths, so it
        // bounds `min(GED, τ)` from above even when the search was cut short.
        GedResult {
            distance: s.best,
            completeness: s.meter.status(),
        }
    }
}

/// The VF2 matcher as it stood before prepared graphs (DESIGN.md §15,
/// "Prepared VF2"): per call it sorts both edge-label multisets, builds
/// per-label degree `BTreeMap`s for `quick_reject`, a `HashMap` of the
/// target's label counts for the matching order and the target's bit
/// matrix, and allocates one candidate buffer per depth and one
/// `Vec` per reported embedding. The library search must visit exactly
/// this tree; `prepared_vf2_visits_the_reference_tree` checks it call by
/// call.
mod reference_vf2 {
    use catapult::graph::budget::{BudgetMeter, Kernel};
    use catapult::graph::iso::{MatchOptions, MatchOutcome};
    use catapult::graph::{BitAdjacency, Completeness, Graph, VertexId};
    use std::ops::ControlFlow;

    struct Matcher<'a, F>
    where
        F: FnMut(&[VertexId]) -> ControlFlow<()>,
    {
        pattern: &'a Graph,
        target: &'a Graph,
        opts: MatchOptions,
        /// Pattern vertices in matching order.
        order: Vec<VertexId>,
        /// For order position i: pattern neighbors of order[i] that appear
        /// earlier in the order.
        back_neighbors: Vec<Vec<VertexId>>,
        /// For induced mode: earlier-ordered pattern vertices NOT adjacent to order[i].
        back_non_neighbors: Vec<Vec<VertexId>>,
        /// pattern vertex -> target vertex (or MAX)
        map: Vec<u32>,
        /// target vertex used?
        used: Vec<bool>,
        /// Bitset adjacency of the target: O(1) edge probes in `feasible`.
        tbits: BitAdjacency,
        /// Per-depth candidate buffers, reused across branches so the
        /// backtracking loop is allocation-free after warmup.
        scratch: Vec<Vec<VertexId>>,
        meter: BudgetMeter,
        found: usize,
        callback: F,
    }

    const UNMAPPED: u32 = u32::MAX;

    /// Compute a connectivity-first matching order: start at the vertex whose
    /// (label rarity in target, degree) makes it most selective, then repeatedly
    /// append the unordered vertex with the most already-ordered neighbors
    /// (ties broken by degree). Disconnected patterns are handled by restarting
    /// at the most selective remaining vertex.
    fn matching_order(pattern: &Graph, target: &Graph) -> Vec<VertexId> {
        let np = pattern.vertex_count();
        // Label frequency in target for selectivity.
        let mut freq = std::collections::HashMap::new();
        for v in target.vertices() {
            *freq.entry(target.label(v)).or_insert(0usize) += 1;
        }
        let selectivity = |v: VertexId| -> (usize, std::cmp::Reverse<usize>) {
            (
                *freq.get(&pattern.label(v)).unwrap_or(&0),
                std::cmp::Reverse(pattern.degree(v)),
            )
        };
        let mut in_order = vec![false; np];
        let mut order = Vec::with_capacity(np);
        while order.len() < np {
            // The while-guard (`order.len() < np`) implies an unordered vertex
            // remains, so the `else` arm is unreachable; breaking keeps this
            // kernel free of panicking paths.
            let Some(start) = pattern
                .vertices()
                .filter(|v| !in_order[v.index()])
                .min_by_key(|&v| selectivity(v))
            else {
                break;
            };
            in_order[start.index()] = true;
            order.push(start);
            loop {
                // Most-constrained next: max count of ordered neighbors.
                let next = pattern
                    .vertices()
                    .filter(|v| !in_order[v.index()])
                    .map(|v| {
                        let c = pattern
                            .neighbors(v)
                            .iter()
                            .filter(|(w, _)| in_order[w.index()])
                            .count();
                        (c, pattern.degree(v), v)
                    })
                    .filter(|&(c, _, _)| c > 0)
                    .max_by_key(|&(c, d, _)| (c, d));
                match next {
                    Some((_, _, v)) => {
                        in_order[v.index()] = true;
                        order.push(v);
                    }
                    None => break, // component exhausted; outer loop restarts
                }
            }
        }
        order
    }

    impl<'a, F> Matcher<'a, F>
    where
        F: FnMut(&[VertexId]) -> ControlFlow<()>,
    {
        fn new(pattern: &'a Graph, target: &'a Graph, opts: MatchOptions, callback: F) -> Self {
            let order = matching_order(pattern, target);
            let np = pattern.vertex_count();
            let mut pos = vec![usize::MAX; np];
            for (i, &v) in order.iter().enumerate() {
                pos[v.index()] = i;
            }
            let mut back_neighbors = vec![Vec::new(); np];
            let mut back_non_neighbors = vec![Vec::new(); np];
            for (i, &v) in order.iter().enumerate() {
                for &(w, _) in pattern.neighbors(v) {
                    if pos[w.index()] < i {
                        back_neighbors[i].push(w);
                    }
                }
                if opts.induced {
                    for (j, &w) in order.iter().enumerate().take(i) {
                        let _ = j;
                        if !pattern.has_edge(v, w) {
                            back_non_neighbors[i].push(w);
                        }
                    }
                }
            }
            let meter = BudgetMeter::new(&opts.budget, Kernel::Iso);
            Matcher {
                pattern,
                target,
                opts,
                order,
                back_neighbors,
                back_non_neighbors,
                map: vec![UNMAPPED; np],
                used: vec![false; target.vertex_count()],
                tbits: BitAdjacency::new(target),
                scratch: vec![Vec::new(); np + 1],
                meter,
                found: 0,
                callback,
            }
        }

        fn feasible(&self, depth: usize, pv: VertexId, tv: VertexId) -> bool {
            if self.used[tv.index()] {
                return false;
            }
            if self.pattern.label(pv) != self.target.label(tv) {
                return false;
            }
            if self.pattern.degree(pv) > self.target.degree(tv) {
                return false;
            }
            for &bn in &self.back_neighbors[depth] {
                let mapped = VertexId(self.map[bn.index()]);
                if !self.tbits.has_edge(mapped, tv) {
                    return false;
                }
            }
            if self.opts.induced {
                for &nn in &self.back_non_neighbors[depth] {
                    let mapped = VertexId(self.map[nn.index()]);
                    if self.tbits.has_edge(mapped, tv) {
                        return false;
                    }
                }
            }
            true
        }

        /// Returns `Break` to stop the whole search.
        fn descend(&mut self, depth: usize) -> ControlFlow<()> {
            if depth == self.order.len() {
                self.found += 1;
                self.meter.note_improvement();
                let embedding: Vec<VertexId> = self.map.iter().map(|&t| VertexId(t)).collect();
                (self.callback)(&embedding)?;
                if self.found >= self.opts.max_embeddings {
                    return ControlFlow::Break(());
                }
                return ControlFlow::Continue(());
            }
            if self.meter.tick() {
                return ControlFlow::Break(());
            }
            let pv = self.order[depth];
            let mut candidates = std::mem::take(&mut self.scratch[depth]);
            candidates.clear();
            if let Some(&anchor) = self.back_neighbors[depth].first() {
                // Candidates restricted to target-neighbors of the mapped anchor.
                let mapped = VertexId(self.map[anchor.index()]);
                candidates.extend(self.target.neighbors(mapped).iter().map(|&(w, _)| w));
            } else {
                candidates.extend(self.target.vertices());
            }
            for ci in 0..candidates.len() {
                let tv = candidates[ci];
                if self.feasible(depth, pv, tv) {
                    self.assign(pv, tv);
                    let flow = self.descend(depth + 1);
                    self.unassign(pv, tv);
                    if flow.is_break() {
                        self.scratch[depth] = candidates;
                        return flow;
                    }
                }
            }
            self.scratch[depth] = candidates;
            ControlFlow::Continue(())
        }

        #[inline]
        fn assign(&mut self, pv: VertexId, tv: VertexId) {
            self.map[pv.index()] = tv.0;
            self.used[tv.index()] = true;
        }

        #[inline]
        fn unassign(&mut self, pv: VertexId, tv: VertexId) {
            self.map[pv.index()] = UNMAPPED;
            self.used[tv.index()] = false;
        }
    }

    /// Quick necessary conditions for `pattern ⊆ target` (monomorphism):
    /// size bounds, edge-label multiset containment (a vertex-injective map is
    /// edge-injective, so every pattern edge label must be matched by a
    /// distinct target edge with the same label), and per-label degree
    /// dominance (the i-th largest pattern degree within each label class must
    /// not exceed the i-th largest target degree in that class — if it did,
    /// more pattern vertices would need high-degree images than exist).
    fn quick_reject(pattern: &Graph, target: &Graph) -> bool {
        if pattern.vertex_count() > target.vertex_count()
            || pattern.edge_count() > target.edge_count()
        {
            return true;
        }
        // Edge-label multiset containment (sorted two-pointer sweep).
        let pe = pattern.sorted_edge_labels();
        let te = target.sorted_edge_labels();
        let mut j = 0usize;
        for l in &pe {
            while j < te.len() && te[j] < *l {
                j += 1;
            }
            if j == te.len() || te[j] != *l {
                return true;
            }
            j += 1;
        }
        // Per-label degree-sequence dominance (subsumes vertex-label multiset
        // containment: the length check is exactly the per-label count check).
        let mut pd: std::collections::BTreeMap<catapult::graph::Label, Vec<usize>> =
            Default::default();
        for v in pattern.vertices() {
            pd.entry(pattern.label(v))
                .or_default()
                .push(pattern.degree(v));
        }
        let mut td: std::collections::BTreeMap<catapult::graph::Label, Vec<usize>> =
            Default::default();
        for v in target.vertices() {
            td.entry(target.label(v))
                .or_default()
                .push(target.degree(v));
        }
        for (l, ps) in &mut pd {
            let Some(ts) = td.get_mut(l) else {
                return true;
            };
            if ps.len() > ts.len() {
                return true;
            }
            ps.sort_unstable_by(|a, b| b.cmp(a));
            ts.sort_unstable_by(|a, b| b.cmp(a));
            if ps.iter().zip(ts.iter()).any(|(p, t)| p > t) {
                return true;
            }
        }
        false
    }

    /// Enumerate embeddings of `pattern` in `target`, invoking `callback` with
    /// each mapping (indexed by pattern vertex id, values are target vertex
    /// ids). Return `ControlFlow::Break(())` from the callback to stop early.
    pub(crate) fn for_each_embedding<F>(
        target: &Graph,
        pattern: &Graph,
        opts: MatchOptions,
        callback: F,
    ) -> MatchOutcome
    where
        F: FnMut(&[VertexId]) -> ControlFlow<()>,
    {
        if pattern.vertex_count() == 0 {
            // The empty pattern embeds trivially, once.
            let mut cb = callback;
            let _ = cb(&[]);
            return MatchOutcome {
                embeddings: 1,
                completeness: Completeness::Exact,
            };
        }
        if quick_reject(pattern, target) {
            return MatchOutcome {
                embeddings: 0,
                completeness: Completeness::Exact,
            };
        }
        let mut m = Matcher::new(pattern, target, opts, callback);
        let _ = m.descend(0);
        // A `Break` from the callback or the embedding cap leaves the meter
        // Exact: the caller got everything it asked for. Only a tripped budget
        // limit (the node cap) marks the result degraded.
        MatchOutcome {
            embeddings: m.found,
            completeness: m.meter.status(),
        }
    }
}
