//! Kernel-equivalence suite: the optimized search kernels — label-bucket
//! candidate generation, bitset adjacency, edge-label upper-bound pruning
//! and the incremental MCCS component tracker — must be *observationally
//! identical* to the reference unpruned search ([`McsConfig::pruning`]
//! `= false` disables every bound-derived shortcut and restores the plain
//! McGregor enumeration).
//!
//! Over randomized labeled graph pairs, swept across budgets
//! {exact, exhausted, deadline} and thread settings {1, 8}:
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

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult::graph::mcs::{mcs, McsConfig, McsResult};
use catapult::graph::{iso, Completeness, Deadline, Graph, Label, SearchBudget, VertexId};
use catapult_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// `set_threads` is process-global; tests that sweep it serialize here.
static SERIAL: Mutex<()> = Mutex::new(());

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
/// non-trivial pair, and an already-expired deadline.
fn budgets() -> Vec<(&'static str, SearchBudget)> {
    vec![
        ("exact", SearchBudget::unbounded()),
        ("exhausted", SearchBudget::nodes(25)),
        (
            "deadline",
            // Deadline "now": already expired by the first check.
            SearchBudget::unbounded().with_deadline(Deadline::at(catapult_obs::now())),
        ),
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
