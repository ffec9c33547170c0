//! Property-based tests (proptest) on the substrate invariants listed in
//! DESIGN.md §6.

// Integration tests may use panicking shortcuts freely; the workspace
// no-panic policy targets library production code only.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use catapult::graph::canonical::canonical_tokens;
use catapult::graph::components::{connected_components, is_connected, is_tree};
use catapult::graph::ged::{ged, ged_lower_bound, ged_upper_bound};
use catapult::graph::iso::{are_isomorphic, contains};
use catapult::graph::layout::circular_crossings;
use catapult::graph::mcs::{mcs, similarity, McsConfig};
use catapult::graph::metrics::cognitive_load;
use catapult::graph::random::{random_connected_subgraph, weighted_choice};
use catapult::graph::{Graph, Label, SearchBudget, VertexId};
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: a connected labeled graph as (labels, tree parents, extra
/// edge pairs).
fn graph_strategy(max_v: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (2..=max_v).prop_flat_map(move |n| {
        (
            prop::collection::vec(0..labels, n),
            prop::collection::vec(0u32..u32::MAX, n - 1),
            prop::collection::vec((0..n as u32, 0..n as u32), 0..=n),
        )
            .prop_map(move |(ls, parents, extras)| {
                let mut g = Graph::new();
                for &l in &ls {
                    g.add_vertex(Label(l));
                }
                for (i, &r) in parents.iter().enumerate() {
                    let child = (i + 1) as u32;
                    let parent = r % child;
                    g.add_edge(VertexId(child), VertexId(parent)).unwrap();
                }
                for (a, b) in extras {
                    if a != b {
                        let _ = g.add_edge(VertexId(a), VertexId(b));
                    }
                }
                g
            })
    })
}

/// Strategy: a labeled free tree.
fn tree_strategy(max_v: usize, labels: u32) -> impl Strategy<Value = Graph> {
    (1..=max_v).prop_flat_map(move |n| {
        (
            prop::collection::vec(0..labels, n),
            prop::collection::vec(0u32..u32::MAX, n.saturating_sub(1)),
        )
            .prop_map(|(ls, parents)| {
                let mut g = Graph::new();
                for &l in &ls {
                    g.add_vertex(Label(l));
                }
                for (i, &r) in parents.iter().enumerate() {
                    let child = (i + 1) as u32;
                    g.add_edge(VertexId(child), VertexId(r % child)).unwrap();
                }
                g
            })
    })
}

/// Apply a vertex permutation to a graph.
fn permute(g: &Graph, perm: &[usize]) -> Graph {
    let mut labels = vec![Label(0); g.vertex_count()];
    for v in g.vertices() {
        labels[perm[v.index()]] = g.label(v);
    }
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(_, e)| (perm[e.u.index()] as u32, perm[e.v.index()] as u32))
        .collect();
    Graph::from_parts(&labels, &edges)
}

fn permutation_of(n: usize, seed: u64) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut p: Vec<usize> = (0..n).collect();
    p.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graphs_are_connected_and_self_contained(g in graph_strategy(7, 3)) {
        prop_assert!(is_connected(&g));
        prop_assert!(contains(&g, &g));
        prop_assert!(are_isomorphic(&g, &g));
    }

    #[test]
    fn isomorphism_is_permutation_invariant(g in graph_strategy(7, 3), seed in 0u64..1000) {
        let perm = permutation_of(g.vertex_count(), seed);
        let h = permute(&g, &perm);
        prop_assert!(are_isomorphic(&g, &h));
        prop_assert_eq!(g.invariant_signature(), h.invariant_signature());
    }

    #[test]
    fn canonical_tokens_permutation_invariant(t in tree_strategy(7, 3), seed in 0u64..1000) {
        prop_assume!(is_tree(&t));
        let perm = permutation_of(t.vertex_count(), seed);
        let u = permute(&t, &perm);
        prop_assert_eq!(canonical_tokens(&t), canonical_tokens(&u));
    }

    #[test]
    fn ged_sandwich_and_identity(a in graph_strategy(5, 2), b in graph_strategy(5, 2)) {
        let lb = ged_lower_bound(&a, &b);
        let ub = ged_upper_bound(&a, &b);
        let d = ged(&a, &b, None, &SearchBudget::nodes(500_000));
        prop_assume!(d.is_exact());
        prop_assert!(lb <= d.distance);
        prop_assert!(d.distance <= ub);
        let self_d = ged(&a, &a, None, &SearchBudget::nodes(500_000));
        prop_assert_eq!(self_d.distance, 0);
    }

    #[test]
    fn ged_triangle_inequality(
        a in graph_strategy(4, 2),
        b in graph_strategy(4, 2),
        c in graph_strategy(4, 2),
    ) {
        let ab = ged(&a, &b, None, &SearchBudget::nodes(500_000));
        let bc = ged(&b, &c, None, &SearchBudget::nodes(500_000));
        let ac = ged(&a, &c, None, &SearchBudget::nodes(500_000));
        prop_assume!(ab.is_exact() && bc.is_exact() && ac.is_exact());
        prop_assert!(ac.distance <= ab.distance + bc.distance);
    }

    #[test]
    fn mccs_result_is_connected_common_subgraph(a in graph_strategy(6, 2), b in graph_strategy(6, 2)) {
        let cfg = McsConfig { connected: true, budget: SearchBudget::nodes(100_000), ..McsConfig::default() };
        let r = mcs(&a, &b, cfg.clone());
        // Build the common subgraph from the pairs and check connectivity.
        if !r.pairs.is_empty() {
            let mut sub = Graph::new();
            let mut ids = std::collections::HashMap::new();
            for (i, &(va, _)) in r.pairs.iter().enumerate() {
                ids.insert(va, sub.add_vertex(a.label(va)));
                let _ = i;
            }
            let mut edges = 0;
            for i in 0..r.pairs.len() {
                for j in (i + 1)..r.pairs.len() {
                    let (va, ta) = r.pairs[i];
                    let (vb, tb) = r.pairs[j];
                    if a.has_edge(va, vb) && b.has_edge(ta, tb) {
                        sub.add_edge(ids[&va], ids[&vb]).unwrap();
                        edges += 1;
                    }
                }
            }
            prop_assert_eq!(edges, r.edges);
            prop_assert!(is_connected(&sub));
            // Labels must agree on every matched pair.
            for &(va, ta) in &r.pairs {
                prop_assert_eq!(a.label(va), b.label(ta));
            }
        }
        // ω is the same search's edge count over min(|E_a|, |E_b|), and 0
        // when either graph has no edges.
        let (sim, tag) = similarity(&a, &b, cfg);
        let denom = a.edge_count().min(b.edge_count());
        let expected = if denom == 0 { 0.0 } else { r.edges as f64 / denom as f64 };
        prop_assert_eq!(sim.to_bits(), expected.to_bits());
        prop_assert_eq!(tag, r.completeness);
        prop_assert!((0.0..=1.0).contains(&sim));
    }

    #[test]
    fn random_subgraph_is_connected_subgraph(g in graph_strategy(8, 2), seed in 0u64..500, k in 1usize..6) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        if let Some(s) = random_connected_subgraph(&g, k, &mut rng) {
            prop_assert!(is_connected(&s));
            prop_assert!(s.edge_count() <= k.max(1));
            prop_assert!(contains(&g, &s));
        }
    }

    #[test]
    fn weighted_choice_returns_positive_weight_index(ws in prop::collection::vec(0.0f64..5.0, 1..8), seed in 0u64..500) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match weighted_choice(&ws, &mut rng) {
            Some(i) => prop_assert!(ws[i] > 0.0),
            None => prop_assert!(ws.iter().all(|&w| w <= 0.0)),
        }
    }

    #[test]
    fn components_partition_vertices(g in graph_strategy(7, 2)) {
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.vertex_count());
        // Connected input: exactly one component.
        prop_assert_eq!(comps.len(), 1);
    }

    #[test]
    fn cognitive_load_and_crossings_nonnegative(g in graph_strategy(8, 2)) {
        prop_assert!(cognitive_load(&g) >= 0.0);
        let _ = circular_crossings(&g); // must not panic
    }

    #[test]
    fn subgraph_relation_is_transitive_under_extraction(g in graph_strategy(8, 2), seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        if let Some(s) = random_connected_subgraph(&g, 4, &mut rng) {
            if let Some(t) = random_connected_subgraph(&s, 2, &mut rng) {
                prop_assert!(contains(&g, &t), "subgraph-of-subgraph must embed");
            }
        }
    }
}
