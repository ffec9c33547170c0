//! Cross-substrate consistency tests: the independently implemented
//! kernels (VF2, MCS/MCCS, GED, canonical forms) must agree with each
//! other and with brute force on small inputs.

// Integration tests may use panicking shortcuts freely; the workspace
// no-panic policy targets library production code only.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use catapult::datasets;
use catapult::graph::canonical::canonical_tokens;
use catapult::graph::components::is_tree;
use catapult::graph::ged::{ged, ged_lower_bound, ged_upper_bound};
use catapult::graph::iso::{are_isomorphic, contains, embeddings};
use catapult::graph::mcs::{mcs, McsConfig};
use catapult::graph::{Graph, Label, SearchBudget, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected labeled graph: a random tree plus extra edges.
fn random_graph(rng: &mut StdRng, max_v: usize, labels: u32) -> Graph {
    let n = rng.gen_range(2..=max_v);
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_vertex(Label(rng.gen_range(0..labels)));
    }
    for i in 1..n as u32 {
        let j = rng.gen_range(0..i);
        g.add_edge(VertexId(i), VertexId(j)).unwrap();
    }
    for _ in 0..rng.gen_range(0..=n) {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a != b {
            let _ = g.add_edge(VertexId(a), VertexId(b));
        }
    }
    g
}

/// Brute-force subgraph monomorphism by trying all injective vertex maps.
fn brute_force_contains(target: &Graph, pattern: &Graph) -> bool {
    let np = pattern.vertex_count();
    let nt = target.vertex_count();
    if np > nt {
        return false;
    }
    let mut assignment = vec![usize::MAX; np];
    let mut used = vec![false; nt];
    fn rec(
        target: &Graph,
        pattern: &Graph,
        depth: usize,
        assignment: &mut [usize],
        used: &mut [bool],
    ) -> bool {
        if depth == pattern.vertex_count() {
            return true;
        }
        for t in 0..target.vertex_count() {
            if used[t] || target.label(VertexId(t as u32)) != pattern.label(VertexId(depth as u32))
            {
                continue;
            }
            let ok = pattern
                .neighbors(VertexId(depth as u32))
                .iter()
                .filter(|(w, _)| w.index() < depth)
                .all(|(w, _)| {
                    target.has_edge(VertexId(assignment[w.index()] as u32), VertexId(t as u32))
                });
            if !ok {
                continue;
            }
            assignment[depth] = t;
            used[t] = true;
            if rec(target, pattern, depth + 1, assignment, used) {
                return true;
            }
            used[t] = false;
            assignment[depth] = usize::MAX;
        }
        false
    }
    rec(target, pattern, 0, &mut assignment, &mut used)
}

#[test]
fn vf2_agrees_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(100);
    for trial in 0..150 {
        let target = random_graph(&mut rng, 7, 3);
        let pattern = random_graph(&mut rng, 4, 3);
        assert_eq!(
            contains(&target, &pattern),
            brute_force_contains(&target, &pattern),
            "trial {trial}: {pattern:?} in {target:?}"
        );
    }
}

#[test]
fn embeddings_are_valid_monomorphisms() {
    let mut rng = StdRng::seed_from_u64(101);
    for _ in 0..40 {
        let target = random_graph(&mut rng, 8, 2);
        let pattern = random_graph(&mut rng, 4, 2);
        for emb in embeddings(&target, &pattern, 50) {
            // Injective.
            let mut seen = emb.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), emb.len());
            // Label- and edge-preserving.
            for v in pattern.vertices() {
                assert_eq!(pattern.label(v), target.label(emb[v.index()]));
            }
            for (_, e) in pattern.edges() {
                assert!(target.has_edge(emb[e.u.index()], emb[e.v.index()]));
            }
        }
    }
}

#[test]
fn ged_bound_sandwich_on_random_pairs() {
    let mut rng = StdRng::seed_from_u64(102);
    for trial in 0..60 {
        let a = random_graph(&mut rng, 6, 3);
        let b = random_graph(&mut rng, 6, 3);
        let lb = ged_lower_bound(&a, &b);
        let ub = ged_upper_bound(&a, &b);
        let exact = ged(&a, &b, None, &SearchBudget::nodes(2_000_000));
        assert!(exact.is_exact(), "trial {trial} exceeded budget");
        assert!(
            lb <= exact.distance,
            "trial {trial}: lb {lb} > {}",
            exact.distance
        );
        assert!(
            exact.distance <= ub,
            "trial {trial}: {} > ub {ub}",
            exact.distance
        );
        // Symmetry of the exact distance.
        let back = ged(&b, &a, None, &SearchBudget::nodes(2_000_000));
        assert_eq!(exact.distance, back.distance, "trial {trial} asymmetric");
    }
}

#[test]
fn ged_zero_iff_isomorphic() {
    let mut rng = StdRng::seed_from_u64(103);
    for _ in 0..40 {
        let a = random_graph(&mut rng, 5, 2);
        let b = random_graph(&mut rng, 5, 2);
        let d = ged(&a, &b, None, &SearchBudget::nodes(2_000_000));
        assert!(d.is_exact());
        assert_eq!(d.distance == 0, are_isomorphic(&a, &b));
    }
}

#[test]
fn mcs_is_bounded_by_inputs_and_mccs() {
    let mut rng = StdRng::seed_from_u64(104);
    for _ in 0..30 {
        let a = random_graph(&mut rng, 6, 2);
        let b = random_graph(&mut rng, 6, 2);
        let m = mcs(&a, &b, McsConfig::default());
        let c = mcs(&a, &b, McsConfig::connected());
        assert!(m.edges <= a.edge_count().min(b.edge_count()));
        assert!(c.edges <= m.edges, "MCCS must not exceed MCS");
    }
}

#[test]
fn mcs_of_contained_pattern_is_the_pattern() {
    let mut rng = StdRng::seed_from_u64(105);
    for _ in 0..30 {
        let host = random_graph(&mut rng, 7, 2);
        let sub = random_graph(&mut rng, 4, 2);
        if contains(&host, &sub) {
            let m = mcs(&sub, &host, McsConfig::default());
            assert!(m.is_exact());
            assert_eq!(m.edges, sub.edge_count());
        }
    }
}

#[test]
fn canonical_form_characterizes_tree_isomorphism() {
    let mut rng = StdRng::seed_from_u64(106);
    let mut trees: Vec<Graph> = Vec::new();
    while trees.len() < 30 {
        let g = random_graph(&mut rng, 6, 2);
        if is_tree(&g) {
            trees.push(g);
        }
    }
    for i in 0..trees.len() {
        for j in i..trees.len() {
            let same_canon = canonical_tokens(&trees[i]) == canonical_tokens(&trees[j]);
            let iso = are_isomorphic(&trees[i], &trees[j]);
            assert_eq!(same_canon, iso, "canonical form vs isomorphism mismatch");
        }
    }
}

#[test]
fn molecule_generator_feeds_all_substrates() {
    // A broad smoke check: every substrate runs cleanly on generated data.
    let db = datasets::generate(&datasets::emol_profile(), 10, 107);
    for w in db.graphs.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let _ = contains(a, b);
        let m = mcs(
            a,
            b,
            McsConfig {
                connected: true,
                budget: SearchBudget::nodes(5_000),
                ..McsConfig::default()
            },
        );
        assert!(m.edges <= a.edge_count().min(b.edge_count()));
        let lb = ged_lower_bound(a, b);
        let ub = ged_upper_bound(a, b);
        assert!(lb <= ub);
    }
}
