//! Exhaustive GED verification on tiny graphs: under the uniform cost
//! model, every edit path corresponds to a (partial, injective) vertex
//! mapping whose cost is `induced_edit_cost`; therefore the exact GED is
//! the minimum of that cost over *all* mappings. This test enumerates all
//! mappings for graphs with ≤ 4 vertices and checks the search agrees,
//! with and without a cutoff.

// Integration tests may use panicking shortcuts freely; the workspace
// no-panic policy targets library production code only.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use catapult::graph::edit::{apply_edit_script, edit_script};
use catapult::graph::ged::{ged, ged_lower_bound, induced_edit_cost};
use catapult::graph::iso::are_isomorphic;
use catapult::graph::{Graph, Label, VertexId};
use rand::{Rng, SeedableRng};

/// Minimum induced edit cost over every injective partial mapping A → B.
fn brute_force_ged(a: &Graph, b: &Graph) -> usize {
    let (na, nb) = (a.vertex_count(), b.vertex_count());
    let mut best = usize::MAX;
    // Each A vertex maps to one of nb+1 choices (B vertex or None).
    let choices = nb + 1;
    let total = choices.pow(na as u32);
    'outer: for code in 0..total {
        let mut rem = code;
        let mut mapping: Vec<Option<VertexId>> = Vec::with_capacity(na);
        let mut used = vec![false; nb];
        for _ in 0..na {
            let c = rem % choices;
            rem /= choices;
            if c == nb {
                mapping.push(None);
            } else {
                if used[c] {
                    continue 'outer; // not injective
                }
                used[c] = true;
                mapping.push(Some(VertexId(c as u32)));
            }
        }
        best = best.min(induced_edit_cost(a, b, &mapping));
    }
    best
}

fn random_graph(rng: &mut rand::rngs::StdRng, max_v: usize, labels: u32) -> Graph {
    let n = rng.gen_range(1..=max_v);
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_vertex(Label(rng.gen_range(0..labels)));
    }
    for i in 1..n as u32 {
        if rng.gen_bool(0.8) {
            let j = rng.gen_range(0..i);
            let _ = g.add_edge(VertexId(i), VertexId(j));
        }
    }
    for _ in 0..n {
        let x = rng.gen_range(0..n as u32);
        let y = rng.gen_range(0..n as u32);
        if x != y && rng.gen_bool(0.3) {
            let _ = g.add_edge(VertexId(x), VertexId(y));
        }
    }
    g
}

#[test]
fn search_matches_brute_force_on_tiny_graphs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    for trial in 0..120 {
        let a = random_graph(&mut rng, 4, 2);
        let b = random_graph(&mut rng, 4, 2);
        let exact = ged(&a, &b, None, 5_000_000);
        assert!(exact.is_exact(), "trial {trial} exhausted budget");
        let brute = brute_force_ged(&a, &b);
        assert_eq!(
            exact.distance, brute,
            "trial {trial}: search {} vs brute force {brute}\nA = {a:?}\nB = {b:?}",
            exact.distance
        );
        assert!(ged_lower_bound(&a, &b) <= brute);
        // A cutoff τ answers `min(GED, τ)` exactly: a search that finds
        // nothing below τ has proven `GED ≥ τ`.
        for tau in 0..=brute + 1 {
            let cut = ged(&a, &b, Some(tau), 5_000_000);
            assert!(cut.is_exact(), "trial {trial} τ={tau} exhausted budget");
            assert_eq!(cut.distance, brute.min(tau), "trial {trial} τ={tau}");
        }
    }
}

#[test]
fn optimal_scripts_exist_and_apply() {
    // For tiny pairs, find the optimal mapping by brute force, extract the
    // edit script, and replay it: the script length must equal the GED and
    // the result must be isomorphic to the target.
    let mut rng = rand::rngs::StdRng::seed_from_u64(4052);
    for _ in 0..60 {
        let a = random_graph(&mut rng, 4, 2);
        let b = random_graph(&mut rng, 4, 2);
        let target = brute_force_ged(&a, &b);
        // Re-enumerate to recover an optimal mapping.
        let (na, nb) = (a.vertex_count(), b.vertex_count());
        let choices = nb + 1;
        let mut best_mapping = None;
        'outer: for code in 0..choices.pow(na as u32) {
            let mut rem = code;
            let mut mapping = Vec::with_capacity(na);
            let mut used = vec![false; nb];
            for _ in 0..na {
                let c = rem % choices;
                rem /= choices;
                if c == nb {
                    mapping.push(None);
                } else {
                    if used[c] {
                        continue 'outer;
                    }
                    used[c] = true;
                    mapping.push(Some(VertexId(c as u32)));
                }
            }
            if induced_edit_cost(&a, &b, &mapping) == target {
                best_mapping = Some(mapping);
                break;
            }
        }
        let mapping = best_mapping.expect("an optimal mapping exists");
        let script = edit_script(&a, &b, &mapping);
        assert_eq!(script.len(), target, "script length must equal GED");
        let out = apply_edit_script(&a, &script).expect("script applies");
        assert!(are_isomorphic(&out, &b), "script must land on the target");
    }
}
