//! The visual query formulation step model (§6.1).
//!
//! * Edge-at-a-time construction of a query `Q` takes
//!   `step_total = |V_Q| + |E_Q|` steps (each vertex or edge addition is
//!   one step).
//! * With a canned pattern set `P`, the best formulation uses a maximal
//!   collection `P_Q` of non-overlapping pattern embeddings (a bag —
//!   a pattern may be used several times), found as a greedy maximum
//!   weighted independent set over embeddings [33] with weight = number of
//!   covered vertices. Then
//!   `step_P = |P_Q| + |V_Q \ V_{P_Q}| + |E_Q \ E_{P_Q}|`.
//! * The reduction ratio is `μ = (step_total − step_P) / step_total`.
//!
//! For *unlabeled* GUI patterns (PubChem/eMolecules, Exp 3) the paper
//! relabels queries to a common label before matching and then charges one
//! extra step per pattern vertex for relabeling (the optimistic 1-step
//! labelling model): `step_P(gui) += |V_Pl|`.

use crate::mwis::{greedy_mwis, ConflictGraph};
use catapult_graph::iso::embeddings;
use catapult_graph::{Graph, Label, VertexId};

/// Cap on embeddings enumerated per pattern (dedup happens afterwards);
/// prevents pathological blowup on symmetric patterns.
pub const DEFAULT_EMBEDDING_CAP: usize = 400;

/// One usable (deduplicated) pattern occurrence in the query.
#[derive(Clone, Debug)]
pub struct Occurrence {
    /// Index of the pattern in the pattern set.
    pub pattern: usize,
    /// Covered query vertices (sorted).
    pub vertices: Vec<VertexId>,
    /// Covered query edge ids (sorted).
    pub edges: Vec<u32>,
}

/// Result of formulating one query with a pattern set.
#[derive(Clone, Debug)]
pub struct Formulation {
    /// The chosen non-overlapping occurrences (the bag `P_Q`).
    pub used: Vec<Occurrence>,
    /// `step_P` under the §6.1 model.
    pub steps: usize,
    /// `step_total` for the same query.
    pub steps_edge_at_a_time: usize,
}

impl Formulation {
    /// Reduction ratio `μ = (step_total − step_P) / step_total`.
    pub fn reduction_ratio(&self) -> f64 {
        if self.steps_edge_at_a_time == 0 {
            return 0.0;
        }
        (self.steps_edge_at_a_time as f64 - self.steps as f64) / self.steps_edge_at_a_time as f64
    }

    /// Whether any canned pattern was usable at all.
    pub fn used_any_pattern(&self) -> bool {
        !self.used.is_empty()
    }
}

/// `step_total = |V_Q| + |E_Q|`.
pub fn step_total(q: &Graph) -> usize {
    q.vertex_count() + q.edge_count()
}

/// Enumerate deduplicated pattern occurrences in `q`.
///
/// Embeddings of one pattern that cover the same vertex set and edge set
/// (automorphic images) collapse to one occurrence.
pub fn occurrences(q: &Graph, patterns: &[Graph], cap: usize) -> Vec<Occurrence> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (pi, p) in patterns.iter().enumerate() {
        if p.edge_count() == 0 || p.edge_count() > q.edge_count() {
            continue;
        }
        // Occurrence mining for step accounting: a tripped enumeration
        // just misses some pattern placements, inflating step_P slightly
        // (conservative for the GUI-benefit claims of §6.1).
        // xtask-allow: budget-threading
        for emb in embeddings(q, p, cap) {
            let mut vertices: Vec<VertexId> = emb.clone();
            vertices.sort_unstable();
            // `embeddings` yields genuine subgraph embeddings, so every
            // pattern edge has an image edge in the query.
            #[allow(clippy::expect_used)]
            let mut edges: Vec<u32> = p
                .edges()
                .map(|(_, e)| {
                    q.find_edge(emb[e.u.index()], emb[e.v.index()])
                        .expect("embedding preserves edges")
                        .0
                })
                .collect();
            edges.sort_unstable();
            edges.dedup();
            if seen.insert((pi, vertices.clone(), edges.clone())) {
                out.push(Occurrence {
                    pattern: pi,
                    vertices,
                    edges,
                });
            }
        }
    }
    out
}

/// Recover a concrete embedding (pattern-vertex → query-vertex) realizing
/// an [`Occurrence`]: the mapping whose vertex and edge footprints equal
/// the occurrence's. Used by [`crate::session::replay`] to bind dragged
/// pattern vertices to query vertices.
pub fn occurrence_embedding(q: &Graph, p: &Graph, occ: &Occurrence) -> Option<Vec<VertexId>> {
    let mut found = None;
    // Replay binding is best-effort: the occurrence was produced by the
    // same enumeration, so re-finding it under the same default cap can
    // only miss if the first pass already did — GUI replay degrades, no
    // metric is affected. xtask-allow: completeness-flow
    catapult_graph::iso::for_each_embedding(
        q,
        p,
        catapult_graph::iso::MatchOptions::default(),
        |emb| {
            let mut vs: Vec<VertexId> = emb.to_vec();
            vs.sort_unstable();
            if vs != occ.vertices {
                return std::ops::ControlFlow::Continue(());
            }
            let mut es: Vec<u32> = p
                .edges()
                .filter_map(|(_, e)| q.find_edge(emb[e.u.index()], emb[e.v.index()]))
                .map(|e| e.0)
                .collect();
            es.sort_unstable();
            es.dedup();
            if es == occ.edges {
                found = Some(emb.to_vec());
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        },
    );
    found
}

/// Formulate `q` with pattern set `patterns` under the §6.1 model.
pub fn formulate(q: &Graph, patterns: &[Graph], cap: usize) -> Formulation {
    let occs = occurrences(q, patterns, cap);
    let weights: Vec<f64> = occs.iter().map(|o| o.vertices.len() as f64).collect();
    // Conflicts: vertex overlap.
    let mut pairs = Vec::new();
    for i in 0..occs.len() {
        for j in (i + 1)..occs.len() {
            if overlaps(&occs[i].vertices, &occs[j].vertices) {
                pairs.push((i, j));
            }
        }
    }
    let chosen = greedy_mwis(&ConflictGraph::new(weights, &pairs));
    let used: Vec<Occurrence> = chosen.into_iter().map(|i| occs[i].clone()).collect();
    let covered_vertices: usize = used.iter().map(|o| o.vertices.len()).sum();
    let covered_edges: usize = used.iter().map(|o| o.edges.len()).sum();
    let steps =
        used.len() + (q.vertex_count() - covered_vertices) + (q.edge_count() - covered_edges);
    Formulation {
        used,
        steps,
        steps_edge_at_a_time: step_total(q),
    }
}

fn overlaps(a: &[VertexId], b: &[VertexId]) -> bool {
    // Both sorted.
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Relabel every vertex of `g` to `label` (the Exp 3 vertex-relabelling
/// preparation for unlabeled GUI patterns).
pub fn relabel_uniform(g: &Graph, label: Label) -> Graph {
    let labels = vec![label; g.vertex_count()];
    let edges: Vec<(u32, u32)> = g.edges().map(|(_, e)| (e.u.0, e.v.0)).collect();
    Graph::from_parts(&labels, &edges)
}

/// How vertex relabelling is charged when unlabeled GUI patterns are used
/// (Exp 3). The paper describes both models and evaluates with the
/// optimistic 1-step variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RelabelModel {
    /// 1-step labelling: the right label is already selected; one click
    /// per vertex (`step += |V_Pl|`). The paper's (GUI-favouring) choice.
    #[default]
    OneStep,
    /// 2-step labelling: selecting a vertex's label costs an extra step
    /// whenever it differs from the previously selected label; within one
    /// pattern instance vertices are labeled grouped by target label, so
    /// each distinct label in the instance costs one extra selection step.
    TwoStep,
}

/// Formulate `q` with *unlabeled* patterns per the Exp 3 model: match on
/// topology only, then charge one extra (1-step-labelling, optimistic)
/// relabel step per vertex of every used pattern instance.
pub fn formulate_unlabeled(q: &Graph, unlabeled_patterns: &[Graph], cap: usize) -> Formulation {
    formulate_unlabeled_with(q, unlabeled_patterns, cap, RelabelModel::OneStep)
}

/// As [`formulate_unlabeled`], with an explicit [`RelabelModel`].
pub fn formulate_unlabeled_with(
    q: &Graph,
    unlabeled_patterns: &[Graph],
    cap: usize,
    model: RelabelModel,
) -> Formulation {
    let blank = Label(u32::MAX - 1);
    let q_blank = relabel_uniform(q, blank);
    let pats: Vec<Graph> = unlabeled_patterns
        .iter()
        .map(|p| relabel_uniform(p, blank))
        .collect();
    let mut f = formulate(&q_blank, &pats, cap);
    let pattern_vertices: usize = f.used.iter().map(|o| o.vertices.len()).sum();
    f.steps += pattern_vertices;
    if model == RelabelModel::TwoStep {
        // One extra label-selection step per distinct target label per
        // pattern instance.
        for occ in &f.used {
            let mut labels: Vec<Label> = occ.vertices.iter().map(|&v| q.label(v)).collect();
            labels.sort_unstable();
            labels.dedup();
            f.steps += labels.len();
        }
    }
    // step_total is unchanged: edge-at-a-time on the labeled query.
    f.steps_edge_at_a_time = step_total(q);
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn path(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    fn cycle(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn no_patterns_means_edge_at_a_time() {
        let q = cycle(5);
        let f = formulate(&q, &[], 100);
        assert_eq!(f.steps, 10); // 5 vertices + 5 edges
        assert_eq!(f.steps, f.steps_edge_at_a_time);
        assert_eq!(f.reduction_ratio(), 0.0);
        assert!(!f.used_any_pattern());
    }

    #[test]
    fn exact_pattern_is_one_step() {
        let q = cycle(5);
        let f = formulate(&q, &[cycle(5)], 100);
        assert_eq!(f.steps, 1);
        assert!((f.reduction_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tmad_style_example() {
        // §1 example shape: query = two copies of a pattern joined by one
        // edge → 3 steps (2 pattern drags + 1 edge).
        // Build: two stars N-C(-O)-N joined N..N? Simpler: two triangles
        // connected by one bridge edge.
        let mut q = Graph::new();
        for _ in 0..6 {
            q.add_vertex(l(0));
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            q.add_edge(VertexId(a), VertexId(b)).unwrap();
        }
        q.add_edge(VertexId(2), VertexId(3)).unwrap();
        let tri = cycle(3);
        let f = formulate(&q, &[tri], 200);
        assert_eq!(f.used.len(), 2, "pattern used twice");
        assert_eq!(f.steps, 3); // 2 drags + 1 connecting edge
        let expected_mu = (13.0 - 3.0) / 13.0;
        assert!((f.reduction_ratio() - expected_mu).abs() < 1e-12);
    }

    #[test]
    fn steps_never_exceed_edge_at_a_time() {
        let q = cycle(6);
        let sets: Vec<Vec<Graph>> = vec![
            vec![path(3)],
            vec![path(4), cycle(3)],
            vec![cycle(6), path(2)],
        ];
        for pats in sets {
            let f = formulate(&q, &pats, 200);
            assert!(f.steps <= f.steps_edge_at_a_time);
            assert!(f.reduction_ratio() >= 0.0);
        }
    }

    #[test]
    fn chosen_occurrences_do_not_overlap() {
        let q = path(9);
        let f = formulate(&q, &[path(3)], 300);
        let mut seen = std::collections::HashSet::new();
        for o in &f.used {
            for v in &o.vertices {
                assert!(seen.insert(*v), "vertex reused");
            }
        }
    }

    #[test]
    fn labels_matter_for_matching() {
        let q = Graph::from_parts(&[l(1), l(2), l(3)], &[(0, 1), (1, 2)]);
        let wrong = Graph::from_parts(&[l(5), l(6), l(7)], &[(0, 1), (1, 2)]);
        let f = formulate(&q, std::slice::from_ref(&wrong), 100);
        assert!(!f.used_any_pattern());
        // ... but the unlabeled model matches and charges relabel steps.
        let fu = formulate_unlabeled(&q, &[relabel_uniform(&wrong, l(0))], 100);
        assert!(fu.used_any_pattern());
        // 1 drag + 3 relabels = 4 < 5 (= 3 vertices + 2 edges).
        assert_eq!(fu.steps, 4);
        assert_eq!(fu.steps_edge_at_a_time, 5);
    }

    #[test]
    fn unlabeled_model_can_lose_to_labeled() {
        // With relabeling costs, unlabeled patterns are weaker than exact
        // labeled patterns — the Exp 3 headline effect.
        let q = Graph::from_parts(&[l(1), l(2), l(3), l(4)], &[(0, 1), (1, 2), (2, 3)]);
        let labeled = q.clone();
        let f_lab = formulate(&q, &[labeled], 100);
        let f_unl = formulate_unlabeled(&q, &[relabel_uniform(&q, l(0))], 100);
        assert!(f_lab.steps < f_unl.steps);
    }

    #[test]
    fn two_step_model_charges_label_selections() {
        // Query: a path with 2 distinct labels; unlabeled 2-edge pattern.
        let q = Graph::from_parts(&[l(1), l(2), l(1)], &[(0, 1), (1, 2)]);
        let pat = relabel_uniform(&q, l(0));
        let one =
            formulate_unlabeled_with(&q, std::slice::from_ref(&pat), 100, RelabelModel::OneStep);
        let two =
            formulate_unlabeled_with(&q, std::slice::from_ref(&pat), 100, RelabelModel::TwoStep);
        assert!(one.used_any_pattern());
        // 2 distinct labels in the instance → exactly 2 extra steps.
        assert_eq!(two.steps, one.steps + 2);
    }

    use catapult_graph::VertexId;
}
