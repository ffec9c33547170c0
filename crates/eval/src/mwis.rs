//! Greedy maximum weighted independent set (§6.1, [33]).
//!
//! Finding the collection of non-overlapping pattern embeddings that
//! maximally covers a query is modelled as MWIS over embeddings (vertices)
//! with vertex-overlap conflicts (edges) and weight = number of covered
//! query vertices. We use the GWMIN greedy of Sakai et al. [33]: repeatedly
//! take the vertex maximizing `w(v) / (deg(v) + 1)` and delete its closed
//! neighborhood; GWMIN guarantees a `Σ w(v)/(deg(v)+1)` lower bound.

/// An MWIS instance: `weights[i]` and a symmetric conflict list per vertex.
#[derive(Clone, Debug)]
pub struct ConflictGraph {
    /// Vertex weights.
    pub weights: Vec<f64>,
    /// Adjacency (conflicts); must be symmetric.
    pub conflicts: Vec<Vec<usize>>,
}

impl ConflictGraph {
    /// Build an instance from weights and symmetric conflict pairs.
    pub fn new(weights: Vec<f64>, pairs: &[(usize, usize)]) -> Self {
        let mut conflicts = vec![Vec::new(); weights.len()];
        for &(a, b) in pairs {
            conflicts[a].push(b);
            conflicts[b].push(a);
        }
        ConflictGraph { weights, conflicts }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// GWMIN greedy MWIS. Returns selected vertex indices (ascending).
pub fn greedy_mwis(g: &ConflictGraph) -> Vec<usize> {
    let n = g.len();
    let mut alive = vec![true; n];
    let mut degree: Vec<usize> = g.conflicts.iter().map(Vec::len).collect();
    let mut selected = Vec::new();
    loop {
        // argmax w(v) / (deg(v) + 1) over alive vertices; deterministic
        // tie-break on index.
        let mut best: Option<(f64, usize)> = None;
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let score = g.weights[v] / (degree[v] + 1) as f64;
            match best {
                Some((s, _)) if s >= score => {}
                _ => best = Some((score, v)),
            }
        }
        let Some((_, v)) = best else { break };
        selected.push(v);
        alive[v] = false;
        for &u in &g.conflicts[v] {
            if alive[u] {
                alive[u] = false;
                for &w in &g.conflicts[u] {
                    if alive[w] {
                        degree[w] = degree[w].saturating_sub(1);
                    }
                }
            }
        }
    }
    selected.sort_unstable();
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `set` is independent (no conflict edge inside).
    fn is_independent(g: &ConflictGraph, set: &[usize]) -> bool {
        set.iter()
            .all(|&v| g.conflicts[v].iter().all(|u| !set.contains(u)))
    }

    #[test]
    fn independent_vertices_all_selected() {
        let g = ConflictGraph::new(vec![1.0, 2.0, 3.0], &[]);
        let s = greedy_mwis(&g);
        assert_eq!(s, vec![0, 1, 2]);
    }

    #[test]
    fn conflict_pair_takes_heavier() {
        let g = ConflictGraph::new(vec![1.0, 5.0], &[(0, 1)]);
        let s = greedy_mwis(&g);
        assert_eq!(s, vec![1]);
        assert!(is_independent(&g, &s));
    }

    #[test]
    fn path_conflicts() {
        // Path 0-1-2 with weights 1, 1.5, 1: ends beat the middle
        // (0 and 2 together weigh 2).
        let g = ConflictGraph::new(vec![1.0, 1.5, 1.0], &[(0, 1), (1, 2)]);
        let s = greedy_mwis(&g);
        assert!(is_independent(&g, &s));
        let w: f64 = s.iter().map(|&v| g.weights[v]).sum();
        assert!((w - 2.0).abs() < 1e-12, "selected {s:?} weight {w}");
    }

    #[test]
    fn gwmin_bound_holds() {
        // Weight of the greedy solution ≥ Σ w(v)/(deg(v)+1).
        let g = ConflictGraph::new(
            vec![3.0, 2.0, 2.0, 4.0, 1.0],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        );
        let s = greedy_mwis(&g);
        assert!(is_independent(&g, &s));
        let bound: f64 = (0..g.len())
            .map(|v| g.weights[v] / (g.conflicts[v].len() + 1) as f64)
            .sum();
        let w: f64 = s.iter().map(|&v| g.weights[v]).sum();
        assert!(w >= bound - 1e-9, "w {w} < bound {bound}");
    }

    #[test]
    fn empty_instance() {
        let g = ConflictGraph::new(vec![], &[]);
        assert!(greedy_mwis(&g).is_empty());
    }
}
