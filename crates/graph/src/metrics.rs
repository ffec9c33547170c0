//! Cognitive-load measures and related pattern metrics (§3.2, Exp 10).
//!
//! The paper defines the cognitive load of a pattern `p = (V_p, E_p)` as
//! `cog(p) = |E_p| × ρ_p` with density `ρ_p = 2|E_p| / (|V_p|(|V_p|-1))`
//! (measure F1), and evaluates two alternative measures in Exp 10:
//! a degree-based measure `F2 = Σ deg(v) = 2|E_p|` and the average degree
//! `F3 = 2|E_p| / |V_p|`. Exp 10 finds F1 most consistent with human
//! response-time rankings.

use crate::graph::Graph;

/// F1: the paper's cognitive-load measure, `cog(p) = |E| × ρ` (§3.2).
pub fn cognitive_load(g: &Graph) -> f64 {
    g.edge_count() as f64 * g.density()
}

/// F2: degree-based measure `Σ_v deg(v) = 2|E|` (Exp 10).
pub fn cognitive_load_f2(g: &Graph) -> f64 {
    2.0 * g.edge_count() as f64
}

/// F3: average degree `2|E| / |V|` (Exp 10).
pub fn cognitive_load_f3(g: &Graph) -> f64 {
    if g.vertex_count() == 0 {
        return 0.0;
    }
    2.0 * g.edge_count() as f64 / g.vertex_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexId;
    use crate::labels::Label;

    fn l() -> Label {
        Label(0)
    }

    fn clique(n: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(l());
        }
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(VertexId(i), VertexId(j)).unwrap();
            }
        }
        g
    }

    fn path(n: usize) -> Graph {
        let labels = vec![l(); n];
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn clique_has_highest_f1_among_same_order() {
        let k4 = clique(4);
        let p4 = path(4);
        assert!(cognitive_load(&k4) > cognitive_load(&p4));
        // K4: |E|=6, density=1 → F1 = 6.
        assert!((cognitive_load(&k4) - 6.0).abs() < 1e-12);
        // P4: |E|=3, density=0.5 → F1 = 1.5.
        assert!((cognitive_load(&p4) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn f2_is_twice_edges() {
        assert_eq!(cognitive_load_f2(&path(5)), 8.0);
    }

    #[test]
    fn f3_is_average_degree() {
        let c = clique(4);
        assert!((cognitive_load_f3(&c) - 3.0).abs() < 1e-12);
        assert_eq!(cognitive_load_f3(&Graph::new()), 0.0);
    }

    #[test]
    fn paper_range_sanity() {
        // The paper reports avg cog in [1.59, 2.36] for its selected
        // patterns — small sparse patterns land in that band.
        let hexagon = {
            let labels = vec![l(); 6];
            let mut edges: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
            edges.push((5, 0));
            Graph::from_parts(&labels, &edges)
        };
        let f1 = cognitive_load(&hexagon);
        assert!(f1 > 1.0 && f1 < 3.0, "hexagon cog {f1}");
    }
}
