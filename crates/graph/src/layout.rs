//! Graph layout and edge-crossing estimation.
//!
//! Kobourov et al. [25] showed that edge crossings hamper graph
//! interpretation tasks; the paper's density-based cognitive-load measure
//! (§3.2, Exp 10) is justified as an estimate of the degree of edge
//! crossings. This module provides an *exact* crossing count for a circular
//! layout, which the simulated cognitive-load study (Exp 10) uses as the
//! ground-truth difficulty driver.

use crate::components::bfs_order;
use crate::graph::{Graph, VertexId};

/// Positions of vertices on a unit circle, in layout order.
#[derive(Clone, Debug)]
pub struct CircularLayout {
    /// `position[v] = index of v around the circle`.
    pub position: Vec<usize>,
}

/// Lay the graph out on a circle in BFS order (a cheap but sensible
/// ordering that keeps neighborhoods contiguous), covering every
/// connected component.
fn circular_layout(g: &Graph) -> CircularLayout {
    let n = g.vertex_count();
    let mut position = vec![usize::MAX; n];
    let mut next = 0usize;
    for s in g.vertices() {
        if position[s.index()] != usize::MAX {
            continue;
        }
        for v in bfs_order(g, s) {
            if position[v.index()] == usize::MAX {
                position[v.index()] = next;
                next += 1;
            }
        }
    }
    CircularLayout { position }
}

/// Whether chords `(a,b)` and `(c,d)` on a circle cross: true iff exactly
/// one of `c`, `d` lies strictly between `a` and `b` in circular order.
fn chords_cross(a: usize, b: usize, c: usize, d: usize) -> bool {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let between = |x: usize| x > lo && x < hi;
    between(c) != between(d)
}

/// Exact number of edge crossings in the given circular layout.
fn crossing_count(g: &Graph, layout: &CircularLayout) -> usize {
    let edges: Vec<(usize, usize)> = g
        .edges()
        .map(|(_, e)| (layout.position[e.u.index()], layout.position[e.v.index()]))
        .collect();
    let mut crossings = 0;
    for i in 0..edges.len() {
        for j in (i + 1)..edges.len() {
            let (a, b) = edges[i];
            let (c, d) = edges[j];
            // Shared endpoints never cross.
            if a == c || a == d || b == c || b == d {
                continue;
            }
            if chords_cross(a, b, c, d) {
                crossings += 1;
            }
        }
    }
    crossings
}

/// Crossing count of the default BFS circular layout.
pub fn circular_crossings(g: &Graph) -> usize {
    crossing_count(g, &circular_layout(g))
}

/// A crossing count minimized over a few rotations/reflections of the BFS
/// order plus a degree-sorted order — a cheap proxy for "a human drew this
/// reasonably well".
pub fn best_effort_crossings(g: &Graph) -> usize {
    let mut best = circular_crossings(g);
    // Degree-descending ordering.
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut position = vec![0usize; g.vertex_count()];
    for (i, v) in by_degree.iter().enumerate() {
        position[v.index()] = i;
    }
    best = best.min(crossing_count(g, &CircularLayout { position }));
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn cycle(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn path_has_no_crossings() {
        let p = Graph::from_parts(&[l(0); 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(circular_crossings(&p), 0);
    }

    #[test]
    fn k4_has_crossings_on_a_circle() {
        // K4 drawn on a circle always has exactly one crossing (the two
        // diagonals).
        let k4 = Graph::from_parts(
            &[l(0); 4],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        );
        assert_eq!(circular_crossings(&k4), 1);
        assert_eq!(best_effort_crossings(&k4), 1);
    }

    #[test]
    fn cycle_in_bfs_order_state() {
        // A cycle laid out in BFS order: the closing edge may cross others
        // but the count must be small and deterministic.
        let c6 = cycle(6);
        let x = circular_crossings(&c6);
        assert_eq!(x, circular_crossings(&c6)); // deterministic
    }

    #[test]
    fn chord_crossing_logic() {
        assert!(chords_cross(0, 2, 1, 3));
        assert!(!chords_cross(0, 1, 2, 3));
        assert!(!chords_cross(0, 3, 1, 2)); // nested
    }

    #[test]
    fn denser_graphs_have_more_crossings() {
        let c6 = cycle(6);
        let k6 = {
            let mut g = Graph::new();
            for _ in 0..6 {
                g.add_vertex(l(0));
            }
            for i in 0..6u32 {
                for j in (i + 1)..6 {
                    g.add_edge(VertexId(i), VertexId(j)).unwrap();
                }
            }
            g
        };
        assert!(best_effort_crossings(&k6) > best_effort_crossings(&c6));
    }

    #[test]
    fn layout_covers_disconnected_graphs() {
        let g = Graph::from_parts(&[l(0); 4], &[(0, 1), (2, 3)]);
        let lay = circular_layout(&g);
        let mut pos = lay.position;
        pos.sort_unstable();
        assert_eq!(pos, vec![0, 1, 2, 3]);
    }
}
