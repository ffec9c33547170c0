//! Connectivity utilities: BFS, connected components, tree tests.

use crate::graph::{Graph, VertexId};

/// Breadth-first order from `start`, visiting only vertices reachable from it.
pub fn bfs_order(g: &Graph, start: VertexId) -> Vec<VertexId> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    seen[start.index()] = true;
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &(w, _) in g.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                queue.push_back(w);
            }
        }
    }
    order
}

/// Whether the graph is connected. The empty graph counts as connected;
/// a single vertex does too.
pub fn is_connected(g: &Graph) -> bool {
    let n = g.vertex_count();
    if n <= 1 {
        return true;
    }
    bfs_order(g, VertexId(0)).len() == n
}

/// Connected components as lists of vertex ids (each sorted ascending).
pub fn connected_components(g: &Graph) -> Vec<Vec<VertexId>> {
    let n = g.vertex_count();
    let mut comp = vec![usize::MAX; n];
    let mut out: Vec<Vec<VertexId>> = Vec::new();
    for s in g.vertices() {
        if comp[s.index()] != usize::MAX {
            continue;
        }
        let id = out.len();
        let mut members = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        comp[s.index()] = id;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            members.push(v);
            for &(w, _) in g.neighbors(v) {
                if comp[w.index()] == usize::MAX {
                    comp[w.index()] = id;
                    queue.push_back(w);
                }
            }
        }
        members.sort_unstable();
        out.push(members);
    }
    out
}

/// Whether the graph is a (free) tree: connected with `|E| = |V| - 1`.
pub fn is_tree(g: &Graph) -> bool {
    g.vertex_count() >= 1 && g.edge_count() + 1 == g.vertex_count() && is_connected(g)
}

/// Center vertex or vertices of a tree (1 for odd-diameter trees, 2 for even).
///
/// Computed by iteratively peeling leaves. Used to root free trees for
/// canonicalization (§4.1). Panics if `g` is not a tree.
pub fn tree_centers(g: &Graph) -> Vec<VertexId> {
    assert!(is_tree(g), "tree_centers requires a tree");
    let n = g.vertex_count();
    if n <= 2 {
        return g.vertices().collect();
    }
    let mut degree: Vec<usize> = (0..n).map(|i| g.degree(VertexId(i as u32))).collect();
    let mut removed = vec![false; n];
    let mut frontier: Vec<VertexId> = g.vertices().filter(|&v| degree[v.index()] == 1).collect();
    let mut remaining = n;
    while remaining > 2 {
        let mut next = Vec::new();
        for &leaf in &frontier {
            removed[leaf.index()] = true;
            remaining -= 1;
            for &(w, _) in g.neighbors(leaf) {
                if !removed[w.index()] {
                    degree[w.index()] -= 1;
                    if degree[w.index()] == 1 {
                        next.push(w);
                    }
                }
            }
        }
        frontier = next;
    }
    let mut centers: Vec<VertexId> = g.vertices().filter(|&v| !removed[v.index()]).collect();
    centers.sort_unstable();
    centers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    #[test]
    fn connectivity() {
        let path = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2)]);
        assert!(is_connected(&path));
        let two = Graph::from_parts(&[l(0); 4], &[(0, 1), (2, 3)]);
        assert!(!is_connected(&two));
        assert_eq!(connected_components(&two).len(), 2);
    }

    #[test]
    fn tree_detection() {
        let path = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2)]);
        assert!(is_tree(&path));
        let cycle = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2), (0, 2)]);
        assert!(!is_tree(&cycle));
        let forest = Graph::from_parts(&[l(0); 4], &[(0, 1), (2, 3)]);
        assert!(!is_tree(&forest));
    }

    #[test]
    fn centers_of_path() {
        // path of 5: center is middle vertex
        let p5 = Graph::from_parts(&[l(0); 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(tree_centers(&p5), vec![VertexId(2)]);
        // path of 4: two centers
        let p4 = Graph::from_parts(&[l(0); 4], &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(tree_centers(&p4), vec![VertexId(1), VertexId(2)]);
    }

    #[test]
    fn centers_of_star() {
        let star = Graph::from_parts(&[l(0); 5], &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(tree_centers(&star), vec![VertexId(0)]);
    }

    #[test]
    fn single_vertex_is_tree_and_center() {
        let mut g = Graph::new();
        g.add_vertex(l(0));
        assert!(is_tree(&g));
        assert_eq!(tree_centers(&g), vec![VertexId(0)]);
    }
}
