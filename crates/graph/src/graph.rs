//! The core labeled, undirected, simple graph type.
//!
//! Per the paper (§2): data graphs and visual subgraph queries are
//! *undirected simple graphs with labeled vertices*, connected, with at
//! least one edge; the size of a graph is its number of edges, `|G| = |E|`.

use crate::invariants::InvariantViolation;
use crate::labels::{EdgeLabel, Label};
use std::fmt;

/// Index of a vertex within a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Raw index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of an edge within a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Raw index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected edge, stored with `u <= v` normalisation for simple-graph
/// duplicate detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
}

impl Edge {
    fn new(a: VertexId, b: VertexId) -> Self {
        if a <= b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// Given one endpoint, return the other.
    #[inline]
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            self.u
        }
    }
}

/// Errors from graph mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// Self-loops are not allowed in simple graphs.
    SelfLoop,
    /// The edge already exists (simple graph).
    DuplicateEdge,
    /// A vertex id was out of range.
    InvalidVertex,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop => write!(f, "self-loops are not allowed"),
            GraphError::DuplicateEdge => write!(f, "edge already exists"),
            GraphError::InvalidVertex => write!(f, "vertex id out of range"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A labeled, undirected, simple graph.
///
/// Vertices carry a [`Label`]; edge labels are derived from endpoint labels
/// (see [`EdgeLabel`]). Vertex and edge ids are dense indices.
#[derive(Clone, Default)]
pub struct Graph {
    labels: Vec<Label>,
    adj: Vec<Vec<(VertexId, EdgeId)>>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty graph with vertex capacity reserved.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        Graph {
            labels: Vec::with_capacity(vertices),
            adj: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a vertex with `label`, returning its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId(self.labels.len() as u32);
        self.labels.push(label);
        self.adj.push(Vec::new());
        id
    }

    /// Add an undirected edge between `a` and `b`.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) -> Result<EdgeId, GraphError> {
        if a.index() >= self.labels.len() || b.index() >= self.labels.len() {
            return Err(GraphError::InvalidVertex);
        }
        if a == b {
            return Err(GraphError::SelfLoop);
        }
        if self.has_edge(a, b) {
            return Err(GraphError::DuplicateEdge);
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge::new(a, b));
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        Ok(id)
    }

    /// Add an edge if absent; returns the edge id either way.
    pub fn ensure_edge(&mut self, a: VertexId, b: VertexId) -> Result<EdgeId, GraphError> {
        if let Some(e) = self.find_edge(a, b) {
            return Ok(e);
        }
        self.add_edge(a, b)
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges. The paper defines the *size* of a graph as `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The paper's `|G|`: the number of edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.edge_count()
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v.index()]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// Neighbors of `v` with the connecting edge ids.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[v.index()]
    }

    /// Iterate over vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.labels.len() as u32).map(VertexId)
    }

    /// Iterate over edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (EdgeId(i as u32), e))
    }

    /// The edge with id `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()]
    }

    /// Whether an edge between `a` and `b` exists.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.find_edge(a, b).is_some()
    }

    /// Find the id of the edge between `a` and `b`, if present.
    pub fn find_edge(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        if a.index() >= self.adj.len() || b.index() >= self.adj.len() {
            return None;
        }
        // Scan the smaller adjacency list.
        let (x, y) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[x.index()]
            .iter()
            .find(|&&(n, _)| n == y)
            .map(|&(_, e)| e)
    }

    /// The derived label of edge `e` (unordered endpoint label pair).
    pub fn edge_label(&self, e: EdgeId) -> EdgeLabel {
        let Edge { u, v } = self.edges[e.index()];
        EdgeLabel::new(self.label(u), self.label(v))
    }

    /// Distinct edge labels appearing in the graph, sorted.
    pub fn edge_label_set(&self) -> Vec<EdgeLabel> {
        let mut ls = self.sorted_edge_labels();
        ls.dedup();
        ls
    }

    /// Sorted edge-label *multiset* (duplicates kept, unlike
    /// [`Graph::edge_label_set`]). The size of the multiset intersection of
    /// two graphs' sorted edge labels is an upper bound on their common
    /// subgraph size, since any common edge must carry a shared edge label.
    pub fn sorted_edge_labels(&self) -> Vec<EdgeLabel> {
        let mut ls: Vec<EdgeLabel> = self.edges().map(|(e, _)| self.edge_label(e)).collect();
        ls.sort_unstable();
        ls
    }

    /// Graph density `ρ = 2|E| / (|V| (|V|-1))`; 0 for graphs with < 2 vertices.
    pub fn density(&self) -> f64 {
        let n = self.vertex_count();
        if n < 2 {
            return 0.0;
        }
        2.0 * self.edge_count() as f64 / (n as f64 * (n as f64 - 1.0))
    }

    /// Sorted vertex-label multiset (an isomorphism invariant).
    pub fn sorted_labels(&self) -> Vec<Label> {
        let mut v = self.labels.clone();
        v.sort_unstable();
        v
    }

    /// Sorted degree sequence (an isomorphism invariant).
    fn degree_sequence(&self) -> Vec<usize> {
        let mut v: Vec<usize> = (0..self.vertex_count())
            .map(|i| self.adj[i].len())
            .collect();
        v.sort_unstable();
        v
    }

    /// A cheap isomorphism-invariant signature used to bucket graphs before
    /// expensive isomorphism tests: `(|V|, |E|, label multiset hash, degree
    /// sequence hash)`.
    pub fn invariant_signature(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.vertex_count().hash(&mut h);
        self.edge_count().hash(&mut h);
        for l in self.sorted_labels() {
            l.0.hash(&mut h);
        }
        for d in self.degree_sequence() {
            d.hash(&mut h);
        }
        // Per-vertex (label, degree) pairs, sorted: stronger than the two
        // independent sequences.
        let mut ld: Vec<(Label, usize)> = self
            .vertices()
            .map(|v| (self.label(v), self.degree(v)))
            .collect();
        ld.sort_unstable();
        for (l, d) in ld {
            l.0.hash(&mut h);
            d.hash(&mut h);
        }
        h.finish()
    }

    /// Build the subgraph induced by `vertices` (edges among them only).
    /// Returns the subgraph and the mapping old id → new id.
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (Graph, Vec<Option<VertexId>>) {
        let mut map: Vec<Option<VertexId>> = vec![None; self.vertex_count()];
        let mut g = Graph::with_capacity(vertices.len(), vertices.len());
        for &v in vertices {
            map[v.index()] = Some(g.add_vertex(self.label(v)));
        }
        for (_, e) in self.edges() {
            if let (Some(nu), Some(nv)) = (map[e.u.index()], map[e.v.index()]) {
                // A simple graph visits each vertex pair once, so the new
                // edge cannot collide.
                #[allow(clippy::expect_used)]
                g.add_edge(nu, nv).expect("induced edges are unique");
            }
        }
        crate::debug_invariants!(g.validate());
        (g, map)
    }

    /// Build the subgraph formed by `edge_ids` (and their endpoints).
    pub fn subgraph_from_edges(&self, edge_ids: &[EdgeId]) -> Graph {
        let mut map: Vec<Option<VertexId>> = vec![None; self.vertex_count()];
        let mut g = Graph::new();
        for &eid in edge_ids {
            let e = self.edge(eid);
            let mut intern = |x: VertexId, g: &mut Graph| match map[x.index()] {
                Some(id) => id,
                None => {
                    let id = g.add_vertex(self.label(x));
                    map[x.index()] = Some(id);
                    id
                }
            };
            let nu = intern(e.u, &mut g);
            let nv = intern(e.v, &mut g);
            let _ = g.add_edge(nu, nv);
        }
        crate::debug_invariants!(g.validate());
        g
    }

    /// Construct a graph from vertex labels and endpoint index pairs.
    ///
    /// Convenience for tests and fixture graphs; panics on invalid input.
    pub fn from_parts(labels: &[Label], edges: &[(u32, u32)]) -> Graph {
        let mut g = Graph::with_capacity(labels.len(), edges.len());
        for &l in labels {
            g.add_vertex(l);
        }
        for &(a, b) in edges {
            // Documented contract: fixture input must be valid, and the
            // panic is this constructor's advertised failure mode.
            #[allow(clippy::expect_used)]
            g.add_edge(VertexId(a), VertexId(b))
                .expect("valid fixture edge");
        }
        crate::debug_invariants!(g.validate());
        g
    }

    /// Check every structural invariant of the representation:
    ///
    /// * the label table and the adjacency table agree on `|V|`;
    /// * every edge's endpoints are in bounds, distinct (no self-loops),
    ///   and normalised `u <= v`;
    /// * no duplicate undirected edges;
    /// * adjacency symmetry: `(w, e)` in `adj[v]` iff `(v, e)` in
    ///   `adj[w]`, each adjacency entry agrees with the edge table, and
    ///   every edge is incident to exactly its two endpoints.
    ///
    /// `Ok(())` on a well-formed graph; a described [`InvariantViolation`]
    /// on the first inconsistency found. Run automatically at composite
    /// mutation sites via [`crate::debug_invariants!`].
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        let n = self.labels.len();
        if self.adj.len() != n {
            return Err(InvariantViolation::new(format!(
                "label table has {n} entries but adjacency table has {}",
                self.adj.len()
            )));
        }
        let mut seen_pairs = std::collections::HashSet::with_capacity(self.edges.len());
        for (i, e) in self.edges.iter().enumerate() {
            if e.u.index() >= n || e.v.index() >= n {
                return Err(InvariantViolation::new(format!(
                    "edge {i} ({:?}-{:?}) has an endpoint out of bounds (|V| = {n})",
                    e.u, e.v
                )));
            }
            if e.u == e.v {
                return Err(InvariantViolation::new(format!(
                    "edge {i} is a self-loop on {:?}",
                    e.u
                )));
            }
            if e.u > e.v {
                return Err(InvariantViolation::new(format!(
                    "edge {i} ({:?}-{:?}) is not endpoint-normalised",
                    e.u, e.v
                )));
            }
            if !seen_pairs.insert((e.u, e.v)) {
                return Err(InvariantViolation::new(format!(
                    "duplicate undirected edge {i} ({:?}-{:?})",
                    e.u, e.v
                )));
            }
        }
        let mut incidence = vec![0usize; self.edges.len()];
        for v in 0..n {
            let vid = VertexId(v as u32);
            let mut local = std::collections::HashSet::with_capacity(self.adj[v].len());
            for &(w, eid) in &self.adj[v] {
                if w.index() >= n {
                    return Err(InvariantViolation::new(format!(
                        "adjacency of {vid:?} references out-of-bounds vertex {w:?}"
                    )));
                }
                let Some(&edge) = self.edges.get(eid.index()) else {
                    return Err(InvariantViolation::new(format!(
                        "adjacency of {vid:?} references out-of-bounds edge {eid:?}"
                    )));
                };
                if Edge::new(vid, w) != edge {
                    return Err(InvariantViolation::new(format!(
                        "adjacency entry ({vid:?}, {w:?}) disagrees with edge table entry \
                         {eid:?} = {:?}-{:?}",
                        edge.u, edge.v
                    )));
                }
                if !local.insert(w) {
                    return Err(InvariantViolation::new(format!(
                        "vertex {vid:?} lists neighbor {w:?} twice"
                    )));
                }
                incidence[eid.index()] += 1;
                if !self.adj[w.index()]
                    .iter()
                    .any(|&(x, xe)| x == vid && xe == eid)
                {
                    return Err(InvariantViolation::new(format!(
                        "asymmetric adjacency: {vid:?} lists ({w:?}, {eid:?}) but \
                         {w:?} does not list {vid:?}"
                    )));
                }
            }
        }
        if let Some(missing) = incidence.iter().position(|&c| c != 2) {
            return Err(InvariantViolation::new(format!(
                "edge e{missing} appears {} times in adjacency lists (expected 2)",
                incidence[missing]
            )));
        }
        Ok(())
    }

    /// Corruption helpers for invariant-validator tests. Each method
    /// deliberately breaks one representation invariant that
    /// [`Graph::validate`] must detect. Hidden from docs: test-only API.
    #[doc(hidden)]
    pub fn corrupt_for_test(&mut self, kind: CorruptionKind) {
        match kind {
            CorruptionKind::AsymmetricAdjacency => {
                // Drop the reverse adjacency entry of the first edge.
                if let Some(&Edge { u, v }) = self.edges.first() {
                    self.adj[v.index()].retain(|&(w, _)| w != u);
                }
            }
            CorruptionKind::EdgeOutOfBounds => {
                let n = self.labels.len() as u32;
                if let Some(e) = self.edges.first_mut() {
                    e.v = VertexId(n + 7);
                }
            }
            CorruptionKind::DuplicateEdge => {
                if let Some(&e) = self.edges.first() {
                    self.edges.push(e);
                }
            }
            CorruptionKind::LabelTableMismatch => {
                self.labels.pop();
            }
        }
    }
}

/// Which invariant [`Graph::corrupt_for_test`] breaks.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Remove one direction of an edge's adjacency entries.
    AsymmetricAdjacency,
    /// Point an edge endpoint past the vertex table.
    EdgeOutOfBounds,
    /// Append a second copy of an existing edge.
    DuplicateEdge,
    /// Shrink the label table below the adjacency table.
    LabelTableMismatch,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(|V|={}, |E|={}; V=[",
            self.vertex_count(),
            self.edge_count()
        )?;
        for v in self.vertices() {
            write!(f, "{}:{} ", v.0, self.label(v).0)?;
        }
        write!(f, "], E=[")?;
        for (_, e) in self.edges() {
            write!(f, "{}-{} ", e.u.0, e.v.0)?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    #[test]
    fn build_triangle() {
        let g = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.size(), 3);
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_self_loop_and_duplicate() {
        let mut g = Graph::new();
        let a = g.add_vertex(l(0));
        let b = g.add_vertex(l(1));
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop));
        g.add_edge(a, b).unwrap();
        assert_eq!(g.add_edge(b, a), Err(GraphError::DuplicateEdge));
        assert_eq!(g.add_edge(a, VertexId(9)), Err(GraphError::InvalidVertex));
    }

    #[test]
    fn edge_label_is_sorted_pair() {
        let g = Graph::from_parts(&[l(5), l(2)], &[(0, 1)]);
        let el = g.edge_label(EdgeId(0));
        assert_eq!(el, EdgeLabel::new(l(2), l(5)));
        assert_eq!(el.0, l(2));
    }

    #[test]
    fn induced_subgraph_keeps_inner_edges() {
        // path 0-1-2-3 plus chord 0-2
        let g = Graph::from_parts(&[l(0); 4], &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let (s, map) = g.induced_subgraph(&[VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(s.vertex_count(), 3);
        assert_eq!(s.edge_count(), 3); // 0-1, 1-2, 0-2
        assert!(map[3].is_none());
    }

    #[test]
    fn subgraph_from_edges_collects_endpoints() {
        let g = Graph::from_parts(&[l(0), l(1), l(2), l(3)], &[(0, 1), (1, 2), (2, 3)]);
        let s = g.subgraph_from_edges(&[EdgeId(0), EdgeId(2)]);
        assert_eq!(s.vertex_count(), 4);
        assert_eq!(s.edge_count(), 2);
    }

    #[test]
    fn invariant_signature_is_permutation_invariant() {
        let g1 = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
        let g2 = Graph::from_parts(&[l(2), l(1), l(0)], &[(2, 1), (1, 0)]);
        assert_eq!(g1.invariant_signature(), g2.invariant_signature());
        let g3 = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (0, 2)]);
        // Different structure: center label differs in (label, degree) pairs.
        assert_ne!(g1.invariant_signature(), g3.invariant_signature());
    }

    #[test]
    fn density_of_path() {
        let g = Graph::from_parts(&[l(0); 4], &[(0, 1), (1, 2), (2, 3)]);
        assert!((g.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_well_formed_graphs() {
        assert_eq!(Graph::new().validate(), Ok(()));
        let g = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_seeded_corruption() {
        for kind in [
            CorruptionKind::AsymmetricAdjacency,
            CorruptionKind::EdgeOutOfBounds,
            CorruptionKind::DuplicateEdge,
            CorruptionKind::LabelTableMismatch,
        ] {
            let mut g = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
            g.corrupt_for_test(kind);
            assert!(
                g.validate().is_err(),
                "validate() accepted a graph corrupted with {kind:?}"
            );
        }
    }

    #[test]
    fn validate_reports_non_normalised_edges() {
        let mut g = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        // Swap the stored endpoints: still symmetric, but un-normalised.
        g.edges[0] = Edge {
            u: VertexId(1),
            v: VertexId(0),
        };
        let err = g.validate().expect_err("must reject unsorted endpoints");
        assert!(err.message().contains("normalised"), "got: {err}");
    }

    #[test]
    fn edge_label_set_dedups() {
        let g = Graph::from_parts(&[l(0), l(1), l(1), l(1)], &[(0, 1), (2, 3), (1, 2)]);
        // labels: (0,1), (1,1), (1,1) → two distinct
        assert_eq!(g.edge_label_set().len(), 2);
    }
}
