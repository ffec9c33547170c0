//! Bitset adjacency matrices for the search kernels.
//!
//! The MCS and isomorphism kernels test `has_edge` in their innermost
//! loops; [`Graph`] answers it by scanning the shorter adjacency list,
//! which is O(degree) per probe. [`BitAdjacency`] is a dense row-per-vertex
//! bit matrix built once per search (O(|V|²/64) words, O(|V| + |E|) build
//! time) that answers the same query with one shift and mask. For the
//! molecule-scale graphs CATAPULT clusters (|V| ≤ ~60) a full row is one
//! cache line, so neighbor-set probes during backtracking stay in L1.

use crate::graph::{Graph, VertexId};

/// Dense adjacency bit matrix: row `v` holds one bit per vertex, set when
/// `(v, w)` is an edge. Rows are `stride` words long.
#[derive(Clone, Debug)]
pub struct BitAdjacency {
    words: Vec<u64>,
    stride: usize,
}

impl BitAdjacency {
    /// Build the bit matrix for `g`.
    pub fn new(g: &Graph) -> Self {
        let n = g.vertex_count();
        let stride = n.div_ceil(64);
        let mut words = vec![0u64; n * stride];
        for (_, e) in g.edges() {
            let (u, v) = (e.u.index(), e.v.index());
            words[u * stride + v / 64] |= 1u64 << (v % 64);
            words[v * stride + u / 64] |= 1u64 << (u % 64);
        }
        BitAdjacency { words, stride }
    }

    /// Whether `(u, v)` is an edge. Out-of-range vertices are non-adjacent.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (u, v) = (u.index(), v.index());
        match self.words.get(u * self.stride + v / 64) {
            Some(w) => (w >> (v % 64)) & 1 == 1,
            None => false,
        }
    }

    /// The neighbor-set row of `u` as bit words (empty if out of range).
    #[inline]
    pub fn row(&self, u: VertexId) -> &[u64] {
        let start = u.index() * self.stride;
        self.words.get(start..start + self.stride).unwrap_or(&[])
    }

    /// `|N(u) ∩ set|` for a vertex bitset `set` laid out like a row.
    #[inline]
    pub(crate) fn row_overlap(&self, u: VertexId, set: &[u64]) -> usize {
        self.row(u)
            .iter()
            .zip(set)
            .map(|(r, s)| (r & s).count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    #[test]
    fn matches_graph_has_edge() {
        let g = Graph::from_parts(
            &[Label(0), Label(1), Label(0), Label(2), Label(1)],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)],
        );
        let bits = BitAdjacency::new(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    bits.has_edge(u, v),
                    g.has_edge(u, v),
                    "mismatch at ({u:?}, {v:?})"
                );
            }
        }
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::new();
        let bits = BitAdjacency::new(&g);
        assert!(!bits.has_edge(VertexId(0), VertexId(1)));
        assert!(bits.row(VertexId(0)).is_empty());
    }

    #[test]
    fn wide_graph_crosses_word_boundaries() {
        // 70 vertices: rows span two words; edges land on both sides.
        let labels = vec![Label(0); 70];
        let edges: Vec<(u32, u32)> = vec![(0, 63), (0, 64), (63, 69), (1, 2)];
        let g = Graph::from_parts(&labels, &edges);
        let bits = BitAdjacency::new(&g);
        assert!(bits.has_edge(VertexId(0), VertexId(63)));
        assert!(bits.has_edge(VertexId(64), VertexId(0)));
        assert!(bits.has_edge(VertexId(69), VertexId(63)));
        assert!(!bits.has_edge(VertexId(2), VertexId(69)));
        // N(0) = {63, 64}; the set {1, 63, 64} meets it in both words.
        let set = [(1u64 << 1) | (1u64 << 63), 1u64];
        assert_eq!(bits.row_overlap(VertexId(0), &set), 2);
        assert_eq!(bits.row_overlap(VertexId(1), &set), 0);
    }
}
