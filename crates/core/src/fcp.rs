//! Final candidate pattern (FCP) assembly from a PCP library (§5, Fig. 6c).
//!
//! The FCP starts from the most frequent edge across the library's walks
//! and is grown one edge at a time, always taking the most frequent
//! library edge that keeps the pattern connected, until the target size is
//! reached or no connected frequent edge remains.

use crate::walk::Pcp;
use catapult_csg::Csg;
use catapult_graph::{EdgeId, Graph};
use std::cmp::Reverse;

/// Count how often each CSG edge occurs across the library (Fig. 6c's
/// `Freq` table), indexed by edge id over a CSG of `edge_count` edges.
/// Ids outside the CSG are ignored.
pub fn edge_frequencies(library: &[Pcp], edge_count: usize) -> Vec<usize> {
    let mut freq = vec![0usize; edge_count];
    for &e in library.iter().flatten() {
        if let Some(c) = freq.get_mut(e.index()) {
            *c += 1;
        }
    }
    freq
}

/// The most frequent library edge passing `eligible`: the argmax of the
/// total key `(count, Reverse(id))`, so ties go to the lowest edge id.
/// Edges the library never visited are not candidates.
fn most_frequent(freq: &[usize], eligible: impl Fn(EdgeId) -> bool) -> Option<EdgeId> {
    freq.iter()
        .zip((0..=u32::MAX).map(EdgeId))
        .filter(|&(&c, e)| c > 0 && eligible(e))
        .max_by_key(|&(&c, e)| (c, Reverse(e.0)))
        .map(|(_, e)| e)
}

/// Assemble the FCP of `target_edges` edges from the walk library.
///
/// Returns the pattern as a standalone graph (extracted from the CSG) plus
/// the CSG edge ids it uses, or `None` for an empty library. May return a
/// pattern smaller than requested when the library's connected frequent
/// region is exhausted.
pub fn generate_fcp(
    csg: &Csg,
    library: &[Pcp],
    target_edges: usize,
) -> Option<(Graph, Vec<EdgeId>)> {
    if target_edges == 0 {
        return None;
    }
    let g = &csg.graph;
    let freq = edge_frequencies(library, g.edge_count());
    let first = most_frequent(&freq, |_| true)?;
    let mut chosen = vec![first];
    let mut in_pattern = vec![false; g.edge_count()];
    let mut in_vertices = vec![false; g.vertex_count()];
    let mark = |eid: EdgeId, in_pattern: &mut [bool], in_vertices: &mut [bool]| {
        in_pattern[eid.index()] = true;
        let e = g.edge(eid);
        in_vertices[e.u.index()] = true;
        in_vertices[e.v.index()] = true;
    };
    mark(first, &mut in_pattern, &mut in_vertices);

    while chosen.len() < target_edges {
        // Most frequent library edge connected to the current pattern.
        let next = most_frequent(&freq, |eid| {
            if in_pattern[eid.index()] {
                return false;
            }
            let e = g.edge(eid);
            in_vertices[e.u.index()] || in_vertices[e.v.index()]
        });
        match next {
            Some(eid) => {
                mark(eid, &mut in_pattern, &mut in_vertices);
                chosen.push(eid);
            }
            None => break,
        }
    }
    Some((g.subgraph_from_edges(&chosen), chosen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_csg::{build_csgs, EdgeLabelWeights, WeightedCsg};
    use catapult_graph::components::is_connected;
    use catapult_graph::{Graph, Label};
    use catapult_mining::EdgeLabelStats;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn star_csg() -> (Vec<Graph>, Vec<Csg>) {
        let db = vec![
            Graph::from_parts(&[l(0), l(1), l(2), l(3)], &[(0, 1), (0, 2), (0, 3)]),
            Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (0, 2)]),
        ];
        let csgs = build_csgs(&db, &[vec![0, 1]]);
        (db, csgs)
    }

    #[test]
    fn fcp_prefers_frequent_edges() {
        let (_, csgs) = star_csg();
        // A hand-built library where edge 0 dominates, then edge 1.
        let library: Vec<Pcp> = vec![
            vec![EdgeId(0), EdgeId(1)],
            vec![EdgeId(0), EdgeId(1)],
            vec![EdgeId(0), EdgeId(2)],
        ];
        let (fcp, chosen) = generate_fcp(&csgs[0], &library, 2).unwrap();
        assert_eq!(chosen[0], EdgeId(0));
        assert_eq!(chosen[1], EdgeId(1));
        assert_eq!(fcp.edge_count(), 2);
    }

    #[test]
    fn fcp_is_connected() {
        let (db, csgs) = star_csg();
        let elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(&db));
        let w = WeightedCsg::new(&csgs[0], &elw);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let lib = crate::walk::generate_library(&w, 3, 50, &mut rng);
        let (fcp, _) = generate_fcp(&csgs[0], &lib, 3).unwrap();
        assert!(is_connected(&fcp));
        assert!(fcp.edge_count() <= 3);
    }

    #[test]
    fn empty_library_yields_none() {
        let (_, csgs) = star_csg();
        assert!(generate_fcp(&csgs[0], &[], 3).is_none());
    }

    #[test]
    fn fcp_capped_by_connected_region() {
        let (_, csgs) = star_csg();
        // Library only ever saw one edge.
        let library: Vec<Pcp> = vec![vec![EdgeId(2)]];
        let (fcp, chosen) = generate_fcp(&csgs[0], &library, 5).unwrap();
        assert_eq!(chosen.len(), 1);
        assert_eq!(fcp.edge_count(), 1);
    }

    #[test]
    fn frequencies_count_multiplicity() {
        let library: Vec<Pcp> = vec![vec![EdgeId(0)], vec![EdgeId(0), EdgeId(1)]];
        let f = edge_frequencies(&library, 3);
        assert_eq!(f, vec![2, 1, 0]);
    }
}
