//! Basic patterns (the §3.2 remark / [23]).
//!
//! Canned patterns have size ≥ 3 edges; *basic patterns* — labeled edges
//! and 2-paths — are provided separately on the GUI and "computed after
//! the generation of canned patterns. Specifically, … select top-m basic
//! patterns based on their support." This module mines exactly those.

use catapult_graph::iso::contains;
use catapult_graph::{Graph, Label};
use std::collections::BTreeMap;

/// A basic pattern with its support.
#[derive(Clone, Debug)]
pub struct BasicPattern {
    /// The pattern: one labeled edge or one labeled 2-path.
    pub pattern: Graph,
    /// Number of data graphs containing it.
    pub support: usize,
}

/// Distinct labeled 2-paths `a–b–c` (unordered ends) present in `g`.
fn two_paths_of(g: &Graph) -> Vec<(Label, Label, Label)> {
    let mut out = Vec::new();
    for mid in g.vertices() {
        let nbrs = g.neighbors(mid);
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                let (a, c) = (g.label(nbrs[i].0), g.label(nbrs[j].0));
                let (a, c) = if a <= c { (a, c) } else { (c, a) };
                out.push((a, g.label(mid), c));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Mine the top-`m` basic patterns of `db` by support: labeled edges and
/// labeled 2-paths, ranked together, deterministic tie-break on labels.
pub fn top_basic_patterns(db: &[Graph], m: usize) -> Vec<BasicPattern> {
    // BTreeMaps, deliberately: the ranking below breaks support ties on
    // (sorted_labels, edge_count), which does NOT distinguish the two
    // orientations of an asymmetric 2-path — hash iteration order would
    // leak straight through `truncate(m)`.
    let mut edge_support: BTreeMap<(Label, Label), usize> = BTreeMap::new();
    let mut path_support: BTreeMap<(Label, Label, Label), usize> = BTreeMap::new();
    for g in db {
        for el in g.edge_label_set() {
            *edge_support.entry((el.0, el.1)).or_insert(0) += 1;
        }
        for p in two_paths_of(g) {
            *path_support.entry(p).or_insert(0) += 1;
        }
    }
    let mut all: Vec<BasicPattern> = Vec::new();
    for ((a, b), support) in edge_support {
        all.push(BasicPattern {
            pattern: Graph::from_parts(&[a, b], &[(0, 1)]),
            support,
        });
    }
    for ((a, mid, c), support) in path_support {
        all.push(BasicPattern {
            pattern: Graph::from_parts(&[a, mid, c], &[(0, 1), (1, 2)]),
            support,
        });
    }
    all.sort_by(|x, y| {
        y.support
            .cmp(&x.support)
            .then_with(|| x.pattern.sorted_labels().cmp(&y.pattern.sorted_labels()))
            .then_with(|| x.pattern.edge_count().cmp(&y.pattern.edge_count()))
    });
    all.truncate(m);
    all
}

/// Sanity helper: verify each basic pattern's support by isomorphism.
pub fn verify_support(db: &[Graph], basic: &BasicPattern) -> bool {
    // Offline sanity check under the default 10M-node cap; a tripped
    // probe can only undercount, which this helper reports as a failure.
    let count = db.iter().filter(|g| contains(g, &basic.pattern)).count(); // xtask-allow: budget-threading
    count == basic.support
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn db() -> Vec<Graph> {
        vec![
            // C-O-C path
            Graph::from_parts(&[l(0), l(1), l(0)], &[(0, 1), (1, 2)]),
            // C-O edge
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
            // C-C-N path
            Graph::from_parts(&[l(0), l(0), l(2)], &[(0, 1), (1, 2)]),
        ]
    }

    #[test]
    fn edges_and_paths_are_ranked_by_support() {
        let db = db();
        let top = top_basic_patterns(&db, 3);
        // C-O edge has support 2, the best of all basic patterns.
        assert_eq!(top[0].pattern.edge_count(), 1);
        assert_eq!(top[0].support, 2);
        for b in &top {
            assert!(b.pattern.edge_count() <= 2);
            assert!(
                verify_support(&db, b),
                "support mismatch for {:?}",
                b.pattern
            );
        }
    }

    #[test]
    fn two_paths_capture_middle_label() {
        let g = Graph::from_parts(&[l(0), l(1), l(0)], &[(0, 1), (1, 2)]);
        let ps = two_paths_of(&g);
        assert_eq!(ps, vec![(l(0), l(1), l(0))]);
    }

    #[test]
    fn star_centre_generates_pairs() {
        // Star C(-O)(-N): 2-paths O-C-N.
        let g = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (0, 2)]);
        let ps = two_paths_of(&g);
        assert_eq!(ps, vec![(l(1), l(0), l(2))]);
    }

    #[test]
    fn m_truncates() {
        let db = db();
        assert_eq!(top_basic_patterns(&db, 2).len(), 2);
        assert!(top_basic_patterns(&[], 5).is_empty());
    }
}
