//! Frequent sub**graph** mining — the baseline "F" of Exp 9 (App. C).
//!
//! The paper compares CATAPULT against canned patterns produced by the
//! gaston frequent-subgraph miner [30] at support thresholds {4%, 8%, 12%},
//! with `|F| = 30`, sizes in `[3, 12]` edges and at most `|F| / 10`
//! patterns per size. This module provides an equivalent pattern-growth
//! miner: frequent one-edge graphs are extended an edge at a time (pendant
//! vertex or cycle-closing edge), deduplicated by graph isomorphism, with
//! exact support counting restricted to the parent's transactions.

use catapult_graph::iso::{self, are_isomorphic_tagged, contains_tagged};
use catapult_graph::{Graph, Label, SearchBudget, VertexId};
use rayon::par_filter_map;
use std::collections::HashMap;

/// Mining parameters for the frequent-subgraph baseline.
#[derive(Clone, Copy, Debug)]
pub struct SubgraphMinerConfig {
    /// Minimum support as a fraction of `|D|`.
    pub min_support: f64,
    /// Maximum pattern size in edges.
    pub max_edges: usize,
    /// Safety cap on patterns carried between levels.
    pub max_patterns_per_level: usize,
}

impl Default for SubgraphMinerConfig {
    fn default() -> Self {
        SubgraphMinerConfig {
            min_support: 0.08,
            max_edges: 12,
            max_patterns_per_level: 500,
        }
    }
}

/// A mined frequent connected subgraph.
#[derive(Clone, Debug)]
pub struct FrequentSubgraph {
    /// The pattern graph.
    pub graph: Graph,
    /// Supporting transaction ids.
    pub transactions: Vec<u32>,
}

impl FrequentSubgraph {
    /// Absolute support count.
    pub fn support(&self) -> usize {
        self.transactions.len()
    }
}

fn frequent_labels(db: &[Graph], min_count: usize) -> Vec<Label> {
    let mut counts: HashMap<Label, usize> = HashMap::new();
    for g in db {
        let mut seen: Vec<Label> = g.labels().to_vec();
        seen.sort_unstable();
        seen.dedup();
        for l in seen {
            *counts.entry(l).or_insert(0) += 1;
        }
    }
    let mut out: Vec<Label> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_count)
        .map(|(l, _)| l)
        .collect();
    out.sort_unstable();
    out
}

/// Deduplicate candidates by isomorphism, bucketing on the cheap invariant
/// signature first.
struct IsoDedup {
    buckets: HashMap<u64, Vec<Graph>>,
}

impl IsoDedup {
    fn new() -> Self {
        IsoDedup {
            buckets: HashMap::new(),
        }
    }

    /// Returns true if `g` was new (inserted). A degraded isomorphism
    /// probe counts as "not isomorphic", so a duplicate may slip through
    /// — sound for mining (the duplicate's support is still correct) but
    /// not minimal.
    fn insert(&mut self, g: &Graph, probe: &SearchBudget) -> bool {
        let sig = g.invariant_signature();
        let bucket = self.buckets.entry(sig).or_default();
        let dup = bucket.iter().any(|h| {
            let (iso, c) = are_isomorphic_tagged(h, g, probe);
            iso && c.is_exact()
        });
        if dup {
            return false;
        }
        bucket.push(g.clone());
        true
    }
}

/// Support counting under `probe`: a degraded probe counts as "not
/// contained", so the result is a lower bound on true support.
fn count_support(
    db: &[Graph],
    candidates: &[u32],
    pattern: &Graph,
    probe: &SearchBudget,
) -> Vec<u32> {
    // Parallel audit: read-only captures; the shim's ordered collection
    // keeps the transaction list identical across thread counts.
    par_filter_map(candidates, |&i| {
        let (found, c) = contains_tagged(&db[i as usize], pattern, probe);
        (found && c.is_exact()).then_some(i)
    })
}

/// Enumerate all one-edge extensions of `g`: cycle-closing edges between
/// existing vertices and pendant edges to a new vertex with each label.
fn extensions(g: &Graph, labels: &[Label]) -> Vec<Graph> {
    let n = g.vertex_count() as u32;
    let mut out = Vec::new();
    // Close a cycle.
    for a in 0..n {
        for b in (a + 1)..n {
            if !g.has_edge(VertexId(a), VertexId(b)) {
                let mut h = g.clone();
                // `has_edge` ruled out a duplicate and `a < b < n` are in
                // bounds, so the edge insert cannot fail.
                if h.add_edge(VertexId(a), VertexId(b)).is_ok() {
                    out.push(h);
                }
            }
        }
    }
    // Pendant vertex.
    for a in 0..n {
        for &l in labels {
            let mut h = g.clone();
            let v = h.add_vertex(l);
            // `v` is a fresh vertex, so the pendant edge is always new.
            if h.add_edge(VertexId(a), v).is_ok() {
                out.push(h);
            }
        }
    }
    out
}

/// Mine frequent connected subgraphs of size 1..=`cfg.max_edges` edges.
///
/// Output is sorted by (size, descending support) and deterministic.
/// Every containment / isomorphism probe is capped at
/// [`iso::DEFAULT_NODE_CAP`] nodes; a probe that hits the cap counts as
/// "no match", so supports are lower bounds.
pub fn mine_frequent_subgraphs(db: &[Graph], cfg: &SubgraphMinerConfig) -> Vec<FrequentSubgraph> {
    let n = db.len();
    let min_count = ((cfg.min_support * n as f64).ceil() as usize).max(1);
    let labels = frequent_labels(db, min_count);
    let all: Vec<u32> = (0..n as u32).collect();
    let probe = SearchBudget::nodes(iso::DEFAULT_NODE_CAP);

    // Level 1: single edges.
    let mut dedup = IsoDedup::new();
    let mut level: Vec<FrequentSubgraph> = Vec::new();
    for (ai, &a) in labels.iter().enumerate() {
        for &b in &labels[ai..] {
            let g = Graph::from_parts(&[a, b], &[(0, 1)]);
            if !dedup.insert(&g, &probe) {
                continue;
            }
            let txs = count_support(db, &all, &g, &probe);
            if txs.len() >= min_count {
                level.push(FrequentSubgraph {
                    graph: g,
                    transactions: txs,
                });
            }
        }
    }

    let mut result: Vec<FrequentSubgraph> = Vec::new();
    let mut size = 1;
    while !level.is_empty() && size < cfg.max_edges {
        sort_level(&mut level);
        level.truncate(cfg.max_patterns_per_level);
        result.extend(level.iter().cloned());
        let mut dedup = IsoDedup::new();
        let mut next: Vec<FrequentSubgraph> = Vec::new();
        for parent in &level {
            for ext in extensions(&parent.graph, &labels) {
                if !dedup.insert(&ext, &probe) {
                    continue;
                }
                let txs = count_support(db, &parent.transactions, &ext, &probe);
                if txs.len() >= min_count {
                    next.push(FrequentSubgraph {
                        graph: ext,
                        transactions: txs,
                    });
                }
            }
        }
        level = next;
        size += 1;
    }
    sort_level(&mut level);
    level.truncate(cfg.max_patterns_per_level);
    result.extend(level);
    result.sort_by(|a, b| {
        (a.graph.edge_count(), std::cmp::Reverse(a.support()))
            .cmp(&(b.graph.edge_count(), std::cmp::Reverse(b.support())))
    });
    result
}

fn sort_level(level: &mut [FrequentSubgraph]) {
    level.sort_by(|a, b| {
        b.support().cmp(&a.support()).then_with(|| {
            a.graph
                .invariant_signature()
                .cmp(&b.graph.invariant_signature())
        })
    });
}

/// Select the paper's Exp-9 baseline set: up to `total` patterns with sizes
/// in `[min_edges, max_edges]`, at most `total / (max-min+1)` per size,
/// highest support first.
pub fn select_baseline_patterns(
    mined: &[FrequentSubgraph],
    total: usize,
    min_edges: usize,
    max_edges: usize,
) -> Vec<Graph> {
    let sizes = max_edges - min_edges + 1;
    let per_size = (total / sizes).max(1);
    let mut out = Vec::new();
    for size in min_edges..=max_edges {
        let mut of_size: Vec<&FrequentSubgraph> = mined
            .iter()
            .filter(|f| f.graph.edge_count() == size)
            .collect();
        of_size.sort_by_key(|f| std::cmp::Reverse(f.support()));
        out.extend(of_size.iter().take(per_size).map(|f| f.graph.clone()));
        if out.len() >= total {
            out.truncate(total);
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::iso::{are_isomorphic, contains};

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn triangle_db() -> Vec<Graph> {
        // 5 triangles (labels all C) + 3 paths.
        let mut db = Vec::new();
        for _ in 0..5 {
            db.push(Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2), (0, 2)]));
        }
        for _ in 0..3 {
            db.push(Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2)]));
        }
        db
    }

    #[test]
    fn finds_triangle_with_right_support() {
        let db = triangle_db();
        let mined = mine_frequent_subgraphs(
            &db,
            &SubgraphMinerConfig {
                min_support: 0.5,
                max_edges: 3,
                ..Default::default()
            },
        );
        let tri = mined
            .iter()
            .find(|f| f.graph.edge_count() == 3 && f.graph.vertex_count() == 3)
            .expect("triangle mined");
        assert_eq!(tri.support(), 5);
        // The 2-path is in all 8.
        let path2 = mined
            .iter()
            .find(|f| f.graph.edge_count() == 2)
            .expect("2-path mined");
        assert_eq!(path2.support(), 8);
    }

    #[test]
    fn support_threshold_filters() {
        let db = triangle_db();
        let mined = mine_frequent_subgraphs(
            &db,
            &SubgraphMinerConfig {
                min_support: 0.7,
                max_edges: 3,
                ..Default::default()
            },
        );
        // Triangle support 5/8 = 0.625 < 0.7 → excluded.
        assert!(mined
            .iter()
            .all(|f| f.graph.edge_count() < 3 || f.graph.vertex_count() > 3 || f.support() >= 6));
        assert!(!mined
            .iter()
            .any(|f| f.graph.edge_count() == 3 && f.graph.vertex_count() == 3));
    }

    #[test]
    fn no_isomorphic_duplicates() {
        let db = triangle_db();
        let mined = mine_frequent_subgraphs(
            &db,
            &SubgraphMinerConfig {
                min_support: 0.3,
                max_edges: 3,
                ..Default::default()
            },
        );
        for i in 0..mined.len() {
            for j in (i + 1)..mined.len() {
                assert!(
                    !are_isomorphic(&mined[i].graph, &mined[j].graph),
                    "duplicates at {i},{j}"
                );
            }
        }
    }

    #[test]
    fn baseline_selection_respects_quota() {
        let db = triangle_db();
        let mined = mine_frequent_subgraphs(
            &db,
            &SubgraphMinerConfig {
                min_support: 0.3,
                max_edges: 3,
                ..Default::default()
            },
        );
        let sel = select_baseline_patterns(&mined, 4, 2, 3);
        assert!(sel.len() <= 4);
        assert!(sel.iter().all(|g| (2..=3).contains(&g.edge_count())));
        // per-size quota = 4/2 = 2
        for size in 2..=3 {
            assert!(sel.iter().filter(|g| g.edge_count() == size).count() <= 2);
        }
    }

    #[test]
    fn patterns_really_occur() {
        let db = triangle_db();
        let mined = mine_frequent_subgraphs(
            &db,
            &SubgraphMinerConfig {
                min_support: 0.3,
                max_edges: 3,
                ..Default::default()
            },
        );
        for f in &mined {
            for &i in &f.transactions {
                assert!(contains(&db[i as usize], &f.graph));
            }
        }
    }
}
