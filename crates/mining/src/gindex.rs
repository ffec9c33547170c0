//! Filter–verify subgraph search over the repository.
//!
//! The paper's setting (§1) is *subgraph search*: retrieve the data graphs
//! containing a user query. Visual interfaces formulate the query; this
//! module executes it, with the classic feature-index design (gIndex [36]
//! family): frequent subtrees mined from the repository act as filter
//! features — any data graph containing `q` must contain every indexed
//! feature of `q` — so candidate sets come from bitset intersections and
//! only candidates are verified with VF2.

use crate::subtree::{mine_frequent_subtrees, FrequentSubtree, SubtreeMinerConfig};
use catapult_graph::iso::{contains, for_each_embedding, MatchOptions};
use catapult_graph::{Graph, SearchBudget};
use std::ops::ControlFlow;

/// A subgraph-search index over a fixed repository snapshot.
#[derive(Clone, Debug)]
pub struct GraphIndex {
    features: Vec<FrequentSubtree>,
    /// Per feature: bitset over graph ids containing it.
    feature_bits: Vec<Vec<u64>>,
    blocks: usize,
    db_size: usize,
}

/// Search statistics (for the filter-power diagnostics in examples).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates surviving the filter.
    pub candidates: usize,
    /// Candidates confirmed by VF2.
    pub answers: usize,
    /// Index features contained in the query (used for filtering).
    pub features_used: usize,
}

impl GraphIndex {
    /// Build the index: mine frequent subtree features and record their
    /// transaction bitsets.
    pub fn build(db: &[Graph], miner: &SubtreeMinerConfig) -> Self {
        let features = mine_frequent_subtrees(db, miner);
        let blocks = db.len().div_ceil(64);
        let feature_bits = features
            .iter()
            .map(|f| {
                let mut bits = vec![0u64; blocks];
                for &i in &f.transactions {
                    bits[i as usize / 64] |= 1u64 << (i % 64);
                }
                bits
            })
            .collect();
        GraphIndex {
            features,
            feature_bits,
            blocks,
            db_size: db.len(),
        }
    }

    /// Number of indexed features.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Candidate graph ids for query `q`: graphs containing every indexed
    /// feature that `q` contains. Complete (never drops an answer) by the
    /// anti-monotonicity of containment.
    pub fn candidates(&self, q: &Graph) -> (Vec<u32>, usize) {
        let mut acc = vec![u64::MAX; self.blocks];
        // Trim the last block to the db size.
        if self.blocks > 0 {
            let rem = self.db_size % 64;
            if rem != 0 {
                acc[self.blocks - 1] = (1u64 << rem) - 1;
            }
        }
        let mut used = 0;
        for (f, bits) in self.features.iter().zip(&self.feature_bits) {
            // Feature pruning: only features at most as large as q can be
            // contained; check cheap bounds before VF2.
            if f.tree.edge_count() > q.edge_count() || f.tree.vertex_count() > q.vertex_count() {
                continue;
            }
            // Degradation here is graceful by construction: a budget-tripped
            // probe reports the feature absent, which only skips one bitset
            // intersection — the candidate set grows but never drops a true
            // answer, so the filter stays complete and the completeness tag
            // is deliberately advisory.
            let in_q = for_each_embedding(
                q,
                &f.tree,
                MatchOptions {
                    max_embeddings: 1,
                    budget: SearchBudget::nodes(100_000),
                    ..MatchOptions::default()
                },
                |_| ControlFlow::Break(()),
            )
            .embeddings
                > 0;
            if in_q {
                used += 1;
                for (a, &b) in acc.iter_mut().zip(bits) {
                    *a &= b;
                }
            }
        }
        let mut out = Vec::new();
        for (bi, &block) in acc.iter().enumerate() {
            let mut b = block;
            while b != 0 {
                let bit = b.trailing_zeros();
                out.push((bi * 64) as u32 + bit);
                b &= b - 1;
            }
        }
        (out, used)
    }

    /// Full filter–verify search: the ids of data graphs containing `q`.
    pub fn search(&self, db: &[Graph], q: &Graph) -> (Vec<u32>, SearchStats) {
        let (candidates, features_used) = self.candidates(q);
        let answers: Vec<u32> = candidates
            .iter()
            .copied()
            // Verification runs under the default 10M-node cap; interactive
            // queries (§1) are small enough that it never trips in practice.
            .filter(|&i| contains(&db[i as usize], q)) // xtask-allow: budget-threading
            .collect();
        let stats = SearchStats {
            candidates: candidates.len(),
            answers: answers.len(),
            features_used,
        };
        (answers, stats)
    }
}

/// Reference implementation: scan every graph (used by tests and as the
/// no-index baseline).
pub fn scan_search(db: &[Graph], q: &Graph) -> Vec<u32> {
    (0..db.len() as u32)
        // Test/baseline oracle — intentionally mirrors `search`'s verify.
        .filter(|&i| contains(&db[i as usize], q)) // xtask-allow: budget-threading
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::{Label, VertexId};

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn ring(n: u32, label: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(Label(label));
        }
        for i in 0..n {
            g.add_edge(VertexId(i), VertexId((i + 1) % n)).unwrap();
        }
        g
    }

    fn chain(n: u32, labels: &[u32]) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.add_vertex(Label(labels[i as usize % labels.len()]));
        }
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
        }
        g
    }

    fn db() -> Vec<Graph> {
        let mut db = Vec::new();
        for _ in 0..5 {
            db.push(ring(6, 0));
        }
        for _ in 0..5 {
            db.push(chain(6, &[0, 1]));
        }
        db
    }

    fn index(db: &[Graph]) -> GraphIndex {
        GraphIndex::build(
            db,
            &SubtreeMinerConfig {
                min_support: 0.2,
                max_edges: 3,
                ..Default::default()
            },
        )
    }

    #[test]
    fn search_matches_scan() {
        let db = db();
        let idx = index(&db);
        let queries = [
            chain(3, &[0, 1]),
            chain(4, &[0]),
            ring(6, 0),
            Graph::from_parts(&[l(0), l(2)], &[(0, 1)]), // label 2 nowhere
        ];
        for q in &queries {
            let (answers, stats) = idx.search(&db, q);
            assert_eq!(answers, scan_search(&db, q), "query {q:?}");
            assert!(stats.answers <= stats.candidates);
        }
    }

    #[test]
    fn filter_is_complete_and_prunes() {
        let db = db();
        let idx = index(&db);
        assert!(idx.feature_count() > 0);
        // A query only chains contain: candidates must exclude some rings
        // but include every true answer.
        let q = chain(4, &[0, 1]);
        let (cands, used) = idx.candidates(&q);
        let answers = scan_search(&db, &q);
        for a in &answers {
            assert!(cands.contains(a), "filter dropped answer {a}");
        }
        assert!(used > 0, "no features used");
        assert!(cands.len() < db.len(), "filter pruned nothing");
    }

    #[test]
    fn empty_repository() {
        let idx = index(&[]);
        let (answers, stats) = idx.search(&[], &chain(3, &[0]));
        assert!(answers.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn query_larger_than_everything() {
        let db = db();
        let idx = index(&db);
        let q = chain(40, &[0, 1]);
        let (answers, _) = idx.search(&db, &q);
        assert!(answers.is_empty());
    }
}
