//! Property-based tests over the mining substrates: support
//! anti-monotonicity, miner/scan agreement, index completeness, and
//! facility-location bounds on generated repositories.

// Integration tests may use panicking shortcuts freely; the workspace
// no-panic policy targets library production code only.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use catapult::graph::iso::contains;
use catapult::graph::{Graph, SearchBudget, Tally};
use catapult::mining::{
    gindex::{scan_search, GraphIndex},
    subgraph::{mine_frequent_subgraphs, select_baseline_patterns, SubgraphMinerConfig},
    subtree::{feature_vector, mine_frequent_subtrees, SubtreeMinerConfig},
};
use catapult::{datasets, eval};
use proptest::prelude::*;

fn repo(seed: u64, count: usize) -> Vec<Graph> {
    datasets::generate(&datasets::emol_profile(), count, seed).graphs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn subtree_supports_are_exact_and_antimonotone(seed in 0u64..500) {
        let db = repo(seed, 10);
        let cfg = SubtreeMinerConfig {
            min_support: 0.3,
            max_edges: 3,
            ..Default::default()
        };
        let mined = mine_frequent_subtrees(&db, &cfg);
        let min_count = (0.3f64 * db.len() as f64).ceil() as usize;
        for t in &mined {
            // Exactness: every claimed transaction contains the tree, and
            // no other graph does.
            prop_assert!(t.support() >= min_count);
            let real: Vec<u32> = (0..db.len() as u32)
                .filter(|&i| contains(&db[i as usize], &t.tree))
                .collect();
            prop_assert_eq!(&real, &t.transactions);
        }
        // Anti-monotonicity: every 2-edge subtree's support is ≤ the
        // support of each of its 1-edge subtrees (checked via containment).
        for big in mined.iter().filter(|t| t.tree.edge_count() == 2) {
            for small in mined.iter().filter(|t| t.tree.edge_count() == 1) {
                if contains(&big.tree, &small.tree) {
                    prop_assert!(big.support() <= small.support());
                }
            }
        }
    }

    #[test]
    fn subgraph_miner_agrees_with_direct_counting(seed in 0u64..500) {
        let db = repo(seed, 8);
        let mined = mine_frequent_subgraphs(
            &db,
            &SubgraphMinerConfig {
                min_support: 0.4,
                max_edges: 3,
                ..Default::default()
            },
        );
        for f in &mined {
            let real: Vec<u32> = (0..db.len() as u32)
                .filter(|&i| contains(&db[i as usize], &f.graph))
                .collect();
            prop_assert_eq!(&real, &f.transactions);
        }
        // Baseline selection honours the per-size quota.
        let sel = select_baseline_patterns(&mined, 6, 1, 3);
        prop_assert!(sel.len() <= 6);
        for size in 1..=3usize {
            prop_assert!(sel.iter().filter(|g| g.edge_count() == size).count() <= 2);
        }
    }

    #[test]
    fn index_search_equals_scan(seed in 0u64..500) {
        let db = repo(seed, 12);
        let index = GraphIndex::build(
            &db,
            &SubtreeMinerConfig {
                min_support: 0.25,
                max_edges: 2,
                ..Default::default()
            },
        );
        let queries = datasets::random_queries(&db, 6, (2, 10), seed ^ 3);
        for q in &queries {
            let (answers, stats) = index.search(&db, q);
            prop_assert_eq!(answers.clone(), scan_search(&db, q));
            prop_assert!(stats.answers <= stats.candidates);
            prop_assert!(stats.candidates <= db.len());
            // Completeness: the candidate set is a superset of the answers.
            let (cands, _) = index.candidates(q);
            for a in &answers {
                prop_assert!(cands.contains(a));
            }
        }
    }

    #[test]
    fn feature_vectors_match_containment(seed in 0u64..500) {
        let db = repo(seed, 8);
        let mined = mine_frequent_subtrees(
            &db,
            &SubtreeMinerConfig {
                min_support: 0.3,
                max_edges: 2,
                ..Default::default()
            },
        );
        for (i, g) in db.iter().enumerate() {
            let fv = feature_vector(g, &mined, &SearchBudget::unbounded(), &Tally::new());
            for (j, t) in mined.iter().enumerate() {
                prop_assert_eq!(fv[j], t.transactions.contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn basic_patterns_rank_consistently(seed in 0u64..500) {
        let db = repo(seed, 8);
        let top = eval::basic::top_basic_patterns(&db, 10);
        for b in &top {
            prop_assert!(eval::basic::verify_support(&db, b));
        }
        for w in top.windows(2) {
            prop_assert!(w[0].support >= w[1].support);
        }
    }
}
