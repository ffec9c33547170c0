//! Frequent subtree mining (§4.1, [10]).
//!
//! Coarse clustering uses *frequent subtrees* as feature vectors: compared
//! to frequent graphs they describe the crucial topology of the data graphs
//! at a much lower mining cost (paper footnote 8).
//!
//! The miner is a level-wise pattern-growth enumeration: frequent one-edge
//! trees are grown by attaching one frequent-labeled leaf at a time, with
//! candidate deduplication via the Fig. 5 canonical form and support
//! counting by (non-induced) subgraph isomorphism restricted to the parent
//! pattern's supporting transactions (support is anti-monotone, so this is
//! exact). Completeness follows from the leaf-removal argument: every
//! frequent tree of size k+1 contains a frequent tree of size k obtained by
//! deleting a leaf.

use catapult_graph::canonical::{canonical_tokens, CanonTokens};
use catapult_graph::iso::{self, contains_prepared, contains_tagged, PreparedGraph};
use catapult_graph::{Completeness, Graph, Label, SearchBudget, TallyCounts};
use std::collections::HashMap;

/// Mining parameters.
#[derive(Clone, Copy, Debug)]
pub struct SubtreeMinerConfig {
    /// Minimum support as a fraction of `|D|` (the paper's `min_fr`).
    pub min_support: f64,
    /// Maximum tree size in edges.
    pub max_edges: usize,
    /// Safety cap on the number of frequent trees kept per level.
    pub max_patterns_per_level: usize,
}

impl Default for SubtreeMinerConfig {
    fn default() -> Self {
        SubtreeMinerConfig {
            min_support: 0.1,
            max_edges: 4,
            max_patterns_per_level: 2_000,
        }
    }
}

/// A mined frequent subtree.
#[derive(Clone, Debug)]
pub struct FrequentSubtree {
    /// The tree itself.
    pub tree: Graph,
    /// Its canonical token stream (Fig. 5), used for dedup and the
    /// facility-location similarity.
    pub canonical: CanonTokens,
    /// Ids (indices into `D`) of the graphs containing it.
    pub transactions: Vec<u32>,
}

impl FrequentSubtree {
    /// Absolute support count.
    pub fn support(&self) -> usize {
        self.transactions.len()
    }
}

/// Frequent vertex labels with their supporting transactions.
fn frequent_labels(db: &[Graph], min_count: usize) -> Vec<Label> {
    let mut txs: HashMap<Label, usize> = HashMap::new();
    for g in db {
        let mut seen: Vec<Label> = g.labels().to_vec();
        seen.sort_unstable();
        seen.dedup();
        for l in seen {
            *txs.entry(l).or_insert(0) += 1;
        }
    }
    let mut out: Vec<Label> = txs
        .into_iter()
        .filter(|&(_, c)| c >= min_count)
        .map(|(l, _)| l)
        .collect();
    out.sort_unstable();
    out
}

/// Count the transactions (restricted to `candidates`) containing `tree`,
/// recording each containment probe's completeness into `tally`. `db` is
/// the database prepared once per mining run; the tree is prepared once
/// here. `probe`'s node cap applies as given, so resolve its default first
/// (`probe.with_default_cap`). A degraded probe reports "not contained",
/// so under budget pressure the returned support is a *lower bound*
/// (frequent trees may be missed, but every reported transaction
/// genuinely contains the tree).
///
/// The probes run in `candidates` order on the calling thread: one
/// candidate tree's support count is too small to pay for a fan-out of
/// its own. Callers that count many trees at once (the eager-sampling
/// recount) fan out over the trees instead.
pub fn count_support(
    db: &[PreparedGraph],
    candidates: &[u32],
    tree: &Graph,
    probe: &SearchBudget,
    tally: &mut TallyCounts,
) -> Vec<u32> {
    let tree = PreparedGraph::new(tree);
    candidates
        .iter()
        .copied()
        .filter(|&i| {
            let (found, c) = contains_prepared(&db[i as usize], &tree, probe);
            tally.record(c);
            found
        })
        .collect()
}

/// Result of a budgeted frequent-subtree mining run.
#[derive(Clone, Debug)]
pub struct SubtreeMiningOutcome {
    /// The mined frequent subtrees (sorted by size, then canonical form).
    pub subtrees: Vec<FrequentSubtree>,
    /// Number of candidate trees whose support was counted.
    pub candidates_counted: usize,
    /// Per-probe completeness of the underlying isomorphism kernel calls.
    pub kernel: TallyCounts,
    /// Overall completeness: `Exact` when every support count is exact;
    /// otherwise the worst degradation observed.
    /// Degraded results are still sound (every reported subtree is frequent
    /// among the transactions listed) but may be incomplete.
    pub completeness: Completeness,
}

/// Mine frequent subtrees from `db`.
///
/// Returns subtrees of size 1..=`cfg.max_edges` edges, each with its exact
/// supporting transaction list. The result is sorted by (size, canonical
/// form) so output order is deterministic. Unbudgeted convenience wrapper
/// around [`mine_subtrees`]; completeness is swallowed (under the default
/// per-probe cap, exact for all realistic inputs).
pub fn mine_frequent_subtrees(db: &[Graph], cfg: &SubtreeMinerConfig) -> Vec<FrequentSubtree> {
    mine_subtrees(db, cfg, &SearchBudget::unbounded()).subtrees
}

/// Budgeted frequent-subtree mining: the level-wise pattern-growth miner
/// with every containment probe under `budget`.
///
/// The per-probe node cap is `budget`'s own when it has one;
/// [`iso::DEFAULT_NODE_CAP`] (10M) applies only to an unbounded budget.
/// Under `run_catapult` the clustering phase passes its shared budget,
/// whose default cap is fine clustering's 100k, so every mining probe is
/// capped at 100k there.
pub fn mine_subtrees(
    db: &[Graph],
    cfg: &SubtreeMinerConfig,
    budget: &SearchBudget,
) -> SubtreeMiningOutcome {
    let n = db.len();
    let min_count = ((cfg.min_support * n as f64).ceil() as usize).max(1);
    let labels = frequent_labels(db, min_count);
    let mut candidates_counted = 0usize;
    let mut kernel = TallyCounts::default();
    let probe = budget.with_default_cap(iso::DEFAULT_NODE_CAP);
    let prepared: Vec<PreparedGraph> = db.iter().map(PreparedGraph::new).collect();

    // Level 1: one-edge trees over frequent label pairs.
    let mut level: Vec<FrequentSubtree> = Vec::new();
    let all: Vec<u32> = (0..n as u32).collect();
    for (ai, &a) in labels.iter().enumerate() {
        for &b in &labels[ai..] {
            let tree = Graph::from_parts(&[a, b], &[(0, 1)]);
            candidates_counted += 1;
            let txs = count_support(&prepared, &all, &tree, &probe, &mut kernel);
            if txs.len() >= min_count {
                level.push(FrequentSubtree {
                    canonical: canonical_tokens(&tree),
                    tree,
                    transactions: txs,
                });
            }
        }
    }

    let mut result: Vec<FrequentSubtree> = Vec::new();
    let mut size = 1;
    while !level.is_empty() && size < cfg.max_edges {
        level.truncate(cfg.max_patterns_per_level);
        result.extend(level.iter().cloned());
        // Grow each tree by one leaf in every position × frequent label.
        let mut next: HashMap<CanonTokens, FrequentSubtree> = HashMap::new();
        for parent in &level {
            for v in parent.tree.vertices() {
                for &l in &labels {
                    let mut t = parent.tree.clone();
                    let leaf = t.add_vertex(l);
                    // `leaf` is fresh, so this edge cannot duplicate.
                    if t.add_edge(v, leaf).is_err() {
                        continue;
                    }
                    let canon = canonical_tokens(&t);
                    if next.contains_key(&canon) {
                        continue;
                    }
                    candidates_counted += 1;
                    let txs =
                        count_support(&prepared, &parent.transactions, &t, &probe, &mut kernel);
                    if txs.len() >= min_count {
                        next.insert(
                            canon.clone(),
                            FrequentSubtree {
                                tree: t,
                                canonical: canon,
                                transactions: txs,
                            },
                        );
                    }
                }
            }
        }
        let mut next: Vec<FrequentSubtree> = next.into_values().collect();
        next.sort_by(|a, b| a.canonical.cmp(&b.canonical));
        level = next;
        size += 1;
    }
    level.truncate(cfg.max_patterns_per_level);
    result.extend(level);
    result.sort_by(|a, b| {
        (a.tree.edge_count(), &a.canonical).cmp(&(b.tree.edge_count(), &b.canonical))
    });
    // Miner-level observability (beyond the per-probe kernel counters the
    // meters flush themselves): candidate trees tried, levels completed,
    // and frequent trees kept.
    budget
        .probe
        .add("subtree", "candidates", candidates_counted as u64);
    budget.probe.add("subtree", "levels", size as u64);
    budget.probe.add("subtree", "frequent", result.len() as u64);
    SubtreeMiningOutcome {
        subtrees: result,
        candidates_counted,
        kernel,
        completeness: kernel.worst(),
    }
}

/// Binary feature vector of `g` over the mined subtree set: bit `j` is set
/// iff `g` contains `subtrees[j]` (Algorithm 2, lines 3–10). Each
/// containment probe runs under `budget` and records its completeness into
/// `tally`; a degraded probe leaves the bit unset, so degraded feature
/// vectors under-approximate containment.
pub fn feature_vector(
    g: &Graph,
    subtrees: &[FrequentSubtree],
    budget: &SearchBudget,
    tally: &mut TallyCounts,
) -> Vec<bool> {
    subtrees
        .iter()
        .map(|t| {
            let (found, c) = contains_tagged(g, &t.tree, budget);
            tally.record(c);
            found
        })
        .collect()
}

/// Feature vectors for a whole database, using the miners' transaction
/// lists (exact and cheaper than re-running isomorphism).
pub fn feature_matrix(n: usize, subtrees: &[FrequentSubtree]) -> Vec<Vec<bool>> {
    let mut m = vec![vec![false; subtrees.len()]; n];
    for (j, t) in subtrees.iter().enumerate() {
        for &i in &t.transactions {
            if let Some(row) = m.get_mut(i as usize) {
                row[j] = true;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_graph::iso::contains;
    use catapult_graph::VertexId;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn db_paths_and_stars() -> Vec<Graph> {
        // 4 paths C-O-C and 2 stars C(-O)(-O)(-O) plus 2 singleton-ish edges.
        let mut db = Vec::new();
        for _ in 0..4 {
            db.push(Graph::from_parts(&[l(0), l(1), l(0)], &[(0, 1), (1, 2)]));
        }
        for _ in 0..2 {
            db.push(Graph::from_parts(
                &[l(0), l(1), l(1), l(1)],
                &[(0, 1), (0, 2), (0, 3)],
            ));
        }
        for _ in 0..2 {
            db.push(Graph::from_parts(&[l(0), l(0)], &[(0, 1)]));
        }
        db
    }

    #[test]
    fn one_edge_trees_have_exact_support() {
        let db = db_paths_and_stars();
        let cfg = SubtreeMinerConfig {
            min_support: 0.2,
            max_edges: 1,
            ..Default::default()
        };
        let trees = mine_frequent_subtrees(&db, &cfg);
        // Edge labels present: (C,O) in 6 graphs, (C,C) in 2 graphs.
        assert_eq!(trees.len(), 2);
        let co = trees
            .iter()
            .find(|t| t.tree.label(VertexId(0)) != t.tree.label(VertexId(1)))
            .unwrap();
        assert_eq!(co.support(), 6);
    }

    #[test]
    fn growth_respects_antimonotonicity() {
        let db = db_paths_and_stars();
        let cfg = SubtreeMinerConfig {
            min_support: 0.25,
            max_edges: 3,
            ..Default::default()
        };
        let trees = mine_frequent_subtrees(&db, &cfg);
        for t in &trees {
            assert!(t.support() >= 2, "support {} below min", t.support());
            // Each transaction really contains the tree.
            for &i in &t.transactions {
                assert!(contains(&db[i as usize], &t.tree));
            }
        }
        // The path C-O-C (2 edges) is frequent (in 4 paths + 0 stars? stars
        // have O-C-O not C-O-C). Stars: center C with O leaves → contains
        // O-C-O. Paths contain C-O-C. Both 2-edge trees appear.
        let two_edge: Vec<_> = trees.iter().filter(|t| t.tree.edge_count() == 2).collect();
        assert!(two_edge.len() >= 2);
    }

    #[test]
    fn canonical_dedup_collapses_isomorphic_candidates() {
        let db = db_paths_and_stars();
        let cfg = SubtreeMinerConfig {
            min_support: 0.2,
            max_edges: 3,
            ..Default::default()
        };
        let trees = mine_frequent_subtrees(&db, &cfg);
        let mut canons: Vec<_> = trees.iter().map(|t| t.canonical.clone()).collect();
        let before = canons.len();
        canons.sort();
        canons.dedup();
        assert_eq!(before, canons.len(), "duplicate canonical forms");
    }

    #[test]
    fn max_edges_caps_size() {
        let db = db_paths_and_stars();
        let cfg = SubtreeMinerConfig {
            min_support: 0.2,
            max_edges: 2,
            ..Default::default()
        };
        let trees = mine_frequent_subtrees(&db, &cfg);
        assert!(trees.iter().all(|t| t.tree.edge_count() <= 2));
    }

    #[test]
    fn feature_vectors_match_transactions() {
        let db = db_paths_and_stars();
        let cfg = SubtreeMinerConfig {
            min_support: 0.2,
            max_edges: 2,
            ..Default::default()
        };
        let trees = mine_frequent_subtrees(&db, &cfg);
        let m = feature_matrix(db.len(), &trees);
        for (i, g) in db.iter().enumerate() {
            let fv = feature_vector(
                g,
                &trees,
                &SearchBudget::unbounded(),
                &mut TallyCounts::default(),
            );
            assert_eq!(m[i], fv, "graph {i}");
        }
    }

    #[test]
    fn empty_db_yields_nothing() {
        let trees = mine_frequent_subtrees(&[], &SubtreeMinerConfig::default());
        assert!(trees.is_empty());
    }

    #[test]
    fn unbudgeted_mining_is_exact_and_matches_wrapper() {
        let db = db_paths_and_stars();
        let cfg = SubtreeMinerConfig {
            min_support: 0.2,
            max_edges: 3,
            ..Default::default()
        };
        let out = mine_subtrees(&db, &cfg, &SearchBudget::unbounded());
        assert!(out.completeness.is_exact());
        assert!(out.kernel.all_exact());
        assert!(out.kernel.total() > 0);
        let wrapper = mine_frequent_subtrees(&db, &cfg);
        assert_eq!(out.subtrees.len(), wrapper.len());
        for (a, b) in out.subtrees.iter().zip(&wrapper) {
            assert_eq!(a.canonical, b.canonical);
            assert_eq!(a.transactions, b.transactions);
        }
    }

    #[test]
    fn exhausted_probes_leave_a_sound_partial_result() {
        let db = db_paths_and_stars();
        let cfg = SubtreeMinerConfig {
            min_support: 0.2,
            max_edges: 3,
            ..Default::default()
        };
        let out = mine_subtrees(&db, &cfg, &SearchBudget::nodes(0));
        assert_eq!(out.completeness, Completeness::BudgetExhausted);
        // Sound: anything reported is genuinely frequent.
        for t in &out.subtrees {
            for &i in &t.transactions {
                assert!(contains(&db[i as usize], &t.tree));
            }
        }
    }
}
