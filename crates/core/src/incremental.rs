//! Incremental maintenance of canned patterns (the §1 extension).
//!
//! The paper positions CATAPULT as extensible "to support incremental
//! maintenance of canned patterns as the underlying data graphs evolve".
//! Clustering is the expensive one-time phase (§4.1 remark); this module
//! maintains the clustering incrementally so only the cheap selection
//! phase reruns per batch:
//!
//! 1. each arriving graph is assigned to the most similar cluster that can
//!    still win (an edge-label bound skips the rest): the one whose CSG it
//!    is most MCCS-similar to, if the similarity clears a threshold;
//! 2. unassigned arrivals pool as *outliers*; once the pool exceeds the
//!    cluster-size bound `N` it is fine-clustered (Algorithm 3) into new
//!    clusters;
//! 3. only touched CSGs are rebuilt, and pattern selection (Algorithm 4)
//!    reruns over the updated summaries.

use crate::select::{find_canned_patterns, SelectionConfig, SelectionResult};
use catapult_cluster::fine::{fine_cluster, FineConfig};
use catapult_csg::Csg;
use catapult_graph::mcs::{common_edge_upper_bound, similarity, McsConfig};
use catapult_graph::{Graph, SearchBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::par_map;

/// Maintenance parameters.
#[derive(Clone, Debug)]
pub struct IncrementalConfig {
    /// Minimum MCCS similarity to join an existing cluster.
    pub assignment_threshold: f64,
    /// Execution budget per assignment MCCS probe (and for maturing the
    /// outlier pool). A degraded probe under-estimates similarity, so an
    /// arrival may pool as an outlier instead of joining a cluster —
    /// sound, just conservative; [`UpdateStats::degraded_probes`] counts
    /// how often that happened. CSGs that the edge-label bound rules out
    /// are never searched, so they spend no budget and never degrade.
    pub search: SearchBudget,
    /// Maximum cluster size `N`; also the outlier-pool trigger.
    pub max_cluster_size: usize,
    /// Selection settings used on refresh.
    pub selection: SelectionConfig,
    /// Seed for the (deterministic) refresh RNG.
    pub seed: u64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            assignment_threshold: 0.5,
            search: SearchBudget::nodes(20_000),
            max_cluster_size: 20,
            selection: SelectionConfig::default(),
            seed: 0x1AC_u64,
        }
    }
}

/// Statistics of one maintenance batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Arrivals absorbed into existing clusters.
    pub assigned: usize,
    /// Arrivals parked in the outlier pool.
    pub outliers: usize,
    /// CSGs rebuilt by this batch.
    pub rebuilt_csgs: usize,
    /// New clusters created from the outlier pool.
    pub new_clusters: usize,
    /// Assignment MCCS probes that tripped their budget (their similarity
    /// is a lower bound). Only probes actually made count: a CSG skipped
    /// by its edge-label bound is never searched.
    pub degraded_probes: usize,
}

/// A maintained CATAPULT instance: repository + clustering + CSGs, with
/// batch insertion and on-demand pattern refresh.
#[derive(Clone, Debug)]
pub struct IncrementalCatapult {
    db: Vec<Graph>,
    clusters: Vec<Vec<u32>>,
    csgs: Vec<Csg>,
    outlier_pool: Vec<u32>,
    cfg: IncrementalConfig,
}

impl IncrementalCatapult {
    /// Wrap an existing clustering (e.g. from
    /// [`crate::catapult::run_catapult`]'s `clustering.clusters`).
    pub fn new(db: Vec<Graph>, clusters: Vec<Vec<u32>>, cfg: IncrementalConfig) -> Self {
        let csgs = catapult_csg::build_csgs(&db, &clusters);
        let clusters = clusters.into_iter().filter(|c| !c.is_empty()).collect();
        IncrementalCatapult {
            db,
            clusters,
            csgs,
            outlier_pool: Vec::new(),
            cfg,
        }
    }

    /// Current repository size.
    pub fn len(&self) -> usize {
        self.db.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.db.is_empty()
    }

    /// Current clusters (including none for pooled outliers).
    pub fn clusters(&self) -> &[Vec<u32>] {
        &self.clusters
    }

    /// Current CSGs.
    pub fn csgs(&self) -> &[Csg] {
        &self.csgs
    }

    /// Graphs waiting in the outlier pool.
    pub fn pending_outliers(&self) -> usize {
        self.outlier_pool.len()
    }

    /// Assign one graph to the most similar cluster, if any clears the
    /// threshold. Also returns how many similarity probes were degraded.
    ///
    /// CSGs are visited in index order with a strict `>` update; one is
    /// searched only if its edge-label bound `ub` (over the similarity's
    /// denominator) clears the threshold and exceeds the incumbent. Every
    /// similarity, degraded or not, is at most `ub`, so the decision is
    /// the one an MCCS against every CSG makes, and skipped CSGs never
    /// count as degraded.
    fn assign(&self, g: &Graph) -> (Option<usize>, usize) {
        let mut best: Option<(usize, f64)> = None;
        let mut degraded = 0;
        let cfg = McsConfig {
            budget: self.cfg.search.clone(),
            ..McsConfig::connected()
        };
        for (i, c) in self.csgs.iter().enumerate() {
            let denom = g.edge_count().min(c.graph.edge_count());
            let ub = match denom {
                0 => 0.0,
                _ => common_edge_upper_bound(g, &c.graph) as f64 / denom as f64,
            };
            if ub < self.cfg.assignment_threshold || best.is_some_and(|(_, s)| ub <= s) {
                continue;
            }
            let (sim, completeness) = similarity(g, &c.graph, cfg.clone());
            if !completeness.is_exact() {
                degraded += 1;
            }
            if best.is_none_or(|(_, s)| sim > s) {
                best = Some((i, sim));
            }
        }
        let chosen = match best {
            Some((i, s)) if s >= self.cfg.assignment_threshold => Some(i),
            _ => None,
        };
        (chosen, degraded)
    }

    /// Insert a batch of graphs, updating clusters and CSGs.
    pub fn insert_batch(&mut self, batch: Vec<Graph>) -> UpdateStats {
        let mut stats = UpdateStats::default();
        let mut touched: Vec<usize> = Vec::new();
        // Parallel audit: every arrival is assigned against `self.csgs`,
        // rebuilt only after this loop, so the decisions are independent.
        // The closure captures only `&self` and no RNG, counts kernel work
        // through the atomic stage probe, and ordered collection applies
        // the decisions in arrival order for every thread count.
        let decisions: Vec<(Option<usize>, usize)> = par_map(&batch, |g| self.assign(g));
        for (g, (assigned, degraded)) in batch.into_iter().zip(decisions) {
            let id = self.db.len() as u32;
            stats.degraded_probes += degraded;
            match assigned {
                Some(c) => {
                    self.clusters[c].push(id);
                    touched.push(c);
                    stats.assigned += 1;
                }
                None => {
                    self.outlier_pool.push(id);
                    stats.outliers += 1;
                }
            }
            self.db.push(g);
        }
        touched.sort_unstable();
        touched.dedup();
        for &c in &touched {
            self.csgs[c] = Csg::build(&self.db, &self.clusters[c]);
        }
        stats.rebuilt_csgs = touched.len();

        // Mature the outlier pool into proper clusters once it outgrows N.
        if self.outlier_pool.len() > self.cfg.max_cluster_size {
            let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ self.db.len() as u64);
            let fine_cfg = FineConfig {
                max_cluster_size: self.cfg.max_cluster_size,
                budget: self.cfg.search.clone(),
                ..Default::default()
            };
            let pool = std::mem::take(&mut self.outlier_pool);
            let new_clusters = fine_cluster(&self.db, vec![pool], &fine_cfg, &mut rng).clusters;
            stats.new_clusters = new_clusters.len();
            for c in new_clusters {
                self.csgs.push(Csg::build(&self.db, &c));
                self.clusters.push(c);
            }
        }
        // Outlier-pool graphs are unclustered by design, so the assignment
        // covers a subset; soundness (bounds, no double assignment) holds.
        catapult_graph::debug_invariants!(catapult_cluster::invariants::validate_assignment(
            self.db.len(),
            &self.clusters,
            false,
        ));
        stats
    }

    /// Re-run pattern selection over the current summaries. Outlier-pool
    /// graphs not yet clustered still contribute to `lcov`/`elw` through
    /// the database; they just don't propose candidates until matured.
    pub fn refresh_patterns(&self) -> SelectionResult {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        find_canned_patterns(&self.db, &self.csgs, &self.cfg.selection, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::PatternBudget;
    use catapult_graph::{Label, VertexId};

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

    fn chain(n: u32, label: u32) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_vertex(Label(label));
        }
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
        }
        g
    }

    fn config() -> IncrementalConfig {
        IncrementalConfig {
            max_cluster_size: 5,
            selection: SelectionConfig {
                budget: PatternBudget::new(3, 5, 4).unwrap(),
                walks: 15,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn seeded() -> IncrementalCatapult {
        let db: Vec<Graph> = (0..6).map(|_| ring(6, 0)).collect();
        let clusters = vec![(0..3).collect::<Vec<u32>>(), (3..6).collect()];
        IncrementalCatapult::new(db, clusters, config())
    }

    #[test]
    fn similar_arrivals_join_existing_clusters() {
        let mut inc = seeded();
        let stats = inc.insert_batch(vec![ring(6, 0), ring(6, 0)]);
        assert_eq!(stats.assigned, 2);
        assert_eq!(stats.outliers, 0);
        assert!(stats.rebuilt_csgs >= 1);
        assert_eq!(inc.len(), 8);
        // Every CSG still carries valid member witnesses.
        for csg in inc.csgs() {
            assert!(csg.verify_members(&inc.db));
        }
    }

    #[test]
    fn dissimilar_arrivals_pool_as_outliers() {
        let mut inc = seeded();
        // Chains with a fresh label share nothing with the ring clusters.
        let stats = inc.insert_batch(vec![chain(5, 9), chain(6, 9)]);
        assert_eq!(stats.assigned, 0);
        assert_eq!(stats.outliers, 2);
        assert_eq!(inc.pending_outliers(), 2);
        assert_eq!(stats.new_clusters, 0);
    }

    #[test]
    fn outlier_pool_matures_into_clusters() {
        let mut inc = seeded();
        let arrivals: Vec<Graph> = (0..7).map(|_| chain(6, 9)).collect();
        let stats = inc.insert_batch(arrivals);
        assert_eq!(stats.outliers, 7); // pool 7 > N = 5 → matured
        assert!(stats.new_clusters >= 1);
        assert_eq!(inc.pending_outliers(), 0);
        // All graphs are covered by clusters now.
        let covered: usize = inc.clusters().iter().map(Vec::len).sum();
        assert_eq!(covered, inc.len());
    }

    #[test]
    fn refreshed_patterns_cover_new_structures() {
        let mut inc = seeded();
        let before = inc.refresh_patterns().patterns();
        // Mature a batch of labeled chains into a new cluster.
        let arrivals: Vec<Graph> = (0..7).map(|_| chain(7, 9)).collect();
        inc.insert_batch(arrivals);
        let after = inc.refresh_patterns().patterns();
        let probe = chain(4, 9);
        let before_hit = before
            .iter()
            .any(|p| catapult_graph::iso::contains(&probe, p));
        let after_hit = after
            .iter()
            .any(|p| catapult_graph::iso::contains(&probe, p));
        assert!(!before_hit, "stale panel cannot know the new label");
        assert!(after_hit, "maintained panel must cover the new motif");
    }

    #[test]
    fn deterministic_refresh() {
        let inc = seeded();
        let a = inc.refresh_patterns();
        let b = inc.refresh_patterns();
        assert_eq!(
            a.patterns()
                .iter()
                .map(Graph::invariant_signature)
                .collect::<Vec<_>>(),
            b.patterns()
                .iter()
                .map(Graph::invariant_signature)
                .collect::<Vec<_>>()
        );
    }
}
