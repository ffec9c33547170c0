//! Weighted random walks for potential candidate pattern (PCP) generation
//! (§5, Fig. 6b).
//!
//! Each walk starts at the CSG's *seed edge* (largest weight) and grows the
//! partial PCP one adjacent edge at a time until the target size is reached
//! or no candidate adjacent edge (CAE) remains. The paper integerizes CAE
//! weights with an LCM and replicates candidates to pick uniformly; that
//! procedure selects CAE `i` with probability `w_i / Σ_j w_j`, which we
//! implement directly as weighted sampling (see
//! `catapult_graph::random::weighted_choice`). A property test in this
//! module checks the distributional equivalence against an explicit LCM
//! replication on rational weights.

// Kernel and index arithmetic: an `as` cast that can change the value
// (truncate, wrap or drop a sign) must be a `try_from` with a handled error.
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use catapult_csg::WeightedCsg;
use catapult_graph::EdgeId;
use rand::Rng;

/// One potential candidate pattern: a set of CSG edge ids forming a
/// connected subgraph of the CSG.
pub type Pcp = Vec<EdgeId>;

/// Per-library walk state, reused across the library's walks.
///
/// `frontier` holds the candidate adjacent edges (CAEs) of the partial
/// pattern: every CSG edge not in the pattern with at least one endpoint
/// in it, in edge-id order, with `weights` its parallel weight column.
/// That is exactly the sequence a scan of all CSG edges would filter out,
/// so `weighted_choice` sums, subtracts and draws in the same order.
/// Between walks the flags mark only the seed edge and its endpoints.
struct Walker<'w, 'a> {
    w: &'w WeightedCsg<'a>,
    seed: EdgeId,
    in_pattern: Vec<bool>,
    in_vertices: Vec<bool>,
    frontier: Vec<EdgeId>,
    weights: Vec<f64>,
    /// `frontier` and `weights` right after the seed edge is added: the
    /// same for every walk, so each walk starts from a copy.
    seed_frontier: Vec<EdgeId>,
    seed_weights: Vec<f64>,
}

impl<'w, 'a> Walker<'w, 'a> {
    /// `None` when the CSG has no usable seed edge.
    fn new(w: &'w WeightedCsg<'a>) -> Option<Self> {
        let seed = w.seed_edge()?;
        let g = &w.csg.graph;
        let mut walker = Walker {
            w,
            seed,
            in_pattern: vec![false; g.edge_count()],
            in_vertices: vec![false; g.vertex_count()],
            frontier: Vec::new(),
            weights: Vec::new(),
            seed_frontier: Vec::new(),
            seed_weights: Vec::new(),
        };
        walker.add_edge(seed);
        walker.seed_frontier = std::mem::take(&mut walker.frontier);
        walker.seed_weights = std::mem::take(&mut walker.weights);
        Some(walker)
    }

    /// Set the pattern flags of `eid` and its endpoints to `on`.
    fn flag(&mut self, eid: EdgeId, on: bool) {
        self.in_pattern[eid.index()] = on;
        let e = self.w.csg.graph.edge(eid);
        self.in_vertices[e.u.index()] = on;
        self.in_vertices[e.v.index()] = on;
    }

    /// Add `eid` (already off the frontier) to the pattern. Each endpoint
    /// new to the pattern brings its edges to non-pattern vertices onto
    /// the frontier; an edge to a pattern vertex is on it already.
    fn add_edge(&mut self, eid: EdgeId) {
        let g = &self.w.csg.graph;
        self.in_pattern[eid.index()] = true;
        let e = g.edge(eid);
        for x in [e.u, e.v] {
            if self.in_vertices[x.index()] {
                continue;
            }
            self.in_vertices[x.index()] = true;
            for &(y, f) in g.neighbors(x) {
                if self.in_pattern[f.index()] || self.in_vertices[y.index()] {
                    continue;
                }
                if let Err(pos) = self.frontier.binary_search(&f) {
                    self.frontier.insert(pos, f);
                    self.weights.insert(pos, self.w.weight(f));
                }
            }
        }
    }

    /// One walk of (up to) `target_edges` edges from the seed edge.
    fn walk<R: Rng>(&mut self, target_edges: usize, rng: &mut R) -> Pcp {
        let mut pcp = Vec::with_capacity(target_edges);
        pcp.push(self.seed);
        self.frontier.clone_from(&self.seed_frontier);
        self.weights.clone_from(&self.seed_weights);
        while pcp.len() < target_edges && !self.frontier.is_empty() {
            let i = match catapult_graph::random::weighted_choice(&self.weights, rng) {
                Some(i) => i,
                // All-zero weights: fall back to uniform choice so the walk
                // can still cover rare regions.
                None => rng.gen_range(0..self.frontier.len()),
            };
            let chosen = self.frontier.remove(i);
            self.weights.remove(i);
            self.add_edge(chosen);
            pcp.push(chosen);
        }
        // Clear only what this walk set, then restore the seed's flags.
        for &eid in &pcp {
            self.flag(eid, false);
        }
        self.flag(self.seed, true);
        pcp
    }
}

/// Run one weighted random walk generating a PCP with (up to)
/// `target_edges` edges. Returns `None` when the CSG has no usable seed
/// edge (e.g. all weights zero on an empty graph).
pub fn generate_pcp<R: Rng>(w: &WeightedCsg<'_>, target_edges: usize, rng: &mut R) -> Option<Pcp> {
    generate_library(w, target_edges, 1, rng).pop()
}

/// Generate the PCP library `L`: `x` independent walks (§5; the paper's
/// default is 100 walks). The seed edge and the walk state are computed
/// once per library.
pub fn generate_library<R: Rng>(
    w: &WeightedCsg<'_>,
    target_edges: usize,
    walks: usize,
    rng: &mut R,
) -> Vec<Pcp> {
    if target_edges == 0 {
        return Vec::new();
    }
    match Walker::new(w) {
        Some(mut walker) => (0..walks).map(|_| walker.walk(target_edges, rng)).collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_csg::{build_csgs, EdgeLabelWeights};
    use catapult_graph::{Graph, Label};
    use catapult_mining::EdgeLabelStats;
    use rand::SeedableRng;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn setup() -> (Vec<Graph>, Vec<Vec<u32>>) {
        let db = vec![
            Graph::from_parts(&[l(0), l(1), l(2), l(3)], &[(0, 1), (0, 2), (0, 3)]),
            Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (0, 2), (1, 2)]),
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
        ];
        (db, vec![vec![0, 1, 2]])
    }

    #[test]
    fn pcp_is_connected_and_right_size() {
        let (db, clusters) = setup();
        let csgs = build_csgs(&db, &clusters);
        let elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(&db));
        let w = WeightedCsg::new(&csgs[0], &elw);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let pcp = generate_pcp(&w, 3, &mut rng).unwrap();
            assert!(pcp.len() <= 3 && !pcp.is_empty());
            let sub = csgs[0].graph.subgraph_from_edges(&pcp);
            assert!(catapult_graph::components::is_connected(&sub));
        }
    }

    #[test]
    fn walk_starts_at_seed_edge() {
        let (db, clusters) = setup();
        let csgs = build_csgs(&db, &clusters);
        let elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(&db));
        let w = WeightedCsg::new(&csgs[0], &elw);
        let seed = w.seed_edge().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let pcp = generate_pcp(&w, 2, &mut rng).unwrap();
            assert_eq!(pcp[0], seed);
        }
    }

    #[test]
    fn walk_saturates_small_csgs() {
        let (db, clusters) = setup();
        let csgs = build_csgs(&db, &clusters);
        let elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(&db));
        let w = WeightedCsg::new(&csgs[0], &elw);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        // Request far more edges than the CSG has.
        let pcp = generate_pcp(&w, 100, &mut rng).unwrap();
        assert_eq!(pcp.len(), csgs[0].graph.edge_count());
    }

    #[test]
    fn library_has_requested_walks() {
        let (db, clusters) = setup();
        let csgs = build_csgs(&db, &clusters);
        let elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(&db));
        let w = WeightedCsg::new(&csgs[0], &elw);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let lib = generate_library(&w, 3, 25, &mut rng);
        assert_eq!(lib.len(), 25);
    }

    /// The paper's LCM-integerisation (§5 steps a–d) and direct weighted
    /// sampling induce the same distribution: verify on rational weights
    /// by explicit replication.
    #[test]
    fn lcm_replication_equivalence() {
        use catapult_graph::random::weighted_choice;
        // weights 1/2, 1/3, 1/6 → LCM(2,3,6) = 6 → integer weights 3, 2, 1.
        let weights = [0.5, 1.0 / 3.0, 1.0 / 6.0];
        let replicated: Vec<usize> = [0usize, 0, 0, 1, 1, 2].to_vec(); // 3,2,1 copies
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let trials = 60_000;
        let mut direct = [0usize; 3];
        let mut lcm = [0usize; 3];
        for _ in 0..trials {
            direct[weighted_choice(&weights, &mut rng).unwrap()] += 1;
            lcm[replicated[rng.gen_range(0..replicated.len())]] += 1;
        }
        for i in 0..3 {
            let p_direct = direct[i] as f64 / trials as f64;
            let p_lcm = lcm[i] as f64 / trials as f64;
            assert!(
                (p_direct - p_lcm).abs() < 0.01,
                "index {i}: direct {p_direct} vs lcm {p_lcm}"
            );
        }
    }
}
