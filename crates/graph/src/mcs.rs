//! Maximum common subgraph (MCS) and maximum *connected* common subgraph
//! (MCCS), per §2 of the paper.
//!
//! Implemented as McGregor-style backtracking [27]: vertices of the smaller
//! graph are decided in a fixed order — mapped to a label-compatible unused
//! vertex of the other graph, or skipped — while an upper bound on the
//! number of still-achievable common edges prunes the search. For MCCS, the
//! largest connected component of each improving common-edge subgraph is
//! taken (every connected common subgraph appears as a sub-solution of some
//! branch, so the enumeration is exhaustive).
//!
//! Both problems are NP-complete [36]; a configurable [`SearchBudget`]
//! bounds the pathological worst case, falling back to the best solution
//! found so far and tagging the result with why the search stopped
//! ([`McsResult::completeness`]), mirroring the budgeted McGregor
//! implementations benchmarked in [13]. A degraded result is a *lower
//! bound* on the true common-subgraph size.

// Kernel and index arithmetic: an `as` cast that can change the value
// (truncate, wrap or drop a sign) must be a `try_from` with a handled error.
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::bitadj::BitAdjacency;
use crate::budget::{BudgetMeter, Completeness, Kernel, SearchBudget};
use crate::graph::{Graph, VertexId};
use crate::labels::Label;

/// Default backtracking-node cap for MCS/MCCS searches.
pub const DEFAULT_NODE_CAP: u64 = 500_000;

/// Configuration for an MCS/MCCS computation.
#[derive(Clone, Debug)]
pub struct McsConfig {
    /// Require the common subgraph to be connected (MCCS, [36]).
    pub connected: bool,
    /// Execution budget; on a tripped limit the search stops with the best
    /// common subgraph found so far (a lower bound on the true MCS).
    pub budget: SearchBudget,
    /// Use the edge-label-multiset upper bound to prune and short-circuit
    /// the search (on by default, and always sound — a pruned search that
    /// meets the bound is provably optimal, hence still *Exact*). Turning
    /// it off reproduces the reference unpruned search, which the
    /// kernel-equivalence suite compares against.
    pub pruning: bool,
}

impl Default for McsConfig {
    fn default() -> Self {
        McsConfig {
            connected: false,
            budget: SearchBudget::nodes(DEFAULT_NODE_CAP),
            pruning: true,
        }
    }
}

impl McsConfig {
    /// Config for a maximum connected common subgraph computation.
    pub fn connected() -> Self {
        McsConfig {
            connected: true,
            ..Self::default()
        }
    }
}

/// Result of an MCS/MCCS computation.
#[derive(Clone, Debug)]
pub struct McsResult {
    /// Matched vertex pairs `(v in g1, v in g2)`.
    pub pairs: Vec<(VertexId, VertexId)>,
    /// Size of the common subgraph in edges (the paper's `|G|`).
    pub edges: usize,
    /// Why the search stopped. Non-exact results are the best common
    /// subgraph found before the budget tripped — a valid common subgraph
    /// and a lower bound on the true MCS size.
    pub completeness: Completeness,
}

impl McsResult {
    /// Whether the search space was exhausted (the result is the true MCS).
    pub fn is_exact(&self) -> bool {
        self.completeness.is_exact()
    }
}

/// Incremental largest-common-component tracker for the MCCS search: a
/// union-find over the decided graph's vertices with union-by-rank, **no
/// path compression**, and an undo stack, so every `link` can be rolled
/// back in O(1) when the search backtracks. Each component root carries
/// its common-edge count; `max_edges` is the running size of the largest
/// component, which turns the per-leaf "did the connected best improve?"
/// question from an O(k²) component sweep into an O(1) comparison. The
/// actual component extraction (pairs, BFS order) still goes through
/// [`largest_common_component`] on the rare improving leaf, so recorded
/// results stay byte-identical to the unoptimized search.
struct CcForest {
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// Common-edge count of the component, valid at roots only.
    edges: Vec<usize>,
    max_edges: usize,
    undo: Vec<CcUndo>,
}

enum CcUndo {
    /// An intra-component edge was counted at `root`.
    Edge { root: usize, prev_max: usize },
    /// `child` (a former root) was attached under `parent`.
    Link {
        child: usize,
        parent: usize,
        rank_bumped: bool,
        prev_max: usize,
    },
}

impl CcForest {
    fn new(n: usize) -> CcForest {
        CcForest {
            parent: (0..n).collect(),
            rank: vec![0; n],
            edges: vec![0; n],
            max_edges: 0,
            undo: Vec::new(),
        }
    }

    fn find(&self, mut v: usize) -> usize {
        while self.parent[v] != v {
            v = self.parent[v];
        }
        v
    }

    /// Record one common edge between the components of `a` and `b`.
    fn link(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        let prev_max = self.max_edges;
        if ra == rb {
            self.edges[ra] += 1;
            self.max_edges = self.max_edges.max(self.edges[ra]);
            self.undo.push(CcUndo::Edge { root: ra, prev_max });
            return;
        }
        // Attach the lower-rank root under the higher-rank one.
        let (child, parent) = if self.rank[ra] < self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let rank_bumped = self.rank[child] == self.rank[parent];
        if rank_bumped {
            self.rank[parent] += 1;
        }
        self.parent[child] = parent;
        self.edges[parent] += self.edges[child] + 1;
        self.max_edges = self.max_edges.max(self.edges[parent]);
        self.undo.push(CcUndo::Link {
            child,
            parent,
            rank_bumped,
            prev_max,
        });
    }

    fn mark(&self) -> usize {
        self.undo.len()
    }

    /// Undo every `link` past `mark`, most recent first. LIFO order keeps
    /// the stale `edges[child]` values (untouched while non-root) valid.
    fn rollback(&mut self, mark: usize) {
        while self.undo.len() > mark {
            match self.undo.pop() {
                Some(CcUndo::Edge { root, prev_max }) => {
                    self.edges[root] -= 1;
                    self.max_edges = prev_max;
                }
                Some(CcUndo::Link {
                    child,
                    parent,
                    rank_bumped,
                    prev_max,
                }) => {
                    self.edges[parent] -= self.edges[child] + 1;
                    if rank_bumped {
                        self.rank[parent] -= 1;
                    }
                    self.parent[child] = child;
                    self.max_edges = prev_max;
                }
                None => return,
            }
        }
    }
}

struct Search<'a> {
    a: &'a Graph, // decided graph (fewer vertices)
    order: Vec<VertexId>,
    cfg: McsConfig,
    map: Vec<u32>,   // a-vertex -> b-vertex or MAX
    used: Vec<bool>, // b-vertex used
    score: usize,    // common edges among mapped pairs
    lost: usize,     // a-edges that can no longer become common
    best_edges: usize,
    best_pairs: Vec<(VertexId, VertexId)>,
    meter: BudgetMeter,
    swapped: bool,
    /// Whether each a-vertex has been decided (mapped or skipped) yet.
    decided: Vec<bool>,
    /// Bitset adjacency of `a`/`b`: O(1) `has_edge` in the hot loops.
    abits: BitAdjacency,
    bbits: BitAdjacency,
    /// b-vertices grouped by label (in vertex order), so candidate
    /// generation touches only label-compatible targets.
    buckets: Vec<(Label, Vec<VertexId>)>,
    /// Global upper bound on the common-edge count (edge-label multiset
    /// intersection capped by both edge counts). Once `best_edges` reaches
    /// it, the result is provably optimal and the search stops *Exact*.
    ub: usize,
    /// Set when `best_edges == ub`: unwind without exploring further.
    proven: bool,
    /// Per-depth candidate buffers, reused across branches to keep the
    /// backtracking loop allocation-free after warmup.
    scratch: Vec<Vec<(usize, usize, VertexId)>>,
    /// Largest-common-component tracker (MCCS only; empty for plain MCS).
    cc: CcForest,
}

const UNMAPPED: u32 = u32::MAX;

impl<'a> Search<'a> {
    /// Edges of `a` incident to `v` whose other endpoint is already decided
    /// (mapped or skipped), partitioned into (commonable-if-mapped-to,
    /// lost). For a candidate target `t`: common += matched neighbors whose
    /// image is adjacent to `t`.
    fn gain_and_loss(&self, v: VertexId, t: VertexId, decided: &[bool]) -> (usize, usize) {
        let mut gain = 0;
        let mut loss = 0;
        for &(w, _) in self.a.neighbors(v) {
            if !decided[w.index()] {
                continue;
            }
            let m = self.map[w.index()];
            if m == UNMAPPED {
                // Neighbor was skipped: the edge (v,w) was already counted
                // as lost at skip time (see `loss_on_skip`).
                continue;
            } else if self.bbits.has_edge(VertexId(m), t) {
                gain += 1;
            } else {
                loss += 1;
            }
        }
        (gain, loss)
    }

    fn loss_on_skip(&self, v: VertexId) -> usize {
        // Skipping v loses every a-edge incident to v that hasn't already
        // been scored or lost: i.e. edges to undecided vertices plus edges
        // to decided-mapped vertices (their commonality was accounted when v
        // would map; since v skips, they are lost now) — but edges to
        // decided-*skipped* neighbors were already counted as lost when that
        // neighbor skipped. We avoid double counting by only counting edges
        // whose other endpoint is undecided or mapped.
        self.a.degree(v)
            - self
                .a
                .neighbors(v)
                .iter()
                .filter(|&&(w, _)| self.decided_skipped(w))
                .count()
    }

    fn decided_skipped(&self, w: VertexId) -> bool {
        self.decided[w.index()] && self.map[w.index()] == UNMAPPED
    }

    fn record_leaf(&mut self) {
        if self.score <= self.best_edges {
            return;
        }
        if !self.cfg.connected {
            self.best_edges = self.score;
            self.best_pairs = self.current_pairs();
            self.meter.note_improvement();
        } else {
            // MCCS: take the largest connected component of the common-edge
            // subgraph induced by the current mapping. The incremental
            // tracker answers "can this leaf improve?" in O(1); only actual
            // improvements (rare) pay for the full component extraction,
            // which remains the ground truth for the recorded pairs.
            if self.cc.max_edges > self.best_edges {
                let pairs = self.current_pairs();
                let (cc_edges, cc_pairs) =
                    largest_common_component(&self.abits, &self.bbits, &pairs);
                debug_assert_eq!(
                    cc_edges, self.cc.max_edges,
                    "incremental component tracker drifted from ground truth"
                );
                if cc_edges > self.best_edges {
                    self.best_edges = cc_edges;
                    self.best_pairs = cc_pairs;
                    self.meter.note_improvement();
                }
            }
        }
        // Meeting the global bound proves optimality: no mapping can have
        // more common edges than the edge-label multiset intersection, so
        // the rest of the tree cannot improve and the search ends Exact.
        if self.best_edges >= self.ub {
            self.proven = true;
        }
    }

    fn current_pairs(&self) -> Vec<(VertexId, VertexId)> {
        self.a
            .vertices()
            .zip(self.map.iter())
            .filter(|&(_, &m)| m != UNMAPPED)
            .map(|(v, &m)| (v, VertexId(m)))
            .collect()
    }

    fn descend(&mut self, depth: usize) {
        if self.proven {
            return;
        }
        if self.meter.tick() {
            // Keep the best-so-far invariant: the partial mapping on the
            // stack at the moment the budget trips is itself a valid common
            // subgraph — record it before unwinding so even very small
            // budgets return a non-empty result when one was reachable.
            self.record_leaf();
            return;
        }
        // Bound: total a-edges minus those already lost can still become
        // common in the best case, never exceeding the global label bound.
        let potential = (self.a.edge_count() - self.lost).min(self.ub);
        if potential <= self.best_edges {
            self.record_leaf();
            return;
        }
        if depth == self.order.len() {
            self.record_leaf();
            return;
        }
        let v = self.order[depth];
        // Try candidate targets ordered by immediate gain (desc) so good
        // solutions are found early and the bound tightens. Only the label
        // bucket of `v` is scanned; a reused per-depth buffer keeps the
        // loop allocation-free.
        let mut candidates = std::mem::take(&mut self.scratch[depth]);
        candidates.clear();
        let want = self.a.label(v);
        if let Ok(i) = self.buckets.binary_search_by_key(&want, |e| e.0) {
            for idx in 0..self.buckets[i].1.len() {
                let t = self.buckets[i].1[idx];
                if self.used[t.index()] {
                    continue;
                }
                let (gain, loss) = self.gain_and_loss(v, t, &self.decided);
                candidates.push((gain, loss, t));
            }
        }
        candidates.sort_unstable_by(|x, y| {
            y.0.cmp(&x.0)
                .then(x.1.cmp(&y.1))
                .then((x.2).0.cmp(&(y.2).0))
        });
        self.decided[v.index()] = true;
        for ci in 0..candidates.len() {
            let (gain, loss, t) = candidates[ci];
            self.map[v.index()] = t.0;
            self.used[t.index()] = true;
            self.score += gain;
            self.lost += loss;
            let cc_mark = self.cc.mark();
            if self.cfg.connected && gain > 0 {
                // Mirror `gain_and_loss`: each commonable neighbor edge
                // joins (v, t)'s pair to the neighbor's component.
                let a = self.a;
                for &(w, _) in a.neighbors(v) {
                    let m = self.map[w.index()];
                    if w != v && m != UNMAPPED && self.bbits.has_edge(VertexId(m), t) {
                        self.cc.link(v.index(), w.index());
                    }
                }
            }
            self.descend(depth + 1);
            self.cc.rollback(cc_mark);
            self.score -= gain;
            self.lost -= loss;
            self.map[v.index()] = UNMAPPED;
            self.used[t.index()] = false;
            if self.meter.tripped() || self.proven {
                self.decided[v.index()] = false;
                self.scratch[depth] = candidates;
                return;
            }
        }
        // Skip branch.
        let loss = self.loss_on_skip(v);
        self.lost += loss;
        self.descend(depth + 1);
        self.lost -= loss;
        self.decided[v.index()] = false;
        self.scratch[depth] = candidates;
    }
}

// `decided` lives outside the struct init for borrow simplicity.
impl<'a> Search<'a> {
    fn run(a: &'a Graph, b: &'a Graph, cfg: McsConfig, swapped: bool, ub: usize) -> McsResult {
        let mut order: Vec<VertexId> = a.vertices().collect();
        // Decide high-degree vertices first: they constrain the most edges.
        order.sort_by_key(|&v| std::cmp::Reverse(a.degree(v)));
        let mut buckets: Vec<(Label, Vec<VertexId>)> = Vec::new();
        for t in b.vertices() {
            let l = b.label(t);
            match buckets.binary_search_by_key(&l, |e| e.0) {
                Ok(i) => buckets[i].1.push(t),
                Err(i) => buckets.insert(i, (l, vec![t])),
            }
        }
        let meter = BudgetMeter::new(&cfg.budget, Kernel::Mcs);
        let depth_count = a.vertex_count() + 1;
        let cc = CcForest::new(if cfg.connected { a.vertex_count() } else { 0 });
        let mut s = Search {
            a,
            order,
            cfg,
            map: vec![UNMAPPED; a.vertex_count()],
            used: vec![false; b.vertex_count()],
            score: 0,
            lost: 0,
            best_edges: 0,
            best_pairs: Vec::new(),
            meter,
            swapped,
            decided: vec![false; a.vertex_count()],
            abits: BitAdjacency::new(a),
            bbits: BitAdjacency::new(b),
            buckets,
            ub,
            proven: false,
            scratch: vec![Vec::new(); depth_count],
            cc,
        };
        s.descend(0);
        let mut pairs = s.best_pairs;
        if s.swapped {
            for p in &mut pairs {
                *p = (p.1, p.0);
            }
        }
        // A search stopped because `best_edges` met the global upper bound
        // holds a provably maximum common subgraph: the tag is Exact even
        // if a budget limit also tripped along the way.
        if s.best_edges >= s.ub {
            s.meter.note_proven_exact();
        }
        let completeness = s.meter.status();
        McsResult {
            pairs,
            edges: s.best_edges,
            completeness,
        }
    }
}

/// Largest connected component (by edge count) of the common-edge subgraph
/// induced by `pairs`. Returns `(edge_count, pairs in that component)`.
fn largest_common_component(
    a: &BitAdjacency,
    b: &BitAdjacency,
    pairs: &[(VertexId, VertexId)],
) -> (usize, Vec<(VertexId, VertexId)>) {
    let k = pairs.len();
    if k == 0 {
        return (0, Vec::new());
    }
    // Adjacency among pair indices: common edge exists.
    let mut adj = vec![Vec::new(); k];
    for i in 0..k {
        for j in (i + 1)..k {
            let (va, ta) = pairs[i];
            let (vb, tb) = pairs[j];
            if a.has_edge(va, vb) && b.has_edge(ta, tb) {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    let mut seen = vec![false; k];
    let mut best = (0usize, Vec::new());
    for start in 0..k {
        if seen[start] {
            continue;
        }
        let mut comp = vec![start];
        seen[start] = true;
        let mut qi = 0;
        while qi < comp.len() {
            let x = comp[qi];
            qi += 1;
            for &y in &adj[x] {
                if !seen[y] {
                    seen[y] = true;
                    comp.push(y);
                }
            }
        }
        // Every neighbor of a component member is in the same component,
        // so the internal edge count is just half the degree sum.
        let edges = comp.iter().map(|&x| adj[x].len()).sum::<usize>() / 2;
        if edges > best.0 {
            best = (edges, comp.iter().map(|&i| pairs[i]).collect());
        }
    }
    best
}

/// Upper bound on the common-edge count of any common subgraph of `g1` and
/// `g2`: the size of the multiset intersection of their sorted edge labels
/// (each common edge consumes one matching edge label on both sides),
/// capped by both edge counts.
pub fn common_edge_upper_bound(g1: &Graph, g2: &Graph) -> usize {
    let la = g1.sorted_edge_labels();
    let lb = g2.sorted_edge_labels();
    let (mut i, mut j, mut common) = (0usize, 0usize, 0usize);
    while i < la.len() && j < lb.len() {
        match la[i].cmp(&lb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// Compute the MCS (or MCCS, per `cfg.connected`) of `g1` and `g2`.
pub fn mcs(g1: &Graph, g2: &Graph, cfg: McsConfig) -> McsResult {
    if g1.vertex_count() == 0 || g2.vertex_count() == 0 {
        return McsResult {
            pairs: Vec::new(),
            edges: 0,
            completeness: Completeness::Exact,
        };
    }
    // Pre-filter: with no shared edge label no common edge exists, and a
    // zero-edge MCS never records pairs — skip the search outright. This
    // is exact (the bound is sound), so no meter is spun up. An
    // effectively infinite bound disables both the short-circuit and the
    // tightened potential below, restoring the reference search.
    let ub = if cfg.pruning {
        let ub = common_edge_upper_bound(g1, g2);
        if ub == 0 {
            return McsResult {
                pairs: Vec::new(),
                edges: 0,
                completeness: Completeness::Exact,
            };
        }
        ub
    } else {
        usize::MAX
    };
    if g1.vertex_count() <= g2.vertex_count() {
        Search::run(g1, g2, cfg, false, ub)
    } else {
        Search::run(g2, g1, cfg, true, ub)
    }
}

/// `ω(G1, G2) = |G_mcs| / min(|G1|, |G2|)` with `|G| = |E|` (§2): the
/// `ω_mccs` of the paper when `cfg.connected`, `ω_mcs` otherwise, plus
/// why the underlying search stopped. A non-exact similarity is a lower
/// bound on the true value; graphs without edges score an exact 0.
pub fn similarity(g1: &Graph, g2: &Graph, cfg: McsConfig) -> (f64, Completeness) {
    let denom = g1.edge_count().min(g2.edge_count());
    if denom == 0 {
        return (0.0, Completeness::Exact);
    }
    let r = mcs(g1, g2, cfg);
    (r.edges as f64 / denom as f64, r.completeness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn path(n: u32) -> Graph {
        let labels = vec![l(0); n as usize];
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    fn cycle(n: u32) -> Graph {
        let labels = vec![l(0); n as usize];
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn identical_graphs() {
        let g = cycle(5);
        let r = mcs(&g, &g, McsConfig::default());
        assert!(r.is_exact());
        assert_eq!(r.edges, 5);
        assert!((similarity(&g, &g, McsConfig::connected()).0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_in_cycle() {
        let p = path(4);
        let c = cycle(6);
        let r = mcs(&p, &c, McsConfig::connected());
        assert!(r.is_exact());
        assert_eq!(r.edges, 3); // the whole path embeds
    }

    #[test]
    fn mccs_leq_mcs() {
        // Two triangles joined by nothing vs a graph containing one triangle
        // and a far edge: MCS can use both pieces, MCCS only one.
        let g1 = Graph::from_parts(
            &[l(0); 5],
            &[(0, 1), (1, 2), (0, 2), (3, 4)], // triangle + edge
        );
        let g2 = Graph::from_parts(
            &[l(0); 6],
            &[(0, 1), (1, 2), (0, 2), (4, 5)], // triangle + separated edge
        );
        let m = mcs(&g1, &g2, McsConfig::default());
        let c = mcs(&g1, &g2, McsConfig::connected());
        assert_eq!(m.edges, 4);
        assert_eq!(c.edges, 3);
        assert!(c.edges <= m.edges);
    }

    #[test]
    fn labels_restrict_common() {
        let a = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
        let b = Graph::from_parts(&[l(0), l(1), l(3)], &[(0, 1), (1, 2)]);
        let r = mcs(&a, &b, McsConfig::default());
        assert_eq!(r.edges, 1); // only the (0)-(1) edge is common
    }

    #[test]
    fn result_is_common_subgraph() {
        let a = cycle(5);
        let b = path(5);
        let r = mcs(&a, &b, McsConfig::connected());
        assert!(r.is_exact());
        assert_eq!(r.edges, 4); // the path of 5 is the MCCS
                                // Verify every claimed common edge is real.
        let mut count = 0;
        for i in 0..r.pairs.len() {
            for j in (i + 1)..r.pairs.len() {
                let (va, ta) = r.pairs[i];
                let (vb, tb) = r.pairs[j];
                if a.has_edge(va, vb) && b.has_edge(ta, tb) {
                    count += 1;
                }
            }
        }
        assert_eq!(count, r.edges);
    }

    #[test]
    fn empty_graph_similarity() {
        let mut g = Graph::new();
        g.add_vertex(l(0));
        let h = path(3);
        assert_eq!(
            similarity(&g, &h, McsConfig::default()),
            (0.0, Completeness::Exact)
        );
    }

    #[test]
    fn tiny_budget_reports_exhaustion_with_best_so_far() {
        let g = cycle(6);
        let r = mcs(
            &g,
            &g,
            McsConfig {
                connected: false,
                budget: SearchBudget::nodes(5),
                ..McsConfig::default()
            },
        );
        assert_eq!(r.completeness, Completeness::BudgetExhausted);
        // The partial mapping live at the budget trip is recorded, so even
        // a 5-node search returns a non-empty common subgraph...
        assert!(!r.pairs.is_empty(), "best-so-far pairs must survive");
        assert!(r.edges > 0);
        // ... which is a valid lower bound, not the true MCS.
        assert!(r.edges < 6);
    }

    #[test]
    fn generous_budget_matches_unbudgeted_answer() {
        let a = cycle(5);
        let b = path(5);
        let default = mcs(&a, &b, McsConfig::default());
        let generous = mcs(
            &a,
            &b,
            McsConfig {
                connected: false,
                budget: SearchBudget::nodes(100_000_000),
                ..McsConfig::default()
            },
        );
        assert!(default.is_exact() && generous.is_exact());
        assert_eq!(default.edges, generous.edges);
    }

    #[test]
    fn tagged_similarity_exposes_degradation() {
        let g = cycle(6);
        let (exact_sim, c) = similarity(&g, &g, McsConfig::default());
        assert!(c.is_exact());
        assert!((exact_sim - 1.0).abs() < 1e-12);
        let tiny = McsConfig {
            budget: SearchBudget::nodes(5),
            ..McsConfig::default()
        };
        let (truncated_sim, c) = similarity(&g, &g, tiny);
        assert_eq!(c, Completeness::BudgetExhausted);
        assert!(truncated_sim <= exact_sim);
    }

    #[test]
    fn disjoint_edge_labels_are_exact_even_under_zero_budget() {
        // a has only (0,0) edges, b only (1,1): the edge-label bound is 0,
        // so no search is needed — exact, empty, regardless of budget.
        let a = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2)]);
        let b = Graph::from_parts(&[l(1); 3], &[(0, 1), (1, 2)]);
        assert_eq!(common_edge_upper_bound(&a, &b), 0);
        let r = mcs(
            &a,
            &b,
            McsConfig {
                connected: false,
                budget: SearchBudget::nodes(0),
                ..McsConfig::default()
            },
        );
        assert!(r.is_exact());
        assert_eq!(r.edges, 0);
        assert!(r.pairs.is_empty());
    }

    #[test]
    fn upper_bound_counts_label_multiset_intersection() {
        // a: two (0,0) edges + one (0,1); b: one (0,0) + one (0,1) + one (1,1).
        let a = Graph::from_parts(&[l(0), l(0), l(0), l(1)], &[(0, 1), (1, 2), (2, 3)]);
        let b = Graph::from_parts(&[l(0), l(0), l(1), l(1)], &[(0, 1), (1, 2), (2, 3)]);
        // Intersection: one (0,0) + one (0,1) = 2.
        assert_eq!(common_edge_upper_bound(&a, &b), 2);
        let r = mcs(&a, &b, McsConfig::default());
        assert!(r.is_exact());
        assert_eq!(r.edges, 2);
    }

    #[test]
    fn meeting_the_bound_short_circuits_to_exact() {
        // Self-MCS of a large cycle: the greedy first descent reconstructs
        // the identity mapping and meets the bound after ~n+1 probes. A
        // budget far too small for the full tree still returns Exact,
        // because best == upper bound proves optimality.
        let g = cycle(12);
        let r = mcs(
            &g,
            &g,
            McsConfig {
                connected: false,
                budget: SearchBudget::nodes(40),
                ..McsConfig::default()
            },
        );
        assert!(r.is_exact(), "bound-met search must report Exact");
        assert_eq!(r.edges, 12);
        assert_eq!(r.pairs.len(), 12);
    }

    #[test]
    fn similarity_symmetry() {
        let a = cycle(4);
        let b = path(6);
        let s1 = similarity(&a, &b, McsConfig::connected()).0;
        let s2 = similarity(&b, &a, McsConfig::connected()).0;
        assert!((s1 - s2).abs() < 1e-12);
        assert!(s1 > 0.0 && s1 <= 1.0);
    }
}
