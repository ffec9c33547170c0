//! Graph edit distance (GED).
//!
//! The paper uses GED to measure pattern-set diversity (§3.2):
//! `div(p, P\p) = min GED(p, p_i)`. Since exact GED is expensive [32],
//! §5 prunes candidates with the lower bound of Definition 5.1 before
//! computing exact distances.
//!
//! Cost model (uniform, matching the paper's unlabeled-edge setting):
//! vertex insertion / deletion / relabeling each cost 1, edge insertion /
//! deletion each cost 1. Edges carry no independent label.
//!
//! Three routines:
//! * [`ged_lower_bound`] — Definition 5.1, O(n log n).
//! * [`ged_upper_bound`] — bipartite assignment heuristic (Riesen–Bunke
//!   [32]): solve a vertex assignment with Hungarian, then charge the exact
//!   induced edit cost of that vertex mapping (always a valid upper bound).
//! * [`ged`] — `min(GED, τ)` for an optional cutoff τ, by depth-first
//!   branch-and-bound seeded with `min(ub, τ)`, under a [`SearchBudget`]
//!   for pathological cases: on a tripped limit it falls back to its
//!   best-known value (at most `min(ub, τ) ≤ ub`), flagged via
//!   [`GedResult::completeness`].

use crate::budget::{BudgetMeter, Completeness, Kernel, SearchBudget};
use crate::graph::{Graph, VertexId};
use crate::labels::Label;
use crate::matching::hungarian;

/// Default backtracking-node cap for GED searches.
pub const DEFAULT_NODE_CAP: u64 = 500_000;

/// Result of a GED computation under a cutoff τ (τ = ∞ without one).
///
/// `distance` is never below `min(GED, τ)`, and equals it when
/// `completeness` is [`Completeness::Exact`]. The branch-and-bound starts
/// from `min(ub, τ)` (`ub`: the Riesen–Bunke bound) and only ever replaces
/// it with cheaper complete edit paths, so a tripped search still returns
/// an upper bound on `min(GED, τ)`: τ, or an actual edit sequence's cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GedResult {
    /// `min(GED, τ)` — exact, or an upper bound on it (see above).
    pub distance: usize,
    /// Why the search stopped.
    pub completeness: Completeness,
}

impl GedResult {
    /// Whether `distance` is exactly `min(GED, τ)` (otherwise it is an
    /// upper bound).
    pub fn is_exact(&self) -> bool {
        self.completeness.is_exact()
    }
}

/// Multiset intersection size of two sorted label lists.
fn multiset_common(mut a: Vec<Label>, mut b: Vec<Label>) -> usize {
    a.sort_unstable();
    b.sort_unstable();
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Lower bound on GED per Definition 5.1:
/// `GED_l = |V| + |E|` where
/// `|V| = ||V_A| - |V_B|| + min(|V_A|, |V_B|) - |L(V_A) ∩ L(V_B)|` and
/// `|E| = ||E_A| - |E_B||`.
///
/// The label intersection is computed as a *multiset* intersection (the
/// exact count of vertices that can be mapped without relabeling), which is
/// what makes the vertex term the exact minimum number of vertex edits.
pub fn ged_lower_bound(a: &Graph, b: &Graph) -> usize {
    let (na, nb) = (a.vertex_count(), b.vertex_count());
    let common = multiset_common(a.labels().to_vec(), b.labels().to_vec());
    let v_cost = na.abs_diff(nb) + na.min(nb) - common.min(na.min(nb));
    let e_cost = a.edge_count().abs_diff(b.edge_count());
    v_cost + e_cost
}

/// Exact edit cost induced by a full vertex mapping.
///
/// `mapping[i]` is the image of A-vertex `i` in B, or `None` for deletion;
/// B-vertices not in the image are insertions.
pub fn induced_edit_cost(a: &Graph, b: &Graph, mapping: &[Option<VertexId>]) -> usize {
    assert_eq!(mapping.len(), a.vertex_count());
    let mut cost = 0usize;
    let mut b_used = vec![false; b.vertex_count()];
    for (vi, m) in a.vertices().zip(mapping.iter()) {
        match m {
            Some(t) => {
                assert!(!b_used[t.index()], "mapping must be injective");
                b_used[t.index()] = true;
                if a.label(vi) != b.label(*t) {
                    cost += 1; // relabel
                }
            }
            None => cost += 1, // vertex deletion
        }
    }
    cost += b_used.iter().filter(|&&u| !u).count(); // vertex insertions
                                                    // Edge deletions / matches.
    for (_, e) in a.edges() {
        match (mapping[e.u.index()], mapping[e.v.index()]) {
            (Some(x), Some(y)) if b.has_edge(x, y) => {}
            _ => cost += 1, // deleted
        }
    }
    // Edge insertions: B edges with no matched A preimage edge.
    let mut preimage = vec![None; b.vertex_count()];
    for (vi, m) in a.vertices().zip(mapping.iter()) {
        if let Some(t) = m {
            preimage[t.index()] = Some(vi);
        }
    }
    for (_, e) in b.edges() {
        match (preimage[e.u.index()], preimage[e.v.index()]) {
            (Some(x), Some(y)) if a.has_edge(x, y) => {}
            _ => cost += 1, // inserted
        }
    }
    cost
}

/// Bipartite-assignment upper bound on GED (Riesen–Bunke style).
///
/// Builds the (n+m)×(n+m) cost matrix of vertex substitutions (cost:
/// relabel + degree difference), deletions (1 + degree) and insertions
/// (1 + degree), solves it with the Hungarian algorithm, and returns the
/// exact [`induced_edit_cost`] of the resulting vertex mapping.
pub fn ged_upper_bound(a: &Graph, b: &Graph) -> usize {
    ged_upper_bound_mapping(a, b).0
}

/// As [`ged_upper_bound`], also returning the vertex mapping realizing the
/// bound (used by [`crate::edit::edit_script`] to materialize edit paths).
pub fn ged_upper_bound_mapping(a: &Graph, b: &Graph) -> (usize, Vec<Option<VertexId>>) {
    let (na, nb) = (a.vertex_count(), b.vertex_count());
    let n = na + nb;
    if n == 0 {
        return (0, Vec::new());
    }
    let big = 1e9;
    // Dense id tables sidestep any usize→u32 narrowing in the hot loops.
    let avs: Vec<VertexId> = a.vertices().collect();
    let bvs: Vec<VertexId> = b.vertices().collect();
    let mut cost = vec![vec![0.0f64; n]; n];
    for (i, row) in cost.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = match (i < na, j < nb) {
                (true, true) => {
                    let (vi, vj) = (avs[i], bvs[j]);
                    let sub = if a.label(vi) == b.label(vj) { 0.0 } else { 1.0 };
                    sub + (a.degree(vi) as f64 - b.degree(vj) as f64).abs()
                }
                (true, false) => {
                    // Deletion of A vertex i, only on its own slot.
                    if j - nb == i {
                        1.0 + a.degree(avs[i]) as f64
                    } else {
                        big
                    }
                }
                (false, true) => {
                    // Insertion of B vertex j, only on its own slot.
                    if i - na == j {
                        1.0 + b.degree(bvs[j]) as f64
                    } else {
                        big
                    }
                }
                (false, false) => 0.0,
            };
        }
    }
    let (_, assign) = hungarian(&cost);
    let mapping: Vec<Option<VertexId>> = (0..na)
        .map(|i| {
            let j = assign[i];
            if j < nb {
                Some(bvs[j])
            } else {
                None
            }
        })
        .collect();
    (induced_edit_cost(a, b, &mapping), mapping)
}

struct GedSearch<'a> {
    a: &'a Graph,
    b: &'a Graph,
    order: Vec<VertexId>,
    /// a-vertex → its position in `order` (O(1) decidedness checks).
    pos: Vec<usize>,
    /// `prefix_a_edges[d]` = number of A edges with both endpoints among
    /// the first `d` ordered vertices (precomputed once; the order is
    /// static).
    prefix_a_edges: Vec<usize>,
    /// Per-label running count of undecided A vertices / unused B
    /// vertices, packed as parallel counts over the union label alphabet.
    rem_a: Vec<i32>,
    avail_b: Vec<i32>,
    label_ids: std::collections::HashMap<Label, usize>,
    mapping: Vec<Option<VertexId>>,
    /// b-vertex → a-vertex that maps onto it (for O(1) preimage lookups).
    preimage: Vec<Option<VertexId>>,
    b_used: Vec<bool>,
    /// Number of used B vertices (incremental).
    b_used_count: usize,
    /// Number of B edges with both endpoints used (incremental).
    b_edges_used: usize,
    best: usize,
    meter: BudgetMeter,
}

impl<'a> GedSearch<'a> {
    fn label_id(&self, l: Label) -> usize {
        self.label_ids[&l]
    }

    /// Incremental cost of deciding `v` (the vertex at `depth`):
    /// counts vertex cost plus edge costs between `v` and already-decided
    /// vertices on both sides.
    fn step_cost(&self, v: VertexId, target: Option<VertexId>, depth: usize) -> usize {
        let mut c = 0usize;
        match target {
            None => {
                c += 1; // deletion
                for &(w, _) in self.a.neighbors(v) {
                    if self.pos[w.index()] < depth {
                        c += 1; // edge (v,w) deleted
                    }
                }
            }
            Some(t) => {
                if self.a.label(v) != self.b.label(t) {
                    c += 1;
                }
                for &(w, _) in self.a.neighbors(v) {
                    if self.pos[w.index()] >= depth {
                        continue;
                    }
                    match self.mapping[w.index()] {
                        Some(x) if self.b.has_edge(x, t) => {} // matched
                        _ => c += 1,                           // deleted
                    }
                }
                // B-side insertions: edges from t to already-used images
                // with no corresponding A edge.
                for &(y, _) in self.b.neighbors(t) {
                    if !self.b_used[y.index()] {
                        continue;
                    }
                    match self.preimage[y.index()] {
                        Some(w) if self.a.has_edge(w, v) => {} // matched above
                        Some(_) => c += 1,                     // inserted
                        None => {}
                    }
                }
            }
        }
        c
    }

    /// Admissible heuristic on the remaining subproblem: label-multiset
    /// vertex bound + |remaining-edge-count| difference.
    fn heuristic(&self, depth: usize) -> usize {
        let ra = self.order.len() - depth;
        let rb = self.b.vertex_count() - self.b_used_count;
        let mut matched = 0usize;
        for (x, y) in self.rem_a.iter().zip(&self.avail_b) {
            matched += usize::try_from((*x).min(*y)).unwrap_or(0);
        }
        let v_h = ra.max(rb) - matched.min(ra.min(rb));
        let ea = self.a.edge_count() - self.prefix_a_edges[depth];
        let eb = self.b.edge_count() - self.b_edges_used;
        v_h + ea.abs_diff(eb)
    }

    fn completion_cost(&self) -> usize {
        // All A vertices decided; unused B vertices and their incident
        // edges are insertions.
        let unused = self.b.vertex_count() - self.b_used_count;
        unused + (self.b.edge_count() - self.b_edges_used)
    }

    fn use_b(&mut self, t: VertexId, v: VertexId) {
        self.b_used[t.index()] = true;
        self.b_used_count += 1;
        self.preimage[t.index()] = Some(v);
        let lid = self.label_id(self.b.label(t));
        self.avail_b[lid] -= 1;
        self.b_edges_used += self
            .b
            .neighbors(t)
            .iter()
            .filter(|(y, _)| self.b_used[y.index()])
            .count();
    }

    fn release_b(&mut self, t: VertexId) {
        self.b_edges_used -= self
            .b
            .neighbors(t)
            .iter()
            .filter(|(y, _)| self.b_used[y.index()])
            .count();
        self.b_used[t.index()] = false;
        self.b_used_count -= 1;
        self.preimage[t.index()] = None;
        let lid = self.label_id(self.b.label(t));
        self.avail_b[lid] += 1;
    }

    fn descend(&mut self, depth: usize, g: usize) {
        if self.meter.tick() {
            return;
        }
        if g + self.heuristic(depth) >= self.best {
            return;
        }
        if depth == self.order.len() {
            let total = g + self.completion_cost();
            if total < self.best {
                self.best = total;
                self.meter.note_improvement();
            }
            return;
        }
        let v = self.order[depth];
        let v_label_id = self.label_id(self.a.label(v));
        self.rem_a[v_label_id] -= 1;
        // Substitution branches, same-label targets first.
        let mut targets: Vec<VertexId> = self
            .b
            .vertices()
            .filter(|t| !self.b_used[t.index()])
            .collect();
        targets.sort_by_key(|&t| self.b.label(t) != self.a.label(v));
        for t in targets {
            let dc = self.step_cost(v, Some(t), depth);
            if g + dc >= self.best {
                continue;
            }
            self.mapping[v.index()] = Some(t);
            self.use_b(t, v);
            self.descend(depth + 1, g + dc);
            self.release_b(t);
            self.mapping[v.index()] = None;
            if self.meter.tripped() {
                self.rem_a[v_label_id] += 1;
                return;
            }
        }
        // Deletion branch.
        let dc = self.step_cost(v, None, depth);
        self.descend(depth + 1, g + dc);
        self.rem_a[v_label_id] += 1;
    }
}

/// `min(GED, τ)` for the cutoff `τ = tau` (`None`: τ = ∞, the plain GED)
/// by branch-and-bound, under a [`SearchBudget`] (a plain `u64` converts
/// to a node cap).
///
/// The search looks only for edit paths cheaper than `min(ub, τ)`
/// ([`ged_upper_bound`]); running out of branches proves there are none,
/// so an answer of τ proves `GED ≥ τ`. A tripped limit is named by
/// [`GedResult::completeness`] (see [`GedResult`] for what it returns).
pub fn ged(a: &Graph, b: &Graph, tau: Option<usize>, budget: impl Into<SearchBudget>) -> GedResult {
    let lb = ged_lower_bound(a, b);
    let seed = ged_upper_bound(a, b).min(tau.unwrap_or(usize::MAX));
    if lb >= seed {
        // `lb ≥ τ` proves `GED ≥ τ`, and `lb == ub` proves the GED, without
        // any search (and without consuming a kernel invocation).
        return GedResult {
            distance: seed,
            completeness: Completeness::Exact,
        };
    }
    let mut order: Vec<VertexId> = a.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(a.degree(v)));
    let mut pos = vec![usize::MAX; a.vertex_count()];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    // prefix_a_edges[d]: A edges with both endpoint positions < d.
    let mut prefix_a_edges = vec![0usize; order.len() + 1];
    for (_, e) in a.edges() {
        let later = pos[e.u.index()].max(pos[e.v.index()]);
        prefix_a_edges[later + 1] += 1;
    }
    for d in 1..prefix_a_edges.len() {
        prefix_a_edges[d] += prefix_a_edges[d - 1];
    }
    // Union label alphabet with per-side counts.
    let mut label_ids = std::collections::HashMap::new();
    for l in a.labels().iter().chain(b.labels()) {
        let next = label_ids.len();
        label_ids.entry(*l).or_insert(next);
    }
    let mut rem_a = vec![0i32; label_ids.len()];
    let mut avail_b = vec![0i32; label_ids.len()];
    for &l in a.labels() {
        rem_a[label_ids[&l]] += 1;
    }
    for &l in b.labels() {
        avail_b[label_ids[&l]] += 1;
    }
    let mut s = GedSearch {
        a,
        b,
        order,
        pos,
        prefix_a_edges,
        rem_a,
        avail_b,
        label_ids,
        mapping: vec![None; a.vertex_count()],
        preimage: vec![None; b.vertex_count()],
        b_used: vec![false; b.vertex_count()],
        b_used_count: 0,
        b_edges_used: 0,
        best: seed,
        meter: BudgetMeter::new(&budget.into(), Kernel::Ged),
    };
    s.descend(0, 0);
    // `s.best` only holds the seed or cheaper completed edit paths, so it
    // bounds `min(GED, τ)` from above even when the search was cut short.
    GedResult {
        distance: s.best,
        completeness: s.meter.status(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn path(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    fn cycle(n: usize) -> Graph {
        let labels = vec![l(0); n];
        let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn identical_graphs_distance_zero() {
        let g = cycle(5);
        let r = ged(&g, &g, None, DEFAULT_NODE_CAP);
        assert!(r.is_exact());
        assert_eq!(r.distance, 0);
        assert_eq!(ged_lower_bound(&g, &g), 0);
        assert_eq!(ged_upper_bound(&g, &g), 0);
    }

    #[test]
    fn path_to_cycle_one_edge() {
        // path of n → cycle of n: insert one edge.
        let p = path(5);
        let c = cycle(5);
        let r = ged(&p, &c, None, DEFAULT_NODE_CAP);
        assert!(r.is_exact());
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn relabel_one_vertex() {
        let a = Graph::from_parts(&[l(0), l(0), l(0)], &[(0, 1), (1, 2)]);
        let b = Graph::from_parts(&[l(0), l(1), l(0)], &[(0, 1), (1, 2)]);
        let r = ged(&a, &b, None, DEFAULT_NODE_CAP);
        assert!(r.is_exact());
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn lower_bound_is_a_lower_bound() {
        let cases = [
            (path(3), cycle(3)),
            (path(4), cycle(6)),
            (cycle(4), cycle(5)),
            (
                Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]),
                Graph::from_parts(&[l(3), l(4)], &[(0, 1)]),
            ),
        ];
        for (a, b) in &cases {
            let lb = ged_lower_bound(a, b);
            let exact = ged(a, b, None, DEFAULT_NODE_CAP);
            let ub = ged_upper_bound(a, b);
            assert!(exact.is_exact());
            assert!(lb <= exact.distance, "lb={lb} d={}", exact.distance);
            assert!(exact.distance <= ub, "d={} ub={ub}", exact.distance);
        }
    }

    #[test]
    fn symmetry() {
        let a = path(4);
        let b = cycle(5);
        let d1 = ged(&a, &b, None, DEFAULT_NODE_CAP);
        let d2 = ged(&b, &a, None, DEFAULT_NODE_CAP);
        assert!(d1.is_exact() && d2.is_exact());
        assert_eq!(d1.distance, d2.distance);
    }

    #[test]
    fn deletion_and_insertion() {
        // path(3) → path(2): delete one vertex + one edge = 2.
        let r = ged(&path(3), &path(2), None, DEFAULT_NODE_CAP);
        assert!(r.is_exact());
        assert_eq!(r.distance, 2);
    }

    #[test]
    fn tiny_budget_returns_flagged_upper_bound() {
        // Cycle(6) vs two disjoint triangles: equal sizes and labels give
        // lb = 0 < ub, so the search runs; a 1-node budget trips
        // immediately and the Riesen–Bunke seed is returned, flagged as a
        // bound.
        let a = cycle(6);
        let b = Graph::from_parts(
            &[l(0); 6],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        );
        let lb = ged_lower_bound(&a, &b);
        let ub = ged_upper_bound(&a, &b);
        assert!(
            lb < ub,
            "test premise: bounds must not meet (lb={lb} ub={ub})"
        );
        let r = ged(&a, &b, None, 1u64);
        assert_eq!(r.completeness, Completeness::BudgetExhausted);
        assert!(!r.is_exact());
        // The degraded distance is a valid, non-trivial upper bound.
        let exact = ged(&a, &b, None, 5_000_000u64);
        assert!(exact.is_exact());
        assert!(r.distance >= exact.distance);
        assert!(r.distance <= ub);
        // With a cutoff the degraded value stays within
        // [min(GED, τ), ub].
        for tau in 0..=ub + 1 {
            let r = ged(&a, &b, Some(tau), 1u64);
            assert!(r.distance >= exact.distance.min(tau), "τ={tau}");
            assert!(r.distance <= ub, "τ={tau}");
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted_answer() {
        let a = path(5);
        let b = cycle(6);
        let default = ged(&a, &b, None, DEFAULT_NODE_CAP);
        let generous = ged(&a, &b, None, 100_000_000u64);
        assert!(default.is_exact() && generous.is_exact());
        assert_eq!(default.distance, generous.distance);
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        use crate::budget::Deadline;
        let a = cycle(6);
        let b = Graph::from_parts(
            &[l(0); 6],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        );
        let r = ged(
            &a,
            &b,
            None,
            SearchBudget::unbounded().with_deadline(Deadline::at(std::time::Instant::now())),
        );
        assert_eq!(r.completeness, Completeness::DeadlineExceeded);
        assert!(r.distance >= ged_lower_bound(&a, &b));
    }

    #[test]
    fn meeting_bounds_are_exact_under_zero_budget() {
        // Identical graphs: lb == ub == 0, proven without search.
        let g = cycle(5);
        let r = ged(&g, &g, None, 0u64);
        assert!(r.is_exact());
        assert_eq!(r.distance, 0);
        // A lower bound at or above the cutoff proves `GED ≥ τ` without
        // search: path(3) vs cycle(6) has lb = 3 vertices + 4 edges.
        let (a, b) = (path(3), cycle(6));
        let lb = ged_lower_bound(&a, &b);
        assert_eq!(lb, 7);
        for tau in 0..=lb {
            let r = ged(&a, &b, Some(tau), 0u64);
            assert_eq!(r.completeness, Completeness::Exact, "τ={tau}");
            assert_eq!(r.distance, tau);
        }
    }

    #[test]
    fn induced_cost_of_identity() {
        let g = cycle(4);
        let mapping: Vec<Option<VertexId>> = g.vertices().map(Some).collect();
        assert_eq!(induced_edit_cost(&g, &g, &mapping), 0);
    }

    #[test]
    fn empty_graphs() {
        let e = Graph::new();
        let r = ged(&e, &e, None, DEFAULT_NODE_CAP);
        assert_eq!(r.distance, 0);
        let one = path(2);
        let r2 = ged(&e, &one, None, DEFAULT_NODE_CAP);
        assert_eq!(r2.distance, 3); // 2 vertices + 1 edge inserted
    }
}
