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

use crate::bitadj::BitAdjacency;
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

/// Depth-first branch-and-bound over vertex mappings A → B ∪ {deleted}.
///
/// Every per-node quantity lives in dense tables, bitsets and per-depth
/// buffers built once per call (DESIGN.md §15, "GED inner loop"): a node
/// allocates nothing, hashes nothing, and prices a target with two
/// popcounts over one row of B's adjacency.
struct GedSearch<'a> {
    a: &'a Graph,
    b: &'a Graph,
    order: Vec<VertexId>,
    /// `prefix_a_edges[d]` = number of A edges with both endpoints among
    /// the first `d` ordered vertices (precomputed once; the order is
    /// static).
    prefix_a_edges: Vec<usize>,
    /// `back[back_start[d]..back_start[d + 1]]`: the neighbours of
    /// `order[d]` that come before it in `order`, i.e. those already
    /// decided when it is.
    back_start: Vec<usize>,
    back: Vec<VertexId>,
    /// Dense label id of each A / B vertex over the sorted, deduplicated
    /// union label alphabet.
    a_lid: Vec<usize>,
    b_lid: Vec<usize>,
    /// Per-label count of undecided A vertices / unused B vertices.
    rem_a: Vec<usize>,
    avail_b: Vec<usize>,
    /// `Σ_l min(rem_a[l], avail_b[l])`, kept current on every count change.
    matched: usize,
    /// a-vertex → its image in B (`None`: undecided or deleted).
    mapping: Vec<Option<VertexId>>,
    /// Adjacency rows of B, `stride` words each.
    b_bits: BitAdjacency,
    stride: usize,
    /// Bitset of used B vertices.
    used: Vec<u64>,
    /// Number of used B vertices (incremental).
    b_used_count: usize,
    /// Number of B edges with both endpoints used (incremental).
    b_edges_used: usize,
    /// Per-depth scratch, reused across siblings: depth `d` owns
    /// `targets[d·|V_B|..]` (its branch order) and `img[d·stride..]` (the
    /// images of its vertex's mapped back-neighbours).
    targets: Vec<VertexId>,
    img: Vec<u64>,
    best: usize,
    meter: BudgetMeter,
}

impl GedSearch<'_> {
    // `min(x, y)` falls with `x` iff `x ≤ y` before the decrement, and
    // rises with it iff `x ≤ y` after the increment.
    fn take_a(&mut self, l: usize) {
        self.matched -= usize::from(self.rem_a[l] <= self.avail_b[l]);
        self.rem_a[l] -= 1;
    }

    fn return_a(&mut self, l: usize) {
        self.rem_a[l] += 1;
        self.matched += usize::from(self.rem_a[l] <= self.avail_b[l]);
    }

    fn take_b(&mut self, l: usize) {
        self.matched -= usize::from(self.avail_b[l] <= self.rem_a[l]);
        self.avail_b[l] -= 1;
    }

    fn return_b(&mut self, l: usize) {
        self.avail_b[l] += 1;
        self.matched += usize::from(self.avail_b[l] <= self.rem_a[l]);
    }

    /// Number of decided neighbours of the vertex at `depth`: the edges a
    /// deletion of it deletes.
    fn decided_degree(&self, depth: usize) -> usize {
        self.back_start[depth + 1] - self.back_start[depth]
    }

    /// Incremental cost of mapping the vertex at `depth` (label id `vl`)
    /// onto the unused B vertex `t`: a relabel, each edge to a decided
    /// vertex whose image is not adjacent to `t` (deleted), and each edge
    /// from `t` to a used vertex whose preimage is not adjacent to the
    /// vertex (inserted). Both edge terms exclude the same overlap
    /// `|N_B(t) ∩ img|`, so on simple graphs, where every used B vertex
    /// has a preimage, the cost is
    /// `[vl ≠ l(t)] + |decided N_A| + |N_B(t) ∩ used| − 2·|N_B(t) ∩ img|`.
    fn map_cost(&self, depth: usize, vl: usize, t: VertexId) -> usize {
        let img = &self.img[depth * self.stride..(depth + 1) * self.stride];
        let overlap = self.b_bits.row_overlap(t, img);
        let touched = self.b_bits.row_overlap(t, &self.used);
        usize::from(self.b_lid[t.index()] != vl)
            + (self.decided_degree(depth) - overlap)
            + (touched - overlap)
    }

    /// Admissible heuristic on the remaining subproblem: label-multiset
    /// vertex bound + |remaining-edge-count| difference.
    fn heuristic(&self, depth: usize) -> usize {
        let ra = self.order.len() - depth;
        let rb = self.b.vertex_count() - self.b_used_count;
        let v_h = ra.max(rb) - self.matched.min(ra.min(rb));
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

    fn use_b(&mut self, t: VertexId) {
        self.b_edges_used += self.b_bits.row_overlap(t, &self.used);
        self.used[t.index() / 64] |= 1u64 << (t.index() % 64);
        self.b_used_count += 1;
        self.take_b(self.b_lid[t.index()]);
    }

    fn release_b(&mut self, t: VertexId) {
        self.used[t.index() / 64] &= !(1u64 << (t.index() % 64));
        self.b_edges_used -= self.b_bits.row_overlap(t, &self.used);
        self.b_used_count -= 1;
        self.return_b(self.b_lid[t.index()]);
    }

    /// Fill depth `depth`'s target buffer with the unused B vertices,
    /// those labelled `vl` first, each group in vertex order: the order a
    /// stable sort by "label differs" gives. Returns how many.
    fn fill_targets(&mut self, depth: usize, vl: usize) -> usize {
        let nb = self.b.vertex_count();
        let buf = &mut self.targets[depth * nb..(depth + 1) * nb];
        let mut k = 0;
        for same in [true, false] {
            for (t, &l) in self.b.vertices().zip(&self.b_lid) {
                let unused = (self.used[t.index() / 64] >> (t.index() % 64)) & 1 == 0;
                if unused && (l == vl) == same {
                    buf[k] = t;
                    k += 1;
                }
            }
        }
        k
    }

    /// Set depth `depth`'s image bitset to the images of the mapped
    /// back-neighbours of the vertex at `depth`.
    fn fill_img(&mut self, depth: usize) {
        let img = &mut self.img[depth * self.stride..(depth + 1) * self.stride];
        img.fill(0);
        for &w in &self.back[self.back_start[depth]..self.back_start[depth + 1]] {
            if let Some(x) = self.mapping[w.index()] {
                img[x.index() / 64] |= 1u64 << (x.index() % 64);
            }
        }
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
        let vl = self.a_lid[v.index()];
        self.take_a(vl);
        let n_targets = self.fill_targets(depth, vl);
        self.fill_img(depth);
        let base = depth * self.b.vertex_count();
        // Substitution branches, same-label targets first.
        for i in 0..n_targets {
            let t = self.targets[base + i];
            let dc = self.map_cost(depth, vl, t);
            if g + dc >= self.best {
                continue;
            }
            self.mapping[v.index()] = Some(t);
            self.use_b(t);
            self.descend(depth + 1, g + dc);
            self.release_b(t);
            self.mapping[v.index()] = None;
            if self.meter.tripped() {
                self.return_a(vl);
                return;
            }
        }
        // Deletion branch: the vertex and its edges to decided vertices.
        let dc = 1 + self.decided_degree(depth);
        self.descend(depth + 1, g + dc);
        self.return_a(vl);
    }
}

/// `min(GED, τ)` for the cutoff `τ = tau` (`None`: τ = ∞, the plain GED)
/// by branch-and-bound, under a [`SearchBudget`].
///
/// The search looks only for edit paths cheaper than `min(ub, τ)`
/// ([`ged_upper_bound`]); running out of branches proves there are none,
/// so an answer of τ proves `GED ≥ τ`. A tripped limit is named by
/// [`GedResult::completeness`] (see [`GedResult`] for what it returns).
pub fn ged(a: &Graph, b: &Graph, tau: Option<usize>, budget: &SearchBudget) -> GedResult {
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
    let (na, nb) = (a.vertex_count(), b.vertex_count());
    let mut order: Vec<VertexId> = a.vertices().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(a.degree(v)));
    let mut pos = vec![usize::MAX; na];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    // prefix_a_edges[d]: A edges with both endpoint positions < d.
    let mut prefix_a_edges = vec![0usize; na + 1];
    for (_, e) in a.edges() {
        let later = pos[e.u.index()].max(pos[e.v.index()]);
        prefix_a_edges[later + 1] += 1;
    }
    for d in 1..prefix_a_edges.len() {
        prefix_a_edges[d] += prefix_a_edges[d - 1];
    }
    let mut back_start = Vec::with_capacity(na + 1);
    let mut back = Vec::with_capacity(a.edge_count());
    back_start.push(0);
    for (d, &v) in order.iter().enumerate() {
        back.extend(
            a.neighbors(v)
                .iter()
                .map(|&(w, _)| w)
                .filter(|w| pos[w.index()] < d),
        );
        back_start.push(back.len());
    }
    // Union label alphabet with per-side counts.
    let mut alphabet: Vec<Label> = a.labels().iter().chain(b.labels()).copied().collect();
    alphabet.sort_unstable();
    alphabet.dedup();
    let lid = |l: &Label| alphabet.partition_point(|x| x < l);
    let a_lid: Vec<usize> = a.labels().iter().map(lid).collect();
    let b_lid: Vec<usize> = b.labels().iter().map(lid).collect();
    let mut rem_a = vec![0usize; alphabet.len()];
    let mut avail_b = vec![0usize; alphabet.len()];
    for &l in &a_lid {
        rem_a[l] += 1;
    }
    for &l in &b_lid {
        avail_b[l] += 1;
    }
    let matched = rem_a.iter().zip(&avail_b).map(|(x, y)| *x.min(y)).sum();
    let stride = nb.div_ceil(64);
    let mut s = GedSearch {
        a,
        b,
        order,
        prefix_a_edges,
        back_start,
        back,
        a_lid,
        b_lid,
        rem_a,
        avail_b,
        matched,
        mapping: vec![None; na],
        b_bits: BitAdjacency::new(b),
        stride,
        used: vec![0; stride],
        b_used_count: 0,
        b_edges_used: 0,
        targets: vec![VertexId(0); na * nb],
        img: vec![0; na * stride],
        best: seed,
        meter: BudgetMeter::new(budget, Kernel::Ged),
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
        let r = ged(&g, &g, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
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
        let r = ged(&p, &c, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
        assert!(r.is_exact());
        assert_eq!(r.distance, 1);
    }

    #[test]
    fn relabel_one_vertex() {
        let a = Graph::from_parts(&[l(0), l(0), l(0)], &[(0, 1), (1, 2)]);
        let b = Graph::from_parts(&[l(0), l(1), l(0)], &[(0, 1), (1, 2)]);
        let r = ged(&a, &b, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
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
            let exact = ged(a, b, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
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
        let d1 = ged(&a, &b, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
        let d2 = ged(&b, &a, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
        assert!(d1.is_exact() && d2.is_exact());
        assert_eq!(d1.distance, d2.distance);
    }

    #[test]
    fn deletion_and_insertion() {
        // path(3) → path(2): delete one vertex + one edge = 2.
        let r = ged(
            &path(3),
            &path(2),
            None,
            &SearchBudget::nodes(DEFAULT_NODE_CAP),
        );
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
        let r = ged(&a, &b, None, &SearchBudget::nodes(1));
        assert_eq!(r.completeness, Completeness::BudgetExhausted);
        assert!(!r.is_exact());
        // The degraded distance is a valid, non-trivial upper bound.
        let exact = ged(&a, &b, None, &SearchBudget::nodes(5_000_000));
        assert!(exact.is_exact());
        assert!(r.distance >= exact.distance);
        assert!(r.distance <= ub);
        // With a cutoff the degraded value stays within
        // [min(GED, τ), ub].
        for tau in 0..=ub + 1 {
            let r = ged(&a, &b, Some(tau), &SearchBudget::nodes(1));
            assert!(r.distance >= exact.distance.min(tau), "τ={tau}");
            assert!(r.distance <= ub, "τ={tau}");
        }
    }

    #[test]
    fn generous_budget_matches_unbudgeted_answer() {
        let a = path(5);
        let b = cycle(6);
        let default = ged(&a, &b, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
        let generous = ged(&a, &b, None, &SearchBudget::nodes(100_000_000));
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
            &SearchBudget::unbounded().with_deadline(Deadline::at(catapult_obs::now())),
        );
        assert_eq!(r.completeness, Completeness::DeadlineExceeded);
        assert!(r.distance >= ged_lower_bound(&a, &b));
    }

    #[test]
    fn meeting_bounds_are_exact_under_zero_budget() {
        // Identical graphs: lb == ub == 0, proven without search.
        let g = cycle(5);
        let r = ged(&g, &g, None, &SearchBudget::nodes(0));
        assert!(r.is_exact());
        assert_eq!(r.distance, 0);
        // A lower bound at or above the cutoff proves `GED ≥ τ` without
        // search: path(3) vs cycle(6) has lb = 3 vertices + 4 edges.
        let (a, b) = (path(3), cycle(6));
        let lb = ged_lower_bound(&a, &b);
        assert_eq!(lb, 7);
        for tau in 0..=lb {
            let r = ged(&a, &b, Some(tau), &SearchBudget::nodes(0));
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
        let r = ged(&e, &e, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
        assert_eq!(r.distance, 0);
        let one = path(2);
        let r2 = ged(&e, &one, None, &SearchBudget::nodes(DEFAULT_NODE_CAP));
        assert_eq!(r2.distance, 3); // 2 vertices + 1 edge inserted
    }
}
