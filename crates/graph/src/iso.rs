//! Subgraph isomorphism and graph isomorphism.
//!
//! CATAPULT needs subgraph-isomorphism tests in several places: cluster
//! coverage of candidate patterns against CSGs (§5, using VF2 [14]),
//! coverage measures `scov`, and the step model of §6.1 (enumerating
//! non-overlapping pattern embeddings in a query).
//!
//! We implement a VF2-style backtracking matcher with label/degree pruning
//! and a connectivity-aware matching order. The default semantics is
//! *non-induced* subgraph isomorphism (monomorphism): every pattern edge
//! must map to a target edge, extra target edges are allowed — the standard
//! semantics of subgraph search in graph databases [36]. Induced matching
//! is available via [`MatchOptions::induced`].

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
use crate::labels::{EdgeLabel, Label};
use std::ops::ControlFlow;

/// Default backtracking-node cap for isomorphism searches; guards
/// pathological inputs when the caller's [`SearchBudget`] sets no cap.
pub const DEFAULT_NODE_CAP: u64 = 10_000_000;

/// Options controlling a subgraph isomorphism search.
#[derive(Clone, Debug)]
pub struct MatchOptions {
    /// Require induced embeddings (pattern non-edges map to target non-edges).
    pub induced: bool,
    /// Stop after this many embeddings have been reported. Stopping here is
    /// the caller's choice and still counts as an *exact* outcome.
    pub max_embeddings: usize,
    /// Execution budget. When a limit trips, the search stops early and
    /// [`MatchOutcome::completeness`] reports why; embeddings found up to
    /// that point have been reported normally.
    pub budget: SearchBudget,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            induced: false,
            max_embeddings: usize::MAX,
            budget: SearchBudget::nodes(DEFAULT_NODE_CAP),
        }
    }
}

/// Result metadata of an embedding enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchOutcome {
    /// Number of embeddings reported to the callback.
    pub embeddings: usize,
    /// Why the search stopped. [`Completeness::Exact`] means the search
    /// space was exhausted *or* the caller stopped it on purpose (callback
    /// `Break`, `max_embeddings` reached); degraded variants mean a budget
    /// limit cut enumeration short and further embeddings may exist.
    pub completeness: Completeness,
}

impl MatchOutcome {
    /// Whether enumeration was not cut short by a budget limit.
    pub fn is_exact(&self) -> bool {
        self.completeness.is_exact()
    }
}

/// A graph with everything the matcher derives from it, computed once.
///
/// A graph that is matched many times — a database transaction against
/// every mined tree, a tree against every transaction, a CSG against every
/// candidate pattern — pays for this setup once instead of per call.
/// [`contains_prepared`] takes two of them; [`for_each_embedding`]
/// prepares both of its graphs and runs the same search, so the two entry
/// points visit the same nodes in the same order.
#[derive(Debug)]
pub struct PreparedGraph<'g> {
    graph: &'g Graph,
    /// Sorted edge-label multiset (`quick_reject`'s containment sweep).
    edge_labels: Vec<EdgeLabel>,
    /// Vertex degrees grouped by label, each group in descending order.
    degrees: Vec<usize>,
    /// One entry per distinct vertex label, ascending: the label and its
    /// group's range in `degrees`, whose length is the label's vertex
    /// count.
    classes: Vec<(Label, usize, usize)>,
    /// Bitset adjacency: O(1) edge probes during the search.
    bits: BitAdjacency,
}

impl<'g> PreparedGraph<'g> {
    /// Derive the matcher's per-graph data from `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        let mut by_label: Vec<(Label, usize)> = graph
            .vertices()
            .map(|v| (graph.label(v), graph.degree(v)))
            .collect();
        by_label.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut classes: Vec<(Label, usize, usize)> = Vec::new();
        for (i, &(l, _)) in by_label.iter().enumerate() {
            match classes.last_mut() {
                Some(class) if class.0 == l => class.2 = i + 1,
                _ => classes.push((l, i, i + 1)),
            }
        }
        PreparedGraph {
            graph,
            edge_labels: graph.sorted_edge_labels(),
            degrees: by_label.into_iter().map(|(_, d)| d).collect(),
            classes,
            bits: BitAdjacency::new(graph),
        }
    }

    /// Number of vertices labelled `l`.
    fn label_count(&self, l: Label) -> usize {
        self.classes
            .binary_search_by_key(&l, |&(c, _, _)| c)
            .map_or(0, |i| self.classes[i].2 - self.classes[i].1)
    }

    /// `(label, degrees of its vertices, descending)` per label, ascending.
    fn degree_classes(&self) -> impl Iterator<Item = (Label, &[usize])> + '_ {
        self.classes
            .iter()
            .map(|&(l, lo, hi)| (l, self.degrees.get(lo..hi).unwrap_or(&[])))
    }
}

struct Matcher<'a, F>
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    pattern: &'a Graph,
    target: &'a Graph,
    /// Bitset adjacency of the target: O(1) edge probes in `feasible`.
    tbits: &'a BitAdjacency,
    max_embeddings: usize,
    /// Pattern vertices in matching order.
    order: Vec<VertexId>,
    /// For order position i, `back[lo..mid]` are the pattern neighbors of
    /// `order[i]` that appear earlier in the order and, in induced mode,
    /// `back[mid..hi]` the earlier ones NOT adjacent to it, where
    /// `(lo, mid, hi) = spans[i]`.
    back: Vec<VertexId>,
    spans: Vec<(usize, usize, usize)>,
    /// pattern vertex -> target vertex (or `UNMAPPED`)
    map: Vec<VertexId>,
    /// target vertex used?
    used: Vec<bool>,
    /// Candidate stack shared by every depth: a depth pushes its
    /// candidates above its caller's and truncates them on return, so the
    /// backtracking loop is allocation-free after warmup.
    stack: Vec<VertexId>,
    meter: BudgetMeter,
    found: usize,
    callback: F,
}

const UNMAPPED: VertexId = VertexId(u32::MAX);

/// Compute a connectivity-first matching order: start at the vertex whose
/// (label rarity in target, degree) makes it most selective, then repeatedly
/// append the unordered vertex with the most already-ordered neighbors
/// (ties broken by degree). Disconnected patterns are handled by restarting
/// at the most selective remaining vertex.
fn matching_order(pattern: &Graph, target: &PreparedGraph) -> Vec<VertexId> {
    let np = pattern.vertex_count();
    // Label frequency in target for selectivity.
    let selectivity = |v: VertexId| -> (usize, std::cmp::Reverse<usize>) {
        (
            target.label_count(pattern.label(v)),
            std::cmp::Reverse(pattern.degree(v)),
        )
    };
    let mut in_order = vec![false; np];
    let mut order = Vec::with_capacity(np);
    while order.len() < np {
        // The while-guard (`order.len() < np`) implies an unordered vertex
        // remains, so the `else` arm is unreachable; breaking keeps this
        // kernel free of panicking paths.
        let Some(start) = pattern
            .vertices()
            .filter(|v| !in_order[v.index()])
            .min_by_key(|&v| selectivity(v))
        else {
            break;
        };
        in_order[start.index()] = true;
        order.push(start);
        loop {
            // Most-constrained next: max count of ordered neighbors.
            let next = pattern
                .vertices()
                .filter(|v| !in_order[v.index()])
                .map(|v| {
                    let c = pattern
                        .neighbors(v)
                        .iter()
                        .filter(|(w, _)| in_order[w.index()])
                        .count();
                    (c, pattern.degree(v), v)
                })
                .filter(|&(c, _, _)| c > 0)
                .max_by_key(|&(c, d, _)| (c, d));
            match next {
                Some((_, _, v)) => {
                    in_order[v.index()] = true;
                    order.push(v);
                }
                None => break, // component exhausted; outer loop restarts
            }
        }
    }
    order
}

impl<'a, F> Matcher<'a, F>
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    fn new(
        pattern: &'a PreparedGraph,
        target: &'a PreparedGraph,
        induced: bool,
        max_embeddings: usize,
        budget: &SearchBudget,
        callback: F,
    ) -> Self {
        let p = pattern.graph;
        let order = matching_order(p, target);
        let np = p.vertex_count();
        let mut pos = vec![usize::MAX; np];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        let mut back = Vec::new();
        let mut spans = Vec::with_capacity(np);
        for (i, &v) in order.iter().enumerate() {
            let lo = back.len();
            back.extend(
                p.neighbors(v)
                    .iter()
                    .map(|&(w, _)| w)
                    .filter(|w| pos[w.index()] < i),
            );
            let mid = back.len();
            if induced {
                back.extend(
                    order
                        .iter()
                        .take(i)
                        .copied()
                        .filter(|&w| !pattern.bits.has_edge(v, w)),
                );
            }
            spans.push((lo, mid, back.len()));
        }
        Matcher {
            pattern: p,
            target: target.graph,
            tbits: &target.bits,
            max_embeddings,
            order,
            back,
            spans,
            map: vec![UNMAPPED; np],
            used: vec![false; target.graph.vertex_count()],
            stack: Vec::new(),
            meter: BudgetMeter::new(budget, Kernel::Iso),
            found: 0,
            callback,
        }
    }

    fn feasible(&self, depth: usize, pv: VertexId, tv: VertexId) -> bool {
        if self.used[tv.index()] {
            return false;
        }
        if self.pattern.label(pv) != self.target.label(tv) {
            return false;
        }
        if self.pattern.degree(pv) > self.target.degree(tv) {
            return false;
        }
        let (lo, mid, hi) = self.spans[depth];
        let mapped = |w: &VertexId| self.map[w.index()];
        self.back[lo..mid]
            .iter()
            .all(|w| self.tbits.has_edge(mapped(w), tv))
            && !self.back[mid..hi]
                .iter()
                .any(|w| self.tbits.has_edge(mapped(w), tv))
    }

    /// Returns `Break` to stop the whole search.
    fn descend(&mut self, depth: usize) -> ControlFlow<()> {
        if depth == self.order.len() {
            self.found += 1;
            self.meter.note_improvement();
            (self.callback)(&self.map)?;
            if self.found >= self.max_embeddings {
                return ControlFlow::Break(());
            }
            return ControlFlow::Continue(());
        }
        if self.meter.tick() {
            return ControlFlow::Break(());
        }
        let pv = self.order[depth];
        let (lo, mid, _) = self.spans[depth];
        let base = self.stack.len();
        if lo < mid {
            // Candidates restricted to target-neighbors of the mapped anchor.
            let mapped = self.map[self.back[lo].index()];
            self.stack
                .extend(self.target.neighbors(mapped).iter().map(|&(w, _)| w));
        } else {
            self.stack.extend(self.target.vertices());
        }
        let mut flow = ControlFlow::Continue(());
        for ci in base..self.stack.len() {
            let tv = self.stack[ci];
            if self.feasible(depth, pv, tv) {
                self.assign(pv, tv);
                flow = self.descend(depth + 1);
                self.unassign(pv, tv);
                if flow.is_break() {
                    break;
                }
            }
        }
        self.stack.truncate(base);
        flow
    }

    #[inline]
    fn assign(&mut self, pv: VertexId, tv: VertexId) {
        self.map[pv.index()] = tv;
        self.used[tv.index()] = true;
    }

    #[inline]
    fn unassign(&mut self, pv: VertexId, tv: VertexId) {
        self.map[pv.index()] = UNMAPPED;
        self.used[tv.index()] = false;
    }
}

/// Whether `pattern` has more vertices or edges than `target`: the first
/// and cheapest of the [`quick_reject`] conditions, which the unprepared
/// entry points also test before they prepare anything.
fn too_large(pattern: &Graph, target: &Graph) -> bool {
    pattern.vertex_count() > target.vertex_count() || pattern.edge_count() > target.edge_count()
}

/// Quick necessary conditions for `pattern ⊆ target` (monomorphism):
/// size bounds, edge-label multiset containment (a vertex-injective map is
/// edge-injective, so every pattern edge label must be matched by a
/// distinct target edge with the same label), and per-label degree
/// dominance (the i-th largest pattern degree within each label class must
/// not exceed the i-th largest target degree in that class — if it did,
/// more pattern vertices would need high-degree images than exist).
fn quick_reject(pattern: &PreparedGraph, target: &PreparedGraph) -> bool {
    if too_large(pattern.graph, target.graph) {
        return true;
    }
    // Edge-label multiset containment (sorted two-pointer sweep).
    let te = &target.edge_labels;
    let mut j = 0usize;
    for l in &pattern.edge_labels {
        while j < te.len() && te[j] < *l {
            j += 1;
        }
        if j == te.len() || te[j] != *l {
            return true;
        }
        j += 1;
    }
    // Per-label degree-sequence dominance (subsumes vertex-label multiset
    // containment: the length check is exactly the per-label count check).
    // Both class lists ascend by label, so one sweep pairs them up.
    let mut tclasses = target.degree_classes().peekable();
    for (l, ps) in pattern.degree_classes() {
        while tclasses.next_if(|&(tl, _)| tl < l).is_some() {}
        let Some((_, ts)) = tclasses.next_if(|&(tl, _)| tl == l) else {
            return true;
        };
        if ps.len() > ts.len() || ps.iter().zip(ts).any(|(p, t)| p > t) {
            return true;
        }
    }
    false
}

/// The one search behind every entry point.
fn search<F>(
    target: &PreparedGraph,
    pattern: &PreparedGraph,
    induced: bool,
    max_embeddings: usize,
    budget: &SearchBudget,
    callback: F,
) -> MatchOutcome
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    if pattern.graph.vertex_count() == 0 {
        // The empty pattern embeds trivially, once.
        let mut cb = callback;
        let _ = cb(&[]);
        return MatchOutcome {
            embeddings: 1,
            completeness: Completeness::Exact,
        };
    }
    if quick_reject(pattern, target) {
        return MatchOutcome {
            embeddings: 0,
            completeness: Completeness::Exact,
        };
    }
    let mut m = Matcher::new(pattern, target, induced, max_embeddings, budget, callback);
    let _ = m.descend(0);
    // A `Break` from the callback or the embedding cap leaves the meter
    // Exact: the caller got everything it asked for. Only a tripped budget
    // limit (the node cap) marks the result degraded.
    MatchOutcome {
        embeddings: m.found,
        completeness: m.meter.status(),
    }
}

/// Enumerate embeddings of `pattern` in `target`, invoking `callback` with
/// each mapping (indexed by pattern vertex id, values are target vertex
/// ids). Return `ControlFlow::Break(())` from the callback to stop early.
pub fn for_each_embedding<F>(
    target: &Graph,
    pattern: &Graph,
    opts: MatchOptions,
    callback: F,
) -> MatchOutcome
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    if too_large(pattern, target) {
        return MatchOutcome {
            embeddings: 0,
            completeness: Completeness::Exact,
        };
    }
    search(
        &PreparedGraph::new(target),
        &PreparedGraph::new(pattern),
        opts.induced,
        opts.max_embeddings,
        &opts.budget,
        callback,
    )
}

/// Budgeted containment test over prepared graphs: whether an embedding
/// of `pattern` was found in `target`, plus why the search stopped.
/// `(false, Exact)` proves non-containment; `(false, degraded)` only means
/// no embedding was found before the budget tripped.
///
/// The budget's node cap applies as given (an unbounded budget searches
/// without a cap): a caller that tests one pattern against many targets
/// resolves its default cap once, with [`SearchBudget::with_default_cap`].
pub fn contains_prepared(
    target: &PreparedGraph,
    pattern: &PreparedGraph,
    budget: &SearchBudget,
) -> (bool, Completeness) {
    let mut found = false;
    let out = search(target, pattern, false, 1, budget, |_| {
        found = true;
        ControlFlow::Break(())
    });
    (found, out.completeness)
}

/// Whether `pattern` is subgraph-isomorphic to `target` (non-induced).
///
/// [`contains_tagged`] under [`DEFAULT_NODE_CAP`], with the completeness
/// tag dropped: a budget-tripped search reports "not contained" even
/// though an embedding might exist past the cutoff. Pipeline code calls
/// [`contains_tagged`] (`cargo xtask lint` rule `budget-threading`).
pub fn contains(target: &Graph, pattern: &Graph) -> bool {
    contains_tagged(target, pattern, &SearchBudget::unbounded()).0
}

/// Budgeted containment test: whether an embedding of `pattern` was found
/// in `target`, plus why the search stopped. `(false, Exact)` proves
/// non-containment; `(false, degraded)` only means no embedding was found
/// before the budget tripped.
pub fn contains_tagged(
    target: &Graph,
    pattern: &Graph,
    budget: &SearchBudget,
) -> (bool, Completeness) {
    if too_large(pattern, target) {
        return (false, Completeness::Exact);
    }
    contains_prepared(
        &PreparedGraph::new(target),
        &PreparedGraph::new(pattern),
        &budget.with_default_cap(DEFAULT_NODE_CAP),
    )
}

/// Collect up to `cap` embeddings of `pattern` in `target` (non-induced).
pub fn embeddings(target: &Graph, pattern: &Graph, cap: usize) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    for_each_embedding(
        target,
        pattern,
        MatchOptions {
            max_embeddings: cap,
            ..MatchOptions::default()
        },
        |emb| {
            out.push(emb.to_vec());
            ControlFlow::Continue(())
        },
    );
    out
}

/// Exact graph isomorphism test.
///
/// Two simple graphs with equal `|V|` and `|E|` are isomorphic iff a
/// vertex-injective, edge-preserving map exists (the map is then a
/// bijection and edge counts force edge surjectivity).
///
/// [`are_isomorphic_tagged`] under [`DEFAULT_NODE_CAP`], with the
/// completeness tag dropped; pipeline code calls [`are_isomorphic_tagged`]
/// so a budget-tripped "not isomorphic" stays distinguishable from a
/// proven one.
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    are_isomorphic_tagged(a, b, &SearchBudget::unbounded()).0
}

/// Budgeted graph isomorphism test: the verdict plus why the underlying
/// search stopped. Invariant-based rejections are always `Exact`.
pub fn are_isomorphic_tagged(a: &Graph, b: &Graph, budget: &SearchBudget) -> (bool, Completeness) {
    if a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count() {
        return (false, Completeness::Exact);
    }
    if a.invariant_signature() != b.invariant_signature() {
        return (false, Completeness::Exact);
    }
    contains_tagged(b, a, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn rejects(pattern: &Graph, target: &Graph) -> bool {
        quick_reject(&PreparedGraph::new(pattern), &PreparedGraph::new(target))
    }

    fn triangle() -> Graph {
        Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2), (0, 2)])
    }

    fn path(n: u32) -> Graph {
        let labels = vec![l(0); n as usize];
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn triangle_contains_path2_not_vice_versa() {
        let t = triangle();
        let p = path(3);
        assert!(contains(&t, &p));
        assert!(!contains(&p, &t));
    }

    #[test]
    fn self_containment() {
        let t = triangle();
        assert!(contains(&t, &t));
        assert!(are_isomorphic(&t, &t));
    }

    #[test]
    fn labels_block_matching() {
        let a = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        let b = Graph::from_parts(&[l(0), l(2)], &[(0, 1)]);
        assert!(!contains(&b, &a));
    }

    #[test]
    fn induced_vs_monomorphism() {
        // pattern: path of 3; target: triangle. Non-induced: yes. Induced: no
        // (the two path endpoints map to adjacent target vertices).
        let t = triangle();
        let p = path(3);
        let non_induced =
            for_each_embedding(&t, &p, MatchOptions::default(), |_| ControlFlow::Break(()));
        assert_eq!(non_induced.embeddings, 1);
        let induced = for_each_embedding(
            &t,
            &p,
            MatchOptions {
                induced: true,
                ..MatchOptions::default()
            },
            |_| ControlFlow::Break(()),
        );
        assert_eq!(induced.embeddings, 0);
    }

    #[test]
    fn counts_all_embeddings_of_edge_in_triangle() {
        // single labeled edge into unlabeled triangle: 3 edges × 2 directions.
        let e = path(2);
        let t = triangle();
        assert_eq!(embeddings(&t, &e, usize::MAX).len(), 6);
    }

    #[test]
    fn embedding_preserves_edges_and_labels() {
        let t = Graph::from_parts(&[l(0), l(1), l(0), l(2)], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let p = Graph::from_parts(&[l(1), l(0)], &[(0, 1)]);
        for emb in embeddings(&t, &p, usize::MAX) {
            assert_eq!(t.label(emb[0]), l(1));
            assert_eq!(t.label(emb[1]), l(0));
            assert!(t.has_edge(emb[0], emb[1]));
        }
    }

    #[test]
    fn quick_reject_on_labels() {
        let p = Graph::from_parts(&[l(9), l(9)], &[(0, 1)]);
        let t = triangle();
        assert!(!contains(&t, &p));
    }

    #[test]
    fn quick_reject_on_edge_labels() {
        // Vertex-label multisets are compatible ({0,0,1} ⊆ {0,0,1}), but
        // the pattern needs a (0,0) edge the target does not have.
        let p = Graph::from_parts(&[l(0), l(0), l(1)], &[(0, 1), (1, 2)]);
        let t = Graph::from_parts(&[l(0), l(1), l(0)], &[(0, 1), (1, 2)]);
        assert!(rejects(&p, &t));
        assert!(!contains(&t, &p));
        // Flip the middle label and containment holds again.
        let t2 = Graph::from_parts(&[l(0), l(0), l(1)], &[(0, 1), (1, 2)]);
        assert!(!rejects(&p, &t2));
        assert!(contains(&t2, &p));
    }

    #[test]
    fn quick_reject_on_degree_dominance() {
        // Star K1,3 into a path of 4: same labels, same counts, same edge
        // labels, but the star's center needs degree 3 and the path tops
        // out at 2 — rejected without any search.
        let star = Graph::from_parts(&[l(0); 4], &[(0, 1), (0, 2), (0, 3)]);
        let p4 = path(4);
        assert!(rejects(&star, &p4));
        assert!(!contains(&p4, &star));
        // The reverse is also rejected by dominance alone: the path needs
        // two degree-2 images and the star has only one such vertex.
        assert!(rejects(&p4, &star));
        assert!(!contains(&star, &p4));
        // A shape that survives all pre-filters still reaches the search.
        assert!(!rejects(&path(3), &p4));
        assert!(contains(&p4, &path(3)));
    }

    #[test]
    fn disconnected_pattern_matches() {
        // Two isolated labeled edges into a path of 5.
        let p = Graph::from_parts(&[l(0); 4], &[(0, 1), (2, 3)]);
        let t = path(5);
        assert!(contains(&t, &p));
        // ... but not into a path of 3 (needs 4 distinct vertices).
        assert!(!contains(&path(3), &p));
    }

    #[test]
    fn isomorphism_respects_structure() {
        let p4 = path(4);
        let star = Graph::from_parts(&[l(0); 4], &[(0, 1), (0, 2), (0, 3)]);
        assert!(!are_isomorphic(&p4, &star));
        let p4b = Graph::from_parts(&[l(0); 4], &[(2, 0), (0, 3), (3, 1)]);
        assert!(are_isomorphic(&p4, &p4b));
    }

    #[test]
    fn max_embeddings_cap() {
        let e = path(2);
        let t = triangle();
        let out = embeddings(&t, &e, 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_pattern_embeds_once() {
        let t = triangle();
        let out = for_each_embedding(&t, &Graph::new(), MatchOptions::default(), |_| {
            ControlFlow::Continue(())
        });
        assert_eq!(out.embeddings, 1);
        assert!(out.is_exact());
    }

    #[test]
    fn tiny_budget_reports_exhaustion_with_best_so_far() {
        // Edge into triangle: 6 embeddings total. A 2-node budget trips
        // mid-enumeration; whatever was found before the trip is reported.
        let e = path(2);
        let t = triangle();
        let mut seen = 0usize;
        let out = for_each_embedding(
            &t,
            &e,
            MatchOptions {
                budget: SearchBudget::nodes(2),
                ..MatchOptions::default()
            },
            |_| {
                seen += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out.completeness, Completeness::BudgetExhausted);
        assert!(out.embeddings > 0, "best-so-far embeddings must survive");
        assert_eq!(out.embeddings, seen);
        assert!(out.embeddings < 6);
    }

    #[test]
    fn generous_budget_matches_unbudgeted_enumeration() {
        let e = path(2);
        let t = triangle();
        let unbudgeted = for_each_embedding(&t, &e, MatchOptions::default(), |_| {
            ControlFlow::Continue(())
        });
        let generous = for_each_embedding(
            &t,
            &e,
            MatchOptions {
                budget: SearchBudget::nodes(1_000_000),
                ..MatchOptions::default()
            },
            |_| ControlFlow::Continue(()),
        );
        assert!(unbudgeted.is_exact() && generous.is_exact());
        assert_eq!(unbudgeted.embeddings, generous.embeddings);
        assert_eq!(generous.embeddings, 6);
    }

    #[test]
    fn tagged_helpers_report_completeness() {
        let t = triangle();
        let p = path(3);
        let (found, c) = contains_tagged(&t, &p, &SearchBudget::unbounded());
        assert!(found);
        assert!(c.is_exact());
        let (iso, c) = are_isomorphic_tagged(&t, &t, &SearchBudget::unbounded());
        assert!(iso);
        assert!(c.is_exact());
        // Quick rejections are exact even under a zero budget.
        let (iso, c) = are_isomorphic_tagged(&t, &p, &SearchBudget::nodes(0));
        assert!(!iso);
        assert!(c.is_exact());
    }
}
