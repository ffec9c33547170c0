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
    map: Vec<u32>, // a-vertex -> b-vertex or MAX
    score: usize,  // common edges among mapped pairs
    lost: usize,   // a-edges that can no longer become common
    best_edges: usize,
    best_pairs: Vec<(VertexId, VertexId)>,
    meter: BudgetMeter,
    swapped: bool,
    /// Bitsets over `a`'s vertices: decided (mapped or skipped) so far,
    /// and those of them that were skipped. `decided & !skipped` is the
    /// set of mapped a-vertices.
    decided: Vec<u64>,
    skipped: Vec<u64>,
    /// Bitset over `b`'s vertices already used as an image.
    used: Vec<u64>,
    /// Bitset adjacency of `a`/`b`: O(1) `has_edge` and neighbour rows.
    abits: BitAdjacency,
    bbits: BitAdjacency,
    /// Words per `b` row.
    stride: usize,
    /// One `b`-row bitset per distinct `b` label: the vertices carrying it.
    classes: Vec<u64>,
    /// a-vertex -> offset of its label's row in `classes`, or [`NO_CLASS`]
    /// when no `b` vertex carries that label.
    class_of: Vec<usize>,
    /// Bit-sliced gain counter: `planes.len() / stride` planes of one
    /// `b` row each, enough bits to count to `a`'s maximum degree. Bit
    /// `t` of plane `p` is bit `p` of target `t`'s gain.
    planes: Vec<u64>,
    /// Candidate targets of the node being expanded (`b`-row layout).
    pool: Vec<u64>,
    /// Global upper bound on the common-edge count (edge-label multiset
    /// intersection capped by both edge counts). Once `best_edges` reaches
    /// it, the result is provably optimal and the search stops *Exact*.
    ub: usize,
    /// Set when `best_edges == ub`: unwind without exploring further.
    proven: bool,
    /// Per-depth `(gain, target)` candidate buffers, reused across
    /// branches to keep the backtracking loop allocation-free after warmup.
    scratch: Vec<Vec<(usize, VertexId)>>,
    /// Last-level scratch (MCCS): `(image, tracker root)` of each mapped
    /// neighbour of the last decided vertex.
    roots: Vec<(VertexId, usize)>,
    /// Largest-common-component tracker (MCCS only; empty for plain MCS).
    cc: CcForest,
}

const UNMAPPED: u32 = u32::MAX;
const NO_CLASS: usize = usize::MAX;

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// Indices of the set bits of `word`, word `index` of a bitset, ascending.
fn ones(mut word: u64, index: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (bit < 64).then_some(index * 64 + bit)
    })
}

/// The mapped neighbours of a vertex with adjacency row `row`: the set
/// bits of `row & decided & !skipped`, ascending.
fn mapped_in<'s>(
    row: &'s [u64],
    decided: &'s [u64],
    skipped: &'s [u64],
) -> impl Iterator<Item = usize> + 's {
    let words = row.iter().zip(decided).zip(skipped);
    words
        .enumerate()
        .flat_map(|(i, ((&r, &d), &s))| ones(r & d & !s, i))
}

/// Bit `i` of a vertex bitset as a vertex id. Bitsets only hold bits
/// below the vertex count, and vertex ids are `u32`, so this is `Some`.
fn vertex_at(i: usize) -> Option<VertexId> {
    u32::try_from(i).ok().map(VertexId)
}

impl<'a> Search<'a> {
    fn loss_on_skip(&self, v: VertexId) -> usize {
        // Skipping v loses every a-edge incident to v that hasn't already
        // been scored or lost: i.e. edges to undecided vertices plus edges
        // to decided-mapped vertices (their commonality was accounted when v
        // would map; since v skips, they are lost now) — but edges to
        // decided-*skipped* neighbors were already counted as lost when that
        // neighbor skipped. We avoid double counting by only counting edges
        // whose other endpoint is undecided or mapped.
        self.a.degree(v) - self.abits.row_overlap(v, &self.skipped)
    }

    /// Fill `out` with the candidate targets of `v` whose gain is at least
    /// `min_gain`, as `(gain, target)`, gain descending and ids ascending
    /// within a gain, and return how many candidates gain less. A target's
    /// gain is the number of the `mapped` mapped neighbours of `v` whose
    /// image is adjacent to it; its loss is `mapped` minus the gain, so
    /// this is the (gain desc, loss asc, id asc) order, and the candidates
    /// left out are the last ones in it.
    fn candidates(
        &mut self,
        v: VertexId,
        mapped: usize,
        min_gain: usize,
        out: &mut Vec<(usize, VertexId)>,
    ) -> usize {
        out.clear();
        let class = self.class_of[v.index()];
        if class == NO_CLASS {
            return 0;
        }
        // Unused targets with v's label.
        let sb = self.stride;
        let mut left = 0;
        for i in 0..sb {
            self.pool[i] = self.classes[class + i] & !self.used[i];
            left += self.pool[i].count_ones() as usize;
        }
        if left == 0 || min_gain > mapped {
            return left;
        }
        // Carry-save count: add each mapped neighbour's image row, masked
        // to the pool, into the planes.
        self.planes.fill(0);
        for w in mapped_in(self.abits.row(v), &self.decided, &self.skipped) {
            let image = self.bbits.row(VertexId(self.map[w]));
            for (i, (&b, &p)) in image.iter().zip(&self.pool).enumerate() {
                let mut carry = b & p;
                for plane in self.planes[i..].iter_mut().step_by(sb) {
                    if carry == 0 {
                        break;
                    }
                    let c = *plane;
                    *plane = c ^ carry;
                    carry &= c;
                }
            }
        }
        // Emit gain classes, highest first, each in ascending id order.
        for gain in (min_gain..=mapped).rev() {
            for i in 0..sb {
                let mut hits = self.pool[i];
                for (p, &plane) in self.planes[i..].iter().step_by(sb).enumerate() {
                    hits &= if (gain >> p) & 1 == 1 { plane } else { !plane };
                }
                self.pool[i] &= !hits;
                left -= hits.count_ones() as usize;
                out.extend(ones(hits, i).filter_map(vertex_at).map(|t| (gain, t)));
            }
            if left == 0 {
                break;
            }
        }
        left
    }

    /// Map `v` onto `t` and link the new common edges into the component
    /// tracker; returns the tracker mark to roll back to.
    fn map_to(&mut self, v: VertexId, t: VertexId, gain: usize, loss: usize) -> usize {
        self.map[v.index()] = t.0;
        set_bit(&mut self.used, t.index());
        self.score += gain;
        self.lost += loss;
        let mark = self.cc.mark();
        if self.cfg.connected && gain > 0 {
            // Each commonable neighbour edge joins (v, t)'s pair to the
            // neighbour's component.
            for w in mapped_in(self.abits.row(v), &self.decided, &self.skipped) {
                if self.bbits.has_edge(VertexId(self.map[w]), t) {
                    self.cc.link(v.index(), w);
                }
            }
        }
        mark
    }

    fn unmap(&mut self, v: VertexId, t: VertexId, gain: usize, loss: usize, mark: usize) {
        self.cc.rollback(mark);
        self.score -= gain;
        self.lost -= loss;
        self.map[v.index()] = UNMAPPED;
        clear_bit(&mut self.used, t.index());
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
        let last = depth + 1 == self.order.len();
        // Try candidate targets ordered by immediate gain (desc) so good
        // solutions are found early and the bound tightens. A reused
        // per-depth buffer keeps the loop allocation-free.
        //
        // A child that gains less than `min_gain` does nothing but tick:
        // below the last level its potential is at most the best, and at
        // the last level its leaf cannot beat the best (`leaf_reach`).
        // Such children come last in the order; they are counted, not
        // listed.
        let mapped = mapped_in(self.abits.row(v), &self.decided, &self.skipped).count();
        let min_gain = if last {
            (self.best_edges + 1).saturating_sub(self.leaf_reach(v))
        } else {
            (self.best_edges + self.lost + mapped + 1).saturating_sub(self.a.edge_count())
        };
        let mut candidates = std::mem::take(&mut self.scratch[depth]);
        let below = self.candidates(v, mapped, min_gain, &mut candidates);
        set_bit(&mut self.decided, v.index());
        let stopped = if last {
            self.last_level(v, mapped, &candidates)
        } else {
            self.expand(depth, v, mapped, &candidates)
        } || (0..below).any(|_| self.meter.tick());
        if !stopped {
            // Skip branch.
            let loss = self.loss_on_skip(v);
            set_bit(&mut self.skipped, v.index());
            self.lost += loss;
            self.descend(depth + 1);
            self.lost -= loss;
            clear_bit(&mut self.skipped, v.index());
        }
        clear_bit(&mut self.decided, v.index());
        self.scratch[depth] = candidates;
    }

    /// Map `v` onto each candidate in turn and search below it. Returns
    /// `true` when the search stopped (budget tripped or bound met).
    fn expand(
        &mut self,
        depth: usize,
        v: VertexId,
        mapped: usize,
        candidates: &[(usize, VertexId)],
    ) -> bool {
        for &(gain, t) in candidates {
            let loss = mapped - gain;
            let mark = self.map_to(v, t, gain, loss);
            self.descend(depth + 1);
            self.unmap(v, t, gain, loss, mark);
            if self.meter.tripped() || self.proven {
                return true;
            }
        }
        false
    }

    /// [`expand`](Self::expand) for the last vertex in the order, whose
    /// children are all leaves. A leaf is one tick plus `record_leaf`, and
    /// `record_leaf` changes nothing unless the leaf improves the best, so
    /// each child is ticked and judged in closed form; only a child that
    /// improves or trips the cap is mapped, linked and recorded.
    fn last_level(&mut self, v: VertexId, mapped: usize, candidates: &[(usize, VertexId)]) -> bool {
        for &(gain, t) in candidates {
            let loss = mapped - gain;
            let tripped = self.meter.tick();
            if !tripped && !self.leaf_improves(t, gain) {
                continue;
            }
            let mark = self.map_to(v, t, gain, loss);
            // `record_leaf`'s test: the largest component for MCCS, the
            // common-edge count for MCS.
            let size = if self.cfg.connected {
                self.cc.max_edges
            } else {
                self.score
            };
            debug_assert!(
                tripped || size > self.best_edges,
                "closed-form leaf disagrees with the linked tracker"
            );
            self.record_leaf();
            self.unmap(v, t, gain, loss, mark);
            if tripped || self.proven {
                return true;
            }
        }
        false
    }

    /// What a leaf below the last vertex `v` can reach before its gain is
    /// added: a leaf improves the best only if `gain + reach` exceeds it.
    /// For MCS that is the common-edge count. For MCCS, unless the running
    /// largest component already beats the best, only `v`'s own component
    /// can, and it holds at most the edges of the components `v`'s mapped
    /// neighbours are in. For MCCS this also fills `roots` for
    /// [`leaf_improves`](Self::leaf_improves).
    fn leaf_reach(&mut self, v: VertexId) -> usize {
        if !self.cfg.connected {
            return self.score;
        }
        self.collect_roots(v);
        if self.cc.max_edges > self.best_edges {
            return self.score;
        }
        let roots = &self.roots;
        roots
            .iter()
            .enumerate()
            .filter(|&(j, &(_, root))| roots[..j].iter().all(|&(_, r)| r != root))
            .map(|(_, &(_, root))| self.cc.edges[root])
            .sum()
    }

    /// Whether mapping the last vertex onto `t` (adding `gain` common
    /// edges) yields a leaf that improves the best, read from the tracker
    /// roots in `roots` without linking.
    fn leaf_improves(&self, t: VertexId, gain: usize) -> bool {
        // The largest component never exceeds the common-edge count.
        if self.score + gain <= self.best_edges {
            return false;
        }
        if !self.cfg.connected || self.cc.max_edges > self.best_edges {
            return true;
        }
        // Linking merges the components of the neighbours joined through
        // `t`, each counted once, plus the `gain` new edges.
        let mut joined = 0;
        for (j, &(image, root)) in self.roots.iter().enumerate() {
            if !self.bbits.has_edge(image, t) {
                continue;
            }
            joined += 1;
            let seen = self.roots[..j]
                .iter()
                .any(|&(other, r)| r == root && self.bbits.has_edge(other, t));
            if !seen {
                joined += self.cc.edges[root];
            }
        }
        joined > self.best_edges
    }

    /// Fill `roots` with the image and tracker root of each mapped
    /// neighbour of `v`.
    fn collect_roots(&mut self, v: VertexId) {
        self.roots.clear();
        for w in mapped_in(self.abits.row(v), &self.decided, &self.skipped) {
            self.roots.push((VertexId(self.map[w]), self.cc.find(w)));
        }
    }
}

impl<'a> Search<'a> {
    fn run(a: &'a Graph, b: &'a Graph, cfg: McsConfig, swapped: bool, ub: usize) -> McsResult {
        let mut order: Vec<VertexId> = a.vertices().collect();
        // Decide high-degree vertices first: they constrain the most edges.
        order.sort_by_key(|&v| std::cmp::Reverse(a.degree(v)));
        let stride = b.vertex_count().div_ceil(64);
        let mut labels: Vec<Label> = b.vertices().map(|t| b.label(t)).collect();
        labels.sort_unstable();
        labels.dedup();
        let mut classes = vec![0u64; labels.len() * stride];
        for t in b.vertices() {
            if let Ok(c) = labels.binary_search(&b.label(t)) {
                set_bit(&mut classes[c * stride..(c + 1) * stride], t.index());
            }
        }
        let class_of = a
            .vertices()
            .map(|v| {
                labels
                    .binary_search(&a.label(v))
                    .map_or(NO_CLASS, |c| c * stride)
            })
            .collect();
        // Counter planes: enough bits to count to a's maximum degree, the
        // largest possible gain.
        let max_degree = a.vertices().map(|v| a.degree(v)).max().unwrap_or(0);
        let width = (usize::BITS - max_degree.leading_zeros()) as usize;
        let meter = BudgetMeter::new(&cfg.budget, Kernel::Mcs);
        let depth_count = a.vertex_count() + 1;
        let a_words = a.vertex_count().div_ceil(64);
        let cc = CcForest::new(if cfg.connected { a.vertex_count() } else { 0 });
        let mut s = Search {
            a,
            order,
            cfg,
            map: vec![UNMAPPED; a.vertex_count()],
            score: 0,
            lost: 0,
            best_edges: 0,
            best_pairs: Vec::new(),
            meter,
            swapped,
            decided: vec![0; a_words],
            skipped: vec![0; a_words],
            used: vec![0; stride],
            abits: BitAdjacency::new(a),
            bbits: BitAdjacency::new(b),
            stride,
            classes,
            class_of,
            planes: vec![0; width * stride],
            pool: vec![0; stride],
            ub,
            proven: false,
            scratch: vec![Vec::new(); depth_count],
            roots: Vec::new(),
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
