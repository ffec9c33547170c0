//! Canonical forms for labeled free trees (§4.1, Fig. 5).
//!
//! Frequent subtrees are represented as canonical strings in two steps:
//! (1) canonical-tree generation via bottom-up normalization (the AHU tree
//! isomorphism ordering [1]), and (2) conversion to a breadth-first
//! canonical string where `$` partitions families of siblings and `#`
//! terminates the string — exactly the encoding of Fig. 5 (all edges carry
//! the implicit label `1`).
//!
//! Free (unrooted) trees are canonicalized by rooting at their center; for
//! even-diameter trees with two centers, both rootings are encoded and the
//! lexicographically smaller token sequence wins.
//!
//! **Injectivity note.** Fig. 5 renders a family only for nodes that have
//! children, which is ambiguous: `A(B(D), C)` and `A(B, C(D))` would both
//! print `A$1B1C$1D#`. The token stream here therefore emits one `$`
//! family per BFS node — empty for leaves — with redundant trailing empty
//! families trimmed; this makes the encoding decodable (hence injective on
//! isomorphism classes), which the frequent-subtree dedup relies on.

use crate::components::{is_tree, tree_centers};
use crate::graph::{Graph, VertexId};

/// Token stream of a canonical string.
///
/// Tokens are ordered integers so canonical forms compare and hash
/// cheaply: `SEP` < `END` < any label token.
pub type CanonTokens = Vec<u32>;

/// The `$` family separator token.
pub const TOK_SEP: u32 = 0;
/// The `#` terminator token.
pub const TOK_END: u32 = 1;
/// Encode a label id as a token.
#[inline]
fn label_token(label: crate::labels::Label) -> u32 {
    label.0 + 2
}

/// Recursive AHU-style subtree encoding used to order children.
/// Children are sorted by their own encoding, making the result invariant
/// under sibling permutation.
fn subtree_encoding(g: &Graph, v: VertexId, parent: Option<VertexId>) -> Vec<u32> {
    let mut kids: Vec<Vec<u32>> = g
        .neighbors(v)
        .iter()
        .filter(|&&(w, _)| Some(w) != parent)
        .map(|&(w, _)| subtree_encoding(g, w, Some(v)))
        .collect();
    kids.sort_unstable();
    let mut enc = vec![label_token(g.label(v)), u32::MAX]; // open marker
    for k in kids {
        enc.extend(k);
    }
    enc.push(u32::MAX - 1); // close marker
    enc
}

/// Emit the Fig. 5 breadth-first canonical string for the tree rooted at
/// `root`, with children visited in canonical (encoding) order.
fn bfs_tokens(g: &Graph, root: VertexId) -> CanonTokens {
    let mut tokens = vec![label_token(g.label(root))];
    // Queue holds (vertex, parent) in BFS order.
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((root, None::<VertexId>));
    while let Some((v, parent)) = queue.pop_front() {
        let mut kids: Vec<(Vec<u32>, VertexId)> = g
            .neighbors(v)
            .iter()
            .filter(|&&(w, _)| Some(w) != parent)
            .map(|&(w, _)| (subtree_encoding(g, w, Some(v)), w))
            .collect();
        kids.sort_unstable();
        // One family per BFS node — empty for leaves — so the stream is
        // decodable (see the module-level injectivity note).
        tokens.push(TOK_SEP);
        for (_, w) in kids {
            tokens.push(label_token(g.label(w)));
            queue.push_back((w, Some(v)));
        }
    }
    // Trailing empty families belong to the deepest leaves and carry no
    // information; trim them for compactness.
    while tokens.last() == Some(&TOK_SEP) {
        tokens.pop();
    }
    tokens.push(TOK_END);
    tokens
}

/// Canonicalize a labeled free tree: its breadth-first canonical token
/// stream (Fig. 5 format).
///
/// # Panics
/// Panics if `g` is not a tree (connected, `|E| = |V| - 1`, `|V| ≥ 1`).
pub fn canonical_tokens(g: &Graph) -> CanonTokens {
    assert!(is_tree(g), "canonical_tokens requires a tree");
    // The `is_tree` assertion above guarantees a non-empty connected graph,
    // which always has one or two centers.
    #[allow(clippy::expect_used)]
    tree_centers(g)
        .into_iter()
        .map(|c| bfs_tokens(g, c))
        .min()
        .expect("trees have at least one center")
}

/// Work cap for [`canonical_form`]: maximum color-refinement passes across
/// the whole individualization tree. Molecule-scale graphs finish in a
/// handful of passes; the cap only exists so pathologically symmetric
/// inputs (large cliques) degrade to the non-canonical fallback encoding
/// instead of exploding factorially.
const CANON_WORK_CAP: usize = 10_000;

/// Marker token prefixing the fallback (identity-order) encoding emitted
/// when [`CANON_WORK_CAP`] trips. Canonical encodings start with the
/// vertex count, which is always < `u32::MAX`, so the two families of
/// encodings can never collide.
const TOK_FALLBACK: u32 = u32::MAX;

/// Canonical form of an arbitrary labeled graph.
///
/// Unlike [`canonical_tokens`] this accepts any simple labeled graph
/// (cyclic, disconnected, empty). Two graphs receive equal token streams
/// **iff** they are isomorphic — the memoized similarity cache in fine
/// clustering keys on this, so both directions matter:
///
/// * *soundness* (equal form ⇒ isomorphic): the stream encodes the full
///   vertex-label sequence and edge list under some vertex ordering, so
///   equal streams exhibit an explicit isomorphism;
/// * *completeness* (isomorphic ⇒ equal form): the ordering is chosen by
///   1-WL color refinement plus individualization-refinement branching
///   over every member of the first non-singleton color class, taking the
///   lexicographically least leaf encoding — an isomorphism-invariant
///   choice.
///
/// If the refinement work cap trips (only on inputs far more symmetric
/// than molecule graphs), the graph falls back to a marker-prefixed
/// identity-order encoding: still deterministic and still sound (equal
/// fallback encodings are structurally identical graphs), merely no longer
/// complete. Cache keying stays correct either way.
pub fn canonical_form(g: &Graph) -> CanonTokens {
    let n = g.vertex_count();
    if n == 0 {
        return vec![0, 0];
    }
    // Initial colors: rank of each vertex label among the distinct labels.
    let mut distinct = g.sorted_labels();
    distinct.dedup();
    let colors: Vec<u32> = g
        .vertices()
        .map(|v| {
            // `distinct` contains every label of `g`, so the search
            // always succeeds; 0 keeps the kernel panic-free regardless.
            distinct.binary_search(&g.label(v)).map_or(0, |i| i as u32)
        })
        .collect();
    let mut c = Canonizer {
        g,
        work: CANON_WORK_CAP,
        best: None,
        exhausted: false,
    };
    c.search(colors);
    match (c.exhausted, c.best) {
        (false, Some(best)) => best,
        _ => {
            // Fallback: identity-order encoding behind a marker token.
            let identity: Vec<u32> = (0..n as u32).collect();
            let mut enc = vec![TOK_FALLBACK];
            enc.extend(encode_under(g, &identity));
            enc
        }
    }
}

struct Canonizer<'a> {
    g: &'a Graph,
    work: usize,
    best: Option<CanonTokens>,
    exhausted: bool,
}

impl<'a> Canonizer<'a> {
    /// Refine `colors` to the stable 1-WL partition: each pass re-ranks
    /// vertices by `(color, sorted neighbor colors)` until the class count
    /// stops growing.
    fn refine(&mut self, colors: &mut [u32]) {
        let n = colors.len();
        loop {
            if self.work == 0 {
                self.exhausted = true;
                return;
            }
            self.work -= 1;
            let mut old = colors.to_vec();
            old.sort_unstable();
            old.dedup();
            let old_classes = old.len();
            let sigs: Vec<(u32, Vec<u32>)> = self
                .g
                .vertices()
                .map(|v| {
                    let mut nb: Vec<u32> = self
                        .g
                        .neighbors(v)
                        .iter()
                        .map(|&(w, _)| colors[w.index()])
                        .collect();
                    nb.sort_unstable();
                    (colors[v.index()], nb)
                })
                .collect();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&x, &y| sigs[x].cmp(&sigs[y]));
            let mut rank = 0u32;
            for i in 0..n {
                if i > 0 && sigs[order[i]] != sigs[order[i - 1]] {
                    rank += 1;
                }
                colors[order[i]] = rank;
            }
            if rank as usize + 1 == old_classes {
                return;
            }
        }
    }

    /// Individualization-refinement: refine, then branch on every member
    /// of the first non-singleton class, keeping the least leaf encoding.
    fn search(&mut self, mut colors: Vec<u32>) {
        self.refine(&mut colors);
        if self.exhausted {
            return;
        }
        // Find the smallest color value held by more than one vertex.
        let mut count_of = vec![0u32; colors.len()];
        for &c in &colors {
            count_of[c as usize] += 1;
        }
        match count_of.iter().position(|&k| k > 1) {
            None => {
                // Discrete coloring: `colors[v]` is v's canonical position.
                let enc = encode_under(self.g, &colors);
                if self.best.as_ref().is_none_or(|b| enc < *b) {
                    self.best = Some(enc);
                }
            }
            Some(target) => {
                for v in 0..colors.len() {
                    if colors[v] != target as u32 {
                        continue;
                    }
                    let mut child = colors.clone();
                    // A color above every rank individualizes v; the next
                    // refine pass re-ranks the palette to 0..k.
                    child[v] = u32::MAX - 1;
                    self.search(child);
                    if self.exhausted {
                        return;
                    }
                }
            }
        }
    }
}

/// Encode `g` under the vertex ordering given by `positions` (vertex `v`
/// goes to canonical position `positions[v]`, a permutation of `0..n`):
/// `[n, m, labels in position order…, sorted (lo, hi) edge positions…]`.
/// The fixed-width sections make the stream decodable, hence injective on
/// labeled adjacency structure.
fn encode_under(g: &Graph, positions: &[u32]) -> CanonTokens {
    let n = g.vertex_count();
    let mut perm: Vec<u32> = vec![0; n];
    for (v, &p) in positions.iter().enumerate() {
        if let Some(slot) = perm.get_mut(p as usize) {
            *slot = v as u32;
        }
    }
    let mut tokens = Vec::with_capacity(2 + n + 2 * g.edge_count());
    tokens.push(n as u32);
    tokens.push(g.edge_count() as u32);
    for &v in &perm {
        tokens.push(label_token(g.label(VertexId(v))));
    }
    let mut edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(_, e)| {
            let (pu, pv) = (positions[e.u.index()], positions[e.v.index()]);
            (pu.min(pv), pu.max(pv))
        })
        .collect();
    edges.sort_unstable();
    for (lo, hi) in edges {
        tokens.push(lo);
        tokens.push(hi);
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{Label, LabelInterner};

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// Render the full (injective) token stream, e.g. `A$1B1C$$1D#`,
    /// resolving labels through `interner`. Empty families appear as
    /// consecutive `$`.
    fn display(tokens: &[u32], interner: &LabelInterner) -> String {
        let mut out = String::new();
        for (i, &t) in tokens.iter().enumerate() {
            match t {
                TOK_SEP => out.push('$'),
                TOK_END => out.push('#'),
                _ => {
                    if i > 0 {
                        out.push('1'); // implicit edge label
                    }
                    out.push_str(&interner.display(Label(t - 2)));
                }
            }
        }
        out
    }

    #[test]
    fn single_vertex() {
        let mut g = Graph::new();
        g.add_vertex(l(7));
        let c = canonical_tokens(&g);
        assert_eq!(c, vec![label_token(l(7)), TOK_END]);
    }

    #[test]
    fn invariant_under_renumbering() {
        // Star with center label 0 and leaves 1,2,3 in two different orders.
        let a = Graph::from_parts(&[l(0), l(1), l(2), l(3)], &[(0, 1), (0, 2), (0, 3)]);
        let b = Graph::from_parts(&[l(3), l(0), l(1), l(2)], &[(1, 0), (1, 3), (1, 2)]);
        assert_eq!(canonical_tokens(&a), canonical_tokens(&b));
    }

    #[test]
    fn distinguishes_structures() {
        // Path of 4 vs star of 4, same labels.
        let p = Graph::from_parts(&[l(0); 4], &[(0, 1), (1, 2), (2, 3)]);
        let s = Graph::from_parts(&[l(0); 4], &[(0, 1), (0, 2), (0, 3)]);
        assert_ne!(canonical_tokens(&p), canonical_tokens(&s));
    }

    #[test]
    fn distinguishes_labels() {
        let a = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        let b = Graph::from_parts(&[l(0), l(2)], &[(0, 1)]);
        assert_ne!(canonical_tokens(&a), canonical_tokens(&b));
    }

    #[test]
    fn two_center_path_is_stable() {
        // Even path: two centers; both orders must give the same result.
        let a = Graph::from_parts(&[l(0), l(1), l(2), l(3)], &[(0, 1), (1, 2), (2, 3)]);
        let b = Graph::from_parts(&[l(3), l(2), l(1), l(0)], &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(canonical_tokens(&a), canonical_tokens(&b));
    }

    #[test]
    fn display_matches_paper_notation() {
        let mut it = LabelInterner::new();
        let a = it.intern("A");
        let b = it.intern("B");
        // A with two B children.
        let g = Graph::from_parts(&[a, b, b], &[(0, 1), (0, 2)]);
        let c = canonical_tokens(&g);
        assert_eq!(display(&c, &it), "A$1B1B#");
    }

    #[test]
    fn paper_figure5_shape() {
        // Reconstruct the Fig. 5 tree: root A; children B,B,B;
        // B1 -> {C, D(->E)}, B2 -> {D(->E)}, B3 -> {F, G}.
        let mut it = LabelInterner::new();
        let (a, b, c, d, e, f, g_) = (
            it.intern("A"),
            it.intern("B"),
            it.intern("C"),
            it.intern("D"),
            it.intern("E"),
            it.intern("F"),
            it.intern("G"),
        );
        let labels = [a, b, b, b, c, d, d, e, e, f, g_];
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 4),  // B1-C
            (1, 5),  // B1-D
            (5, 7),  // D-E
            (2, 6),  // B2-D
            (6, 8),  // D-E
            (3, 9),  // B3-F
            (3, 10), // B3-G
        ];
        let t = Graph::from_parts(&labels, &edges);
        let canon = canonical_tokens(&t);
        // The paper's (lossy) Fig. 5 rendering is
        // `A$1B1B1B$1C1D$1D$1F1G$1E$1E#`; the injective stream additionally
        // shows C's empty family:
        assert_eq!(display(&canon, &it), "A$1B1B1B$1C1D$1D$1F1G$$1E$1E#");
    }

    #[test]
    #[should_panic(expected = "requires a tree")]
    fn rejects_cycles() {
        let g = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2), (0, 2)]);
        canonical_tokens(&g);
    }

    /// Apply the vertex permutation `perm` (old id -> new id) to `g`.
    fn permuted(g: &Graph, perm: &[u32]) -> Graph {
        let mut labels = vec![l(0); g.vertex_count()];
        for v in g.vertices() {
            labels[perm[v.index()] as usize] = g.label(v);
        }
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(_, e)| (perm[e.u.index()], perm[e.v.index()]))
            .collect();
        Graph::from_parts(&labels, &edges)
    }

    #[test]
    fn canonical_form_handles_cycles_and_empty() {
        assert_eq!(canonical_form(&Graph::new()), vec![0, 0]);
        let c3 = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2), (0, 2)]);
        let c3b = Graph::from_parts(&[l(0); 3], &[(2, 1), (0, 2), (1, 0)]);
        assert_eq!(canonical_form(&c3), canonical_form(&c3b));
    }

    #[test]
    fn canonical_form_invariant_under_permutation() {
        // A labeled fused-ring molecule-like graph, renumbered many ways.
        let g = Graph::from_parts(
            &[l(0), l(0), l(1), l(0), l(2), l(0), l(1)],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 3),
            ],
        );
        let base = canonical_form(&g);
        let perms: [[u32; 7]; 4] = [
            [6, 5, 4, 3, 2, 1, 0],
            [2, 0, 6, 1, 5, 3, 4],
            [1, 2, 3, 4, 5, 6, 0],
            [3, 6, 0, 5, 1, 4, 2],
        ];
        for perm in perms {
            let h = permuted(&g, &perm);
            assert!(crate::iso::are_isomorphic(&g, &h));
            assert_eq!(canonical_form(&h), base, "perm {perm:?} changed the form");
        }
    }

    #[test]
    fn canonical_form_separates_non_isomorphic() {
        // Same degree sequence and label multiset, different structure:
        // C6 vs two triangles.
        let c6 = Graph::from_parts(
            &[l(0); 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        );
        let tt = Graph::from_parts(
            &[l(0); 6],
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        );
        assert_ne!(canonical_form(&c6), canonical_form(&tt));
        // Label placement matters: N at distance 1 vs 2 from the O.
        let a = Graph::from_parts(&[l(1), l(2), l(0), l(0)], &[(0, 1), (1, 2), (2, 3)]);
        let b = Graph::from_parts(&[l(1), l(0), l(2), l(0)], &[(0, 1), (1, 2), (2, 3)]);
        assert_ne!(canonical_form(&a), canonical_form(&b));
    }

    #[test]
    fn canonical_form_agrees_with_isomorphism_on_random_molecules() {
        // Cross-check the iff contract against the VF2 matcher over a
        // repository with many isomorphic duplicates (small generator).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let mut graphs = Vec::new();
        for _ in 0..24 {
            let n = rng.gen_range(3..8);
            let mut gg = Graph::new();
            for _ in 0..n {
                gg.add_vertex(l(rng.gen_range(0..3)));
            }
            // Random spanning path plus a few chords keeps it connected.
            for i in 1..n {
                let p = rng.gen_range(0..i);
                let _ = gg.add_edge(VertexId(p), VertexId(i));
            }
            for _ in 0..rng.gen_range(0..3u32) {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    let _ = gg.ensure_edge(VertexId(u), VertexId(v));
                }
            }
            graphs.push(gg);
        }
        for i in 0..graphs.len() {
            for jj in (i + 1)..graphs.len() {
                let same_form = canonical_form(&graphs[i]) == canonical_form(&graphs[jj]);
                let iso = crate::iso::are_isomorphic(&graphs[i], &graphs[jj]);
                assert_eq!(same_form, iso, "form/iso disagree on pair ({i}, {jj})");
            }
        }
    }
}
