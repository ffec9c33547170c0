//! Pattern scoring (§5, Eq. 2):
//! `s_p = ccov(p, cw, C) × lcov(p, D) × div(p, P\p) / cog(p)`.
//!
//! * `ccov` estimates subgraph coverage through the cluster weights: a CSG
//!   "covers" `p` when `p` is subgraph-isomorphic to it (tested with VF2).
//! * `lcov(p, D)` is the fraction of data graphs containing at least one
//!   edge whose label occurs in `p`, computed against a bitset index.
//! * `div` is the minimum GED to the already-selected patterns, with the
//!   Definition 5.1 lower bound pruning exact computations (§5 steps a–c)
//!   and the running minimum as each `ged`'s cutoff τ (a tripped search
//!   falls back to `min(ub, τ) ≤ ub`).
//! * `cog` is the density-based cognitive load (§3.2).
//!
//! The four criteria combine multiplicatively following Tofallis [37]
//! because no trade-off rate between them is known a priori.

use catapult_csg::{ClusterWeights, Csg};
use catapult_graph::ged::{ged, ged_lower_bound};
use catapult_graph::iso::{for_each_embedding, MatchOptions};
use catapult_graph::{EdgeLabel, Graph, SearchBudget, Tally};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Bitset index: per edge label, which data graphs contain it.
///
/// Enables `lcov(p, D)` — the size of the *union* of transaction sets over
/// `p`'s edge labels — in O(labels × |D|/64).
#[derive(Clone, Debug)]
pub struct EdgeLabelIndex {
    blocks_per_row: usize,
    rows: HashMap<EdgeLabel, Vec<u64>>,
    db_size: usize,
}

impl EdgeLabelIndex {
    /// Build the index over `db`.
    pub fn build(db: &[Graph]) -> Self {
        let n = db.len();
        let blocks = n.div_ceil(64);
        let mut rows: HashMap<EdgeLabel, Vec<u64>> = HashMap::new();
        for (i, g) in db.iter().enumerate() {
            for el in g.edge_label_set() {
                let row = rows.entry(el).or_insert_with(|| vec![0u64; blocks]);
                row[i / 64] |= 1u64 << (i % 64);
            }
        }
        EdgeLabelIndex {
            blocks_per_row: blocks,
            rows,
            db_size: n,
        }
    }

    /// Number of graphs indexed.
    pub fn db_size(&self) -> usize {
        self.db_size
    }

    /// `lcov(p, D)`: fraction of graphs containing any of `p`'s edge labels.
    pub fn lcov(&self, pattern: &Graph) -> f64 {
        if self.db_size == 0 {
            return 0.0;
        }
        let mut acc = vec![0u64; self.blocks_per_row];
        for el in pattern.edge_label_set() {
            if let Some(row) = self.rows.get(&el) {
                for (a, &b) in acc.iter_mut().zip(row) {
                    *a |= b;
                }
            }
        }
        let covered: u32 = acc.iter().map(|b| b.count_ones()).sum();
        covered as f64 / self.db_size as f64
    }
}

/// Default node cap for each CSG-containment VF2 test (CSGs are small;
/// this is generous). A user [`SearchBudget`] node cap overrides it.
pub const CCOV_ISO_BUDGET: u64 = 2_000_000;

/// Which CSGs contain `p` (subgraph isomorphism against the closure graph),
/// recording each VF2 probe's [`Completeness`](catapult_graph::Completeness)
/// in `tally`. A degraded probe may miss a covering CSG (never invents
/// one), so `ccov` built from it is a lower bound.
pub fn covering_csgs(
    pattern: &Graph,
    csgs: &[Csg],
    budget: &SearchBudget,
    tally: &Tally,
) -> Vec<usize> {
    let probe = budget.with_default_cap(CCOV_ISO_BUDGET);
    csgs.iter()
        .enumerate()
        .filter(|(_, c)| {
            let opts = MatchOptions {
                max_embeddings: 1,
                budget: probe.clone(),
                ..MatchOptions::default()
            };
            let out = for_each_embedding(&c.graph, pattern, opts, |_| ControlFlow::Break(()));
            tally.record(out.completeness);
            out.embeddings > 0
        })
        .map(|(i, _)| i)
        .collect()
}

/// `ccov(p, cw, C) = Σ_i cw_i · I(CSG_i ⊇ p)` (§5), summed in ascending
/// CSG order over `p`'s [`covering_csgs`].
pub fn ccov(covering: &[usize], cw: &ClusterWeights) -> f64 {
    covering.iter().map(|&i| cw.get(i)).sum()
}

/// Default GED node cap for diversity computations (patterns are ≤ ηmax ≈
/// 12 edges). A user [`SearchBudget`] node cap overrides it.
pub const DIV_GED_BUDGET: u64 = 50_000;

/// `div(p, P\p) = min_i GED(p, p_i)` with lower-bound pruning (§5): order
/// the picks by ascending `GED_l` (stable), compute GEDs in that order
/// with the best distance so far as the cutoff, and drop every pick whose
/// lower bound already reaches it.
///
/// `None` comes back only when there is nothing to compare against (the
/// first pattern has no diversity term). Every GED is recorded in
/// `tally`. Degraded GEDs depend on their cutoff, so only a call over the
/// same `picks` is sure to give the same value.
pub fn diversity(
    pattern: &Graph,
    picks: &[Graph],
    budget: &SearchBudget,
    tally: &Tally,
) -> Option<usize> {
    let probe = budget.with_default_cap(DIV_GED_BUDGET);
    let mut order: Vec<(usize, usize)> = picks
        .iter()
        .map(|p| ged_lower_bound(pattern, p))
        .enumerate()
        .collect();
    order.sort_by_key(|&(_, lb)| lb);
    let mut best = None;
    for (i, lb) in order {
        if best.is_some_and(|b| lb >= b) {
            break; // all remaining lower bounds are ≥ best: prune (step c3)
        }
        let r = ged(pattern, &picks[i], best, &probe);
        tally.record(r.completeness);
        best = Some(r.distance); // never above the cutoff `best`
    }
    best
}

/// Scoring-function variants: the paper's Eq. 2 plus the ablations the
/// harness evaluates (`experiments ablation1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScoreVariant {
    /// Eq. 2: `ccov × lcov × div / cog` (multiplicative, per [37]).
    #[default]
    Full,
    /// Drop the diversity term: `ccov × lcov / cog`.
    NoDiversity,
    /// Drop the cognitive-load term: `ccov × lcov × div`.
    NoCognitiveLoad,
    /// Additive combination of normalized criteria — the alternative [37]
    /// argues against when trade-off rates are unknown:
    /// `(ccov + lcov + div/(div+1) + 1/(1+cog)) / 4`.
    Additive,
}

impl ScoreVariant {
    /// Whether the score depends on `div` (every variant but
    /// [`ScoreVariant::NoDiversity`]).
    pub fn uses_diversity(self) -> bool {
        self != ScoreVariant::NoDiversity
    }
}

/// Combine the terms into the pattern score under `variant`, times the
/// query-log `boost` factor when one is given. `div` is 1 when no pattern
/// has been selected yet (the multiplicative identity — the first pick is
/// driven by coverage and cognitive load alone). A non-positive `cog`
/// scores 0.
///
/// Every variant is non-decreasing in each of `ccov`, `lcov` and `div`
/// (all non-negative), and so is the boosted score when the boost factor
/// is non-negative: the greedy loop relies on that to use this same
/// function as an upper bound.
pub fn eq2_score(
    variant: ScoreVariant,
    ccov: f64,
    lcov: f64,
    div: f64,
    cog: f64,
    boost: Option<f64>,
) -> f64 {
    let s = if cog <= 0.0 {
        0.0
    } else {
        match variant {
            ScoreVariant::Full => ccov * lcov * div / cog,
            ScoreVariant::NoDiversity => ccov * lcov / cog,
            ScoreVariant::NoCognitiveLoad => ccov * lcov * div,
            ScoreVariant::Additive => (ccov + lcov + div / (div + 1.0) + 1.0 / (1.0 + cog)) / 4.0,
        }
    };
    match boost {
        Some(f) => s * f,
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_csg::build_csgs;
    use catapult_graph::ged::ged_upper_bound;
    use catapult_graph::metrics::cognitive_load;
    use catapult_graph::Label;

    fn l(x: u32) -> Label {
        Label(x)
    }

    fn db() -> Vec<Graph> {
        vec![
            Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]),
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
            Graph::from_parts(&[l(3), l(4)], &[(0, 1)]),
        ]
    }

    #[test]
    fn lcov_unions_transactions() {
        let db = db();
        let idx = EdgeLabelIndex::build(&db);
        let p = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        assert!((idx.lcov(&p) - 2.0 / 3.0).abs() < 1e-12);
        let q = Graph::from_parts(&[l(0), l(1), l(3), l(4)], &[(0, 1), (2, 3)]);
        assert!((idx.lcov(&q) - 1.0).abs() < 1e-12);
    }

    fn covering(p: &Graph, csgs: &[Csg]) -> Vec<usize> {
        covering_csgs(p, csgs, &SearchBudget::unbounded(), &Tally::new())
    }

    fn div(p: &Graph, picks: &[Graph]) -> Option<usize> {
        diversity(p, picks, &SearchBudget::unbounded(), &Tally::new())
    }

    /// Eq. 2 from scratch over `selected`, as the greedy loop scores it.
    fn score(
        p: &Graph,
        csgs: &[Csg],
        cw: &ClusterWeights,
        idx: &EdgeLabelIndex,
        selected: &[Graph],
        variant: ScoreVariant,
    ) -> f64 {
        let d = div(p, selected).map_or(1.0, |d| d as f64);
        let cog = cognitive_load(p);
        eq2_score(
            variant,
            ccov(&covering(p, csgs), cw),
            idx.lcov(p),
            d,
            cog,
            None,
        )
    }

    #[test]
    fn ccov_weights_covering_clusters() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let cw = ClusterWeights::new(&csgs, db.len());
        let p = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        // p is in CSG 0 (weight 2/3) only.
        assert_eq!(covering(&p, &csgs), vec![0]);
        assert!((ccov(&covering(&p, &csgs), &cw) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn covering_probes_are_audited() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let p = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        let tally = Tally::new();
        covering_csgs(&p, &csgs, &SearchBudget::unbounded(), &tally);
        assert_eq!(tally.counts().total(), csgs.len() as u64);
        assert!(tally.counts().all_exact());
    }

    #[test]
    fn diversity_is_min_ged() {
        let p = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2)]);
        let near = Graph::from_parts(&[l(0); 3], &[(0, 1), (1, 2), (0, 2)]); // +1 edge
        let far = Graph::from_parts(&[l(9); 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        assert_eq!(div(&p, &[far, near]), Some(1));
        assert!(div(&p, &[]).is_none());
    }

    #[test]
    fn pruning_matches_naive_min() {
        let p = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
        let set = vec![
            Graph::from_parts(&[l(0), l(1)], &[(0, 1)]),
            Graph::from_parts(&[l(0), l(1), l(2), l(3)], &[(0, 1), (1, 2), (2, 3)]),
            Graph::from_parts(&[l(5), l(6), l(7)], &[(0, 1), (1, 2)]),
        ];
        let naive = set
            .iter()
            .map(|q| ged(&p, q, None, &SearchBudget::nodes(1_000_000)).distance)
            .min();
        assert_eq!(div(&p, &set), naive);
    }

    /// The two properties the lazy selector's bound relies on, under node
    /// caps that degrade GED (DESIGN.md §15, "The bound"): `div` over a
    /// superset of picks is never larger, and a lower cutoff never gives a
    /// larger `min(τ, ged)`.
    #[test]
    fn diversity_shrinks_with_more_picks_and_lower_cutoffs() {
        use catapult_datasets::{aids_profile, generate};
        use catapult_graph::random::random_connected_subgraph;
        use rand::{Rng, SeedableRng};
        let mut groups: Vec<Vec<Graph>> = Vec::new();
        for data_seed in [7, 11, 23] {
            let db = generate(&aids_profile(), 20, data_seed).graphs;
            let mut rng = rand::rngs::StdRng::seed_from_u64(data_seed);
            let mut patterns = Vec::new();
            while patterns.len() < 21 {
                let g = &db[rng.gen_range(0..db.len())];
                let size = rng.gen_range(3..=12);
                patterns.extend(random_connected_subgraph(g, size, &mut rng));
            }
            groups.extend(patterns.chunks(7).map(<[Graph]>::to_vec));
        }
        for cap in [1, 40, 120, 2_000, DIV_GED_BUDGET] {
            let budget = SearchBudget::nodes(cap);
            for (g, group) in groups.iter().enumerate() {
                let (p, picks) = (&group[0], &group[1..]);
                let all = diversity(p, picks, &budget, &Tally::new());
                for k in 1..picks.len() {
                    let prefix = diversity(p, &picks[..k], &budget, &Tally::new());
                    assert!(
                        all <= prefix,
                        "cap {cap} group {g}: {all:?} > {prefix:?} at k={k}"
                    );
                }
                for q in picks {
                    // Consecutive cutoffs suffice: the order is transitive,
                    // and τ > ub seeds the search exactly like no cutoff.
                    let run = |tau: Option<usize>| {
                        let d = ged(p, q, tau, &budget).distance;
                        tau.map_or(d, |t| d.min(t))
                    };
                    let ub = ged_upper_bound(p, q);
                    let mut prev = run(Some(0));
                    for tau in (1..=ub + 1).map(Some).chain([None]) {
                        let next = run(tau);
                        assert!(
                            prev <= next,
                            "cap {cap} group {g}: τ={tau:?} gives {next} < {prev}"
                        );
                        prev = next;
                    }
                }
            }
        }
    }

    #[test]
    fn score_prefers_low_cog_high_cov() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let cw = ClusterWeights::new(&csgs, db.len());
        let idx = EdgeLabelIndex::build(&db);
        // A pattern in the big cluster vs one in the small cluster.
        let popular = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
        let niche = Graph::from_parts(&[l(3), l(4)], &[(0, 1)]);
        let s1 = score(&popular, &csgs, &cw, &idx, &[], ScoreVariant::Full);
        let s2 = score(&niche, &csgs, &cw, &idx, &[], ScoreVariant::Full);
        assert!(s1 > s2, "popular {s1} vs niche {s2}");
    }

    #[test]
    fn variants_differ_as_designed() {
        let db = db();
        let csgs = build_csgs(&db, &[vec![0, 1], vec![2]]);
        let cw = ClusterWeights::new(&csgs, db.len());
        let idx = EdgeLabelIndex::build(&db);
        let p = Graph::from_parts(&[l(0), l(1), l(2)], &[(0, 1), (1, 2)]);
        let selected = vec![Graph::from_parts(&[l(0), l(1)], &[(0, 1)])];
        let s = |variant| score(&p, &csgs, &cw, &idx, &selected, variant);
        let full = s(ScoreVariant::Full);
        let no_div = s(ScoreVariant::NoDiversity);
        let no_cog = s(ScoreVariant::NoCognitiveLoad);
        let add = s(ScoreVariant::Additive);
        // div(p, selected) = GED to the single edge = 2 → full = no_div × 2.
        assert!((full - no_div * 2.0).abs() < 1e-9);
        // no_cog = full × cog.
        let cog = cognitive_load(&p);
        assert!((no_cog - full * cog).abs() < 1e-9);
        // additive is bounded in [0, 1].
        assert!((0.0..=1.0).contains(&add));
    }

    #[test]
    fn boost_scales_the_score() {
        let base = eq2_score(ScoreVariant::Full, 0.5, 0.5, 2.0, 1.0, None);
        let boosted = eq2_score(ScoreVariant::Full, 0.5, 0.5, 2.0, 1.0, Some(1.5));
        assert!((boosted - base * 1.5).abs() < 1e-12);
        // A zero cognitive load scores 0 whatever the other terms.
        assert_eq!(
            eq2_score(ScoreVariant::Full, 1.0, 1.0, 1.0, 0.0, None).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn score_is_monotone_in_div() {
        for variant in [
            ScoreVariant::Full,
            ScoreVariant::NoDiversity,
            ScoreVariant::NoCognitiveLoad,
            ScoreVariant::Additive,
        ] {
            for d in 0..40u32 {
                let lo = eq2_score(variant, 0.3, 0.7, f64::from(d), 2.5, Some(1.2));
                let hi = eq2_score(variant, 0.3, 0.7, f64::from(d + 1), 2.5, Some(1.2));
                assert!(lo.total_cmp(&hi).is_le(), "{variant:?} at div {d}");
            }
        }
    }

    #[test]
    fn default_variant_is_full() {
        assert_eq!(ScoreVariant::default(), ScoreVariant::Full);
    }

    #[test]
    fn empty_db_scores_zero() {
        let idx = EdgeLabelIndex::build(&[]);
        let p = Graph::from_parts(&[l(0), l(1)], &[(0, 1)]);
        assert_eq!(idx.lcov(&p), 0.0);
    }
}
