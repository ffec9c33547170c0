//! Canned pattern selection — Algorithm 4 (`FindCannedPatternSet`).
//!
//! Greedy iterations: every CSG proposes one final candidate pattern per
//! open size (random-walk library → FCP), the candidate with the best
//! Eq. 2 score joins the pattern set, and cluster / edge-label weights are
//! damped multiplicatively so later iterations favour uncovered regions.
//! The loop stops when `γ` patterns are selected, every size quota is
//! filled, or no scoring candidate remains.
//!
//! The argmax is lazy (CELF-style, Leskovec et al., KDD 2007): per-call
//! memoized terms give every candidate a cheap upper bound, and exact
//! scores are computed in descending-bound order only until one provably
//! wins. The pick is the one an eager loop scoring every candidate would
//! make; see DESIGN.md §15, "Lazy greedy selection".

// Eq. 2 scores feed a greedy argmax whose picks must not depend on
// float noise, and counts index kernel tables: no float `==`, and no
// `as` cast that can change the value (use `total_cmp` and `try_from`).
#![warn(
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

use crate::budget::{PatternBudget, SizeCounts};
use crate::fcp::generate_fcp;
use crate::querylog::QueryLog;
use crate::report::PipelineReport;
use crate::score::{
    ccov, covering_csgs, diversity, eq2_score, prepare_csgs, EdgeLabelIndex, ScoreVariant,
};
use crate::walk::generate_library;
use catapult_csg::{ClusterWeights, Csg, EdgeLabelWeights, WeightedCsg};
use catapult_graph::ged::{ged_lower_bound, ged_upper_bound};
use catapult_graph::iso::{are_isomorphic_tagged, PreparedGraph};
use catapult_graph::metrics::cognitive_load;
use catapult_graph::{Graph, Label, SearchBudget, TallyCounts};
use catapult_mining::EdgeLabelStats;
use catapult_obs::{Recorder, Stopwatch};
use rand::Rng;
use rayon::par_map;
use std::collections::BTreeMap;
use std::time::Duration;

/// Selection parameters beyond the pattern budget.
#[derive(Clone, Debug)]
pub struct SelectionConfig {
    /// The pattern budget `b = (ηmin, ηmax, γ)`.
    pub budget: PatternBudget,
    /// Random walks per (CSG, size) pair (`x` in Algorithm 4; paper
    /// example uses 100).
    pub walks: usize,
    /// Scoring function (Eq. 2 by default; ablation variants available).
    pub variant: ScoreVariant,
    /// Optional query log (§3.3 remark): when present, scores are boosted
    /// by `1 + log_weight × freq(p)` so patterns frequent in past queries
    /// are preferred.
    pub query_log: Option<QueryLog>,
    /// Strength `λ` of the query-log boost.
    pub log_weight: f64,
    /// Execution budget shared by selection's NP-hard kernels (dedup VF2,
    /// ccov and query-log probes, diversity GEDs). Per-kernel default
    /// node caps apply when unbounded.
    pub search: SearchBudget,
    /// Observability recorder (disabled by default). When enabled, the
    /// loop emits a `selection` span with per-iteration `greedy_iter`
    /// children (`walks` / `dedup` / `score` inside), and kernel effort
    /// lands in the `scoring.*` counters.
    pub recorder: Recorder,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            budget: PatternBudget::paper_default(),
            walks: 100,
            variant: ScoreVariant::Full,
            query_log: None,
            log_weight: 1.0,
            search: SearchBudget::unbounded(),
            recorder: Recorder::disabled(),
        }
    }
}

impl SelectionConfig {
    /// Paper-default selection settings.
    pub fn paper_default() -> Self {
        Self::default()
    }
}

/// A selected canned pattern with its provenance.
#[derive(Clone, Debug)]
pub struct SelectedPattern {
    /// The pattern graph.
    pub pattern: Graph,
    /// Eq. 2 score at selection time.
    pub score: f64,
    /// Which CSG proposed it.
    pub source_csg: usize,
}

/// Result of Algorithm 4.
#[derive(Clone, Debug)]
pub struct SelectionResult {
    /// Selected patterns in selection order.
    pub selected: Vec<SelectedPattern>,
    /// Wall-clock pattern-generation time (the paper's PGT measure).
    pub elapsed: Duration,
    /// Completeness audit of every NP-hard kernel call. Direct callers
    /// only see the `scoring` stage populated; [`run_catapult`]
    /// (crate::catapult::run_catapult) fills in mining and clustering.
    pub report: PipelineReport,
}

impl SelectionResult {
    /// Just the pattern graphs, in selection order.
    pub fn patterns(&self) -> Vec<Graph> {
        self.selected.iter().map(|s| s.pattern.clone()).collect()
    }
}

/// Candidates scored exactly per round of the lazy argmax. A constant,
/// not the thread count, so which candidates get scored — and with them
/// the `scoring` tally — is the same for every pool size.
const RESCORE_BLOCK: usize = 2;

/// What one call of [`find_canned_patterns`] remembers about a candidate
/// across greedy iterations. Everything but `div` is fixed for a fixed
/// pattern; `div` only ever falls as patterns are selected.
#[derive(Debug)]
struct Memo {
    /// CSGs containing the candidate (the CSGs never change).
    covering: Vec<usize>,
    /// `lcov(p, D)`.
    lcov: f64,
    /// `cog(p)`.
    cog: f64,
    /// Query-log boost factor `1 + λ·freq(p)`, when a log is configured.
    boost: Option<f64>,
    /// `div` against the first `div_covers` selected patterns (stale).
    div: Option<usize>,
    /// How many selected patterns `div` accounts for.
    div_covers: usize,
}

impl Memo {
    /// The candidate's fixed terms, with the tally of the kernel calls
    /// that computed them.
    fn new(
        pattern: &Graph,
        csgs: &[PreparedGraph],
        index: &EdgeLabelIndex,
        cfg: &SelectionConfig,
        search: &SearchBudget,
    ) -> (Self, TallyCounts) {
        let mut tally = TallyCounts::default();
        let memo = Memo {
            covering: covering_csgs(pattern, csgs, search, &mut tally),
            lcov: index.lcov(pattern),
            cog: cognitive_load(pattern),
            boost: cfg.query_log.as_ref().map(|log| {
                1.0 + cfg.log_weight * log.pattern_frequency(pattern, search, &mut tally)
            }),
            div: None,
            div_covers: 0,
        };
        (memo, tally)
    }

    /// Eq. 2 with `div` as given (1 before the first pick).
    fn score(&self, variant: ScoreVariant, cw: &ClusterWeights, div: Option<usize>) -> f64 {
        let div = div.map_or(1.0, |d| d as f64);
        let cov = ccov(&self.covering, cw);
        eq2_score(variant, cov, self.lcov, div, self.cog, self.boost)
    }

    /// An upper bound on [`Memo::rescore`]'s score, without any search.
    ///
    /// Only `div` can be stale, and more picks never raise it (DESIGN.md
    /// §15, "The bound"). No pick's assignment bound `ged_upper_bound` is
    /// below it either (`ged` falls back to `min(ub, τ) ≤ ub`), so the
    /// pending pick with the smallest `GED_l` caps the new minimum.
    fn bound(
        &self,
        pattern: &Graph,
        variant: ScoreVariant,
        cw: &ClusterWeights,
        selected: &[Graph],
    ) -> f64 {
        // A negative boost factor (log weight below −1) makes the score
        // non-positive and reverses its monotonicity; +0 still bounds it.
        if self.boost.is_some_and(|f| f < 0.0) {
            return 0.0;
        }
        let div = if variant.uses_diversity() {
            let nearest = selected[self.div_covers..]
                .iter()
                .min_by_key(|p| ged_lower_bound(pattern, p))
                .map(|p| ged_upper_bound(pattern, p));
            [self.div, nearest].into_iter().flatten().min()
        } else {
            None
        };
        self.score(variant, cw, div)
    }

    /// The exact score, with `div` from scratch over all of `selected` —
    /// the eager loop's own call, so the two agree even when GEDs degrade.
    /// Returns the score and the new `(div, div_covers)`.
    fn rescore(
        &self,
        pattern: &Graph,
        variant: ScoreVariant,
        cw: &ClusterWeights,
        selected: &[Graph],
        search: &SearchBudget,
        tally: &mut TallyCounts,
    ) -> (f64, Option<usize>, usize) {
        // Eq. 2 ignores `div` when it is off or `cog` is not positive, so
        // no GED is spent on it.
        if !variant.uses_diversity() || self.cog <= 0.0 {
            let score = self.score(variant, cw, self.div);
            return (score, self.div, self.div_covers);
        }
        let div = diversity(pattern, selected, search, tally);
        (self.score(variant, cw, div), div, selected.len())
    }
}

/// The candidate's exact bytes: its labels (and so its vertex count),
/// then its edge list in order. Not a canonical form — under node caps
/// VF2 and GED results can depend on vertex order, so only byte-identical
/// graphs may share a memo entry.
type ExactKey = (Vec<Label>, Vec<(u32, u32)>);

fn exact_key(g: &Graph) -> ExactKey {
    let edges = g.edges().map(|(_, e)| (e.u.0, e.v.0)).collect();
    (g.labels().to_vec(), edges)
}

/// The greedy tie rule: higher score (`total_cmp`) wins, then the lower
/// candidate index.
fn beats(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)).is_gt()
}

/// Run Algorithm 4 over prebuilt CSGs.
///
/// `db` supplies the label-coverage index and edge-label weights; `csgs`
/// the candidate source. Deterministic for a fixed RNG seed.
pub fn find_canned_patterns<R: Rng>(
    db: &[Graph],
    csgs: &[Csg],
    cfg: &SelectionConfig,
    rng: &mut R,
) -> SelectionResult {
    let _span = cfg.recorder.span("selection");
    let start = Stopwatch::start();
    // Every kernel metered under this budget flushes into `scoring.*`.
    let search = cfg
        .search
        .clone()
        .with_probe(cfg.recorder.stage_probe("scoring"));
    let iterations = cfg.recorder.counter("scoring.greedy.iterations");
    let candidates_seen = cfg.recorder.counter("scoring.greedy.candidates");
    let rescored = cfg.recorder.counter("scoring.greedy.rescored");
    let memo_hits = cfg.recorder.counter("scoring.greedy.memo_hits");
    let budget = cfg.budget.clone();
    // Progress accounting (`--progress` ETA): γ slots to fill, one done
    // per selected pattern. The greedy loop may stop early (exhausted
    // candidates), so done ≤ total is a bound, not a promise.
    let items_done = cfg.recorder.counter("selection.items.done");
    cfg.recorder
        .counter("selection.items.total")
        .add(budget.gamma() as u64);
    let mut elw = EdgeLabelWeights::new(EdgeLabelStats::from_graphs(db));
    let mut cw = ClusterWeights::new(csgs, db.len());
    let index = EdgeLabelIndex::build(db);
    let prepared = prepare_csgs(csgs);
    let mut selected: Vec<SelectedPattern> = Vec::new();
    let mut selected_graphs: Vec<Graph> = Vec::new();
    let mut counts = SizeCounts::new();
    let mut scoring = TallyCounts::default();
    // Per-call memo: exact bytes → slot in `slots` (see [`Memo`]).
    let mut memo: BTreeMap<ExactKey, usize> = BTreeMap::new();
    let mut slots: Vec<Memo> = Vec::new();

    while selected.len() < budget.gamma() {
        iterations.incr();
        let _iter_span = cfg.recorder.span("greedy_iter");
        let sizes = budget.open_sizes(&counts);
        if sizes.is_empty() {
            break;
        }
        // Candidate generation: every CSG proposes one FCP per open size.
        let walk_span = cfg.recorder.span("walks");
        let mut candidates: Vec<(Graph, usize)> = Vec::new();
        for (ci, csg) in csgs.iter().enumerate() {
            let weighted = WeightedCsg::new(csg, &elw);
            for &size in &sizes {
                let library = generate_library(&weighted, size, cfg.walks, rng);
                if let Some((fcp, _)) = generate_fcp(csg, &library, size) {
                    let got = fcp.edge_count();
                    // Accept only when the realized size still has quota
                    // (small CSGs can produce undersized FCPs).
                    if got >= budget.eta_min()
                        && got <= budget.eta_max()
                        && counts.count(got) < budget.size_cap(got)
                    {
                        candidates.push((fcp, ci));
                    }
                }
            }
        }
        drop(walk_span);
        candidates_seen.add(candidates.len() as u64);
        let dedup_span = cfg.recorder.span("dedup");
        // Drop candidates identical (isomorphic) to an already-selected
        // pattern — their diversity is 0, so they can never help. A
        // degraded check may let a duplicate through; scoring then gives
        // it zero diversity, so it is merely wasted work, never a wrong
        // selection.
        let mut iso_eq = |a: &Graph, b: &Graph| {
            let (eq, c) = are_isomorphic_tagged(a, b, &search);
            scoring.record(c);
            eq
        };
        candidates.retain(|(c, _)| !selected_graphs.iter().any(|p| iso_eq(p, c)));
        // Dedup isomorphic candidates proposed by different CSGs (clusters
        // often share motifs); scoring is the expensive part of the loop.
        let mut unique: Vec<(Graph, usize)> = Vec::with_capacity(candidates.len());
        for (c, ci) in candidates {
            if !unique.iter().any(|(u, _)| iso_eq(u, &c)) {
                unique.push((c, ci));
            }
        }
        let mut candidates = unique;
        drop(dedup_span);
        if candidates.is_empty() {
            break;
        }
        let _score_span = cfg.recorder.span("score");
        // Memo lookup: the first sighting of a candidate's exact bytes
        // computes its fixed terms (in parallel, each returning its own
        // tally for `scoring`).
        let mut slot_of: Vec<usize> = Vec::with_capacity(candidates.len());
        let mut fresh: Vec<usize> = Vec::new();
        for (i, (c, _)) in candidates.iter().enumerate() {
            let next = slots.len() + fresh.len();
            let slot = *memo.entry(exact_key(c)).or_insert(next);
            if slot == next {
                fresh.push(i);
            }
            slot_of.push(slot);
        }
        memo_hits.add((candidates.len() - fresh.len()) as u64);
        let new_slots = par_map(&fresh, |&i| {
            Memo::new(&candidates[i].0, &prepared, &index, cfg, &search)
        });
        for (memo, tally) in new_slots {
            scoring = scoring.merge(tally);
            slots.push(memo);
        }
        // Lazy argmax: visit candidates in descending-bound order, scoring
        // a fixed-size block at a time, until the best exact score beats
        // the next bound under the tie rule — then no later candidate can
        // win. Everything is keyed by *candidate* index (`order` is the
        // identity permutation until it is sorted), so the pick is the
        // same for every thread count.
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        let bounds: Vec<f64> = par_map(&order, |&i| {
            slots[slot_of[i]].bound(&candidates[i].0, cfg.variant, &cw, &selected_graphs)
        });
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));
        let mut best: Option<(f64, usize)> = None;
        for block in order.chunks(RESCORE_BLOCK) {
            if best.is_some_and(|b| beats(b, (bounds[block[0]], block[0]))) {
                break;
            }
            let exact = par_map(block, |&i| {
                let memo = &slots[slot_of[i]];
                let c = &candidates[i].0;
                let mut tally = TallyCounts::default();
                let (score, div, covers) =
                    memo.rescore(c, cfg.variant, &cw, &selected_graphs, &search, &mut tally);
                (i, score, div, covers, tally)
            });
            rescored.add(block.len() as u64);
            for (i, score, div, covers, tally) in exact {
                scoring = scoring.merge(tally);
                let memo = &mut slots[slot_of[i]];
                memo.div = div;
                memo.div_covers = covers;
                if best.is_none_or(|b| beats((score, i), b)) {
                    best = Some((score, i));
                }
            }
        }
        // `candidates` was checked non-empty above, so the first block ran
        // and `best` is set; `total_cmp` keeps the argmax well-defined
        // even if a score degenerated to NaN.
        let Some((best_score, best_idx)) = best else {
            break;
        };
        if best_score <= 0.0 {
            // Nothing covers anything anymore (all weights damped to ~0 or
            // zero-coverage candidates): stop rather than pick noise.
            break;
        }
        let covering = &slots[slot_of[best_idx]].covering;
        let (pattern, source_csg) = candidates.swap_remove(best_idx);
        // Damp weights: clusters whose CSG contains the pattern, and the
        // pattern's edge labels (§5, multiplicative weights update).
        for &ci in covering {
            cw.damp(ci);
        }
        elw.damp_pattern(&pattern);
        counts.record(pattern.edge_count());
        selected_graphs.push(pattern.clone());
        selected.push(SelectedPattern {
            pattern,
            score: best_score,
            source_csg,
        });
        items_done.incr();
    }

    SelectionResult {
        selected,
        elapsed: start.elapsed(),
        report: PipelineReport {
            scoring,
            ..PipelineReport::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_csg::build_csgs;
    use catapult_graph::iso::are_isomorphic;
    use catapult_graph::{Label, VertexId};
    use rand::SeedableRng;

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

    fn chain(n: u32, labels: &[u32]) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.add_vertex(Label(labels[i as usize % labels.len()]));
        }
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
        }
        g
    }

    fn db_and_csgs() -> (Vec<Graph>, Vec<Csg>) {
        let mut db = Vec::new();
        for _ in 0..6 {
            db.push(ring(6, 0));
        }
        for _ in 0..6 {
            db.push(chain(7, &[0, 1]));
        }
        let clusters = vec![(0..6).collect::<Vec<u32>>(), (6..12).collect()];
        let csgs = build_csgs(&db, &clusters);
        (db, csgs)
    }

    #[test]
    fn respects_budget() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        assert!(r.selected.len() <= 4);
        assert!(!r.selected.is_empty());
        for s in &r.selected {
            let e = s.pattern.edge_count();
            assert!((3..=5).contains(&e), "pattern size {e}");
        }
        // Per-size cap: 4 / 3 = 1.
        for size in 3..=5 {
            assert!(
                r.selected
                    .iter()
                    .filter(|s| s.pattern.edge_count() == size)
                    .count()
                    <= 2,
                "per-size cap violated"
            );
        }
    }

    #[test]
    fn no_duplicate_patterns() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 6, 8).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        let pats = r.patterns();
        for i in 0..pats.len() {
            for j in (i + 1)..pats.len() {
                assert!(!are_isomorphic(&pats[i], &pats[j]), "duplicate at {i},{j}");
            }
        }
    }

    #[test]
    fn patterns_occur_in_database() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        // Every selected pattern embeds into at least one CSG, and (because
        // these clusters are homogeneous) into at least one data graph.
        for s in &r.selected {
            assert!(
                db.iter()
                    .any(|g| catapult_graph::iso::contains(g, &s.pattern)),
                "pattern not found in any data graph"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 20,
            ..Default::default()
        };
        let run = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            find_canned_patterns(&db, &csgs, &cfg, &mut rng)
                .patterns()
                .iter()
                .map(|p| (p.vertex_count(), p.edge_count()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn query_log_biases_selection() {
        // Two homogeneous clusters; a log full of chain queries must pull
        // selection toward chain patterns on the very first pick.
        let (db, csgs) = db_and_csgs();
        let chain_queries: Vec<Graph> = (0..5).map(|_| chain(6, &[0, 1])).collect();
        let base_cfg = SelectionConfig {
            budget: PatternBudget::new(3, 4, 1).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let log_cfg = SelectionConfig {
            query_log: Some(crate::querylog::QueryLog::new(chain_queries.clone())),
            log_weight: 10.0,
            ..base_cfg
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let with_log = find_canned_patterns(&db, &csgs, &log_cfg, &mut rng);
        // The single selected pattern must occur in the logged queries.
        let p = &with_log.selected[0].pattern;
        assert!(
            chain_queries
                .iter()
                .any(|q| catapult_graph::iso::contains(q, p)),
            "log-boosted pick must match the log"
        );
    }

    #[test]
    fn ablation_variants_run_to_completion() {
        use crate::score::ScoreVariant;
        let (db, csgs) = db_and_csgs();
        for variant in [
            ScoreVariant::Full,
            ScoreVariant::NoDiversity,
            ScoreVariant::NoCognitiveLoad,
            ScoreVariant::Additive,
        ] {
            let cfg = SelectionConfig {
                budget: PatternBudget::new(3, 5, 4).unwrap(),
                walks: 20,
                variant,
                ..Default::default()
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(43);
            let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
            assert!(
                !r.selected.is_empty(),
                "variant {variant:?} selected nothing"
            );
        }
    }

    #[test]
    fn custom_distribution_is_respected() {
        let (db, csgs) = db_and_csgs();
        let budget = PatternBudget::with_distribution(3, 6, 6, vec![(3, 2), (5, 1)]).unwrap();
        let cfg = SelectionConfig {
            budget,
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        for s in &r.selected {
            let e = s.pattern.edge_count();
            assert!(e == 3 || e == 5, "size {e} has no quota");
        }
        assert!(
            r.selected
                .iter()
                .filter(|s| s.pattern.edge_count() == 3)
                .count()
                <= 2
        );
        assert!(
            r.selected
                .iter()
                .filter(|s| s.pattern.edge_count() == 5)
                .count()
                <= 1
        );
    }

    #[test]
    fn exact_run_reports_all_exact() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 5, 4).unwrap(),
            walks: 30,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        assert!(r.report.all_exact(), "unbounded run must be exact");
        assert!(r.report.scoring.total() > 0, "kernels must be audited");
        assert!(r.report.degraded_stages().is_empty());
    }

    #[test]
    fn empty_inputs() {
        let cfg = SelectionConfig::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let r = find_canned_patterns(&[], &[], &cfg, &mut rng);
        assert!(r.selected.is_empty());
    }

    #[test]
    fn bound_never_undercuts_the_exact_score() {
        let (db, csgs) = db_and_csgs();
        let index = EdgeLabelIndex::build(&db);
        let mut cw = ClusterWeights::new(&csgs, db.len());
        cw.damp(1);
        let mut tally = TallyCounts::default();
        let picks = [ring(6, 0), chain(4, &[0, 1]), chain(6, &[1, 0])];
        let candidates = [chain(5, &[0, 1]), chain(4, &[1, 0]), ring(5, 0), ring(4, 1)];
        let log = crate::querylog::QueryLog::new(vec![chain(7, &[0, 1]), ring(6, 0)]);
        // A 40-node cap degrades GEDs, and with them `div`.
        let searches = [SearchBudget::unbounded(), SearchBudget::nodes(40)];
        let variants = [
            ScoreVariant::Full,
            ScoreVariant::NoDiversity,
            ScoreVariant::NoCognitiveLoad,
            ScoreVariant::Additive,
        ];
        for (search, variant) in searches.iter().flat_map(|s| variants.map(|v| (s, v))) {
            // λ = −3 drives the boost factor negative for logged patterns.
            for (query_log, log_weight) in [
                (None, 1.0),
                (Some(log.clone()), 2.0),
                (Some(log.clone()), -3.0),
            ] {
                let cfg = SelectionConfig {
                    variant,
                    query_log,
                    log_weight,
                    ..Default::default()
                };
                for c in &candidates {
                    // A memo brought up to date against each prefix of the
                    // picks, then bounded against all of them.
                    for seen in 0..=picks.len() {
                        let (mut memo, _) =
                            Memo::new(c, &prepare_csgs(&csgs), &index, &cfg, search);
                        let (_, div, covers) =
                            memo.rescore(c, variant, &cw, &picks[..seen], search, &mut tally);
                        memo.div = div;
                        memo.div_covers = covers;
                        let bound = memo.bound(c, variant, &cw, &picks);
                        let (exact, _, _) =
                            memo.rescore(c, variant, &cw, &picks, search, &mut tally);
                        assert!(
                            bound.total_cmp(&exact).is_ge(),
                            "cap={} {variant:?} λ={log_weight} seen={seen}: \
                             bound {bound} < exact {exact}",
                            search.node_cap
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tie_rule_prefers_higher_score_then_lower_index() {
        assert!(beats((2.0, 5), (1.0, 0)));
        assert!(beats((1.0, 0), (1.0, 5)));
        assert!(!beats((1.0, 5), (1.0, 0)));
        assert!(beats((0.0, 3), (-0.0, 0)), "total_cmp orders +0 above −0");
    }

    #[test]
    fn first_pattern_has_positive_score() {
        let (db, csgs) = db_and_csgs();
        let cfg = SelectionConfig {
            budget: PatternBudget::new(3, 4, 2).unwrap(),
            walks: 20,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let r = find_canned_patterns(&db, &csgs, &cfg, &mut rng);
        assert!(r.selected[0].score > 0.0);
    }
}
