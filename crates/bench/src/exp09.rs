//! Exp 9 — CATAPULT vs frequent-subgraph patterns (Fig. 17, Appendix C).
//!
//! The baseline "F" mines frequent subgraphs (gaston in the paper; our
//! pattern-growth miner here) at supports {4%, 8%, 12%}, selects |F| = 30
//! patterns of size [3, 12] with ≤ |F|/10 per size, and is compared on
//! workloads Q_x whose infrequent-query fraction x grows 0 → 0.4.
//! Paper shape: F wins at x = 0 (all-frequent queries), CATAPULT catches
//! up and overtakes around x ≈ 0.3; F's MP grows linearly with x while
//! CATAPULT's stays flat; CATAPULT's div ≫ F's.

use crate::common::run_pipeline;
use crate::report::{f2, pct, Report, Table};
use crate::scale::Scale;
use catapult_core::PatternBudget;
use catapult_datasets::{aids_profile, generate, mixed_queries};
use catapult_eval::measures::{mean_diversity, mean_relative_reduction};
use catapult_eval::WorkloadEvaluation;
use catapult_graph::Graph;
use catapult_mining::subgraph::{
    mine_frequent_subgraphs, select_baseline_patterns, SubgraphMinerConfig,
};

/// One (workload, baseline-support) cell.
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// Infrequent fraction x of the workload.
    pub x: f64,
    /// Baseline support (%) this row compares against.
    pub support: f64,
    /// Mean μ_F: relative step reduction of CATAPULT vs F (positive =
    /// CATAPULT better).
    pub mu_f: f64,
    /// MP of CATAPULT on this workload.
    pub mp_catapult: f64,
    /// MP of F on this workload.
    pub mp_baseline: f64,
}

/// Mine and select the Exp 9 baseline pattern set at `support`,
/// carrying at most `per_level` patterns between miner levels.
pub fn baseline_patterns(db: &[Graph], support: f64, total: usize, per_level: usize) -> Vec<Graph> {
    let mined = mine_frequent_subgraphs(
        db,
        &SubgraphMinerConfig {
            min_support: support,
            max_edges: 8, // tractable at harness scale; sizes [3,12] in paper
            max_patterns_per_level: per_level,
        },
    );
    select_baseline_patterns(&mined, total, 3, 8)
}

/// Exp 9 dataset: AIDS-like but with the label diversity of the real AIDS
/// screen restored. At our reduced scale a carbon-dominated alphabet makes
/// every generic C-chain frequent, so the baseline "F" would trivially
/// match even infrequent queries; raising the hetero rate reproduces the
/// regime the paper evaluates in (infrequent queries are hetero-specific
/// motifs that frequent patterns miss). Documented in EXPERIMENTS.md.
fn exp9_profile() -> catapult_datasets::MoleculeProfile {
    catapult_datasets::MoleculeProfile {
        hetero_rate: 0.35,
        ..aids_profile()
    }
}

/// Run Exp 9.
pub fn run(scale: Scale) -> Report {
    let db = generate(&exp9_profile(), scale.size(120), 901).graphs;
    let catapult = run_pipeline(
        &db,
        PatternBudget::new(3, 8, 30).unwrap(),
        scale.walks(),
        902,
    )
    .patterns();
    let supports = [0.04, 0.08, 0.12];
    // The smoke database has 12 graphs, so every support rounds up to a
    // minimum count of 1 or 2 and nearly every subgraph is frequent: at
    // 300 patterns per level, mining takes ≈14 s on a 2-core host. The
    // selection keeps 5 patterns per size, so 20 parents per level still
    // leave it a choice; Quick and Full keep 300.
    let per_level = if scale == Scale::Smoke { 20 } else { 300 };
    let baselines: Vec<(f64, Vec<Graph>)> = supports
        .iter()
        .map(|&s| (s, baseline_patterns(&db, s, 30, per_level)))
        .collect();
    let xs = [0.0, 0.1, 0.2, 0.3, 0.4];
    let qsize = scale.queries(25);
    let mut rows = Vec::new();
    let mut div_note = format!(
        "div: CATAPULT {:.2} vs F(8%) {:.2} (paper: 7.4 vs 1.74)",
        mean_diversity(&catapult),
        baselines
            .iter()
            .find(|(s, _)| (*s - 0.08).abs() < 1e-9)
            .map(|(_, p)| mean_diversity(p))
            .unwrap_or(0.0)
    );
    for &x in &xs {
        let queries = mixed_queries(&db, qsize, x, 0.04, (4, 28), 903 + (x * 100.0) as u64);
        if queries.is_empty() {
            continue;
        }
        let ev_cat = WorkloadEvaluation::evaluate(&catapult, &queries);
        for (s, pats) in &baselines {
            let ev_f = WorkloadEvaluation::evaluate(pats, &queries);
            rows.push(BaselineRow {
                x,
                support: s * 100.0,
                mu_f: mean_relative_reduction(&ev_f, &ev_cat),
                mp_catapult: ev_cat.missed_percentage(),
                mp_baseline: ev_f.missed_percentage(),
            });
        }
    }
    if rows.is_empty() {
        div_note.push_str(" [no workloads generated at this scale]");
    }
    into_report(rows, div_note)
}

fn into_report(rows: Vec<BaselineRow>, div_note: String) -> Report {
    let mut table = Table::new(&["x", "F support", "mu_F", "MP(CAT)", "MP(F)"]);
    for r in &rows {
        table.row(vec![
            format!("Q{:.1}", r.x),
            pct(r.support),
            f2(r.mu_f),
            pct(r.mp_catapult),
            pct(r.mp_baseline),
        ]);
    }
    let mut notes = vec![div_note];
    // Shape: baseline MP should grow with x; catapult MP roughly flat.
    let at = |x: f64, s: f64| {
        rows.iter()
            .find(|r| (r.x - x).abs() < 1e-9 && (r.support - s).abs() < 1e-9)
    };
    if let (Some(lo), Some(hi)) = (at(0.0, 4.0), at(0.4, 4.0)) {
        notes.push(format!(
            "F(4%): MP {} at x=0 → {} at x=0.4 (paper: linear growth); CATAPULT MP {} → {} (paper: ~flat)",
            pct(lo.mp_baseline),
            pct(hi.mp_baseline),
            pct(lo.mp_catapult),
            pct(hi.mp_catapult)
        ));
        notes.push(format!(
            "mu_F at x=0: {:.2} (paper: negative, F wins) vs x=0.4: {:.2} (paper: positive, CATAPULT wins)",
            lo.mu_f, hi.mu_f
        ));
    }
    Report {
        id: "exp9",
        title: "CATAPULT vs frequent subgraphs (Fig. 17)".into(),
        tables: vec![("baseline".into(), table)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_produces_grid() {
        let r = run(Scale::Smoke);
        // 5 workloads × 3 supports (some workloads may fall short at
        // smoke scale, so allow ≥ 3).
        assert!(r.tables[0].1.len() >= 3);
    }

    #[test]
    fn baseline_set_obeys_quota() {
        let db = generate(&aids_profile(), 30, 1).graphs;
        let pats = baseline_patterns(&db, 0.2, 12, 300);
        assert!(pats.len() <= 12);
        for p in &pats {
            assert!((3..=8).contains(&p.edge_count()));
        }
    }
}
