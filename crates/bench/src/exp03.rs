//! Exp 3 — Comparison with commercial GUIs (§6.2).
//!
//! CATAPULT-selected patterns (matched in cardinality and size range to
//! each GUI's panel: 12 patterns of size [3,8] vs PubChem, 6 vs
//! eMolecules) against the manually-curated, unlabeled GUI pattern sets,
//! under the vertex-relabelling step model. Reported: average cognitive
//! load, diversity, MP for both sides, and the relative reduction μ_G.

use crate::common::run_pipeline;
use crate::report::{f2, pct, Report, Table};
use crate::scale::Scale;
use catapult_core::PatternBudget;
use catapult_datasets::{emol_profile, generate, pubchem_profile, random_queries};
use catapult_eval::gui::{emol_gui_patterns, pubchem_gui_patterns};
use catapult_eval::measures::{mean_cog, mean_diversity};
use catapult_eval::steps::DEFAULT_EMBEDDING_CAP;
use catapult_eval::{formulate, formulate_unlabeled};
use catapult_graph::Graph;
use rayon::par_map;

/// Comparison of one GUI against CATAPULT on one repository.
#[derive(Clone, Debug)]
pub struct GuiComparison {
    /// GUI name.
    pub gui: &'static str,
    /// Mean cog of the GUI panel / of CATAPULT's panel.
    pub cog: (f64, f64),
    /// Mean diversity of the GUI panel / CATAPULT's panel.
    pub div: (f64, f64),
    /// MP of the GUI panel / CATAPULT's panel (%).
    pub mp: (f64, f64),
    /// Max and mean μ_G (relative step reduction of CATAPULT vs the GUI).
    pub mu_g: (f64, f64),
}

/// Evaluate one GUI cell.
pub fn compare(
    gui: &'static str,
    db: &[Graph],
    gui_panel: &[Graph],
    catapult_panel: &[Graph],
    queries: &[Graph],
) -> GuiComparison {
    let _ = db;
    // Parallel audit: both formulations are pure functions of shared `&`
    // state; ordered collection keeps per-query rows aligned with
    // `queries` across thread counts.
    let per_query: Vec<(usize, usize, bool, bool)> = par_map(queries, |q| {
        let f_gui = formulate_unlabeled(q, gui_panel, DEFAULT_EMBEDDING_CAP);
        let f_cat = formulate(q, catapult_panel, DEFAULT_EMBEDDING_CAP);
        (
            f_gui.steps,
            f_cat.steps,
            f_gui.used_any_pattern(),
            f_cat.used_any_pattern(),
        )
    });
    let n = per_query.len().max(1) as f64;
    let mp_gui = per_query.iter().filter(|r| !r.2).count() as f64 / n * 100.0;
    let mp_cat = per_query.iter().filter(|r| !r.3).count() as f64 / n * 100.0;
    let ratios: Vec<f64> = per_query
        .iter()
        .map(|&(g, c, _, _)| {
            if g == 0 {
                0.0
            } else {
                (g as f64 - c as f64) / g as f64
            }
        })
        .collect();
    GuiComparison {
        gui,
        cog: (mean_cog(gui_panel), mean_cog(catapult_panel)),
        div: (mean_diversity(gui_panel), mean_diversity(catapult_panel)),
        mp: (mp_gui, mp_cat),
        mu_g: (
            ratios.iter().copied().fold(f64::MIN, f64::max),
            catapult_eval::stats::mean(&ratios),
        ),
    }
}

/// Run Exp 3.
pub fn run(scale: Scale) -> Report {
    let pubchem = generate(&pubchem_profile(), scale.size(150), 301).graphs;
    let emol = generate(&emol_profile(), scale.size(150), 302).graphs;

    // CATAPULT panels matched to each GUI's budget: 12 / 6 patterns,
    // sizes [3, 8] (§6.2).
    let cat_pub = run_pipeline(
        &pubchem,
        PatternBudget::new(3, 8, 12).unwrap(),
        scale.walks(),
        303,
    )
    .patterns();
    let cat_emol = run_pipeline(
        &emol,
        PatternBudget::new(3, 8, 6).unwrap(),
        scale.walks(),
        304,
    )
    .patterns();

    let q_pub = random_queries(&pubchem, scale.queries(80), (4, 25), 305);
    let q_emol = random_queries(&emol, scale.queries(80), (4, 25), 306);

    let rows = vec![
        compare(
            "PubChem",
            &pubchem,
            &pubchem_gui_patterns(),
            &cat_pub,
            &q_pub,
        ),
        compare("eMol", &emol, &emol_gui_patterns(), &cat_emol, &q_emol),
    ];
    into_report(rows)
}

fn into_report(rows: Vec<GuiComparison>) -> Report {
    let mut table = Table::new(&[
        "gui", "cog(gui)", "cog(CAT)", "div(gui)", "div(CAT)", "MP(gui)", "MP(CAT)", "max_muG",
        "avg_muG",
    ]);
    let mut notes = Vec::new();
    for r in &rows {
        table.row(vec![
            r.gui.to_string(),
            f2(r.cog.0),
            f2(r.cog.1),
            f2(r.div.0),
            f2(r.div.1),
            pct(r.mp.0),
            pct(r.mp.1),
            f2(r.mu_g.0),
            f2(r.mu_g.1),
        ]);
        notes.push(format!(
            "{}: CATAPULT cog {:.2} vs GUI {:.2} (paper: CATAPULT lower); avg muG {:.2} (paper: positive)",
            r.gui, r.cog.1, r.cog.0, r.mu_g.1
        ));
    }
    Report {
        id: "exp3",
        title: "Comparison with commercial GUIs (§6.2 Exp 3)".into(),
        tables: vec![("gui-comparison".into(), table)],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catapult_datasets::aids_profile;

    #[test]
    fn smoke_produces_two_rows() {
        let r = run(Scale::Smoke);
        assert_eq!(r.tables[0].1.len(), 2);
    }

    #[test]
    fn compare_detects_useless_panels() {
        let db = generate(&aids_profile(), 20, 1).graphs;
        let queries = random_queries(&db, 10, (4, 10), 2);
        // An empty catapult panel: MP(CAT) must be 100%.
        let c = compare("test", &db, &pubchem_gui_patterns(), &[], &queries);
        assert_eq!(c.mp.1, 100.0);
    }
}
