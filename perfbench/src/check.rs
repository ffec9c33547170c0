//! The output check applied to every selected panel.

use crate::workload::Panel;
use catapult_core::PatternBudget;
use catapult_graph::components::is_connected;
use catapult_graph::iso::{are_isomorphic, contains};
use catapult_graph::Graph;

/// Check one panel selected over `db` against `budget`: at least one and
/// at most γ patterns, each with ηmin..=ηmax edges, connected, embedded
/// in the cluster summary graph that proposed it, and no two isomorphic.
/// Returns the first violation found; on success, the number of patterns
/// that embed in no single database graph.
///
/// A CSG is the union of its cluster's graphs, so a random walk over it
/// can assemble a pattern no one graph contains (e.g. a carbon with six
/// neighbours). The selection does not rule that out, so such "phantom"
/// patterns are counted rather than failed; the end-to-end metric
/// `embedded_pct` reports the share of patterns that are not phantoms.
pub fn check_panel(panel: &Panel, db: &[Graph], budget: &PatternBudget) -> Result<usize, String> {
    let patterns = &panel.patterns;
    if patterns.is_empty() {
        return Err("empty panel".to_string());
    }
    if patterns.len() > budget.gamma() {
        return Err(format!(
            "{} patterns exceed γ = {}",
            patterns.len(),
            budget.gamma()
        ));
    }
    let mut phantoms = 0;
    for (i, (p, source)) in patterns.iter().zip(&panel.sources).enumerate() {
        let edges = p.edge_count();
        if edges < budget.eta_min() || edges > budget.eta_max() {
            return Err(format!(
                "pattern {i} has {edges} edges, outside [{}, {}]",
                budget.eta_min(),
                budget.eta_max()
            ));
        }
        if !is_connected(p) {
            return Err(format!("pattern {i} is disconnected"));
        }
        if !contains(source, p) {
            return Err(format!("pattern {i} does not embed in its source CSG"));
        }
        if let Some(j) = patterns[..i].iter().position(|q| are_isomorphic(q, p)) {
            return Err(format!("patterns {j} and {i} are isomorphic"));
        }
        if !db.iter().any(|g| contains(g, p)) {
            phantoms += 1;
        }
    }
    Ok(phantoms)
}
