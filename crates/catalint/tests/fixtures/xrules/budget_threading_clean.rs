//@ file: crates/graph/src/mcs.rs
pub struct SearchBudget {
    pub nodes: u64,
}

pub fn mcs_with_budget(a: u32, b: u32, budget: &SearchBudget) -> f64 {
    search(a, b, budget.nodes)
}

fn search(a: u32, b: u32, cap: u64) -> f64 {
    0.0
}

/// Polynomial helper: free pub fn with no budgeted search underneath,
/// so calling it bare is fine (the `ged_lower_bound` shape).
pub fn mcs_size_bound(a: u32, b: u32) -> u32 {
    a.min(b)
}

//@ file: crates/graph/src/iso.rs
use crate::mcs::SearchBudget;

/// Budgeted, tagged containment test.
pub fn contains_tagged(q: u32, g: u32, budget: &SearchBudget) -> (bool, bool) {
    (q <= g && budget.nodes > 0, true)
}

/// Bare convenience: pins an unbounded budget and drops the tag.
pub fn contains(q: u32, g: u32) -> bool {
    contains_tagged(q, g, &SearchBudget { nodes: u64::MAX }).0
}

//@ file: crates/eval/src/run.rs
use catapult_graph::iso::contains_tagged;
use catapult_graph::mcs::{mcs_size_bound, mcs_with_budget, SearchBudget};

/// Clean: receives the budget in its signature and threads it through.
pub fn score(a: u32, b: u32, budget: &SearchBudget) -> f64 {
    mcs_with_budget(a, b, budget)
}

/// Clean: constructs a budget locally, so callers chose this cap.
pub fn score_default(a: u32, b: u32) -> f64 {
    let budget = SearchBudget { nodes: 10_000 };
    mcs_with_budget(a, b, &budget)
}

/// Clean: a polynomial kernel helper needs no budget.
pub fn prune(a: u32, b: u32) -> u32 {
    mcs_size_bound(a, b)
}

/// Clean: the convenience appears only in a string and in comments —
/// contains(q, g) here is text, not a call.
pub fn describe(v: &[u32]) -> bool {
    /* are_isomorphic(a, b) */
    let s = "contains(q, g); are_isomorphic(a, b)";
    v.contains(&1) && !s.is_empty()
}

/// Clean: the `_tagged` variant with the caller's budget threaded in.
pub fn covered(q: u32, g: u32, budget: &SearchBudget) -> (bool, bool) {
    contains_tagged(q, g, budget)
}
