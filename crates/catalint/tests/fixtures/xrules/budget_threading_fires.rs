//@ file: crates/graph/src/mcs.rs
pub struct SearchBudget {
    pub nodes: u64,
}

/// Bare convenience: pins an unbounded budget internally, with no way
/// for the caller to pass one.
pub fn mcs_similarity(a: u32, b: u32) -> f64 {
    search(a, b, &SearchBudget { nodes: u64::MAX })
}

/// Budgeted entry point.
pub fn mcs_with_budget(a: u32, b: u32, budget: &SearchBudget) -> f64 {
    search(a, b, budget)
}

fn search(a: u32, b: u32, budget: &SearchBudget) -> f64 {
    let _ = budget.nodes;
    0.0
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
use catapult_graph::iso::contains;
use catapult_graph::mcs::{mcs_similarity, mcs_with_budget};

/// Fires (bare): enters the unbudgetable kernel convenience.
pub fn score_unbounded(a: u32, b: u32) -> f64 {
    mcs_similarity(a, b)
}

/// Fires (unthreaded): reaches the budgeted kernel but neither receives
/// nor constructs any budget-carrying value.
pub fn score_raw_cap(a: u32, b: u32, cap: u64) -> f64 {
    let _ = cap;
    mcs_with_budget(a, b, make(cap))
}

fn make(cap: u64) -> f64 {
    cap as f64
}

/// Fires (bare): a convenience imported with `use`, called unqualified.
pub fn covered(q: u32, g: u32) -> bool {
    contains(q, g)
}

/// Fires (bare): the real call after a string holding `contains(` text.
pub fn covered_after_string(q: u32, g: u32) -> bool {
    let s = "// contains(in a string)";
    !s.is_empty() && contains(q, g)
}
