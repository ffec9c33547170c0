//! Stress test: wide fan-out, mixed budgets, no torn results.
//!
//! A 64-way `par_map` drives budgeted VF2 kernels. Some items carry a
//! zero node cap, the rest no bound at all, and the two kinds interleave
//! across the items every worker claims. The contract under
//! fire:
//!
//! * all 64 results come back, in input order;
//! * every result is a whole `(bool, Completeness)` pair carrying the tag
//!   its own budget implies — `BudgetExhausted` for a zero cap, `Exact`
//!   otherwise — so no item's stop leaks into another's result;
//! * the executor survives: follow-up fan-outs on the same pool work,
//!   and no scoped worker threads outlive their `par_map` call.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult::graph::iso::contains_tagged;
use catapult::graph::{Completeness, Graph, Label, SearchBudget, VertexId};
use rayon::par_map;

/// `rayon::set_threads` is process-global; hold this across every flip.
#[allow(clippy::disallowed_types)] // a test lock, not pipeline state
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_threads(n);
    let out = f();
    rayon::set_threads(0);
    out
}

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

fn path(n: u32, label: u32) -> Graph {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_vertex(Label(label));
    }
    for i in 0..n - 1 {
        g.add_edge(VertexId(i), VertexId(i + 1)).unwrap();
    }
    g
}

/// Live threads of this process (Linux); `None` where /proc is absent.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// Whether item `i` of fan-out `round` runs under a zero node cap.
fn capped(i: usize, round: usize) -> bool {
    (i + round).is_multiple_of(3)
}

/// One fan-out of 64 kernels probing a 14-ring, under a zero node cap
/// where [`capped`] says so and unbounded elsewhere. Even items
/// probe a 7-path (contained), odd items a 7-ring (not contained, but
/// past every pre-filter, so it reaches the search too); the `found` bits
/// of the unbounded items also pin the output order.
fn mixed_fanout(round: usize) -> Vec<(bool, Completeness)> {
    let target = ring(14, 0);
    let patterns = [path(7, 0), ring(7, 0)];
    let zero = SearchBudget::nodes(0);
    let open = SearchBudget::unbounded();
    let items: Vec<usize> = (0..64).collect();
    par_map(&items, |&i| {
        let budget = if capped(i, round) { &zero } else { &open };
        contains_tagged(&target, &patterns[i % 2], budget)
    })
}

/// Every item is whole, in place, and tagged as its own budget implies.
fn assert_whole_and_in_order(results: &[(bool, Completeness)], round: usize, ctx: &str) {
    assert_eq!(results.len(), 64, "{ctx}: lost results");
    for (i, &(found, c)) in results.iter().enumerate() {
        if capped(i, round) {
            // A zero cap trips on the first expansion, before any match
            // can complete.
            assert_eq!(
                (found, c),
                (false, Completeness::BudgetExhausted),
                "{ctx} item {i}: zero cap"
            );
        } else {
            assert_eq!(
                (found, c),
                (i % 2 == 0, Completeness::Exact),
                "{ctx} item {i}: unbounded probe"
            );
        }
    }
}

#[test]
fn mixed_budget_fanout_keeps_results_whole_and_in_order() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [8usize, 64] {
        with_threads(threads, || {
            let results = mixed_fanout(0);
            assert_whole_and_in_order(&results, 0, &format!("threads={threads}"));
        });
    }
}

#[test]
fn executor_survives_repeated_mixed_budget_fanouts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    with_threads(8, || {
        let before = live_threads();
        // Hammer the pool: each round shifts which items carry the
        // zero cap, so the Exact/BudgetExhausted pattern lands
        // differently across the items every worker claims.
        for round in 0..12usize {
            let results = mixed_fanout(round);
            assert_whole_and_in_order(&results, round, &format!("round {round}"));
        }
        // A clean fan-out on the same pool still works afterwards.
        let clean: Vec<(bool, Completeness)> = {
            let target = ring(14, 0);
            let pattern = path(7, 0);
            let budget = SearchBudget::unbounded();
            par_map(&[(); 64], |_| contains_tagged(&target, &pattern, &budget))
        };
        assert!(
            clean
                .iter()
                .all(|&(found, c)| found && c == Completeness::Exact),
            "pool unhealthy after mixed-budget fan-outs"
        );
        // Scoped workers must all have joined: thread count is back to
        // (at most) where it started. Skipped where /proc is missing.
        if let (Some(b), Some(a)) = (before, live_threads()) {
            assert!(a <= b, "leaked worker threads: {b} before, {a} after");
        }
    });
}
