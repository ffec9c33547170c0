//! Fault-injected graceful-degradation tests for the whole pipeline.
//!
//! With the `fault-injection` feature, [`catapult::graph::budget::fault`]
//! deterministically exhausts the K-th budgeted kernel invocation.
//! These tests sweep K across an end-to-end
//! `run_catapult` and prove the robustness contract: the pipeline always
//! returns a valid, budget-conforming pattern set, and whenever a fault
//! actually fired, the [`PipelineReport`] names the degraded stage and
//! why — degradation is never silent.
//!
//! Run with: `cargo test --features fault-injection --test fault_injection`
#![cfg(feature = "fault-injection")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult::graph::budget::fault::{self, FaultPlan};
use catapult::graph::components::is_connected;
use catapult::graph::{Completeness, Graph, Label, VertexId};
use catapult::prelude::*;

/// The fault plan and invocation counter are process-global; every test
/// must hold this lock so plans do not bleed between tests.
#[allow(clippy::disallowed_types)] // a test lock, not pipeline state
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

fn small_db() -> Vec<Graph> {
    let mut db = Vec::new();
    for i in 0..8 {
        db.push(ring(5 + i % 2, 0));
        db.push(chain(6, &[0, 1]));
    }
    db
}

const GAMMA: usize = 4;
const ETA_MIN: usize = 3;
const ETA_MAX: usize = 5;

fn config() -> CatapultConfig {
    CatapultConfig {
        budget: PatternBudget::new(ETA_MIN, ETA_MAX, GAMMA).unwrap(),
        walks: 10,
        seed: 11,
        ..Default::default()
    }
}

/// The γ/η validity contract that must hold under EVERY fault.
fn assert_valid_pattern_set(r: &catapult::core::CatapultResult, ctx: &str) {
    let patterns = r.patterns();
    assert!(patterns.len() <= GAMMA, "{ctx}: more than γ patterns");
    for p in &patterns {
        assert!(
            (ETA_MIN..=ETA_MAX).contains(&p.edge_count()),
            "{ctx}: pattern size {} outside [{ETA_MIN}, {ETA_MAX}]",
            p.edge_count()
        );
        assert!(is_connected(p), "{ctx}: disconnected pattern");
    }
}

/// Run one pipeline with a fault armed at invocation `k`; returns the
/// result and whether the fault actually fired.
fn run_with_fault(db: &[Graph], k: u64) -> (catapult::core::CatapultResult, bool) {
    fault::install(FaultPlan {
        at: k,
        sticky: false,
    });
    let r = run_catapult(db, &config());
    let fired = fault::invocations() >= k;
    fault::clear();
    (r, fired)
}

/// Sweep every injection point when the run is small enough, otherwise an
/// evenly strided deterministic sample that always includes the first and
/// last invocations.
fn injection_points(total: u64) -> Vec<u64> {
    if total <= 48 {
        (1..=total).collect()
    } else {
        let mut ks: Vec<u64> = (1..=total).step_by((total / 40).max(1) as usize).collect();
        if ks.last() != Some(&total) {
            ks.push(total);
        }
        ks
    }
}

#[test]
fn every_injection_point_degrades_gracefully_and_loudly() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = small_db();

    // Baseline: count kernel invocations of a clean run (a never-firing
    // plan resets the counter without crippling anything).
    fault::install(FaultPlan {
        at: u64::MAX,
        sticky: false,
    });
    let clean = run_catapult(&db, &config());
    let total = fault::invocations();
    fault::clear();
    assert!(clean.report().all_exact(), "baseline must be exact");
    assert!(total > 0, "pipeline must exercise budgeted kernels");
    assert_valid_pattern_set(&clean, "baseline");

    for k in injection_points(total) {
        let (r, fired) = run_with_fault(&db, k);
        let ctx = format!("K={k}");
        assert_valid_pattern_set(&r, &ctx);
        if fired {
            // The whole point: degradation must be visible, with the
            // stage and the reason on the report.
            assert!(
                !r.report().all_exact(),
                "{ctx}: fault fired but report claims exact"
            );
            let stages = r.report().degraded_stages();
            assert!(!stages.is_empty(), "{ctx}: no degraded stage named");
            for s in &stages {
                assert!(
                    ["mining", "clustering", "scoring"].contains(s),
                    "{ctx}: unknown stage {s}"
                );
            }
            assert_eq!(
                r.report().worst(),
                Completeness::BudgetExhausted,
                "{ctx}: report must carry the injected fault's tag"
            );
        } else {
            assert!(
                r.report().all_exact(),
                "{ctx}: no fault fired, run must be exact"
            );
        }
    }
}

#[test]
fn first_invocation_fault_lands_in_mining() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = small_db();
    let (r, fired) = run_with_fault(&db, 1);
    assert!(fired, "a non-empty db must invoke at least one kernel");
    assert_valid_pattern_set(&r, "K=1");
    assert!(
        r.report().degraded_stages().contains(&"mining"),
        "the first kernel call belongs to subtree mining, got {:?}",
        r.report().degraded_stages()
    );
}

#[test]
fn sticky_fault_from_start_still_yields_conforming_output() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = small_db();
    fault::install(FaultPlan {
        at: 1,
        sticky: true,
    });
    let r = run_catapult(&db, &config());
    fault::clear();
    // With every kernel crippled the selection may be small or empty,
    // but it must never violate the budget contract or hide the
    // degradation.
    assert_valid_pattern_set(&r, "sticky");
    assert!(!r.report().all_exact(), "sticky fault must degrade");
    assert_eq!(r.report().worst(), Completeness::BudgetExhausted);
}

#[test]
fn deterministic_under_identical_fault_plans() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Probe-level replay: which probe is the K-th depends on worker
    // interleaving once a fan-out is truly parallel, so fingerprint
    // equality is only guaranteed single-threaded. (Stage-level replay
    // under 8 workers is covered by tests/parallel_determinism.rs.)
    rayon::set_threads(1);
    let db = small_db();
    let fingerprint = |r: &catapult::core::CatapultResult| {
        r.patterns()
            .iter()
            .map(|p| p.invariant_signature())
            .collect::<Vec<_>>()
    };
    let (a, _) = run_with_fault(&db, 7);
    let (b, _) = run_with_fault(&db, 7);
    rayon::set_threads(0);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.report(), b.report(), "audit must replay identically");
}
