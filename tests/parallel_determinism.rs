//! Parallel determinism: the executor must be invisible in the output.
//!
//! The parallel fan-out (`shims/rayon`: `par_map`, `par_filter_map`)
//! runs on real `std::thread::scope` workers but returns results in
//! input order, and every parallel closure in the pipeline returns what
//! it computed (kernel tallies included) for the calling thread to fold
//! in, mutating no shared state but observability counters — so a full
//! `run_catapult` must produce **byte-identical** results for every
//! thread count. These tests pin that contract: the quickstart pipeline
//! is serialized (patterns, scores, provenance, clusters, and the
//! completeness report — everything except wall-clock times) and compared
//! against the single-threaded golden for threads ∈ {1, 2, 8}. The
//! recorder's counters and histograms (kernel calls, probes, cache hits)
//! must match the single-threaded run's too: no search is run twice, or
//! skipped, because of how workers interleave.
//!
//! With `--features fault-injection` the fault sweep from
//! `tests/fault_injection.rs` is re-run under 8 threads: the K-th-probe
//! counter is interleaving-dependent *within* a stage, but the stage
//! structure, the validity contract, and the loud-degradation guarantee
//! must survive any interleaving.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult::datasets::{aids_profile, generate, MoleculeDb};
use catapult::graph::fmt::write_graphs;
use catapult::prelude::*;
use std::fmt::Write as _;

/// `rayon::set_threads` is process-global; serialize every test that
/// flips it so concurrent tests never observe a half-changed setting.
#[allow(clippy::disallowed_types)] // a test lock, not pipeline state
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with the pool pinned to `n` workers, restoring auto sizing.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_threads(n);
    let out = f();
    rayon::set_threads(0);
    out
}

fn quickstart_db() -> MoleculeDb {
    generate(&aids_profile(), 30, 7)
}

fn quickstart_cfg() -> CatapultConfig {
    CatapultConfig {
        budget: PatternBudget::new(3, 6, 6).unwrap(),
        walks: 20,
        ..Default::default()
    }
}

/// Canonical text form of everything deterministic in a pipeline run.
///
/// Deliberately excludes the two wall-clock fields
/// (`clustering.elapsed`, `selection.elapsed`): they are the only parts
/// of [`CatapultResult`] allowed to differ between runs.
fn serialize(db: &MoleculeDb, r: &catapult::core::CatapultResult) -> String {
    let mut s = String::new();
    // The pattern graphs themselves, in selection order.
    s.push_str(&write_graphs(&r.patterns(), &db.interner));
    // Scores ({:?} on f64 is the shortest round-trip form — bit-faithful)
    // and CSG provenance.
    for sp in &r.selection.selected {
        let _ = writeln!(s, "score {:?} csg {}", sp.score, sp.source_csg);
    }
    // Clustering structure and the CSGs' vertex/edge shapes.
    let _ = writeln!(s, "clusters {:?}", r.clustering.clusters);
    for csg in &r.csgs {
        let _ = writeln!(s, "csg {:?}", csg);
    }
    // The per-stage completeness audit, folded on the calling thread in
    // input order, so it too must match across thread counts.
    let _ = writeln!(s, "report {:?}", r.selection.report);
    s
}

/// The quickstart configuration with §4.3 sampling on: mining runs on the
/// eager sample and every survivor is recounted on the full database, in
/// one fan-out over the survivors.
fn sampled_cfg() -> CatapultConfig {
    let base = quickstart_cfg();
    CatapultConfig {
        clustering: ClusteringConfig {
            sampling: Some(SamplingConfig::default()),
            ..base.clustering.clone()
        },
        ..base
    }
}

#[test]
fn full_pipeline_is_byte_identical_across_thread_counts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = quickstart_db();
    for (name, cfg) in [("default", quickstart_cfg()), ("sampled", sampled_cfg())] {
        let golden = with_threads(1, || serialize(&db, &run_catapult(&db.graphs, &cfg)));
        assert!(
            !golden.is_empty(),
            "{name}: golden run must select patterns"
        );

        for threads in [2usize, 8] {
            let got = with_threads(threads, || serialize(&db, &run_catapult(&db.graphs, &cfg)));
            assert_eq!(
                got, golden,
                "{name}: threads={threads} diverged from the single-threaded golden"
            );
        }
    }
}

/// The observability layer must be invisible in the output: a recorder
/// only *observes* (spans, counters), so a recorder-enabled run must stay
/// byte-identical to the disabled golden for every thread count. What it
/// observes must not depend on the thread count either: the counters and
/// histograms at 2 and 8 threads equal those at 1. The database holds
/// every quickstart graph twice, so fine clustering looks up each
/// isomorphism-class pair more than once and its similarity cache is
/// exercised.
#[test]
fn recorder_enabled_run_is_byte_identical_to_disabled() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = quickstart_db();
    db.graphs.extend(db.graphs.clone());
    let golden = with_threads(1, || {
        serialize(&db, &run_catapult(&db.graphs, &quickstart_cfg()))
    });

    let mut metrics_at_one = None;
    for threads in [1usize, 2, 8] {
        let recorder = catapult_obs::Recorder::enabled();
        let cfg = CatapultConfig {
            recorder: recorder.clone(),
            ..quickstart_cfg()
        };
        let got = with_threads(threads, || serialize(&db, &run_catapult(&db.graphs, &cfg)));
        assert_eq!(
            got, golden,
            "threads={threads}: enabling the recorder changed pipeline output"
        );
        // And the recorder must actually have observed the run.
        let snap = recorder.snapshot().unwrap();
        assert!(
            snap.spans.iter().any(|sp| sp.name == "pipeline"),
            "threads={threads}: missing pipeline span"
        );
        assert!(
            snap.stage_metric_total("mining", "calls") > 0,
            "threads={threads}: mining ran but recorded no kernel calls"
        );
        let metrics = (snap.counters, snap.histograms);
        match &metrics_at_one {
            None => metrics_at_one = Some(metrics),
            Some(one) => assert_eq!(
                &metrics, one,
                "threads={threads}: counters or histograms differ from threads=1"
            ),
        }
    }
}

/// The *full* telemetry stack — a `--progress` heartbeat ticking on its
/// own thread into the run's recorder, spans, counters and events — must
/// also be invisible in the output, for both a sequential and a
/// saturated pool. This is the CLI's `--progress`/`--metrics-out`
/// neutrality contract.
#[test]
fn flight_recorder_and_progress_meter_are_output_neutral() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = quickstart_db();
    let golden = with_threads(1, || {
        serialize(&db, &run_catapult(&db.graphs, &quickstart_cfg()))
    });

    for threads in [1usize, 8] {
        let recorder = catapult_obs::Recorder::enabled();
        let meter = catapult_obs::progress::ProgressMeter::start(
            &recorder,
            std::time::Duration::from_millis(1),
        );
        let cfg = CatapultConfig {
            recorder: recorder.clone(),
            ..quickstart_cfg()
        };
        let got = with_threads(threads, || serialize(&db, &run_catapult(&db.graphs, &cfg)));
        // Give the heartbeat (25ms poll) time for at least one tick
        // before stopping it.
        std::thread::sleep(std::time::Duration::from_millis(80));
        drop(meter);
        assert_eq!(
            got, golden,
            "threads={threads}: telemetry stack changed pipeline output"
        );
        let snap = recorder.snapshot().unwrap();
        assert!(
            snap.spans.iter().any(|sp| sp.name == "pipeline"),
            "threads={threads}: recorder holds no pipeline span"
        );
        assert!(
            snap.events.iter().any(|e| e.name == "flight.progress.tick"),
            "threads={threads}: progress meter never ticked"
        );
    }
}

#[test]
fn auto_sizing_also_matches_the_golden() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = quickstart_db();
    let cfg = quickstart_cfg();
    let golden = with_threads(1, || serialize(&db, &run_catapult(&db.graphs, &cfg)));
    // threads=0: whatever `available_parallelism()` resolves to on this
    // host — the output contract is the same.
    let auto = with_threads(0, || serialize(&db, &run_catapult(&db.graphs, &cfg)));
    assert_eq!(auto, golden, "auto-sized pool diverged from golden");
}

/// Fault-injected degradation under a parallel executor.
///
/// The global fault counter makes the *probe* hit by `at: k`
/// interleaving-dependent once workers race, but the pipeline's stages
/// run sequentially, so which *stage* contains invocation K — and every
/// stage-level assertion of the robustness contract — stays deterministic.
#[cfg(feature = "fault-injection")]
mod fault_sweep_under_threads {
    use super::*;
    use catapult::graph::budget::fault::{self, FaultPlan};
    use catapult::graph::components::is_connected;
    use catapult::graph::{Completeness, Graph};

    const GAMMA: usize = 4;
    const ETA_MIN: usize = 3;
    const ETA_MAX: usize = 5;

    fn ring(n: u32, label: u32) -> Graph {
        use catapult::graph::{Label, VertexId};
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
        use catapult::graph::{Label, VertexId};
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

    fn config() -> CatapultConfig {
        CatapultConfig {
            budget: PatternBudget::new(ETA_MIN, ETA_MAX, GAMMA).unwrap(),
            walks: 10,
            seed: 11,
            ..Default::default()
        }
    }

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

    #[test]
    fn fault_plans_still_degrade_loudly_with_eight_workers() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        with_threads(8, || {
            let db = small_db();
            // Clean-run invocation total. Probe *ordering* within a stage
            // is racy under 8 workers but the total is not: every probe
            // runs exactly once.
            fault::install(FaultPlan {
                at: u64::MAX,
                sticky: false,
            });
            let clean = run_catapult(&db, &config());
            let total = fault::invocations();
            fault::clear();
            assert!(clean.report().all_exact(), "baseline must be exact");
            assert!(total > 0, "pipeline must exercise budgeted kernels");
            assert_valid_pattern_set(&clean, "baseline-8t");

            // Strided sample of injection points (ends included).
            let mut ks: Vec<u64> = (1..=total)
                .step_by(((total / 12).max(1)) as usize)
                .collect();
            if ks.last() != Some(&total) {
                ks.push(total);
            }
            for k in ks {
                fault::install(FaultPlan {
                    at: k,
                    sticky: false,
                });
                let r = run_catapult(&db, &config());
                let fired = fault::invocations() >= k;
                fault::clear();
                let ctx = format!("8t K={k}");
                assert_valid_pattern_set(&r, &ctx);
                if fired {
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
        });
    }

    /// Tracing must not perturb fault-injected degradation either: for a
    /// fixed plan (sequential pool, so the K-th probe is deterministic)
    /// the recorder-on run must produce the same patterns and the same
    /// degradation verdict as the recorder-off run.
    #[test]
    fn fault_sweep_with_recorder_matches_disabled() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        with_threads(1, || {
            let db = small_db();
            fault::install(FaultPlan {
                at: u64::MAX,
                sticky: false,
            });
            run_catapult(&db, &config());
            let total = fault::invocations();
            fault::clear();
            assert!(total > 0);

            for k in [1, total / 2 + 1, total] {
                let run_with = |recorder: catapult_obs::Recorder| {
                    fault::install(FaultPlan {
                        at: k,
                        sticky: false,
                    });
                    let r = run_catapult(
                        &db,
                        &CatapultConfig {
                            recorder,
                            ..config()
                        },
                    );
                    fault::clear();
                    (
                        format!("{:?}", r.patterns()),
                        r.report().degraded_stages(),
                        r.report().worst(),
                    )
                };
                let off = run_with(catapult_obs::Recorder::disabled());
                // The "on" side runs the full telemetry stack:
                // recorder (spans, counters, events) + progress
                // heartbeat ticking into it.
                let on = {
                    let rec = catapult_obs::Recorder::enabled();
                    let meter = catapult_obs::progress::ProgressMeter::start(
                        &rec,
                        std::time::Duration::from_millis(1),
                    );
                    let out = run_with(rec);
                    drop(meter);
                    out
                };
                assert_eq!(on, off, "K={k}: telemetry changed the degraded outcome");
            }
        });
    }

    #[test]
    fn same_plan_hits_the_same_stage_for_every_thread_count() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let db = small_db();
        let run = |k: u64| {
            fault::install(FaultPlan {
                at: k,
                sticky: false,
            });
            let r = run_catapult(&db, &config());
            fault::clear();
            r.report().degraded_stages()
        };
        // K=1 is the first probe of the run regardless of interleaving:
        // the stage it lands in must match across thread counts.
        let seq = with_threads(1, || run(1));
        for threads in [2usize, 8] {
            let par = with_threads(threads, || run(1));
            assert_eq!(
                par, seq,
                "threads={threads}: first-probe fault moved stages"
            );
        }
    }
}
