//! The crash-safety keystone: an interrupted-then-resumed pipeline run
//! is byte-identical to an uninterrupted one.
//!
//! With the `fault-injection` feature, [`catapult::ckpt::fault`]
//! deterministically breaks the K-th checkpoint write — a synthetic I/O
//! error (transient or persistent), a torn write, a truncated file, a
//! checksum-breaking bit flip, or a hard crash after corrupting the
//! file. These tests sweep every fault kind across every write index,
//! at 1 and 8 worker threads, and prove the resume contract:
//!
//! * a crashed run leaves a directory the loader either trusts
//!   (verified checkpoints) or discards loudly — never silently
//!   corrupted state;
//! * resuming from that directory reproduces the uninterrupted run's
//!   [`result_digest`] exactly (wall-clock durations excepted);
//! * the digest is also identical across thread counts.
//!
//! Run with: `cargo test --features fault-injection --test resume_equivalence`
#![cfg(feature = "fault-injection")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// The injected crashes unwind into these tests, which catch them.
#![allow(clippy::disallowed_methods)]

use catapult::ckpt::fault::{self as pfault, PersistFaultKind, PersistFaultPlan, CRASH_PAYLOAD};
use catapult::ckpt::CheckpointConfig;
use catapult::core::ckpt_io::result_digest;
use catapult::core::{run_catapult, run_catapult_resumable, CatapultConfig, PatternBudget};
use catapult::graph::{Graph, Label, VertexId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

/// The persistence fault plan, the write counter, and the rayon thread
/// override are process-global; every test holds this lock.
static SERIAL: Mutex<()> = Mutex::new(());

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

fn config() -> CatapultConfig {
    CatapultConfig {
        budget: PatternBudget::new(3, 5, 4).unwrap(),
        walks: 10,
        seed: 23,
        clustering: catapult::cluster::ClusteringConfig {
            max_cluster_size: 6,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn ckpt_cfg(dir: &PathBuf, resume: bool) -> CheckpointConfig {
    let mut c = CheckpointConfig::new(dir);
    c.resume = resume;
    // Tiny chunks: many mid-fine-clustering flushes, so the write-index
    // sweep lands faults inside a stage, not just between stages.
    c.chunk_pairs = 4;
    c
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("catapult-resume-eq-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// How many checkpoint writes one uninterrupted run performs (the sweep
/// range), measured by running with no fault installed.
fn count_writes(db: &[Graph], cfg: &CatapultConfig, threads: usize) -> u64 {
    rayon::set_threads(threads);
    pfault::clear();
    pfault::install(PersistFaultPlan {
        // `at: u64::MAX` never fires; the counter still counts.
        kind: PersistFaultKind::Crash,
        at: u64::MAX,
    });
    let dir = fresh_dir("count");
    run_catapult_resumable(db, cfg, &ckpt_cfg(&dir, false)).unwrap();
    let writes = pfault::writes();
    pfault::clear();
    std::fs::remove_dir_all(&dir).ok();
    writes
}

/// The keystone sweep: threads × fault kind × write index.
#[test]
fn interrupted_then_resumed_equals_uninterrupted() {
    let _guard = SERIAL.lock().unwrap();
    let db = small_db();
    let cfg = config();
    let mut cross_thread_digest: Option<Vec<u8>> = None;
    for threads in [1usize, 8] {
        rayon::set_threads(threads);
        let baseline = result_digest(&run_catapult(&db, &cfg));
        if let Some(prev) = &cross_thread_digest {
            assert_eq!(prev, &baseline, "digest must not depend on threads");
        }
        cross_thread_digest = Some(baseline.clone());

        let writes = count_writes(&db, &cfg, threads);
        assert!(writes >= 6, "expected a multi-write run, got {writes}");
        for kind in [
            PersistFaultKind::IoError { times: 1 },
            PersistFaultKind::IoError { times: u32::MAX },
            PersistFaultKind::TornWrite,
            PersistFaultKind::Truncate,
            PersistFaultKind::BitFlip,
            PersistFaultKind::Crash,
        ] {
            for at in 1..=writes {
                let ctx = format!("threads={threads} kind={kind:?} at={at}");
                let dir = fresh_dir(&format!("{threads}"));
                pfault::clear();
                pfault::install(PersistFaultPlan { kind, at });
                let first = catch_unwind(AssertUnwindSafe(|| {
                    run_catapult_resumable(&db, &cfg, &ckpt_cfg(&dir, false))
                }));
                pfault::clear();
                match (kind, first) {
                    // A transient I/O error is absorbed by the retry
                    // loop: the run completes as if nothing happened.
                    (PersistFaultKind::IoError { times: 1 }, run) => {
                        let r = run.unwrap_or_else(|_| panic!("{ctx}: must not panic"));
                        assert_eq!(
                            result_digest(&r.unwrap()),
                            baseline,
                            "{ctx}: retried run must match"
                        );
                        continue;
                    }
                    // A persistent I/O error exhausts the retries and
                    // surfaces as an error — a graceful stop, not a panic.
                    (PersistFaultKind::IoError { .. }, run) => {
                        let r = run.unwrap_or_else(|_| panic!("{ctx}: must not panic"));
                        r.unwrap_err();
                    }
                    // Every corrupting kind crashes the process at the
                    // faulted write (panic stands in for the kill).
                    (_, Ok(r)) => panic!("{ctx}: expected a crash, got {:?}", r.is_ok()),
                    (_, Err(payload)) => {
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .unwrap_or_default();
                        assert_eq!(msg, CRASH_PAYLOAD, "{ctx}: foreign panic");
                    }
                }
                // Resume from whatever the crash left behind.
                let resumed = run_catapult_resumable(&db, &cfg, &ckpt_cfg(&dir, true))
                    .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
                assert_eq!(result_digest(&resumed), baseline, "{ctx}: resume diverged");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
    rayon::set_threads(0);
}

/// The fine-stage similarity cache is part of the checkpoint (schema v2):
/// a run crashed mid-fine-clustering resumes with the memoized class-pair
/// entries it already computed. Cold, crashed and resumed runs must agree
/// on clusters and the kernel tally exactly, and the cache-miss counters
/// must prove the resumed run *reused* persisted entries instead of
/// recomputing the whole matrix.
#[test]
fn fine_cache_resumed_mid_split_matches_cold_recompute() {
    use catapult::cluster::fine::{fine_cluster, fine_cluster_resumable, FineConfig};
    use catapult::graph::SearchBudget;
    use catapult_ckpt::{Fingerprint, StageStore};
    use catapult_obs::Recorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let _guard = SERIAL.lock().unwrap();
    pfault::clear();
    rayon::set_threads(1);

    // Duplicated isomorphism classes (3 ring shapes × 4 copies, 3 chain
    // label patterns × 4 copies) make the memoization non-trivial: far
    // fewer class pairs than member pairs.
    let mut db = Vec::new();
    for i in 0..12u32 {
        db.push(ring(5 + i % 3, 0));
        db.push(chain(6, &[0, i % 3]));
    }
    let all: Vec<u32> = (0..u32::try_from(db.len()).unwrap()).collect();
    let fp = Fingerprint {
        dataset_hash: 77,
        config_hash: 78,
        eta_min: 1,
        eta_max: 9,
        gamma: 9,
    };
    let fine_with_probe = |rec: &Recorder| FineConfig {
        max_cluster_size: 4,
        budget: SearchBudget::unbounded().with_probe(rec.stage_probe("fine")),
        ..Default::default()
    };
    let misses = |rec: &Recorder| {
        rec.snapshot()
            .map_or(0, |s| s.stage_metric_total("fine", "cache_misses"))
    };

    // Cold baseline: every class pair computed exactly once.
    let cold_rec = Recorder::enabled();
    let cold = fine_cluster(
        &db,
        vec![all.clone()],
        &fine_with_probe(&cold_rec),
        &mut StdRng::seed_from_u64(41),
    );
    let cold_misses = misses(&cold_rec);
    assert!(cold_misses > 0, "workload must exercise the cache");

    // How many checkpoint writes the fine stage performs, so the crash
    // can land late — after most of the cache has been persisted.
    let dir = fresh_dir("fine-cache");
    let count_cfg = {
        let mut c = ckpt_cfg(&dir, false);
        c.chunk_pairs = 4;
        c
    };
    pfault::install(PersistFaultPlan {
        kind: PersistFaultKind::Crash,
        at: u64::MAX,
    });
    let store = StageStore::open(&count_cfg, fp, Recorder::disabled()).unwrap();
    fine_cluster_resumable(
        &db,
        vec![all.clone()],
        &fine_with_probe(&Recorder::disabled()),
        &mut StdRng::seed_from_u64(41),
        &store,
    )
    .unwrap();
    let writes = pfault::writes();
    assert!(
        writes >= 4,
        "expected a multi-write fine stage, got {writes}"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Crash at the second-to-last write, then resume.
    pfault::clear();
    pfault::install(PersistFaultPlan {
        kind: PersistFaultKind::Crash,
        at: writes - 1,
    });
    let crash_rec = Recorder::enabled();
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let store = StageStore::open(&count_cfg, fp, Recorder::disabled()).unwrap();
        fine_cluster_resumable(
            &db,
            vec![all.clone()],
            &fine_with_probe(&crash_rec),
            &mut StdRng::seed_from_u64(41),
            &store,
        )
    }));
    pfault::clear();
    let payload = crashed.expect_err("crash fault must fire mid-fine");
    assert_eq!(
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
        CRASH_PAYLOAD,
        "foreign panic"
    );

    let resume_rec = Recorder::enabled();
    let resumed_store = StageStore::open(&ckpt_cfg(&dir, true), fp, Recorder::disabled()).unwrap();
    let resumed = fine_cluster_resumable(
        &db,
        vec![all],
        &fine_with_probe(&resume_rec),
        &mut StdRng::seed_from_u64(41),
        &resumed_store,
    )
    .unwrap();

    assert_eq!(resumed.clusters, cold.clusters, "resume diverged from cold");
    assert_eq!(resumed.kernel, cold.kernel, "kernel tally diverged");
    // The resumed half recomputed only what the crash lost: strictly
    // fewer misses than a cold run, and the crashed + resumed halves
    // cover at least every class pair the cold run computed.
    let resumed_misses = misses(&resume_rec);
    assert!(
        resumed_misses < cold_misses,
        "resume must reuse persisted cache entries ({resumed_misses} vs cold {cold_misses})"
    );
    assert!(
        misses(&crash_rec) + resumed_misses >= cold_misses,
        "both halves together must cover the full matrix"
    );
    std::fs::remove_dir_all(&dir).ok();
    rayon::set_threads(0);
}

/// Killing the process *between* stages (simulated by deleting the
/// later stage files a finished run wrote) resumes from the surviving
/// prefix and still reproduces the uninterrupted digest.
#[test]
fn kill_between_stages_resumes_from_prefix() {
    let _guard = SERIAL.lock().unwrap();
    pfault::clear();
    rayon::set_threads(1);
    let db = small_db();
    let cfg = config();
    let baseline = result_digest(&run_catapult(&db, &cfg));
    // Progressively longer suffix deletions: resume lands one stage
    // earlier each time.
    for doomed in [
        &["selection"][..],
        &["selection", "csg"][..],
        &["selection", "csg", "clustering"][..],
        &["selection", "csg", "clustering", "fine"][..],
        &["selection", "csg", "clustering", "fine", "coarse"][..],
    ] {
        let dir = fresh_dir("between");
        run_catapult_resumable(&db, &cfg, &ckpt_cfg(&dir, false)).unwrap();
        for stage in doomed {
            std::fs::remove_file(dir.join(format!("{stage}.ckpt"))).unwrap();
        }
        let resumed = run_catapult_resumable(&db, &cfg, &ckpt_cfg(&dir, true)).unwrap();
        assert_eq!(
            result_digest(&resumed),
            baseline,
            "resume after deleting {doomed:?} diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    rayon::set_threads(0);
}

/// The run manifest is the CLI's crash dump: a `select` run that dies at
/// its second checkpoint write leaves `--metrics-out` behind at the
/// current schema, with the stage chain still open and the events that
/// led up to the crash.
#[test]
fn cli_crash_leaves_the_run_manifest_as_its_dump() {
    use catapult_obs::json::{self, Value};
    let _guard = SERIAL.lock().unwrap();
    pfault::clear();
    let dir = fresh_dir("cli-crash");
    let db_path = std::env::temp_dir().join("catapult-resume-eq-cli-db.txt");
    let m_path = std::env::temp_dir().join("catapult-resume-eq-cli-metrics.json");
    let _ = std::fs::remove_file(&m_path);
    let arg = |p: &PathBuf| p.to_string_lossy().into_owned();
    let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    catapult::cli::run(&args(&[
        "generate",
        "--profile",
        "emol",
        "--count",
        "12",
        "--seed",
        "4",
        "--out",
        &arg(&db_path),
    ]))
    .unwrap();
    pfault::install(PersistFaultPlan {
        kind: PersistFaultKind::Crash,
        at: 2,
    });
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        catapult::cli::run(&args(&[
            "select",
            "--db",
            &arg(&db_path),
            "--gamma",
            "3",
            "--min-size",
            "3",
            "--max-size",
            "5",
            "--walks",
            "10",
            "--checkpoint-dir",
            &arg(&dir),
            "--metrics-out",
            &arg(&m_path),
        ]))
    }));
    pfault::clear();
    let payload = crashed.expect_err("the second checkpoint write crashes");
    assert_eq!(payload.downcast_ref::<String>().unwrap(), CRASH_PAYLOAD);

    let text = std::fs::read_to_string(&m_path).expect("crash manifest written");
    assert_eq!(
        catapult_obs::schema_version_of(&text),
        Some(catapult_obs::SCHEMA_VERSION)
    );
    assert_eq!(catapult_obs::SCHEMA_VERSION, 2);
    let manifest = json::parse(&text).unwrap();
    assert_eq!(manifest.get("command"), Some(&Value::from("select")));
    let Some(Value::Array(spans)) = manifest.get("spans") else {
        panic!("no spans: {text}");
    };
    let pipeline = spans
        .iter()
        .find(|s| s.get("name") == Some(&Value::from("pipeline")))
        .unwrap_or_else(|| panic!("no pipeline span: {text}"));
    assert_eq!(pipeline.get("duration_ns"), Some(&Value::Null), "{text}");
    let Some(Value::Array(events)) = manifest.get("events") else {
        panic!("no events: {text}");
    };
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e.get("name") {
            Some(Value::Str(n)) => Some(n.as_str()),
            _ => None,
        })
        .collect();
    assert!(names.contains(&"flight.ckpt.write"), "{names:?}");
    assert_eq!(names.last(), Some(&"flight.panic.hook"), "{names:?}");

    // The hook was disarmed as the panic unwound out of `run`: a later
    // panic writes nothing.
    std::fs::remove_file(&m_path).unwrap();
    let later = catch_unwind(|| panic!("unrelated later panic"));
    assert!(later.is_err());
    assert!(!m_path.exists(), "a disarmed hook rewrote the manifest");
    std::fs::remove_dir_all(&dir).ok();
    let _ = std::fs::remove_file(&db_path);
}
