//! Golden-file pin of the RunManifest JSON schema.
//!
//! The manifest is the machine-readable contract between a `catapult`
//! run and downstream tooling: field *order* and field *names* are part
//! of the schema, versioned by `schema_version`. This test renders a
//! manifest from a fully synthetic snapshot (no clocks, no host info) and
//! compares it byte-for-byte against `tests/golden/manifest_v2.json`.
//!
//! If this test fails because the layout intentionally changed, bump
//! [`catapult_obs::SCHEMA_VERSION`] and regenerate the golden file (the
//! failure message prints the new rendering).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catapult_obs::json::Value;
use catapult_obs::recorder::Snapshot;
use catapult_obs::{Event, HistogramSummary, RunManifest, SpanRecord, SCHEMA_VERSION};

/// A snapshot with every value pinned: two nested spans plus one root
/// sibling, kernel counters for one stage, one histogram, two events.
fn synthetic_snapshot() -> Snapshot {
    Snapshot {
        spans: vec![
            SpanRecord {
                name: "pipeline",
                id: 0,
                parent: None,
                start_ns: 0,
                end_ns: Some(1_000_000),
                worker: 0,
            },
            SpanRecord {
                name: "mining",
                id: 1,
                parent: Some(0),
                start_ns: 10_000,
                end_ns: Some(600_000),
                worker: 0,
            },
            SpanRecord {
                name: "evaluate",
                id: 2,
                parent: None,
                start_ns: 1_100_000,
                end_ns: Some(1_200_000),
                worker: 3,
            },
        ],
        counters: vec![
            ("mining.iso.calls".to_string(), 12),
            ("mining.iso.probes".to_string(), 345),
            ("scoring.greedy.iterations".to_string(), 4),
        ],
        histograms: vec![(
            "mining.iso.probes_per_call".to_string(),
            HistogramSummary {
                count: 12,
                sum: 345,
                p50: 16,
                p90: 64,
                p99: 64,
            },
        )],
        events: vec![
            Event {
                seq: 4,
                t_ns: 20_000,
                worker: 0,
                name: "flight.ckpt.write",
                detail: "mining",
                arg: 0,
            },
            Event {
                seq: 5,
                t_ns: 700_000,
                worker: 1,
                name: "flight.progress.tick",
                detail: "",
                arg: 345,
            },
        ],
        dropped_events: 4,
    }
}

fn synthetic_manifest() -> String {
    let mut m = RunManifest::new("golden");
    let mut argv = Value::array();
    argv.push("--db");
    argv.push("db.txt");
    m.set("argv", argv);
    let mut env = Value::object();
    env.set("threads", 2u64);
    env.set("os", "linux");
    m.set("environment", env);
    m.attach_snapshot(&synthetic_snapshot());
    m.render()
}

#[test]
fn manifest_layout_matches_the_golden_file() {
    let got = synthetic_manifest();
    let golden = include_str!("golden/manifest_v2.json");
    assert_eq!(
        got, golden,
        "RunManifest layout drifted from the v{SCHEMA_VERSION} golden; if \
         intentional, bump SCHEMA_VERSION and refresh \
         crates/obs/tests/golden/manifest_v2.json with the rendering above"
    );
}

#[test]
fn golden_file_is_self_describing() {
    let golden = include_str!("golden/manifest_v2.json");
    assert_eq!(
        catapult_obs::schema_version_of(golden),
        Some(SCHEMA_VERSION),
        "golden must carry the current schema_version"
    );
    // schema_version must be the *first* field so partial/streamed reads
    // can dispatch on it.
    assert!(golden.starts_with("{\n  \"schema_version\":"));
}

#[test]
fn rendering_is_deterministic() {
    assert_eq!(synthetic_manifest(), synthetic_manifest());
}

#[test]
#[ignore]
fn regen_golden() {
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/manifest_v2.json"),
        synthetic_manifest(),
    )
    .unwrap();
}
