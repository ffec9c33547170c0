//! Per-layer metrics read from a traced operation's recorder.
//!
//! Times come from span durations: the benchmark's own `bench.*` spans
//! around each public layer call, and the library's stage spans
//! (`mining` / `coarse` / `fine`, `walks` / `dedup` / `score`) inside
//! them. Counts come from the library's `{stage}.{kernel}.{metric}`
//! counters. A metric whose layer the workload never runs reads 0.

use crate::workload::OpOutcome;
use catapult_obs::Snapshot;

/// Every per-layer metric, with its unit, in reporting order. Keep in
/// step with `per_layer` in BENCHMARK.json.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cluster.s", "s"),
    ("cluster.mining.s", "s"),
    ("cluster.coarse.s", "s"),
    ("cluster.fine.s", "s"),
    ("mining.iso.calls", "count"),
    ("mining.iso.probes", "count"),
    ("clustering.mcs.calls", "count"),
    ("clustering.mcs.probes", "count"),
    ("clustering.mcs.degraded", "count"),
    ("clustering.mcs.cache_hit_pct", "%"),
    ("csg.s", "s"),
    ("csg.build.edges", "count"),
    ("select.s", "s"),
    ("select.walks.s", "s"),
    ("select.dedup.s", "s"),
    ("select.score.s", "s"),
    ("scoring.greedy.iterations", "count"),
    ("scoring.greedy.candidates", "count"),
    ("scoring.iso.calls", "count"),
    ("scoring.iso.probes", "count"),
    ("scoring.iso.degraded", "count"),
    ("scoring.ged.calls", "count"),
    ("scoring.ged.probes", "count"),
    ("scoring.ged.degraded", "count"),
    ("grow.insert.s", "s"),
    ("grow.refresh.s", "s"),
    ("grow.mcs.calls", "count"),
    ("grow.assign.degraded", "count"),
    ("grow.mcs.probes", "count"),
    ("grow.rebuilt_csgs", "count"),
    ("grow.new_clusters", "count"),
    ("eval.s", "s"),
    ("eval.workload.steps", "count"),
    ("trace_overhead_pct", "%"),
];

/// Summed duration, in seconds, of every span called `name`.
pub fn span_s(snap: &Snapshot, name: &str) -> f64 {
    let ns: u64 = snap
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns())
        .sum();
    ns as f64 / 1e9
}

/// A counter's value (0 when never registered).
pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// The layer metrics of one traced pipeline or `grow` operation (all of
/// [`PER_LAYER`] except the evaluation and overhead rows, which the
/// caller measures separately).
pub fn op_metrics(op: &OpOutcome) -> Vec<(&'static str, f64)> {
    let Some(snap) = &op.snapshot else {
        return Vec::new();
    };
    let hits = counter(snap, "clustering.mcs.cache_hits");
    let misses = counter(snap, "clustering.mcs.cache_misses");
    let hit_pct = if hits + misses > 0.0 {
        100.0 * hits / (hits + misses)
    } else {
        0.0
    };
    let stats = &op.grow;
    let mut out = vec![
        ("cluster.s", span_s(snap, "bench.cluster_graphs")),
        ("cluster.mining.s", span_s(snap, "mining")),
        ("cluster.coarse.s", span_s(snap, "coarse")),
        ("cluster.fine.s", span_s(snap, "fine")),
        ("clustering.mcs.cache_hit_pct", hit_pct),
        ("csg.s", span_s(snap, "bench.build_csgs")),
        ("select.s", span_s(snap, "bench.find_canned_patterns")),
        ("select.walks.s", span_s(snap, "walks")),
        ("select.dedup.s", span_s(snap, "dedup")),
        ("select.score.s", span_s(snap, "score")),
        ("grow.insert.s", span_s(snap, "bench.insert_batch")),
        ("grow.refresh.s", span_s(snap, "bench.refresh_patterns")),
        ("grow.assign.degraded", stats.degraded_probes as f64),
        ("grow.rebuilt_csgs", stats.rebuilt_csgs as f64),
        ("grow.new_clusters", stats.new_clusters as f64),
    ];
    for name in [
        "mining.iso.calls",
        "mining.iso.probes",
        "clustering.mcs.calls",
        "clustering.mcs.probes",
        "clustering.mcs.degraded",
        "csg.build.edges",
        "scoring.greedy.iterations",
        "scoring.greedy.candidates",
        "scoring.iso.calls",
        "scoring.iso.probes",
        "scoring.iso.degraded",
        "scoring.ged.calls",
        "scoring.ged.probes",
        "scoring.ged.degraded",
        "grow.mcs.calls",
        "grow.mcs.probes",
    ] {
        out.push((name, counter(snap, name)));
    }
    out
}
