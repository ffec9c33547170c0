//! Human-readable rendering of a [`Snapshot`] — the `--trace` table.
//!
//! Two sections: the span tree (per-stage wall time and share of the
//! run), and a kernel-effort table (per stage: calls, probes, probes/sec,
//! degraded calls and the probes those degraded calls spent) derived from the `stage.kernel.metric` counters.

use crate::recorder::Snapshot;

/// Span names that carry a stage's kernel counters under a different
/// stage prefix (the selection loop flushes into `scoring.*`).
const STAGE_SPAN_ALIASES: &[(&str, &str)] = &[("scoring", "selection")];

/// Render the `--trace` summary table for a finished run.
///
/// Durations come from the recorded spans; rates divide each stage's
/// `probes` total by the wall time of the span carrying that stage's
/// kernels (falling back to the whole run when no such span exists).
#[must_use]
pub fn summary_table(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&span_section(snapshot));
    let kernels = kernel_section(snapshot);
    if !kernels.is_empty() {
        out.push('\n');
        out.push_str(&kernels);
    }
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

fn span_section(snapshot: &Snapshot) -> String {
    let spans = &snapshot.spans;
    let total_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    let total_ns = total_ns.max(1);

    // Depth-first walk over the parent-pointer forest, creation order.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p as usize].push(i),
            None => roots.push(i),
        }
    }
    let mut rows: Vec<(String, u64)> = Vec::new();
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        let s = &spans[i];
        rows.push((format!("{}{}", "  ".repeat(depth), s.name), s.duration_ns()));
        for &c in children[i].iter().rev() {
            stack.push((c, depth + 1));
        }
    }

    let name_w = rows
        .iter()
        .map(|(n, _)| n.len())
        .chain(std::iter::once("span".len()))
        .max()
        .unwrap_or(4);
    let mut out = format!("{:<name_w$}  {:>10}  {:>6}\n", "span", "wall", "%");
    for (name, ns) in rows {
        out.push_str(&format!(
            "{:<name_w$}  {:>8.2}ms  {:>5.1}%\n",
            name,
            ms(ns),
            ns as f64 / total_ns as f64 * 100.0,
        ));
    }
    out
}

/// Wall time backing a stage's kernel counters: the span named after the
/// stage (or its alias), else the whole run.
fn stage_wall_ns(snapshot: &Snapshot, stage: &str) -> u64 {
    let alias = STAGE_SPAN_ALIASES
        .iter()
        .find(|(s, _)| *s == stage)
        .map(|(_, span)| *span)
        .unwrap_or(stage);
    let named: u64 = snapshot
        .spans
        .iter()
        .filter(|s| s.name == alias)
        .map(|s| s.duration_ns())
        .sum();
    if named > 0 {
        return named;
    }
    snapshot
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum()
}

fn kernel_section(snapshot: &Snapshot) -> String {
    // Stages, in first-appearance order, that recorded kernel calls.
    let mut stages: Vec<&str> = Vec::new();
    for (name, _) in &snapshot.counters {
        let parts: Vec<&str> = name.split('.').collect();
        if parts.len() == 3
            && matches!(parts[1], "iso" | "mcs" | "ged")
            && !stages.contains(&parts[0])
        {
            stages.push(parts[0]);
        }
    }
    if stages.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "{:<12}  {:>8}  {:>10}  {:>12}  {:>8}  {:>15}\n",
        "stage", "calls", "probes", "probes/sec", "degraded", "probes_degraded"
    );
    for stage in stages {
        let calls = snapshot.stage_metric_total(stage, "calls");
        let probes = snapshot.stage_metric_total(stage, "probes");
        let degraded = snapshot.stage_metric_total(stage, "degraded");
        let wasted = snapshot.stage_metric_total(stage, "probes_degraded");
        let wall_ns = stage_wall_ns(snapshot, stage).max(1);
        let rate = probes as f64 / (wall_ns as f64 / 1e9);
        out.push_str(&format!(
            "{:<12}  {:>8}  {:>10}  {:>12.0}  {:>8}  {:>15}\n",
            stage, calls, probes, rate, degraded, wasted,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Kernel, KernelMeasurement, Recorder};

    #[test]
    fn table_lists_spans_and_kernel_stages() {
        let rec = Recorder::enabled();
        {
            let _run = rec.span("pipeline");
            let _stage = rec.span("mining");
            rec.stage_probe("mining").flush(
                Kernel::Iso,
                KernelMeasurement {
                    probes: 40,
                    improved: 1,
                    exact: true,
                },
            );
            rec.stage_probe("mining").flush(
                Kernel::Iso,
                KernelMeasurement {
                    probes: 7,
                    improved: 0,
                    exact: false,
                },
            );
        }
        let snap = rec.snapshot().unwrap();
        let table = summary_table(&snap);
        assert!(table.contains("pipeline"), "{table}");
        assert!(
            table.contains("  mining"),
            "missing indented child: {table}"
        );
        assert!(table.contains("probes/sec"), "{table}");
        assert!(table.contains("probes_degraded"), "{table}");
        // 47 probes in all, 7 of them in the degraded call.
        let row = table.lines().find(|l| l.starts_with("mining ")).unwrap();
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[2], "47", "{table}");
        assert_eq!(cells.last(), Some(&"7"), "{table}");
    }

    #[test]
    fn empty_snapshot_renders_header_only() {
        let rec = Recorder::enabled();
        let snap = rec.snapshot().unwrap();
        let table = summary_table(&snap);
        assert!(table.starts_with("span"));
        assert!(!table.contains("probes/sec"));
    }
}
