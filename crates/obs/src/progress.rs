//! Live progress heartbeat for long runs (`--progress`).
//!
//! [`ProgressMeter`] runs a background thread that periodically
//! snapshots a [`Recorder`] and prints a one-line heartbeat to
//! **stderr**: elapsed wall time, the innermost span still open (the
//! current stage), per-stage item counts from the
//! `<stage>.items.done` / `<stage>.items.total` counters pipeline
//! fan-outs maintain, the kernel probe rate since the previous tick,
//! and an ETA extrapolated from the item completion rate. Each tick is
//! also recorded as a `flight.progress.tick` event (arg: total probes)
//! on the recorder it watches, so the run manifest shows the heartbeat.
//!
//! Determinism: the meter only reads the recorder, appends tick events
//! and writes to stderr — stdout and the pipeline's outputs are
//! byte-identical with or without it (tests/parallel_determinism.rs
//! runs the pipeline under a heartbeat to prove it). The ETA/rate arithmetic lives in pure
//! functions ([`eta_secs`], [`rate_per_sec`], [`render_line`]) so the
//! math is unit-testable without threads or clocks.

use crate::recorder::{Recorder, Snapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Completion percentage, clamped to `[0, 100]`; 0 when `total` is 0.
#[must_use]
pub fn percent(done: u64, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let pct = (done as f64 / total as f64) * 100.0;
    pct.clamp(0.0, 100.0)
}

/// Events per second over an interval; 0 for an empty interval.
#[must_use]
pub fn rate_per_sec(delta: u64, dt_secs: f64) -> f64 {
    if dt_secs <= 0.0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let r = delta as f64 / dt_secs;
    r
}

/// Estimated seconds to completion, extrapolating the observed item
/// rate: `elapsed * remaining / done`. `None` when nothing has finished
/// yet (no rate to extrapolate), the total is unknown, or the work is
/// already complete.
#[must_use]
pub fn eta_secs(done: u64, total: u64, elapsed_secs: f64) -> Option<f64> {
    if done == 0 || total == 0 || done >= total || elapsed_secs <= 0.0 {
        return None;
    }
    #[allow(clippy::cast_precision_loss)]
    let eta = elapsed_secs * ((total - done) as f64) / (done as f64);
    Some(eta)
}

/// Render seconds as a compact human duration: `42s`, `3m05s`, `2h07m`.
#[must_use]
pub fn format_secs(secs: f64) -> String {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let s = secs.max(0.0).round() as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    }
}

/// The innermost span still open — the pipeline's current stage.
///
/// "Innermost" = the open span opened last; recorder span ids are
/// creation-ordered, so the highest id wins.
#[must_use]
pub fn current_stage(snapshot: &Snapshot) -> Option<&'static str> {
    snapshot
        .spans
        .iter()
        .filter(|s| s.end_ns.is_none())
        .max_by_key(|s| s.id)
        .map(|s| s.name)
}

/// Item progress in scope: walk the open-span chain from the innermost
/// span outward and return the first stage with a `<stage>.items.total`
/// counter, as `(stage, done, total)`. Fan-outs attach item counters to
/// their *stage* span (`selection`, `mining`, …) while the innermost
/// open span is usually a sub-phase (`walks`, `score`), so the walk is
/// what connects the two.
#[must_use]
pub fn items_in_scope(snapshot: &Snapshot) -> Option<(&'static str, u64, u64)> {
    let mut cur = snapshot
        .spans
        .iter()
        .filter(|s| s.end_ns.is_none())
        .max_by_key(|s| s.id);
    while let Some(span) = cur {
        let total = snapshot.stage_metric_total(span.name, "total");
        if total > 0 {
            let done = snapshot.stage_metric_total(span.name, "done");
            return Some((span.name, done, total));
        }
        cur = span
            .parent
            .and_then(|p| snapshot.spans.iter().find(|s| s.id == p));
    }
    None
}

/// Sum of every `*.probes` counter — total kernel search effort so far.
#[must_use]
pub fn total_probes(snapshot: &Snapshot) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.ends_with(".probes"))
        .map(|(_, v)| v)
        .sum()
}

/// Compose one heartbeat line (without trailing newline) from a
/// snapshot. Pure — the caller supplies elapsed time and the probe rate
/// so tests can pin exact output.
#[must_use]
pub fn render_line(snapshot: &Snapshot, elapsed_secs: f64, probes_per_sec: f64) -> String {
    let mut line = format!("progress: {}", format_secs(elapsed_secs));
    line.push_str(" stage=");
    line.push_str(current_stage(snapshot).unwrap_or("idle"));
    if let Some((_, done, total)) = items_in_scope(snapshot) {
        line.push_str(&format!(
            " items={done}/{total} ({:.1}%)",
            percent(done, total)
        ));
        if let Some(eta) = eta_secs(done, total, elapsed_secs) {
            line.push_str(&format!(" eta={}", format_secs(eta)));
        }
    }
    line.push_str(&format!(" probes/sec={probes_per_sec:.0}"));
    line
}

/// How often the heartbeat thread polls its stop flag between ticks, so
/// dropping the meter never blocks for a full interval.
const STOP_POLL: Duration = Duration::from_millis(25);

/// Background stderr heartbeat; stops and joins on drop.
#[derive(Debug)]
pub struct ProgressMeter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressMeter {
    /// Start a heartbeat over `recorder`, printing every `interval`.
    ///
    /// The recorder handle is cloned (clones share the store), so the
    /// meter sees everything the pipeline records after this call.
    #[must_use]
    pub fn start(recorder: &Recorder, interval: Duration) -> ProgressMeter {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let rec = recorder.clone();
        // A plain thread, not the rayon shim: the heartbeat must tick
        // while the pool's workers are busy inside a parallel region,
        // and it outlives any single scope. Joined on drop.
        #[allow(clippy::disallowed_methods)]
        let handle = std::thread::spawn(move || {
            let started = crate::Stopwatch::start();
            let mut last_tick = started.elapsed();
            let mut last_probes = 0u64;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(STOP_POLL);
                let elapsed = started.elapsed();
                if elapsed.saturating_sub(last_tick) < interval {
                    continue;
                }
                let Some(snap) = rec.snapshot() else {
                    break; // disabled recorder: nothing to report, ever
                };
                let probes = total_probes(&snap);
                let dt = elapsed.saturating_sub(last_tick).as_secs_f64();
                let pps = rate_per_sec(probes.saturating_sub(last_probes), dt);
                rec.event("flight.progress.tick", "", probes);
                eprintln!("{}", render_line(&snap, elapsed.as_secs_f64(), pps));
                last_tick = elapsed;
                last_probes = probes;
            }
        });
        ProgressMeter {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ProgressMeter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            // A panic on the heartbeat thread must not cascade into the
            // pipeline teardown; swallow the join error.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn percent_handles_edges() {
        assert_eq!(percent(0, 0), 0.0);
        assert_eq!(percent(5, 0), 0.0);
        assert_eq!(percent(0, 10), 0.0);
        assert_eq!(percent(5, 10), 50.0);
        assert_eq!(percent(10, 10), 100.0);
        assert_eq!(percent(15, 10), 100.0, "overshoot clamps");
    }

    #[test]
    fn rate_handles_zero_interval() {
        assert_eq!(rate_per_sec(100, 0.0), 0.0);
        assert_eq!(rate_per_sec(100, -1.0), 0.0);
        assert_eq!(rate_per_sec(100, 2.0), 50.0);
    }

    #[test]
    fn eta_extrapolates_item_rate() {
        assert_eq!(eta_secs(0, 10, 5.0), None, "no rate yet");
        assert_eq!(eta_secs(5, 0, 5.0), None, "unknown total");
        assert_eq!(eta_secs(10, 10, 5.0), None, "already done");
        assert_eq!(eta_secs(12, 10, 5.0), None, "overshoot");
        assert_eq!(eta_secs(5, 10, 0.0), None, "no elapsed time");
        assert_eq!(eta_secs(2, 6, 10.0), Some(20.0));
    }

    #[test]
    fn durations_format_compactly() {
        assert_eq!(format_secs(0.4), "0s");
        assert_eq!(format_secs(42.0), "42s");
        assert_eq!(format_secs(185.0), "3m05s");
        assert_eq!(format_secs(7620.0), "2h07m");
        assert_eq!(format_secs(-3.0), "0s", "negative clamps");
    }

    #[test]
    fn heartbeat_line_reports_stage_items_and_eta() {
        let rec = Recorder::enabled();
        let _outer = rec.span("pipeline");
        let _stage = rec.span("mining");
        rec.counter("mining.items.done").add(2);
        rec.counter("mining.items.total").add(6);
        rec.counter("mining.iso.probes").add(500);
        let snap = rec.snapshot().expect("snapshot");
        let line = render_line(&snap, 10.0, 123.4);
        assert_eq!(
            line,
            "progress: 10s stage=mining items=2/6 (33.3%) eta=20s probes/sec=123"
        );
    }

    #[test]
    fn heartbeat_line_without_recorded_work_is_idle() {
        let rec = Recorder::enabled();
        let snap = rec.snapshot().expect("snapshot");
        assert_eq!(
            render_line(&snap, 0.0, 0.0),
            "progress: 0s stage=idle probes/sec=0"
        );
    }

    #[test]
    fn items_found_on_an_ancestor_stage_span() {
        let rec = Recorder::enabled();
        let _stage = rec.span("selection");
        rec.counter("selection.items.done").add(3);
        rec.counter("selection.items.total").add(30);
        let _sub = rec.span("walks"); // innermost, no items of its own
        let snap = rec.snapshot().expect("snapshot");
        assert_eq!(items_in_scope(&snap), Some(("selection", 3, 30)));
        let line = render_line(&snap, 10.0, 0.0);
        assert_eq!(
            line,
            "progress: 10s stage=walks items=3/30 (10.0%) eta=1m30s probes/sec=0"
        );
    }

    #[test]
    fn stage_is_innermost_open_span() {
        let rec = Recorder::enabled();
        let _a = rec.span("pipeline");
        let closed = rec.span("clustering");
        drop(closed);
        let _b = rec.span("selection");
        let snap = rec.snapshot().expect("snapshot");
        assert_eq!(current_stage(&snap), Some("selection"));
    }

    #[test]
    fn total_probes_sums_only_probe_counters() {
        let rec = Recorder::enabled();
        rec.counter("mining.iso.probes").add(3);
        rec.counter("scoring.ged.probes").add(4);
        rec.counter("mining.iso.calls").add(99);
        let snap = rec.snapshot().expect("snapshot");
        assert_eq!(total_probes(&snap), 7);
    }

    #[test]
    fn meter_starts_ticks_and_joins_on_drop() {
        let rec = Recorder::enabled();
        let meter = ProgressMeter::start(&rec, Duration::from_millis(1));
        let _span = rec.span("pipeline");
        std::thread::sleep(Duration::from_millis(120));
        drop(meter); // must stop promptly and join without panicking
        let snap = rec.snapshot().expect("snapshot");
        assert!(
            snap.events.iter().any(|e| e.name == "flight.progress.tick"),
            "ticks reach the watched recorder"
        );
    }

    #[test]
    fn meter_on_disabled_recorder_exits_quietly() {
        let rec = Recorder::disabled();
        let meter = ProgressMeter::start(&rec, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(60));
        drop(meter);
    }
}
