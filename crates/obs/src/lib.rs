#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
// The recorder is the workspace's one shared telemetry sink: its
// counters, locks and per-thread worker ids are the state the root
// clippy.toml keeps out of every other crate.
#![allow(clippy::disallowed_types, clippy::disallowed_macros)]
//! Zero-dependency tracing and metrics for the CATAPULT pipeline.
//!
//! The paper's experiments (§7) report *where* pattern-selection time
//! goes — per-stage latency, kernel search effort, scaling with |D| —
//! and this crate is the measurement substrate that makes those tables
//! reproducible from a single run:
//!
//! * [`Recorder`] — a cloneable, `Send + Sync` handle threaded through
//!   every pipeline stage. A **disabled** recorder (the default) is a
//!   `None` behind the handle: every operation returns immediately
//!   without allocating, locking, or reading the clock
//!   (tests/no_alloc.rs proves the span hot path allocation-free).
//! * [`SpanGuard`] — RAII wall-time spans with parent nesting (a
//!   thread-local stack) and worker-thread attribution (see [`worker`]).
//! * [`Counter`] / [`Histogram`] — lock-free atomic cells. Kernels
//!   accumulate into plain integers and flush **once per kernel call**
//!   ([`StageProbe::flush`]), so per-thread effort aggregates through
//!   commutative `fetch_add`s and totals stay deterministic across
//!   thread counts.
//! * [`Event`] — a bounded ring, inside the recorder, of the rare events
//!   nothing else records (checkpoint I/O, warnings, progress ticks, the
//!   panic hook), appended by [`Recorder::event`] and [`Recorder::warn`].
//! * [`RunManifest`] — a schema-versioned, machine-readable JSON record
//!   of a run (span tree, counters, histograms, events, environment),
//!   written by the CLI's `--metrics-out` and by the experiments driver.
//!   It is also the crash dump: [`manifest::arm_crash_dump`] installs a
//!   panic hook that writes the same document before unwinding, with the
//!   spans still open shown as `duration_ns: null`.
//! * [`chrome`] — the span tree's one export, Chrome trace-event JSON.
//!
//! Counter and event names follow the `stage.kernel.metric` convention
//! enforced by `cargo xtask lint` (rule `metric-name`). The root
//! `clippy.toml` disallows raw `Instant::now()` everywhere but [`now`],
//! so [`now`] and [`Stopwatch`] are the blessed clock accessors.

pub mod chrome;
pub mod json;
pub mod manifest;
pub mod progress;
pub mod recorder;
pub mod trace;
pub mod worker;

pub use manifest::{schema_version_of, ManifestError, RunManifest, SCHEMA_VERSION};
pub use recorder::{
    Counter, Event, Histogram, HistogramHandle, HistogramSummary, Kernel, KernelMeasurement,
    Recorder, Snapshot, SpanGuard, SpanRecord, StageProbe,
};
pub use trace::summary_table;

use std::time::{Duration, Instant};

/// Read the monotonic clock.
///
/// The only sanctioned `Instant::now()` call site in the pipeline (the
/// root `clippy.toml` disallows it elsewhere): routing every clock read
/// through here keeps wall-time observability auditable.
#[inline]
#[must_use]
#[allow(clippy::disallowed_methods)] // the one sanctioned clock read
pub fn now() -> Instant {
    Instant::now()
}

/// A started wall-clock timer; the blessed replacement for ad-hoc
/// `let start = Instant::now(); ... start.elapsed()` pairs.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[inline]
    #[must_use]
    pub fn start() -> Self {
        Stopwatch { started: now() }
    }

    /// Wall time elapsed since [`Stopwatch::start`].
    #[inline]
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
