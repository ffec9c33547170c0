// Lint policy: see [workspace.lints] in the root Cargo.toml.
// (This crate carries a local copy with `unsafe_code = "deny"`; the
// rationale lives next to the `[lints]` table in crates/obs/Cargo.toml.)
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
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
//! * [`RunManifest`] — a schema-versioned, machine-readable JSON record
//!   of a run (spans tree, counters, environment), written by the CLI's
//!   `--metrics-out` and by the bench drivers.
//!
//! Counter names follow the `stage.kernel.metric` convention enforced by
//! `cargo xtask lint` (rule 7); the same rule forbids raw
//! `Instant::now()` timing outside this crate, so [`now`] and
//! [`Stopwatch`] are the blessed clock accessors.

pub mod chrome;
pub mod flight;
pub mod json;
pub mod manifest;
pub mod progress;
pub mod recorder;
pub mod trace;
pub mod worker;

pub use manifest::{schema_version_of, ManifestError, RunManifest, SCHEMA_VERSION};
pub use recorder::{
    Counter, Histogram, HistogramHandle, HistogramSummary, Kernel, KernelMeasurement, Recorder,
    Snapshot, SpanGuard, SpanRecord, StageProbe,
};
pub use trace::summary_table;

/// Print a one-shot warning to stderr and log it to the flight
/// recorder.
///
/// The blessed replacement for raw `eprintln!` warnings in pipeline
/// crates (xtask lint rule 7 forbids those outside this crate): routing
/// warnings through here keeps them on stderr — never perturbing stdout
/// determinism — and preserves them in crash dumps.
pub fn warn(msg: impl std::fmt::Display) {
    flight::event("flight.log.warning", "", 0);
    eprintln!("warning: {msg}");
}

use std::time::{Duration, Instant};

/// Read the monotonic clock.
///
/// The only sanctioned `Instant::now()` call site in the workspace
/// (xtask lint rule 7): routing every clock read through here keeps
/// wall-time observability auditable and lets the budget layer
/// ([`Deadline`]) share the recorder's clock.
///
/// [`Deadline`]: https://docs.rs/catapult-graph
#[inline]
#[must_use]
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
