//! [`Recorder`]: spans, counters, histograms, kernel probes, and events.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled ≈ free.** The default recorder is `Recorder(None)`.
//!    Every entry point checks that `Option` first and returns a no-op
//!    handle without reading the clock, locking, or allocating —
//!    tests/no_alloc.rs (workspace root) proves the span/counter/probe
//!    hot path performs zero heap allocations when disabled.
//! 2. **Deterministic aggregation.** Counters are updated only with
//!    commutative `fetch_add`s and snapshotted in `BTreeMap` (name)
//!    order, so enabling the recorder cannot perturb pipeline output and
//!    counter totals are identical for every thread count
//!    (tests/parallel_determinism.rs runs with the recorder on).
//! 3. **Cheap when enabled.** Kernel instrumentation accumulates into
//!    plain `u64`s inside the search loop ([`BudgetMeter`] in
//!    `catapult-graph`) and flushes through [`StageProbe::flush`] once
//!    per kernel invocation — the per-probe cost is one integer add, not
//!    an atomic RMW.
//! 4. **The one log.** Spans, counters and the rare events nothing else
//!    records (checkpoint I/O, warnings, progress ticks, the panic hook:
//!    [`Recorder::event`]) live in one store, and the run manifest is
//!    its one rendering — also at crash time
//!    ([`crate::manifest::arm_crash_dump`]). No code path panics while
//!    holding one of the recorder's locks, so the panic hook can
//!    snapshot it.
//! 5. **Bounded events.** Events land in a ring of [`CAPACITY`]
//!    entries. `seq` is assigned under the ring's lock, so arrival order
//!    is sequence order; overflow evicts the oldest event and counts it
//!    in [`Snapshot::dropped_events`] — truncation is reported, never
//!    silent.
//!
//! [`BudgetMeter`]: https://docs.rs/catapult-graph

use crate::worker;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Handle to a recording session. Clones share the same store.
///
/// `Recorder::default()` is **disabled**: all operations are no-ops and
/// [`Recorder::snapshot`] returns `None`. Construct with
/// [`Recorder::enabled`] to actually record.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

/// Distinguishes recorders on the thread-local span stack so nested
/// tests with independent recorders never cross-parent spans.
static RECORDER_IDS: AtomicU64 = AtomicU64::new(1);

/// Events a recorder retains; the oldest is evicted on overflow.
pub const CAPACITY: usize = 32_768;

#[derive(Debug)]
struct Inner {
    id: u64,
    epoch: std::time::Instant,
    spans: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: Mutex<EventRing>,
}

/// The bounded event history.
#[derive(Debug, Default)]
struct EventRing {
    /// Events in arrival order once rotated at `head`.
    buf: Vec<Event>,
    /// Next write position when the ring is full.
    head: usize,
    /// The next event's sequence number.
    next_seq: u64,
    /// Events evicted so far.
    dropped: u64,
}

impl EventRing {
    fn push(&mut self, mut ev: Event) {
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() < CAPACITY {
            self.buf.push(ev);
            return;
        }
        self.buf[self.head] = ev;
        self.head = (self.head + 1) % CAPACITY;
        self.dropped += 1;
    }

    /// Events in arrival order (oldest first).
    fn ordered(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

thread_local! {
    /// Stack of open spans on this thread: (recorder id, span id).
    static SPAN_STACK: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Lock a mutex, ignoring poison: the stores hold plain data, and a
/// panicking instrumented thread must not cascade into the recorder.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Recorder {
    /// A recorder that records. The epoch (span time zero) is now.
    #[must_use]
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed),
                epoch: crate::now(),
                spans: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventRing::default()),
            })),
        }
    }

    /// A recorder where everything is a no-op (same as `default()`).
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span; it closes when the returned guard drops.
    ///
    /// The parent is the innermost span currently open **on this
    /// thread** for this recorder; the span also records the rayon-shim
    /// worker id active at open time ([`worker::current`]).
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { open: None };
        };
        let start_ns = duration_ns(inner.epoch.elapsed());
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(rec, _)| *rec == inner.id)
                .map(|(_, id)| *id)
        });
        let mut spans = lock(&inner.spans);
        let id = spans.len() as u32;
        spans.push(SpanRecord {
            name,
            id,
            parent,
            start_ns,
            end_ns: None,
            worker: worker::current(),
        });
        drop(spans);
        SPAN_STACK.with(|s| s.borrow_mut().push((inner.id, id)));
        SpanGuard {
            open: Some((Arc::clone(inner), id)),
        }
    }

    /// A handle to the named counter, registering it on first use.
    ///
    /// Names must follow the `stage.kernel.metric` convention (the
    /// `metric-name` lint rule checks literal call sites). Disabled
    /// recorders return a no-op handle without allocating.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter(None);
        };
        let mut counters = lock(&inner.counters);
        let cell = counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(Arc::clone(cell)))
    }

    /// A handle to the named histogram, registering it on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let Some(inner) = &self.inner else {
            return HistogramHandle(None);
        };
        let mut hists = lock(&inner.histograms);
        let cell = hists
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()));
        HistogramHandle(Some(Arc::clone(cell)))
    }

    /// Record one rare event: `name` follows the `stage.kernel.metric`
    /// convention (`flight.ckpt.write`, …; the `metric-name` lint rule
    /// checks literal call sites), `detail` names its subject (a stage,
    /// `""` when n/a) and `arg` carries a magnitude (a checkpoint seq,
    /// a probe total). The event is stamped with the span clock and the
    /// rayon-shim worker id. A no-op on a disabled recorder.
    #[inline]
    pub fn event(&self, name: &'static str, detail: &'static str, arg: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let worker = worker::current();
        let mut events = lock(&inner.events);
        // Read the clock under the lock, so `t_ns` is monotone in `seq`.
        let t_ns = duration_ns(inner.epoch.elapsed());
        events.push(Event {
            seq: 0, // assigned by the ring
            t_ns,
            worker,
            name,
            detail,
            arg,
        });
    }

    /// Print a one-shot warning to stderr and record it as a
    /// `flight.log.warning` event whose detail is `subject` (what the
    /// warning is about: a checkpoint discard passes its stage name), so
    /// the manifest says which warning fired.
    ///
    /// The blessed replacement for raw `eprintln!` warnings in pipeline
    /// crates (their roots deny `clippy::print_stderr`): warnings stay on
    /// stderr — never perturbing stdout determinism — and reach the run
    /// manifest, crash dumps included.
    pub fn warn(&self, subject: &'static str, msg: impl std::fmt::Display) {
        self.event("flight.log.warning", subject, 0);
        eprintln!("warning: {msg}");
    }

    /// Pre-resolve the full set of kernel cells for a pipeline stage.
    ///
    /// The probe rides on `SearchBudget` into every NP-hard kernel;
    /// resolving the `stage.kernel.metric` counters once per stage keeps
    /// kernel construction allocation-free.
    #[must_use]
    pub fn stage_probe(&self, stage: &'static str) -> StageProbe {
        if self.inner.is_none() {
            return StageProbe(None);
        }
        let kernel_cells = |kernel: Kernel| {
            let name = |metric: &str| format!("{stage}.{}.{metric}", kernel.name());
            KernelCells {
                calls: self.counter(&name("calls")),
                probes: self.counter(&name("probes")),
                checks: self.counter(&name("budget_checks")),
                improved: self.counter(&name("improved")),
                exact: self.counter(&name("exact")),
                degraded: self.counter(&name("degraded")),
                probes_degraded: self.counter(&name("probes_degraded")),
                probe_sizes: self.histogram(&name("probes_per_call")),
            }
        };
        StageProbe(Some(Arc::new(StageCells {
            stage,
            recorder: self.clone(),
            kernels: [
                kernel_cells(Kernel::Iso),
                kernel_cells(Kernel::Mcs),
                kernel_cells(Kernel::Ged),
            ],
        })))
    }

    /// Capture everything recorded so far; `None` when disabled.
    ///
    /// Counters and histograms come out in lexicographic name order;
    /// spans in creation order, events in arrival order. Open spans are
    /// reported with `end_ns = None`.
    #[must_use]
    pub fn snapshot(&self) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        let spans = lock(&inner.spans).clone();
        let counters = lock(&inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = lock(&inner.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect();
        let ring = lock(&inner.events);
        Some(Snapshot {
            spans,
            counters,
            histograms,
            events: ring.ordered(),
            dropped_events: ring.dropped,
        })
    }
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (short; nesting provides the path, e.g. `pipeline` →
    /// `clustering` → `mining`).
    pub name: &'static str,
    /// Creation-order id, unique within the recorder.
    pub id: u32,
    /// Innermost enclosing span on the opening thread, if any.
    pub parent: Option<u32>,
    /// Monotonic ns since the recorder's epoch at open.
    pub start_ns: u64,
    /// Monotonic ns since the epoch at close; `None` if still open.
    pub end_ns: Option<u64>,
    /// Rayon-shim worker id at open time (0 = caller thread).
    pub worker: u32,
}

impl SpanRecord {
    /// Span duration in ns (0 if still open).
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns
            .map_or(0, |end| end.saturating_sub(self.start_ns))
    }
}

/// One recorded event (see [`Recorder::event`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Per-recorder sequence number (arrival order).
    pub seq: u64,
    /// Monotonic ns since the recorder's epoch (the span clock).
    pub t_ns: u64,
    /// Rayon-shim worker id at record time (0 = caller thread).
    pub worker: u32,
    /// Event name (`flight.ckpt.write`, `flight.log.warning`, …).
    pub name: &'static str,
    /// Event subject (stage name, …); `""` when n/a.
    pub detail: &'static str,
    /// Event-specific magnitude (checkpoint seq, probe total, …).
    pub arg: u64,
}

/// RAII guard from [`Recorder::span`]; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<(Arc<Inner>, u32)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, id)) = self.open.take() else {
            return;
        };
        let end_ns = duration_ns(inner.epoch.elapsed());
        if let Some(record) = lock(&inner.spans).get_mut(id as usize) {
            record.end_ns = Some(end_ns);
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Usually the top of the stack; a linear probe tolerates
            // out-of-order guard drops without corrupting neighbors.
            if let Some(at) = stack.iter().rposition(|&e| e == (inner.id, id)) {
                stack.remove(at);
            }
        });
    }
}

/// Lock-free counter handle; a no-op when the recorder is disabled.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n`. Saturates at `u64::MAX`: a pinned total is visibly
    /// wrong in a manifest, a wrapped one silently plausible.
    /// (Saturating add is still commutative and associative, so the
    /// deterministic-aggregation guarantee is unaffected.)
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_add(n))
            });
        }
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Lock-free log₂-bucketed histogram (64 buckets: bucket *i* holds
/// values whose bit length is *i*, i.e. `[2^(i-1), 2^i)`; bucket 0 holds
/// zero).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; 64],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket.min(63)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate instead of wrapping: a sum that pins at u64::MAX is
        // visibly wrong in a manifest, while a wrapped one looks like a
        // plausible small number.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
    }

    /// Aggregate view of everything recorded so far.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Upper bound of bucket i: 2^i - 1 (bucket 0 → 0).
                    return if i == 0 { 0 } else { (1u64 << i) - 1 };
                }
            }
            u64::MAX
        };
        HistogramSummary {
            count,
            sum,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// Shareable histogram handle; a no-op when the recorder is disabled.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }
}

/// Aggregate view of a [`Histogram`]. Quantiles are bucket upper bounds
/// (log₂ resolution), deterministic for a given multiset of values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Median (log₂-bucket upper bound).
    pub p50: u64,
    /// 90th percentile (log₂-bucket upper bound).
    pub p90: u64,
    /// 99th percentile (log₂-bucket upper bound).
    pub p99: u64,
}

/// The three NP-hard kernel families the pipeline meters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// VF2 subgraph isomorphism (`catapult-graph::iso`).
    Iso,
    /// Maximum common (connected) subgraph (`catapult-graph::mcs`).
    Mcs,
    /// Graph edit distance (`catapult-graph::ged`).
    Ged,
}

impl Kernel {
    /// All kernels, in manifest order.
    pub const ALL: [Kernel; 3] = [Kernel::Iso, Kernel::Mcs, Kernel::Ged];

    /// The `kernel` segment of `stage.kernel.metric` counter names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Iso => "iso",
            Kernel::Mcs => "mcs",
            Kernel::Ged => "ged",
        }
    }
}

/// What one kernel invocation reports when it completes (accumulated as
/// plain integers inside the search, flushed once on drop).
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelMeasurement {
    /// Search nodes expanded (`BudgetMeter` ticks).
    pub probes: u64,
    /// Deadline polls performed (the first expansion and every 1,024th;
    /// counted whether or not the search has a deadline).
    pub checks: u64,
    /// Best-so-far improvements (embeddings found, bounds tightened).
    pub improved: u64,
    /// Whether the search ran to completion ([`Completeness::Exact`]).
    ///
    /// [`Completeness::Exact`]: https://docs.rs/catapult-graph
    pub exact: bool,
}

/// Pre-resolved per-stage kernel counters, carried by `SearchBudget`.
///
/// Cloning is one `Arc` bump (or free when disabled), so the probe can
/// ride through config plumbing and into every `BudgetMeter`.
#[derive(Clone, Debug, Default)]
pub struct StageProbe(Option<Arc<StageCells>>);

#[derive(Debug)]
struct StageCells {
    stage: &'static str,
    recorder: Recorder,
    /// Indexed by `Kernel as usize`.
    kernels: [KernelCells; 3],
}

/// The atomic cells behind one (stage, kernel) pair.
#[derive(Clone, Debug, Default)]
struct KernelCells {
    calls: Counter,
    probes: Counter,
    checks: Counter,
    improved: Counter,
    exact: Counter,
    degraded: Counter,
    /// Probes spent by calls that ended degraded (their share of `probes`).
    probes_degraded: Counter,
    probe_sizes: HistogramHandle,
}

impl StageProbe {
    /// Whether flushes reach a live recorder.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The stage this probe attributes kernel work to.
    #[must_use]
    pub fn stage(&self) -> Option<&'static str> {
        self.0.as_ref().map(|c| c.stage)
    }

    /// Flush one finished kernel invocation into the stage counters.
    pub fn flush(&self, kernel: Kernel, m: KernelMeasurement) {
        let Some(cells) = &self.0 else {
            return;
        };
        let k = &cells.kernels[kernel as usize];
        k.calls.incr();
        k.probes.add(m.probes);
        k.checks.add(m.checks);
        k.improved.add(m.improved);
        if m.exact {
            k.exact.incr();
        } else {
            k.degraded.incr();
            k.probes_degraded.add(m.probes);
        }
        k.probe_sizes.record(m.probes);
    }

    /// Bump an ad-hoc `stage.kernel.metric` counter under this probe's
    /// stage — for non-search metrics (e.g. `mining.subtree.levels`)
    /// where pre-resolved cells would be overkill.
    pub fn add(&self, kernel: &str, metric: &str, n: u64) {
        let Some(cells) = &self.0 else {
            return;
        };
        cells
            .recorder
            .counter(&format!("{}.{kernel}.{metric}", cells.stage))
            .add(n);
    }
}

/// Everything a recorder captured, in deterministic order.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Spans in creation order.
    pub spans: Vec<SpanRecord>,
    /// Counters sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Retained events in arrival order (the newest [`CAPACITY`]).
    pub events: Vec<Event>,
    /// Events evicted from the ring so far.
    pub dropped_events: u64,
}

impl Snapshot {
    /// Sum of all `counters` whose name matches `stage.*.metric`.
    #[must_use]
    pub fn stage_metric_total(&self, stage: &str, metric: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(name, _)| {
                let parts: Vec<&str> = name.split('.').collect();
                parts.len() >= 3 && parts[0] == stage && parts.last() == Some(&metric)
            })
            .map(|(_, v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let _span = rec.span("nothing");
        rec.counter("a.b.c").add(5);
        rec.stage_probe("s")
            .flush(Kernel::Iso, KernelMeasurement::default());
        rec.event("flight.test.ignored", "", 1);
        assert!(rec.snapshot().is_none());
    }

    #[test]
    fn event_arrival_order_is_sequence_order() {
        let rec = Recorder::enabled();
        rec.event("flight.test.a", "one", 1);
        {
            let _w = crate::worker::enter(3);
            rec.event("flight.test.b", "two", 2);
        }
        rec.event("flight.test.c", "", 3);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.dropped_events, 0);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, [1, 2, 3]);
        assert_eq!(snap.events[0].worker, 0);
        assert_eq!(snap.events[1].worker, 3);
        assert_eq!(snap.events[1].detail, "two");
        assert!(snap.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn event_ring_bounds_and_reports_dropped_events() {
        let rec = Recorder::enabled();
        for i in 0..(CAPACITY as u64 + 10) {
            rec.event("flight.test.flood", "", i);
        }
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.events.len(), CAPACITY);
        assert_eq!(snap.dropped_events, 10);
        // The oldest events were evicted, the newest retained.
        assert_eq!(snap.events.last().map(|e| e.arg), Some(CAPACITY as u64 + 9));
        assert_eq!(snap.events.first().map(|e| e.arg), Some(10));
        assert!(snap.events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            {
                let _inner = rec.span("inner");
            }
            let _sibling = rec.span("sibling");
        }
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[0].parent, None);
        assert_eq!(snap.spans[1].name, "inner");
        assert_eq!(snap.spans[1].parent, Some(0));
        assert_eq!(snap.spans[2].name, "sibling");
        assert_eq!(snap.spans[2].parent, Some(0));
        for s in &snap.spans {
            assert!(s.end_ns.is_some(), "span {} left open", s.name);
            assert!(s.end_ns >= Some(s.start_ns));
        }
    }

    #[test]
    fn two_recorders_do_not_cross_parent() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        let _sa = a.span("a-root");
        let sb = b.span("b-root");
        drop(sb);
        let snap = b.snapshot().unwrap();
        assert_eq!(snap.spans[0].parent, None, "b's span parented under a's");
    }

    #[test]
    fn counters_aggregate_across_clones_and_threads() {
        let rec = Recorder::enabled();
        let c = rec.counter("stage.kern.metric");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(rec.counter("stage.kern.metric").get(), 4000);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.counters, vec![("stage.kern.metric".to_string(), 4000)]);
    }

    #[test]
    fn stage_probe_flushes_into_named_counters() {
        let rec = Recorder::enabled();
        let probe = rec.stage_probe("scoring");
        probe.flush(
            Kernel::Iso,
            KernelMeasurement {
                probes: 10,
                checks: 2,
                improved: 1,
                exact: true,
            },
        );
        probe.flush(
            Kernel::Iso,
            KernelMeasurement {
                probes: 30,
                checks: 4,
                improved: 0,
                exact: false,
            },
        );
        assert_eq!(rec.counter("scoring.iso.calls").get(), 2);
        assert_eq!(rec.counter("scoring.iso.probes").get(), 40);
        assert_eq!(rec.counter("scoring.iso.budget_checks").get(), 6);
        assert_eq!(rec.counter("scoring.iso.improved").get(), 1);
        assert_eq!(rec.counter("scoring.iso.exact").get(), 1);
        assert_eq!(rec.counter("scoring.iso.degraded").get(), 1);
        // Only the degraded call's probes count as wasted.
        assert_eq!(rec.counter("scoring.iso.probes_degraded").get(), 30);
        assert_eq!(rec.counter("scoring.mcs.calls").get(), 0);
        let snap = rec.snapshot().unwrap();
        assert_eq!(snap.stage_metric_total("scoring", "probes"), 40);
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "scoring.iso.probes_per_call")
            .unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 40);
    }

    #[test]
    fn histogram_quantiles_use_bucket_upper_bounds() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 106);
        assert_eq!(s.p50, 3); // bucket [2,4) → upper bound 3
        assert_eq!(s.p99, 127); // bucket [64,128) → upper bound 127
    }

    #[test]
    fn probe_ad_hoc_add_uses_stage_prefix() {
        let rec = Recorder::enabled();
        let probe = rec.stage_probe("mining");
        probe.add("subtree", "levels", 3);
        assert_eq!(rec.counter("mining.subtree.levels").get(), 3);
    }

    #[test]
    fn empty_histogram_summary_is_well_defined() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        // With no samples the quantile sentinel is 0 (the count == 0
        // early return), never a garbage bucket bound.
        assert_eq!(s.p50, 0);
        assert_eq!(s.p90, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn single_sample_histogram_pins_every_quantile() {
        let h = Histogram::new();
        h.record(5);
        let s = h.summary();
        assert_eq!((s.count, s.sum), (1, 5));
        // One sample in bucket [4,8): all quantiles report its upper bound.
        assert_eq!((s.p50, s.p90, s.p99), (7, 7, 7));

        let zero = Histogram::new();
        zero.record(0);
        let s = zero.summary();
        assert_eq!((s.count, s.sum), (1, 0));
        assert_eq!((s.p50, s.p90, s.p99), (0, 0, 0));
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(7);
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, u64::MAX, "overflow must pin, not wrap");
        // Extreme values land in the top bucket, reported at its upper
        // bound 2^63 - 1.
        assert_eq!(s.p99, (1u64 << 63) - 1);
    }

    #[test]
    fn counter_saturates_at_max() {
        let rec = Recorder::enabled();
        let c = rec.counter("mining.test.saturation");
        c.add(u64::MAX);
        c.add(u64::MAX);
        c.incr();
        assert_eq!(c.get(), u64::MAX, "counter overflow must pin, not wrap");
    }
}
