//! Shared execution budgets for the NP-hard search kernels.
//!
//! Every stage of the CATAPULT pipeline leans on worst-case-exponential
//! searches — subgraph isomorphism ([`crate::iso`]), MCS/MCCS
//! ([`crate::mcs`]), GED ([`crate::ged`]) and the frequent-pattern miners
//! built on top of them. Production use (the plug-and-play setting of
//! arXiv:2107.09952) requires those searches to be *bounded* and their
//! degradation to be *explicit*: a search that stops early must say so, and
//! must still hand back the best solution it found.
//!
//! This module is that mechanism:
//!
//! * [`SearchBudget`] — one budget type for every kernel: a node-expansion
//!   cap. It is deterministic: the same inputs stop at the same node on any
//!   machine and thread count, so a bounded run's output never depends on
//!   timing.
//! * [`Completeness`] — why a search stopped: [`Completeness::Exact`] (the
//!   search space was exhausted / the caller got everything it asked for)
//!   or [`Completeness::BudgetExhausted`]. Kernels *always* return
//!   best-so-far results tagged with this value; nothing is silently
//!   truncated.
//! * [`BudgetMeter`] — the per-search instrument: `tick()` once per
//!   expansion, stop when it returns `true`, report `status()` to callers.
//! * [`Tally`] / [`TallyCounts`] — thread-safe accumulation of completeness
//!   tags across many kernel calls, feeding the pipeline-level report.
//! * [`fault`] (behind the `fault-injection` feature) — a deterministic
//!   harness that forces exhaustion at the K-th kernel invocation, so
//!   graceful degradation is testable.
//!
//! The budget is also the carrier for kernel **observability**: a
//! [`StageProbe`] (from `catapult-obs`) stamped onto a [`SearchBudget`]
//! rides into every meter, which accumulates probes and
//! improvements as plain integers and flushes them into the stage's
//! `stage.kernel.metric` counters exactly once, when it drops. A
//! default (disabled) probe costs nothing.

pub use catapult_obs::{Kernel, KernelMeasurement, StageProbe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a budgeted search stopped.
///
/// Ordered by severity: [`Completeness::Exact`] is best; the degraded
/// variant compares greater, so "worst over many calls" is simply `max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Completeness {
    /// The search space was exhausted, or the caller stopped the search on
    /// purpose (embedding cap reached, callback returned `Break`). The
    /// result answers exactly what was asked.
    #[default]
    Exact,
    /// The node-expansion cap was hit; the result is the best found so far
    /// (a lower bound for maximization problems such as MCS, an upper
    /// bound for minimization problems such as GED).
    BudgetExhausted,
}

impl Completeness {
    /// Whether the result is exact (not degraded).
    pub fn is_exact(self) -> bool {
        self == Completeness::Exact
    }

    /// The worse (more degraded) of two outcomes.
    pub fn worst(self, other: Completeness) -> Completeness {
        self.max(other)
    }

    /// Short human-readable name (used by reports and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Completeness::Exact => "exact",
            Completeness::BudgetExhausted => "budget-exhausted",
        }
    }
}

/// The unified execution budget accepted by every NP-hard kernel.
///
/// One limit, `node_cap`: the maximum number of backtracking-node
/// expansions (`u64::MAX` means "use the call site's stage default", see
/// [`SearchBudget::with_default_cap`]). A search that hits it is tagged
/// [`Completeness::BudgetExhausted`].
#[derive(Clone, Debug)]
pub struct SearchBudget {
    /// Node-expansion cap (`u64::MAX` = defer to the stage default).
    pub node_cap: u64,
    /// Kernel observability probe (disabled by default; stamped per
    /// stage by the pipeline so kernel effort lands in
    /// `stage.kernel.metric` counters).
    pub probe: StageProbe,
}

impl SearchBudget {
    /// An unbounded budget: no cap of its own (call sites substitute their
    /// stage default).
    pub fn unbounded() -> Self {
        SearchBudget {
            node_cap: u64::MAX,
            probe: StageProbe::default(),
        }
    }

    /// A budget capped at `cap` node expansions.
    pub fn nodes(cap: u64) -> Self {
        SearchBudget {
            node_cap: cap,
            ..Self::unbounded()
        }
    }

    /// Stamp a stage observability probe onto the budget; every kernel
    /// metered under it flushes its counters into the probe's stage.
    pub fn with_probe(mut self, probe: StageProbe) -> Self {
        self.probe = probe;
        self
    }

    /// Resolve the node cap against a stage default: an explicit cap wins;
    /// an unset cap (`u64::MAX`) becomes `default_cap`. The probe
    /// carries over unchanged.
    ///
    /// This is how one user-facing budget (e.g. `--search-budget`) flows
    /// through stages that each have their own sensible cap.
    pub fn with_default_cap(&self, default_cap: u64) -> SearchBudget {
        let mut b = self.clone();
        if b.node_cap == u64::MAX {
            b.node_cap = default_cap;
        }
        b
    }

    /// Combine this budget (the override) with a base budget: the override
    /// cap wins when set, and the override probe wins when enabled.
    pub fn overlay(&self, base: &SearchBudget) -> SearchBudget {
        SearchBudget {
            node_cap: if self.node_cap != u64::MAX {
                self.node_cap
            } else {
                base.node_cap
            },
            probe: if self.probe.is_enabled() {
                self.probe.clone()
            } else {
                base.probe.clone()
            },
        }
    }
}

/// Per-search budget instrument.
///
/// Create one from a [`SearchBudget`] at search start, call
/// [`BudgetMeter::tick`] once per node expansion, and stop unwinding when
/// it returns `true`. [`BudgetMeter::status`] then reports why.
///
/// The fast path is one increment and one compare.
///
/// The meter doubles as the kernel's observability accumulator: probes
/// and best-so-far improvements are counted as plain
/// integers and flushed into the budget's [`StageProbe`] exactly once —
/// on drop — so instrumentation adds no atomics to the search loop and
/// totals stay deterministic under any worker interleaving.
#[derive(Debug)]
pub struct BudgetMeter {
    nodes: u64,
    node_cap: u64,
    status: Completeness,
    kernel: Kernel,
    improved: u64,
    probe: StageProbe,
}

impl BudgetMeter {
    /// Instrument one `kernel` search under `budget`.
    ///
    /// With the `fault-injection` feature enabled this is also the kernel
    /// invocation counter the [`fault`] harness keys on.
    pub fn new(budget: &SearchBudget, kernel: Kernel) -> Self {
        #[allow(unused_mut)]
        let mut m = BudgetMeter {
            nodes: 0,
            node_cap: budget.node_cap,
            status: Completeness::Exact,
            kernel,
            improved: 0,
            probe: budget.probe.clone(),
        };
        #[cfg(feature = "fault-injection")]
        fault::arm(&mut m);
        m
    }

    /// Record one node expansion. Returns `true` when the search must stop;
    /// the reason is available from [`BudgetMeter::status`].
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.nodes += 1;
        if self.nodes > self.node_cap {
            self.status = Completeness::BudgetExhausted;
            return true;
        }
        false
    }

    /// Why the search stopped ([`Completeness::Exact`] while it is still
    /// running or when it ran to completion).
    pub fn status(&self) -> Completeness {
        self.status
    }

    /// Whether a limit has tripped.
    pub fn tripped(&self) -> bool {
        self.status != Completeness::Exact
    }

    /// Expansions recorded so far.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Record a best-so-far improvement (embedding reported, bound
    /// tightened) for the stage's `improved` counter.
    #[inline]
    pub fn note_improvement(&mut self) {
        self.improved += 1;
    }

    /// Reset a tripped limit back to [`Completeness::Exact`]: the caller
    /// proved its best-so-far optimal (e.g. an a-priori upper bound was
    /// met), so the answer is exact no matter why expansion stopped. The
    /// Drop-flushed `exact`/`degraded` counters follow the corrected tag.
    pub fn note_proven_exact(&mut self) {
        self.status = Completeness::Exact;
    }
}

impl Drop for BudgetMeter {
    fn drop(&mut self) {
        // Single flush per kernel invocation; a disabled probe makes
        // this a branch on `None`.
        self.probe.flush(
            self.kernel,
            KernelMeasurement {
                probes: self.nodes,
                improved: self.improved,
                exact: self.status.is_exact(),
            },
        );
    }
}

/// Thread-safe accumulator of [`Completeness`] tags across kernel calls.
///
/// Kernels run from `rayon` parallel loops throughout the pipeline (the
/// shim executor really does fan out over `std::thread::scope` workers),
/// so the counters are atomic; share a `Tally` by reference and snapshot
/// it with [`Tally::counts`] when the stage finishes.
///
/// Recording is **commutative and associative**: each tag is an
/// independent `fetch_add`, so the snapshot is identical no matter how
/// worker threads interleave their `record` calls — this is what keeps
/// [`TallyCounts`] byte-identical across thread counts. Per-thread
/// [`TallyCounts`] accumulators folded with [`TallyCounts::merge`] give
/// the same result for every fold order.
#[derive(Debug, Default)]
pub struct Tally {
    exact: AtomicU64,
    budget_exhausted: AtomicU64,
}

impl Tally {
    /// A fresh, all-zero tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one kernel outcome.
    pub fn record(&self, c: Completeness) {
        let counter = match c {
            Completeness::Exact => &self.exact,
            Completeness::BudgetExhausted => &self.budget_exhausted,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counts.
    pub fn counts(&self) -> TallyCounts {
        TallyCounts {
            exact: self.exact.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of kernel-call outcomes for one pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TallyCounts {
    /// Calls that ran to an exact answer.
    pub exact: u64,
    /// Calls stopped by the node-expansion cap.
    pub budget_exhausted: u64,
}

impl TallyCounts {
    /// Total kernel calls recorded.
    pub fn total(&self) -> u64 {
        self.exact + self.degraded()
    }

    /// Calls that returned a degraded (non-exact) result.
    pub fn degraded(&self) -> u64 {
        self.budget_exhausted
    }

    /// Whether every recorded call was exact.
    pub fn all_exact(&self) -> bool {
        self.degraded() == 0
    }

    /// The worst outcome observed (Exact for an empty tally).
    pub fn worst(&self) -> Completeness {
        if self.budget_exhausted > 0 {
            Completeness::BudgetExhausted
        } else {
            Completeness::Exact
        }
    }

    /// Element-wise sum of two snapshots.
    ///
    /// Commutative and associative (plain per-field addition), so
    /// folding per-thread snapshots produces the same totals in any
    /// merge order — parallel stages rely on this.
    pub fn merge(self, other: TallyCounts) -> TallyCounts {
        TallyCounts {
            exact: self.exact + other.exact,
            budget_exhausted: self.budget_exhausted + other.budget_exhausted,
        }
    }

    /// Record one outcome into a non-shared snapshot (serial loops).
    pub fn record(&mut self, c: Completeness) {
        match c {
            Completeness::Exact => self.exact += 1,
            Completeness::BudgetExhausted => self.budget_exhausted += 1,
        }
    }
}

/// Deterministic fault injection for kernel invocations.
///
/// Every [`BudgetMeter::new`] counts as one kernel invocation; an installed
/// [`fault::FaultPlan`] sets the node cap of the K-th (or every ≥ K-th, when
/// sticky) meter to zero, so the search trips on its first expansion with
/// [`Completeness::BudgetExhausted`]. This turns "what does the pipeline
/// do when GED call #7 hits its cap?" into a reproducible unit test.
///
/// The plan and the invocation counter are process-global: tests that
/// install plans must serialize (e.g. behind a shared mutex) and
/// [`fault::clear`] when done.
#[cfg(feature = "fault-injection")]
pub mod fault {
    use super::BudgetMeter;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A deterministic fault: exhaust the `at`-th kernel invocation
    /// (1-based) — and, when `sticky`, every later one too.
    #[derive(Clone, Copy, Debug)]
    pub struct FaultPlan {
        /// 1-based kernel-invocation index to fault.
        pub at: u64,
        /// Fault every invocation from `at` onward.
        pub sticky: bool,
    }

    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn plan_slot() -> std::sync::MutexGuard<'static, Option<FaultPlan>> {
        // A poisoned lock only means another test panicked; the plan value
        // itself is always valid.
        // xtask-allow: taint -- whole-value fault-plan slot: install/clear replace it atomically, no order-sensitive accumulation
        PLAN.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a plan and reset the invocation counter.
    pub fn install(plan: FaultPlan) {
        let mut slot = plan_slot();
        COUNTER.store(0, Ordering::SeqCst);
        *slot = Some(plan);
    }

    /// Remove any installed plan (the counter keeps counting).
    pub fn clear() {
        *plan_slot() = None;
    }

    /// Kernel invocations since the last [`install`].
    pub fn invocations() -> u64 {
        COUNTER.load(Ordering::SeqCst)
    }

    /// Called from [`BudgetMeter::new`]: count the invocation and, if the
    /// plan matches, rig the meter to trip on its first expansion.
    pub(super) fn arm(meter: &mut BudgetMeter) {
        let n = COUNTER.fetch_add(1, Ordering::SeqCst) + 1;
        let Some(plan) = *plan_slot() else { return };
        let hit = if plan.sticky {
            n >= plan.at
        } else {
            n == plan.at
        };
        if hit {
            meter.node_cap = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_matches_legacy_cap_semantics() {
        // Legacy kernels did `nodes += 1; if nodes > cap { stop }`: a cap
        // of k allows exactly k expansions.
        let mut m = BudgetMeter::new(&SearchBudget::nodes(3), Kernel::Iso);
        assert!(!m.tick() && !m.tick() && !m.tick());
        assert!(m.tick());
        assert_eq!(m.status(), Completeness::BudgetExhausted);
        assert_eq!(m.nodes(), 4);
    }

    #[test]
    fn unbounded_budget_never_trips() {
        let mut m = BudgetMeter::new(&SearchBudget::unbounded(), Kernel::Iso);
        for _ in 0..10_000 {
            assert!(!m.tick());
        }
        assert_eq!(m.status(), Completeness::Exact);
    }

    #[test]
    fn default_cap_resolution() {
        assert_eq!(
            SearchBudget::unbounded().with_default_cap(500).node_cap,
            500
        );
        assert_eq!(SearchBudget::nodes(9).with_default_cap(500).node_cap, 9);
    }

    #[test]
    fn overlay_prefers_override_cap() {
        let base = SearchBudget::nodes(50);
        assert_eq!(SearchBudget::nodes(5).overlay(&base).node_cap, 5);
        let defer = SearchBudget::unbounded().overlay(&base);
        assert_eq!(defer.node_cap, 50);
    }

    #[test]
    fn completeness_ordering_and_worst() {
        assert!(Completeness::Exact < Completeness::BudgetExhausted);
        assert_eq!(
            Completeness::Exact.worst(Completeness::BudgetExhausted),
            Completeness::BudgetExhausted
        );
        assert!(Completeness::Exact.is_exact());
        assert!(!Completeness::BudgetExhausted.is_exact());
    }

    #[test]
    fn tally_counts_and_merge() {
        let t = Tally::new();
        t.record(Completeness::Exact);
        t.record(Completeness::Exact);
        t.record(Completeness::BudgetExhausted);
        let c = t.counts();
        assert_eq!(c.total(), 3);
        assert_eq!(c.degraded(), 1);
        assert!(!c.all_exact());
        assert_eq!(c.worst(), Completeness::BudgetExhausted);
        let mut d = TallyCounts::default();
        d.record(Completeness::Exact);
        let m = c.merge(d);
        assert_eq!(m.total(), 4);
        assert_eq!(m.worst(), Completeness::BudgetExhausted);
    }

    #[test]
    fn budget_plumbing_is_thread_safe() {
        // The parallel executor shares these by reference across scoped
        // worker threads; a regression away from Send + Sync (say, an
        // Rc-based probe) must fail to compile — asserted here so the
        // error points at the contract, not at a distant call site.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SearchBudget>();
        assert_send_sync::<Tally>();
        assert_send_sync::<TallyCounts>();
        assert_send_sync::<Completeness>();
    }

    #[test]
    fn tally_record_is_commutative_across_interleavings() {
        // Record the same multiset of tags in two different orders; the
        // snapshots must match (this is what makes the shared Tally safe
        // under arbitrary worker interleaving).
        let forward = Tally::new();
        let tags = [
            Completeness::Exact,
            Completeness::BudgetExhausted,
            Completeness::Exact,
            Completeness::BudgetExhausted,
            Completeness::BudgetExhausted,
        ];
        for &t in &tags {
            forward.record(t);
        }
        let backward = Tally::new();
        for &t in tags.iter().rev() {
            backward.record(t);
        }
        assert_eq!(forward.counts(), backward.counts());
    }

    #[test]
    fn meter_flushes_probe_counters_on_drop() {
        let rec = catapult_obs::Recorder::enabled();
        let budget = SearchBudget::nodes(5).with_probe(rec.stage_probe("scoring"));
        {
            let mut m = BudgetMeter::new(&budget, Kernel::Mcs);
            for _ in 0..3 {
                assert!(!m.tick());
            }
            m.note_improvement();
        } // drop flushes
        {
            let mut m = BudgetMeter::new(&budget, Kernel::Mcs);
            for _ in 0..6 {
                if m.tick() {
                    break;
                }
            }
            assert!(m.tripped());
        }
        assert_eq!(rec.counter("scoring.mcs.calls").get(), 2);
        assert_eq!(rec.counter("scoring.mcs.probes").get(), 9);
        assert_eq!(rec.counter("scoring.mcs.improved").get(), 1);
        assert_eq!(rec.counter("scoring.mcs.exact").get(), 1);
        assert_eq!(rec.counter("scoring.mcs.degraded").get(), 1);
    }

    #[test]
    fn overlay_prefers_enabled_probe() {
        let rec = catapult_obs::Recorder::enabled();
        let probed = SearchBudget::unbounded().with_probe(rec.stage_probe("mining"));
        let plain = SearchBudget::nodes(10);
        assert_eq!(
            plain.overlay(&probed).probe.stage(),
            Some("mining"),
            "base probe must survive overlay"
        );
        assert_eq!(probed.overlay(&plain).probe.stage(), Some("mining"));
    }
}
