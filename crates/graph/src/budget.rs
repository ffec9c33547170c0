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
//!   cap and an optional wall-clock [`Deadline`] (polled on the first
//!   expansion and every 1,024 after it, so the fast path stays a counter
//!   compare).
//! * [`Completeness`] — why a search stopped: [`Completeness::Exact`] (the
//!   search space was exhausted / the caller got everything it asked for),
//!   or one of the degraded outcomes. Kernels *always* return best-so-far
//!   results tagged with this value; nothing is silently truncated.
//! * [`BudgetMeter`] — the per-search instrument: `tick()` once per
//!   expansion, stop when it returns `true`, report `status()` to callers.
//! * [`Tally`] / [`TallyCounts`] — thread-safe accumulation of completeness
//!   tags across many kernel calls, feeding the pipeline-level report.
//! * [`fault`] (behind the `fault-injection` feature) — a deterministic
//!   harness that forces exhaustion / deadline / a worker panic at the K-th
//!   kernel invocation, so graceful degradation is testable.
//!
//! The budget is also the carrier for kernel **observability**: a
//! [`StageProbe`] (from `catapult-obs`) stamped onto a [`SearchBudget`]
//! rides into every meter, which accumulates probes / budget checks /
//! improvements as plain integers and flushes them into the stage's
//! `stage.kernel.metric` counters exactly once, when it drops. A
//! default (disabled) probe costs nothing.

pub use catapult_obs::{Kernel, KernelMeasurement, StageProbe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Why a budgeted search stopped.
///
/// Ordered by severity: [`Completeness::Exact`] is best; the degraded
/// variants compare greater, so "worst over many calls" is simply `max`.
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
    /// The wall-clock [`Deadline`] passed; best-so-far result.
    DeadlineExceeded,
    /// The work item never produced a result at all: its worker panicked
    /// and the supervised executor (`--keep-going`) isolated the panic,
    /// substituting a panic-free fallback value. The most severe tag —
    /// unlike the budget variants there is no best-so-far result behind
    /// it.
    Degraded,
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
            Completeness::DeadlineExceeded => "deadline-exceeded",
            Completeness::Degraded => "degraded",
        }
    }
}

/// A wall-clock point in time after which budgeted searches stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline(Instant);

impl Deadline {
    /// Deadline `d` from now.
    pub fn from_now(d: Duration) -> Self {
        Deadline(catapult_obs::now() + d)
    }

    /// Deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline(instant)
    }

    /// The underlying instant.
    pub fn instant(self) -> Instant {
        self.0
    }

    /// Whether the deadline has passed.
    pub fn expired(self) -> bool {
        // xtask-allow: taint -- deadline checks gate interruption only; an interrupted run checkpoints and resumes, it never silently diverges
        catapult_obs::now() >= self.0
    }
}

/// How many expansions pass between deadline polls (the first expansion
/// is polled too). A power of two, so the cadence test is a mask. The
/// node-cap check runs on every expansion regardless.
const CHECK_EVERY: u64 = 1024;

/// The unified execution budget accepted by every NP-hard kernel.
///
/// Two independent limits:
///
/// * `node_cap` — maximum backtracking-node expansions (deterministic;
///   `u64::MAX` means "use the call site's stage default", see
///   [`SearchBudget::with_default_cap`]);
/// * `deadline` — optional wall-clock cutoff, polled on the first
///   expansion and every 1,024 after it.
///
/// Whichever trips first determines the [`Completeness`] tag of the result.
#[derive(Clone, Debug)]
pub struct SearchBudget {
    /// Node-expansion cap (`u64::MAX` = defer to the stage default).
    pub node_cap: u64,
    /// Optional wall-clock cutoff.
    pub deadline: Option<Deadline>,
    /// Kernel observability probe (disabled by default; stamped per
    /// stage by the pipeline so kernel effort lands in
    /// `stage.kernel.metric` counters).
    pub probe: StageProbe,
}

impl SearchBudget {
    /// An unbounded budget: no cap of its own (call sites substitute their
    /// stage default), no deadline.
    pub fn unbounded() -> Self {
        SearchBudget {
            node_cap: u64::MAX,
            deadline: None,
            probe: StageProbe::default(),
        }
    }

    /// A budget with only a node-expansion cap.
    pub fn nodes(cap: u64) -> Self {
        SearchBudget {
            node_cap: cap,
            ..Self::unbounded()
        }
    }

    /// Attach a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stamp a stage observability probe onto the budget; every kernel
    /// metered under it flushes its counters into the probe's stage.
    pub fn with_probe(mut self, probe: StageProbe) -> Self {
        self.probe = probe;
        self
    }

    /// Resolve the node cap against a stage default: an explicit cap wins;
    /// an unset cap (`u64::MAX`) becomes `default_cap`. The deadline
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
    /// cap wins when set, the *earlier* deadline applies, and the override
    /// probe wins when enabled.
    pub fn overlay(&self, base: &SearchBudget) -> SearchBudget {
        SearchBudget {
            node_cap: if self.node_cap != u64::MAX {
                self.node_cap
            } else {
                base.node_cap
            },
            deadline: match (self.deadline, base.deadline) {
                // The earlier of two deadlines applies.
                (Some(a), Some(b)) => Some(if a.instant() <= b.instant() { a } else { b }),
                (a, b) => a.or(b),
            },
            probe: if self.probe.is_enabled() {
                self.probe.clone()
            } else {
                base.probe.clone()
            },
        }
    }

    /// Whether the budget's deadline has already passed. Used by
    /// coarse-grained loops (mining levels, greedy selection rounds) to
    /// stop *between* kernel calls; the node cap is per-search and is not
    /// consulted here.
    pub fn interrupted(&self) -> Option<Completeness> {
        self.deadline
            .filter(|d| d.expired())
            .map(|_| Completeness::DeadlineExceeded)
    }
}

/// Per-search budget instrument.
///
/// Create one from a [`SearchBudget`] at search start, call
/// [`BudgetMeter::tick`] once per node expansion, and stop unwinding when
/// it returns `true`. [`BudgetMeter::status`] then reports why.
///
/// The fast path is one increment and one compare; deadline polls run
/// every 1,024 expansions (and once on the very first expansion, so
/// pre-expired deadlines stop searches promptly).
///
/// The meter doubles as the kernel's observability accumulator: probes,
/// deadline polls, and best-so-far improvements are counted as plain
/// integers and flushed into the budget's [`StageProbe`] exactly once —
/// on drop — so instrumentation adds no atomics to the search loop and
/// totals stay deterministic under any worker interleaving.
#[derive(Debug)]
pub struct BudgetMeter {
    nodes: u64,
    node_cap: u64,
    deadline: Option<Instant>,
    status: Completeness,
    kernel: Kernel,
    checks: u64,
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
            deadline: budget.deadline.map(Deadline::instant),
            status: Completeness::Exact,
            kernel,
            checks: 0,
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
        (self.nodes == 1 || self.nodes.is_multiple_of(CHECK_EVERY)) && self.poll_deadline()
    }

    #[cold]
    fn poll_deadline(&mut self) -> bool {
        self.checks += 1;
        if let Some(d) = self.deadline {
            // xtask-allow: taint -- deadline trip gates interruption only and is recorded as Completeness::DeadlineExceeded, never silent
            if catapult_obs::now() >= d {
                self.status = Completeness::DeadlineExceeded;
                return true;
            }
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

    /// Deadline polls performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
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
                checks: self.checks,
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
    deadline_exceeded: AtomicU64,
    failed: AtomicU64,
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
            Completeness::DeadlineExceeded => &self.deadline_exceeded,
            Completeness::Degraded => &self.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counts.
    pub fn counts(&self) -> TallyCounts {
        TallyCounts {
            exact: self.exact.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
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
    /// Calls stopped by the wall-clock deadline.
    pub deadline_exceeded: u64,
    /// Calls whose worker panicked and was isolated by the supervised
    /// executor (tagged [`Completeness::Degraded`]); their results are
    /// panic-free fallback values, not truncated searches.
    pub failed: u64,
}

impl TallyCounts {
    /// Total kernel calls recorded.
    pub fn total(&self) -> u64 {
        self.exact + self.degraded()
    }

    /// Calls that returned a degraded (non-exact) result.
    pub fn degraded(&self) -> u64 {
        self.budget_exhausted + self.deadline_exceeded + self.failed
    }

    /// Whether every recorded call was exact.
    pub fn all_exact(&self) -> bool {
        self.degraded() == 0
    }

    /// The worst outcome observed (Exact for an empty tally).
    pub fn worst(&self) -> Completeness {
        if self.failed > 0 {
            Completeness::Degraded
        } else if self.deadline_exceeded > 0 {
            Completeness::DeadlineExceeded
        } else if self.budget_exhausted > 0 {
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
            deadline_exceeded: self.deadline_exceeded + other.deadline_exceeded,
            failed: self.failed + other.failed,
        }
    }

    /// Record one outcome into a non-shared snapshot (serial loops).
    pub fn record(&mut self, c: Completeness) {
        match c {
            Completeness::Exact => self.exact += 1,
            Completeness::BudgetExhausted => self.budget_exhausted += 1,
            Completeness::DeadlineExceeded => self.deadline_exceeded += 1,
            Completeness::Degraded => self.failed += 1,
        }
    }
}

/// Deterministic fault injection for kernel invocations.
///
/// Every [`BudgetMeter::new`] counts as one kernel invocation; an installed
/// [`FaultPlan`] rewrites the K-th (or every ≥ K-th, when sticky) meter so
/// the search trips immediately with the planned [`Completeness`]. This
/// turns "what does the pipeline do when GED call #7 times out?" into a
/// reproducible unit test.
///
/// The plan and the invocation counter are process-global: tests that
/// install plans must serialize (e.g. behind a shared mutex) and
/// [`fault::clear`] when done.
#[cfg(feature = "fault-injection")]
pub mod fault {
    use super::{BudgetMeter, Completeness};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Which degraded outcome to force.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultKind {
        /// Force [`Completeness::BudgetExhausted`] (node cap set to zero).
        Exhaust,
        /// Force [`Completeness::DeadlineExceeded`] (already-expired
        /// deadline, polled on the first expansion).
        Deadline,
        /// Panic inside the K-th kernel invocation — the executor-layer
        /// fault. Without supervised execution the fan-out aborts (the
        /// fail-fast default); under `--keep-going` the item is isolated
        /// and tagged [`Completeness::Degraded`].
        Panic,
    }

    impl FaultKind {
        /// The completeness tag this fault produces.
        pub fn completeness(self) -> Completeness {
            match self {
                FaultKind::Exhaust => Completeness::BudgetExhausted,
                FaultKind::Deadline => Completeness::DeadlineExceeded,
                FaultKind::Panic => Completeness::Degraded,
            }
        }
    }

    /// A deterministic fault: trip the `at`-th kernel invocation
    /// (1-based) — and, when `sticky`, every later one too.
    #[derive(Clone, Copy, Debug)]
    pub struct FaultPlan {
        /// Outcome to force.
        pub kind: FaultKind,
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
        if !hit {
            return;
        }
        match plan.kind {
            FaultKind::Exhaust => meter.node_cap = 0,
            FaultKind::Deadline => {
                // Test-only fault injection wants "already expired", not a
                // measured duration; the monotonic source is irrelevant.
                meter.deadline = Some(catapult_obs::now()); // xtask-allow: taint -- test-only fault rig wants an already-expired deadline; the value is never observed
            }
            // The whole point of this fault is an uncontrolled worker
            // death; test-only (feature-gated) by construction.
            #[allow(clippy::panic)]
            FaultKind::Panic => {
                // xtask-allow: panic-reachability
                panic!("injected worker panic (fault-injection plan, kernel invocation {n})")
            }
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
    fn expired_deadline_trips_on_first_tick() {
        let b = SearchBudget::unbounded().with_deadline(Deadline::at(catapult_obs::now()));
        let mut m = BudgetMeter::new(&b, Kernel::Iso);
        assert!(m.tick());
        assert_eq!(m.status(), Completeness::DeadlineExceeded);
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let b =
            SearchBudget::unbounded().with_deadline(Deadline::from_now(Duration::from_secs(3600)));
        let mut m = BudgetMeter::new(&b, Kernel::Iso);
        for _ in 0..5000 {
            assert!(!m.tick());
        }
    }

    #[test]
    fn deadline_is_polled_on_the_first_tick_and_every_1024th() {
        let b =
            SearchBudget::unbounded().with_deadline(Deadline::from_now(Duration::from_secs(3600)));
        let mut m = BudgetMeter::new(&b, Kernel::Iso);
        assert!(!m.tick());
        assert_eq!(m.checks(), 1);
        for _ in 1..1023 {
            assert!(!m.tick());
        }
        assert_eq!(m.checks(), 1);
        assert!(!m.tick()); // expansion 1,024
        assert_eq!(m.checks(), 2);
        for _ in 0..1024 {
            assert!(!m.tick());
        }
        assert_eq!(m.checks(), 3);
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
    fn overlay_prefers_override_and_earliest_deadline() {
        let early = Deadline::from_now(Duration::from_secs(1));
        let late = Deadline::from_now(Duration::from_secs(100));
        let over = SearchBudget::nodes(5).with_deadline(late);
        let base = SearchBudget::nodes(50).with_deadline(early);
        let merged = over.overlay(&base);
        assert_eq!(merged.node_cap, 5);
        assert_eq!(merged.deadline, Some(early));
        let defer = SearchBudget::unbounded().overlay(&base);
        assert_eq!(defer.node_cap, 50);
    }

    #[test]
    fn completeness_ordering_and_worst() {
        assert!(Completeness::Exact < Completeness::BudgetExhausted);
        assert!(Completeness::BudgetExhausted < Completeness::DeadlineExceeded);
        assert!(Completeness::DeadlineExceeded < Completeness::Degraded);
        assert_eq!(
            Completeness::Exact.worst(Completeness::BudgetExhausted),
            Completeness::BudgetExhausted
        );
        assert!(Completeness::Exact.is_exact());
        assert!(!Completeness::Degraded.is_exact());
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
        d.record(Completeness::DeadlineExceeded);
        let m = c.merge(d);
        assert_eq!(m.total(), 4);
        assert_eq!(m.worst(), Completeness::DeadlineExceeded);
    }

    #[test]
    fn budget_plumbing_is_thread_safe() {
        // The parallel executor shares these by reference across scoped
        // worker threads; a regression away from Send + Sync (say, an
        // Rc-based probe) must fail to compile — asserted here so the
        // error points at the contract, not at a distant call site.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SearchBudget>();
        assert_send_sync::<Deadline>();
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
            Completeness::Degraded,
            Completeness::DeadlineExceeded,
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
        // The first tick of each meter polls signals once.
        assert_eq!(rec.counter("scoring.mcs.budget_checks").get(), 2);
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

    #[test]
    fn interrupted_reports_an_expired_deadline() {
        assert_eq!(SearchBudget::nodes(1).interrupted(), None);
        let later =
            SearchBudget::unbounded().with_deadline(Deadline::from_now(Duration::from_secs(3600)));
        assert_eq!(later.interrupted(), None);
        let expired = SearchBudget::unbounded().with_deadline(Deadline::at(catapult_obs::now()));
        assert_eq!(expired.interrupted(), Some(Completeness::DeadlineExceeded));
    }
}
