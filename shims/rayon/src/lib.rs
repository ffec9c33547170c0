//! Offline parallel stand-in for the subset of `rayon` this workspace
//! calls, built on `std::thread::scope`: `par_iter` / `into_par_iter`,
//! the `map`, `filter`, `copied` and `enumerate` stages, and the
//! `collect` and `count` consumers, plus the pool-size controls. Nothing
//! else is provided; a new call site adds what it needs.
//!
//! The build container cannot fetch crates, so the real `rayon` is
//! unavailable. Earlier this shim degraded every `par_iter()` to the
//! sequential `std` iterator; it is now a real work-chunking executor:
//!
//! * **Pool size** — lazily resolved once from `CATAPULT_THREADS`
//!   (default: `std::thread::available_parallelism()`), overridable at
//!   runtime with [`set_threads`] (`0` = auto, `1` = exact legacy
//!   sequential behavior). There is no persistent pool; each fan-out
//!   spawns scoped threads that are always joined before the call
//!   returns, so no thread ever outlives its borrowed data (and none can
//!   leak).
//! * **Lazy sequential fast path** — sources are held unmaterialized;
//!   with one worker every consumer streams the source through a plain
//!   `std` iterator chain, so `threads <= 1` pays zero per-item overhead
//!   (no source `Vec`, no chunk bookkeeping). Only a genuinely parallel
//!   run collects the source for chunking.
//! * **Contiguous index chunking** — a parallel run's materialized input
//!   is split into at most `pool_size` contiguous chunks, one scoped
//!   thread per chunk.
//! * **Order-preserving collection** — every consumer reassembles chunk
//!   results in input-index order, so `map → collect` (and `filter`,
//!   `count`) return byte-identical results regardless of
//!   thread interleaving. Side effects (e.g. `Tally::record`) may occur
//!   in any order, which is why shared accumulators must be commutative.
//! * **Panic propagation** — a panicking worker closure does not poison
//!   anything: the panic payload is re-raised on the calling thread
//!   after the remaining scoped threads are joined, so every consumer
//!   is fail-fast.
//!
//! The thread-safety contract this imposes on call sites: item types
//! must be `Send`, closures `Sync` (they are shared by reference across
//! workers), and any shared mutable state must be synchronized *and*
//! commutative (atomics such as `Tally`).
//!
//! Swapping the real `rayon` back in later remains a one-line change in
//! the root `Cargo.toml` (plus wiring `--threads` to
//! `ThreadPoolBuilder::num_threads` instead of [`set_threads`]); the
//! iterator surface below is call-compatible with `rayon::prelude`.
// Lint policy: see [workspace.lints] in the root Cargo.toml.
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Sentinel meaning "no runtime override installed".
const NO_OVERRIDE: usize = usize::MAX;

/// Runtime override installed by [`set_threads`] (`NO_OVERRIDE` = unset).
static OVERRIDE: AtomicUsize = AtomicUsize::new(NO_OVERRIDE);

/// `CATAPULT_THREADS`, parsed once on first use (`Ok(0)` = auto; `Err` =
/// the variable is set but not a valid thread count).
static ENV_THREADS: OnceLock<Result<usize, String>> = OnceLock::new();

/// Parse a raw `CATAPULT_THREADS` lookup. An unset variable means auto
/// (`0`); a set-but-invalid value is an error, never a silent fallback —
/// a user who exports `CATAPULT_THREADS=eight` asked for eight workers
/// and must not quietly get a sequential (or all-core) run instead.
fn parse_thread_env(raw: Result<String, std::env::VarError>) -> Result<usize, String> {
    match raw {
        Err(std::env::VarError::NotPresent) => Ok(0),
        Err(std::env::VarError::NotUnicode(_)) => Err(
            "invalid CATAPULT_THREADS value: not valid UTF-8 (expected an integer, 0 = auto)"
                .to_string(),
        ),
        Ok(v) => v.trim().parse::<usize>().map_err(|e| {
            format!("invalid CATAPULT_THREADS value {v:?}: {e} (expected an integer, 0 = auto)")
        }),
    }
}

fn env_threads() -> &'static Result<usize, String> {
    ENV_THREADS.get_or_init(|| parse_thread_env(std::env::var("CATAPULT_THREADS")))
}

/// Validate `CATAPULT_THREADS` without spawning anything, so binaries can
/// surface a malformed value as a normal usage error at startup instead
/// of the mid-run panic [`current_threads`] would raise.
pub fn check_thread_env() -> Result<usize, String> {
    env_threads().clone()
}

/// Override the worker count for every subsequent parallel call in this
/// process: `0` restores auto (`available_parallelism`), `1` forces the
/// exact legacy sequential path, `n > 1` uses `n` workers.
///
/// Takes precedence over `CATAPULT_THREADS`. Process-global: callers
/// that flip it around a region (tests, benchmarks) must serialize with
/// other parallel work.
pub fn set_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// The number of worker threads a parallel call issued right now would
/// use (always ≥ 1): the [`set_threads`] override if installed, else
/// `CATAPULT_THREADS`, else `available_parallelism()`.
pub fn current_threads() -> usize {
    let configured = match OVERRIDE.load(Ordering::Relaxed) {
        NO_OVERRIDE => match env_threads() {
            Ok(n) => *n,
            // A malformed override must never be swallowed into an
            // unintended pool size; binaries that want a graceful exit
            // validate up front with [`check_thread_env`].
            #[allow(clippy::panic)]
            Err(msg) => panic!("{msg}"),
        },
        n => n,
    };
    if configured == 0 {
        auto_threads()
    } else {
        configured
    }
}

/// `available_parallelism()`, resolved once per process. The raw call is
/// a syscall (`sched_getaffinity` on Linux); paying it on every fan-out
/// made auto mode measurably slower than a pinned pool on workloads with
/// thousands of small parallel calls (the mining support-count loop).
/// Real rayon also sizes its global pool exactly once.
fn auto_threads() -> usize {
    static AUTO: AtomicUsize = AtomicUsize::new(0);
    match AUTO.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            AUTO.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Run the composed pipeline `f` over a *lazy* source and return the
/// surviving outputs **in input order**.
///
/// With one worker this streams the source through a plain sequential
/// loop — no materialization, no chunk bookkeeping, no allocation beyond
/// the output itself. Only a genuinely parallel run pays to collect the
/// source into a `Vec` for chunking.
fn run_lazy<I, U, F>(source: I, f: F) -> Vec<U>
where
    I: IntoIterator,
    I::Item: Send,
    U: Send,
    F: Fn(usize, I::Item) -> Option<U> + Sync,
{
    if current_threads() <= 1 {
        return source
            .into_iter()
            .enumerate()
            .filter_map(|(i, x)| f(i, x))
            .collect();
    }
    run_ordered(source.into_iter().collect(), f)
}

/// Run the composed pipeline `f` over `items` and return the surviving
/// outputs **in input order**.
///
/// `f` receives `(source_index, item)` and returns `None` for items a
/// `filter` stage dropped. With one worker (or ≤ 1 item) this is a plain
/// sequential loop — the exact legacy shim behavior. Otherwise the items
/// are split into contiguous chunks, one scoped thread each; chunk
/// results are concatenated in chunk order, which equals input order.
fn run_ordered<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> Option<U> + Sync,
{
    let workers = current_threads().min(items.len());
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .filter_map(|(i, x)| f(i, x))
            .collect();
    }
    let len = items.len();
    let base = len / workers;
    let rem = len % workers;
    let mut source = items.into_iter();
    let mut chunks: Vec<(usize, Vec<T>)> = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < rem);
        chunks.push((start, source.by_ref().take(size).collect()));
        start += size;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(w, (offset, chunk))| {
                scope.spawn(move || {
                    // Worker slot w+1: slot 0 means "the calling thread",
                    // so spans recorded inside the closure attribute to
                    // the right pool worker in run manifests.
                    let _worker = catapult_obs::worker::enter(w as u32 + 1);
                    chunk
                        .into_iter()
                        .enumerate()
                        .filter_map(|(j, x)| f(offset + j, x))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                // A worker closure panicked: re-raise its payload on the
                // caller. `scope` has already joined (or will join) the
                // remaining workers, so nothing leaks. The worker's own
                // panic already ran the panic hook on the worker thread.
                // The executor owns unwinding, so this is the sanctioned
                // re-raise: every fan-out is fail-fast.
                #[allow(clippy::disallowed_methods)]
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Drop-in traits and iterator types mirroring `rayon::prelude`.
pub mod prelude {
    use super::run_lazy;
    use std::fmt;

    /// One composed per-item stage pipeline: maps a source item (plus its
    /// source index) to `Some(output)` or `None` (dropped by a filter).
    ///
    /// Implementations are shared by reference across worker threads,
    /// hence the `Sync` supertrait; captured state must be `Sync` too.
    pub trait ParPipe<T>: Sync {
        /// Final output type of the pipeline.
        type Out: Send;
        /// Apply every stage to one item. `index` is the item's position
        /// in the *source* (stable across thread counts).
        fn apply(&self, index: usize, item: T) -> Option<Self::Out>;
    }

    /// The empty pipeline: passes source items through unchanged.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Identity;

    impl<T: Send> ParPipe<T> for Identity {
        type Out = T;
        fn apply(&self, _index: usize, item: T) -> Option<T> {
            Some(item)
        }
    }

    /// `map` stage.
    pub struct MapPipe<P, G> {
        inner: P,
        g: G,
    }

    impl<P: fmt::Debug, G> fmt::Debug for MapPipe<P, G> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("MapPipe")
                .field("inner", &self.inner)
                .finish_non_exhaustive()
        }
    }

    impl<T, P, U, G> ParPipe<T> for MapPipe<P, G>
    where
        P: ParPipe<T>,
        U: Send,
        G: Fn(P::Out) -> U + Sync,
    {
        type Out = U;
        fn apply(&self, index: usize, item: T) -> Option<U> {
            self.inner.apply(index, item).map(&self.g)
        }
    }

    /// `filter` stage.
    pub struct FilterPipe<P, G> {
        inner: P,
        pred: G,
    }

    impl<P: fmt::Debug, G> fmt::Debug for FilterPipe<P, G> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("FilterPipe")
                .field("inner", &self.inner)
                .finish_non_exhaustive()
        }
    }

    impl<T, P, G> ParPipe<T> for FilterPipe<P, G>
    where
        P: ParPipe<T>,
        G: Fn(&P::Out) -> bool + Sync,
    {
        type Out = P::Out;
        fn apply(&self, index: usize, item: T) -> Option<P::Out> {
            self.inner.apply(index, item).filter(|x| (self.pred)(x))
        }
    }

    /// `copied` stage (items are references to `Copy` values).
    #[derive(Clone, Copy, Debug)]
    pub struct CopiedPipe<P> {
        inner: P,
    }

    impl<'a, T, P, U> ParPipe<T> for CopiedPipe<P>
    where
        P: ParPipe<T, Out = &'a U>,
        U: Copy + Send + Sync + 'a,
    {
        type Out = U;
        fn apply(&self, index: usize, item: T) -> Option<U> {
            self.inner.apply(index, item).copied()
        }
    }

    /// `enumerate` stage: pairs each output with its **source** index.
    ///
    /// Matches real rayon for indexed pipelines (`par_iter().enumerate()`,
    /// possibly after `map`); like rayon — which simply does not offer
    /// `enumerate` after `filter` — do not enumerate filtered pipelines.
    #[derive(Clone, Copy, Debug)]
    pub struct EnumeratePipe<P> {
        inner: P,
    }

    impl<T, P> ParPipe<T> for EnumeratePipe<P>
    where
        P: ParPipe<T>,
    {
        type Out = (usize, P::Out);
        fn apply(&self, index: usize, item: T) -> Option<(usize, P::Out)> {
            self.inner.apply(index, item).map(|x| (index, x))
        }
    }

    /// A parallel iterator: a **lazy** source plus a composed per-item
    /// stage pipeline. Consumers ([`ParIter::collect`],
    /// [`ParIter::count`]) stream the source through a plain sequential loop when one worker
    /// is configured, and only materialize it for chunked fan-out when a
    /// run is genuinely parallel — so `threads <= 1` pays zero per-item
    /// overhead over the equivalent `std` iterator chain. Parallel runs
    /// reassemble results in input order.
    pub struct ParIter<I, P> {
        source: I,
        pipe: P,
    }

    impl<I, P: fmt::Debug> fmt::Debug for ParIter<I, P> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("ParIter")
                .field("pipe", &self.pipe)
                .finish_non_exhaustive()
        }
    }

    impl<I> ParIter<I, Identity>
    where
        I: IntoIterator,
        I::Item: Send,
    {
        /// Wrap a source collection (or any lazy iterable).
        pub fn new(source: I) -> Self {
            ParIter {
                source,
                pipe: Identity,
            }
        }
    }

    impl<I, P> ParIter<I, P>
    where
        I: IntoIterator,
        I::Item: Send,
        P: ParPipe<I::Item>,
    {
        /// Transform each item.
        pub fn map<U, G>(self, g: G) -> ParIter<I, MapPipe<P, G>>
        where
            U: Send,
            G: Fn(P::Out) -> U + Sync,
        {
            let ParIter { source, pipe } = self;
            ParIter {
                source,
                pipe: MapPipe { inner: pipe, g },
            }
        }

        /// Keep only items satisfying `pred`.
        pub fn filter<G>(self, pred: G) -> ParIter<I, FilterPipe<P, G>>
        where
            G: Fn(&P::Out) -> bool + Sync,
        {
            let ParIter { source, pipe } = self;
            ParIter {
                source,
                pipe: FilterPipe { inner: pipe, pred },
            }
        }

        /// Copy referenced items out (`Iterator::copied`).
        pub fn copied<'a, U>(self) -> ParIter<I, CopiedPipe<P>>
        where
            P: ParPipe<I::Item, Out = &'a U>,
            U: Copy + Send + Sync + 'a,
        {
            let ParIter { source, pipe } = self;
            ParIter {
                source,
                pipe: CopiedPipe { inner: pipe },
            }
        }

        /// Pair each item with its source index (see [`EnumeratePipe`]).
        pub fn enumerate(self) -> ParIter<I, EnumeratePipe<P>> {
            let ParIter { source, pipe } = self;
            ParIter {
                source,
                pipe: EnumeratePipe { inner: pipe },
            }
        }

        /// Stream the pipeline on the calling thread (the `threads <= 1`
        /// fast path shared by every consumer below).
        fn stream(self) -> impl Iterator<Item = P::Out> {
            let ParIter { source, pipe } = self;
            source
                .into_iter()
                .enumerate()
                .filter_map(move |(i, x)| pipe.apply(i, x))
        }

        /// Collect outputs in input order.
        pub fn collect<C: FromIterator<P::Out>>(self) -> C {
            if super::current_threads() <= 1 {
                return self.stream().collect();
            }
            let ParIter { source, pipe } = self;
            run_lazy(source, move |i, x| pipe.apply(i, x))
                .into_iter()
                .collect()
        }

        /// Count surviving outputs.
        pub fn count(self) -> usize {
            if super::current_threads() <= 1 {
                return self.stream().count();
            }
            let ParIter { source, pipe } = self;
            run_lazy(source, move |i, x| pipe.apply(i, x).map(|_| ())).len()
        }
    }

    /// Parallel stand-in for `rayon::iter::IntoParallelIterator`.
    ///
    /// Blanket-implemented for every `IntoIterator` with `Send` items;
    /// the source is handed to [`ParIter`] *lazily* — nothing is
    /// materialized until a consumer decides it actually fans out.
    pub trait IntoParallelIterator: IntoIterator + Sized
    where
        Self::Item: Send,
    {
        /// Consume `self` into a parallel iterator.
        fn into_par_iter(self) -> ParIter<Self, Identity> {
            ParIter::new(self)
        }
    }

    impl<I: IntoIterator + Sized> IntoParallelIterator for I where I::Item: Send {}

    /// Parallel stand-in for `rayon::iter::IntoParallelRefIterator`.
    pub trait IntoParallelRefIterator<'a> {
        /// Item type (a reference into `self`).
        type Item: Send + 'a;
        /// The lazy borrowing source handed to [`ParIter`].
        type Source: IntoIterator<Item = Self::Item>;
        /// Iterate `&self` in parallel.
        fn par_iter(&'a self) -> ParIter<Self::Source, Identity>;
    }

    impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
    where
        &'a C: IntoIterator,
        <&'a C as IntoIterator>::Item: Send,
    {
        type Item = <&'a C as IntoIterator>::Item;
        type Source = &'a C;
        fn par_iter(&'a self) -> ParIter<&'a C, Identity> {
            ParIter::new(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// `set_threads` is process-global; tests that flip it serialize here.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        super::set_threads(n);
        let r = f();
        super::set_threads(0);
        r
    }

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1u32, 2, 3, 4];
        let doubled: Vec<u32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn collection_order_is_input_order_for_every_thread_count() {
        let input: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got: Vec<u64> =
                with_threads(threads, || input.par_iter().map(|&x| x * x).collect());
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn filter_copied_enumerate_compose() {
        let v: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let evens: Vec<u32> = with_threads(threads, || {
                v.par_iter().copied().filter(|&x| x % 2 == 0).collect()
            });
            assert_eq!(evens.len(), 50);
            assert!(evens.windows(2).all(|w| w[0] < w[1]), "order preserved");
            let tagged: Vec<(usize, u32)> = with_threads(threads, || {
                v.par_iter().enumerate().map(|(i, &x)| (i, x + 1)).collect()
            });
            assert!(tagged.iter().all(|&(i, x)| x == i as u32 + 1));
        }
    }

    #[test]
    fn count_matches_iter() {
        let v: Vec<u32> = (0..97).collect();
        for threads in [1, 5] {
            let n = with_threads(threads, || v.par_iter().filter(|&&x| x < 10).count());
            assert_eq!(n, 10);
        }
    }

    // Pins fail-fast: a panic in any item reaches the caller, at every
    // pool size. Catching it here is the only way to observe that.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn worker_panic_propagates_to_caller() {
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    (0..64u32)
                        .into_par_iter()
                        .map(|x| {
                            assert!(x != 17, "boom at 17");
                            x
                        })
                        .collect::<Vec<u32>>()
                })
            });
            assert!(
                caught.is_err(),
                "threads={threads}: worker panic must reach the caller"
            );
            // The executor is not poisoned: the next fan-out still works.
            let ok: Vec<u32> = with_threads(threads, || (0..8u32).into_par_iter().collect());
            assert_eq!(ok, (0..8).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn thread_env_parsing_is_strict() {
        use std::env::VarError;
        assert_eq!(super::parse_thread_env(Err(VarError::NotPresent)), Ok(0));
        assert_eq!(super::parse_thread_env(Ok("8".into())), Ok(8));
        assert_eq!(super::parse_thread_env(Ok(" 2 ".into())), Ok(2));
        for bad in ["eight", "", "-1", "1.5", "99999999999999999999999999"] {
            let err = super::parse_thread_env(Ok(bad.into()))
                .expect_err("must reject invalid thread counts");
            assert!(
                err.contains("invalid CATAPULT_THREADS"),
                "diagnostic must name the variable: {err}"
            );
        }
    }

    #[test]
    fn side_effects_run_exactly_once_per_item() {
        let hits = AtomicUsize::new(0);
        let out: Vec<u32> = with_threads(8, || {
            (0..500u32)
                .into_par_iter()
                .map(|x| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    x
                })
                .collect()
        });
        assert_eq!(out.len(), 500);
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = with_threads(8, || Vec::<u32>::new().into_par_iter().collect());
        assert!(empty.is_empty());
        let one: Vec<u32> = with_threads(8, || vec![7u32].par_iter().copied().collect());
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn current_threads_resolution() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        super::set_threads(3);
        assert_eq!(super::current_threads(), 3);
        super::set_threads(1);
        assert_eq!(super::current_threads(), 1);
        super::set_threads(0); // auto
        assert!(super::current_threads() >= 1);
    }
}
