//! The workspace's parallel fan-out: two ordered functions over a
//! borrowed slice, [`par_map`] and [`par_filter_map`], plus the pool-size
//! controls. Built on `std::thread::scope`; there is no persistent pool.
//!
//! * **Pool size** — resolved from the [`set_threads`] override if one is
//!   installed, else `CATAPULT_THREADS` (parsed once, strictly, at most
//!   [`MAX_THREADS`]), else `available_parallelism()`. `1` is the plain
//!   sequential path. There is no persistent pool: a `cluster` operation
//!   runs about 700 fan-outs, and spawning their workers costs about 1%
//!   of its run time.
//! * **Sequential streaming** — with one worker (or at most one item) a
//!   call is a plain `std` iterator chain over the slice on the calling
//!   thread: no index bookkeeping, no allocation beyond the output.
//! * **Work pulling** — otherwise `min(workers, len)` scoped threads
//!   share one `AtomicUsize` cursor: each claims the next unclaimed index,
//!   runs the closure on it, and keeps `(index, output)` in its own `Vec`.
//!   Item costs are skewed (one capped kernel search can cost as much as
//!   a hundred exact ones), so pulling keeps every worker busy where a
//!   contiguous split would leave one idle behind an expensive chunk.
//!   Worker `w` runs tagged with `catapult_obs::worker::enter(w + 1)`, so
//!   spans recorded inside the closure attribute to that pool slot in run
//!   manifests.
//! * **Ordering** — after the join the caller sorts the pairs by index
//!   (each index was claimed exactly once), which is input order: the
//!   output is identical for every thread count and every interleaving.
//! * **Panic propagation** — a panicking closure poisons nothing: its
//!   payload is re-raised on the calling thread once the scope has joined
//!   every worker, so every fan-out is fail-fast.
//!
//! The contract this imposes on call sites: items are shared by
//! reference across workers (`T: Sync`), outputs cross threads
//! (`U: Send`), and closures are `Sync`. Side effects happen in any
//! order, so a closure returns what it computed (kernel tallies
//! included) for the caller to fold in input order, and mutates no
//! shared state beyond commutative observability counters.
// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
// The executor owns the pool size (an override slot and the parsed
// `CATAPULT_THREADS`) and its workers' claim counters: the shared state
// the root clippy.toml keeps out of every other crate.
#![allow(clippy::disallowed_types)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The largest worker count a user may ask for. Every fan-out spawns
/// `min(threads, items)` OS threads at once, so an unchecked value such as
/// `100000` would ask the OS for tens of thousands of threads per call.
pub const MAX_THREADS: usize = 1024;

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
/// and must not quietly get a sequential (or all-core) run instead. A
/// count above [`MAX_THREADS`] is refused the same way.
fn parse_thread_env(raw: Result<String, std::env::VarError>) -> Result<usize, String> {
    match raw {
        Err(std::env::VarError::NotPresent) => Ok(0),
        Err(std::env::VarError::NotUnicode(_)) => Err(
            "invalid CATAPULT_THREADS value: not valid UTF-8 (expected an integer, 0 = auto)"
                .to_string(),
        ),
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n <= MAX_THREADS => Ok(n),
            Ok(n) => Err(format!(
                "invalid CATAPULT_THREADS value {v:?}: {n} exceeds the ceiling of {MAX_THREADS} \
                 (expected an integer, 0 = auto)"
            )),
            Err(e) => Err(format!(
                "invalid CATAPULT_THREADS value {v:?}: {e} (expected an integer, 0 = auto)"
            )),
        },
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
/// sequential path, `n > 1` uses `n` workers.
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
            // unintended pool size. Both binaries (`catapult` and
            // `experiments`) refuse it at startup through
            // [`check_thread_env`], so only a library caller that skips
            // that check can reach this panic.
            #[allow(clippy::panic)]
            // xtask-allow: panic-reachability -- both binaries validate CATAPULT_THREADS up front
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

/// `f` applied to every item of `items`, **in input order**.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_filter_map(items, |x| Some(f(x)))
}

/// The `Some` outputs of `f` over `items`, **in input order**.
///
/// The one executor behind both fan-outs. A zero-sized output (such as
/// `cond.then_some(())`, then `.len()`) counts without allocating on the
/// one-worker path.
pub fn par_filter_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Option<U> + Sync,
{
    let workers = current_threads().min(items.len());
    if workers <= 1 {
        return items.iter().filter_map(f).collect();
    }
    // Work pulling: each worker claims the next unclaimed index, so a run
    // of expensive items never strands the other workers idle. Each keeps
    // its outputs tagged with their index.
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    let mut tagged: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    // Worker slot w+1: slot 0 means "the calling thread".
                    let _worker = catapult_obs::worker::enter(w as u32 + 1);
                    let mut run = Vec::new();
                    loop {
                        // Relaxed: the cursor publishes no data, only
                        // which index is whose; outputs return by `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return run;
                        };
                        run.extend(f(item).map(|u| (i, u)));
                    }
                })
            })
            .collect();
        let mut tagged = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(run) => tagged.extend(run),
                // A worker closure panicked: re-raise its payload on the
                // caller. `scope` joins the remaining workers first, so
                // nothing leaks; the panic hook already ran on the worker.
                // The executor owns unwinding, so this is the sanctioned
                // re-raise.
                #[allow(clippy::disallowed_methods)]
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        tagged
    });
    // Every index was claimed exactly once, so sorting by it restores
    // input order whatever the interleaving was.
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::{par_filter_map, par_map};
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
    fn output_order_is_input_order_for_every_thread_count() {
        let input: Vec<u64> = (0..1000).collect();
        let squares: Vec<u64> = input.iter().map(|x| x * x).collect();
        let evens: Vec<u64> = (0..1000).step_by(2).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = with_threads(threads, || par_map(&input, |&x| x * x));
            assert_eq!(got, squares, "threads={threads}");
            let got = with_threads(threads, || {
                par_filter_map(&input, |&x| (x % 2 == 0).then_some(x))
            });
            assert_eq!(got, evens, "threads={threads}");
            let n = with_threads(threads, || {
                par_filter_map(&input, |&x| (x < 10).then_some(())).len()
            });
            assert_eq!(n, 10, "threads={threads}");
        }
    }

    // Pins fail-fast: a panic in any item reaches the caller, at every
    // pool size. Catching it here is the only way to observe that.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn worker_panic_propagates_to_caller() {
        let input: Vec<u32> = (0..64).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    par_map(&input, |&x| {
                        assert!(x != 17, "boom at 17");
                        x
                    })
                })
            });
            assert!(
                caught.is_err(),
                "threads={threads}: worker panic must reach the caller"
            );
            // The executor is not poisoned: the next fan-out still works.
            let ok = with_threads(threads, || par_map(&input[..8], |&x| x));
            assert_eq!(ok, (0..8).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn thread_env_parsing_is_strict() {
        use std::env::VarError;
        assert_eq!(super::parse_thread_env(Err(VarError::NotPresent)), Ok(0));
        assert_eq!(super::parse_thread_env(Ok("8".into())), Ok(8));
        assert_eq!(super::parse_thread_env(Ok(" 2 ".into())), Ok(2));
        assert_eq!(super::parse_thread_env(Ok("1024".into())), Ok(1024));
        for bad in [
            "eight",
            "",
            "-1",
            "1.5",
            "1025",
            "100000",
            "99999999999999999999999999",
        ] {
            let err = super::parse_thread_env(Ok(bad.into()))
                .expect_err("must reject invalid thread counts");
            assert!(
                err.contains("invalid CATAPULT_THREADS"),
                "diagnostic must name the variable: {err}"
            );
        }
    }

    // Pins pulling: item 0 blocks its worker until every other item has
    // run. Under pulling the other workers drain the rest of the slice;
    // under a contiguous split item 0 would wait on items queued behind it
    // in its own chunk, so the deadline (not a hang) fails the test.
    #[test]
    #[allow(clippy::disallowed_methods)] // the test's own wall-clock deadline
    fn a_blocked_item_does_not_hold_back_the_rest() {
        let input: Vec<usize> = (0..64).collect();
        for threads in [2, 8] {
            let done = AtomicUsize::new(0);
            let out = with_threads(threads, || {
                par_map(&input, |&x| {
                    if x != 0 {
                        done.fetch_add(1, Ordering::SeqCst);
                        return x;
                    }
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                    while done.load(Ordering::SeqCst) < input.len() - 1
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    done.load(Ordering::SeqCst)
                })
            });
            assert_eq!(
                out[0],
                input.len() - 1,
                "threads={threads}: item 0 must see every other item run"
            );
            assert_eq!(out[1..], input[1..], "threads={threads}: input order");
        }
    }

    #[test]
    fn side_effects_run_exactly_once_per_item() {
        let input: Vec<u32> = (0..500).collect();
        let hits = AtomicUsize::new(0);
        let out = with_threads(8, || {
            par_map(&input, |&x| {
                hits.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        assert_eq!(out, input);
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty = with_threads(8, || par_map(&[] as &[u32], |&x| x));
        assert!(empty.is_empty());
        let one = with_threads(8, || par_filter_map(&[7u32], |&x| Some(x)));
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
