//! The workspace's parallel fan-out: two ordered functions over a
//! borrowed slice, [`par_map`] and [`par_filter_map`], plus the pool-size
//! controls. Built on `std::thread::scope`; there is no persistent pool.
//!
//! * **Pool size** — resolved from the [`set_threads`] override if one is
//!   installed, else `CATAPULT_THREADS` (parsed once, strictly), else
//!   `available_parallelism()`. `1` is the plain sequential path.
//! * **Sequential streaming** — with one worker (or at most one item) a
//!   call is a plain `std` iterator chain over the slice on the calling
//!   thread: no chunk bookkeeping, no allocation beyond the output.
//! * **Contiguous split** — otherwise the slice is split into
//!   `min(workers, len)` contiguous chunks whose sizes differ by at most
//!   one, one scoped thread each. Worker `w` runs tagged with
//!   `catapult_obs::worker::enter(w + 1)`, so spans recorded inside the
//!   closure attribute to that pool slot in run manifests.
//! * **Ordering** — chunk results are concatenated in chunk order, which
//!   is input order: the output is identical for every thread count.
//! * **Panic propagation** — a panicking closure poisons nothing: its
//!   payload is re-raised on the calling thread once the scope has joined
//!   every worker, so every fan-out is fail-fast.
//!
//! The contract this imposes on call sites: items are shared by
//! reference across workers (`T: Sync`), outputs cross threads
//! (`U: Send`), closures are `Sync`, and any shared mutable state they
//! touch must be synchronized *and* commutative (atomics such as
//! `Tally`), because side effects happen in any order.
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
/// `cond.then_some(())`, then `.len()`) counts without allocating.
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
    let base = items.len() / workers;
    let rem = items.len() % workers;
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = items;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (chunk, tail) = rest.split_at(base + usize::from(w < rem));
                rest = tail;
                scope.spawn(move || {
                    // Worker slot w+1: slot 0 means "the calling thread".
                    let _worker = catapult_obs::worker::enter(w as u32 + 1);
                    chunk.iter().filter_map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                // A worker closure panicked: re-raise its payload on the
                // caller. `scope` joins the remaining workers first, so
                // nothing leaks; the panic hook already ran on the worker.
                // The executor owns unwinding, so this is the sanctioned
                // re-raise.
                #[allow(clippy::disallowed_methods)]
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
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
