//! Thread-local worker identity for span attribution.
//!
//! The rayon shim (`shims/rayon`) runs parallel closures on short-lived
//! `std::thread::scope` workers. Each worker calls [`enter`] with its
//! 1-based slot index before it starts claiming items; spans opened on that
//! thread then carry the worker id in [`SpanRecord::worker`]. Id `0`
//! means "the caller thread" (no pool involved).
//!
//! The id is plain thread-local state — no recorder handle is needed, so
//! the shim can attribute work without depending on which (if any)
//! recorder is active.
//!
//! [`SpanRecord::worker`]: crate::recorder::SpanRecord

use std::cell::Cell;

thread_local! {
    static WORKER: Cell<u32> = const { Cell::new(0) };
}

/// The current thread's worker id (0 = not a pool worker).
#[inline]
#[must_use]
pub fn current() -> u32 {
    WORKER.with(Cell::get)
}

/// Mark the current thread as pool worker `id` until the guard drops.
///
/// Nested scopes restore the previous id, so a worker that itself runs a
/// nested parallel region re-surfaces its own id afterwards.
#[must_use]
pub fn enter(id: u32) -> WorkerGuard {
    let prev = WORKER.with(|w| w.replace(id));
    WorkerGuard { prev }
}

/// RAII guard from [`enter`]; restores the previous worker id on drop.
#[derive(Debug)]
pub struct WorkerGuard {
    prev: u32,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        WORKER.with(|w| w.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_sets_and_restores() {
        assert_eq!(current(), 0);
        {
            let _g = enter(3);
            assert_eq!(current(), 3);
            {
                let _h = enter(7);
                assert_eq!(current(), 7);
            }
            assert_eq!(current(), 3);
        }
        assert_eq!(current(), 0);
    }
}
