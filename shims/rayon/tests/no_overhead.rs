//! Regression test for the sequential fast path: with `threads <= 1`,
//! a fan-out is a plain `std` iterator chain over its slice — no chunk
//! bookkeeping, no copied source — so a one-worker call costs exactly
//! what the equivalent `std` chain does. A byte-counting global
//! allocator makes any overhead visible: an executor that copied its
//! source (and, for a count, the whole output) per call is what the
//! recorded `speedup: 0.744` mining regression on a 1-core host came
//! from.
//!
//! The byte count is per thread: the one-worker fast path runs on the
//! calling thread, and a process-global count would also charge a
//! window with whatever the test harness allocates on its other threads
//! meanwhile (spawning the next test, for one).
//!
//! `unsafe` is required by the `GlobalAlloc` contract (the impl only
//! delegates to `System`).

#![allow(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// The per-thread allocation counter is the instrument itself, and the
// pool-size override these tests flip is process-global.
#![allow(clippy::disallowed_types, clippy::disallowed_macros)]

use rayon::{par_filter_map, par_map};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    // Const-initialised and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Charge `size` requested bytes to the calling thread.
fn count_bytes(size: usize) {
    // `try_with` rather than `with`: an allocator must never panic.
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_bytes(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` and return how many bytes of allocations it requested on
/// this thread.
fn bytes_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// `set_threads` is process-global; tests that flip it serialize here.
static SERIAL: Mutex<()> = Mutex::new(());

fn with_one_thread<R>(f: impl FnOnce() -> R) -> R {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    rayon::set_threads(1);
    let r = f();
    rayon::set_threads(0);
    r
}

const N: u64 = 100_000;

#[test]
fn zero_sized_count_allocates_nothing_at_one_thread() {
    with_one_thread(|| {
        let data: Vec<u64> = (0..N).collect();
        let bytes = bytes_in(|| {
            let n = par_filter_map(&data, |&x| (x % 2 == 0).then_some(())).len();
            std::hint::black_box(n);
        });
        assert_eq!(
            bytes, 0,
            "sequential count must not allocate (got {bytes} bytes)"
        );
    });
}

#[test]
fn sequential_map_costs_no_more_than_the_std_chain() {
    with_one_thread(|| {
        let data: Vec<u64> = (0..N).collect();
        // The shape the fast path streams through: filter_map + collect.
        // The chain is deliberately this shape (not a plain `map`) so std
        // cannot use its TrustedLen exact-size collect, and its output is
        // twice a pointer wide so std cannot collect it in place into a
        // copied `Vec<&u64>` source: a copied source then costs at least
        // `N * size_of::<&u64>()` more, and any other difference in the
        // growth pattern shows as inequality.
        #[allow(clippy::unnecessary_filter_map)]
        let std_bytes = bytes_in(|| {
            let v: Vec<[u64; 2]> = data.iter().filter_map(|&x| Some([x, x * 2])).collect();
            std::hint::black_box(&v);
        });
        let par_bytes = bytes_in(|| {
            let v: Vec<[u64; 2]> = par_map(&data, |&x| [x, x * 2]);
            std::hint::black_box(&v);
        });
        assert_eq!(
            par_bytes, std_bytes,
            "one-thread map must cost exactly the std chain: par {par_bytes} vs std {std_bytes}"
        );
    });
}

#[test]
fn sequential_results_match_parallel_results() {
    let data: Vec<u64> = (0..1000).collect();
    let expect: Vec<u64> = data.iter().map(|&x| x * 3 + 1).collect();
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 8] {
        rayon::set_threads(threads);
        let got: Vec<u64> = par_map(&data, |&x| x * 3 + 1);
        assert_eq!(got, expect, "threads={threads}");
        let odd = par_filter_map(&data, |&x| (x % 2 == 1).then_some(())).len();
        assert_eq!(odd, 500, "threads={threads}");
    }
    rayon::set_threads(0);
}
