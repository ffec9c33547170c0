//! Proof that a disabled [`Recorder`] is allocation-free on the hot
//! path: a counting global allocator wraps `System`, and each no-op
//! entry point must leave the allocation counter untouched.
//!
//! The counter is per thread: the test harness runs tests on parallel
//! threads, and a process-global count would charge each test's window
//! with the other tests' allocations.
//!
//! `unsafe` is required by the `GlobalAlloc` contract (the impl only
//! delegates to `System`); the crate-local lint policy uses `deny`
//! instead of the workspace's `forbid` exactly so this one reviewed
//! allow can exist — see crates/obs/Cargo.toml.

#![allow(unsafe_code)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// The per-thread allocation counter is the instrument itself.
#![allow(clippy::disallowed_types, clippy::disallowed_macros)]

use catapult_obs::{Kernel, KernelMeasurement, Recorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Charge one allocation to the calling thread.
fn count_allocation() {
    // `try_with` rather than `with`: an allocator must never panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` and return how many allocations it performed on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_recorder_hot_path_never_allocates() {
    let recorder = Recorder::disabled();
    let counter = recorder.counter("stage.kernel.metric");
    let histogram = recorder.histogram("stage.kernel.metric");
    let probe = recorder.stage_probe("stage");

    let count = allocations_in(|| {
        for i in 0..1000u64 {
            // Span open/close: the pair every pipeline stage pays.
            let span = recorder.span("hot");
            drop(span);
            // Counter and histogram handles resolved ahead of time, as
            // the kernels do.
            counter.add(i);
            histogram.record(i);
            // Handle resolution itself must also be free when disabled.
            recorder.counter("other.kernel.metric").incr();
            recorder.histogram("other.kernel.metric").record(i);
            // One full kernel-invocation flush.
            probe.flush(
                Kernel::Iso,
                KernelMeasurement {
                    probes: i,
                    improved: 0,
                    exact: true,
                },
            );
            probe.add("kernel", "metric", i);
            // Rare events (checkpoint I/O, progress ticks) are free too.
            recorder.event("flight.ckpt.write", "stage", i);
        }
    });
    assert_eq!(count, 0, "disabled recorder allocated {count} times");
}

#[test]
fn enabled_recorder_span_reuse_does_not_grow_per_iteration() {
    // Not zero-alloc (each span appends a record), but the per-span cost
    // must be bounded: pre-warmed counters and probes add nothing.
    let recorder = Recorder::enabled();
    let counter = recorder.counter("stage.kernel.metric");
    let probe = recorder.stage_probe("stage");
    // Warm up the span store so Vec growth amortizes out of the window.
    for _ in 0..4096 {
        drop(recorder.span("warm"));
    }
    let count = allocations_in(|| {
        for i in 0..1000u64 {
            counter.add(i);
            probe.flush(Kernel::Mcs, KernelMeasurement::default());
        }
    });
    assert_eq!(
        count, 0,
        "pre-resolved counter/probe paths allocated {count} times"
    );
}
