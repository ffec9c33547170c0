//! The flight recorder: an always-on, bounded, process-global log of
//! structured runtime events for crash forensics.
//!
//! The [`Recorder`](crate::Recorder) answers "where did the time go"
//! *after* a successful run; the flight recorder answers "what was the
//! process doing" when a run dies. It is designed for the failure path:
//!
//! * **Bounded per-worker ring buffers.** Events land in one of
//!   [`SLOTS`] fixed-capacity rings selected by the rayon-shim worker id
//!   ([`crate::worker::current`]), so a hot worker can only evict its own
//!   history and the caller thread's timeline survives a worker storm.
//!   Overflow evicts the oldest event in that slot and bumps a `dropped`
//!   count — truncation is reported, never silent.
//! * **Near-zero cost.** Disabled (the default), [`event`] is one
//!   relaxed atomic load. Enabled, a push is a clock read plus an
//!   uncontended per-slot mutex; event payloads are `Copy` (`&'static
//!   str` names, two integers) so the hot path allocates nothing after
//!   a slot's one-time ring allocation.
//! * **Schema-versioned dumps.** [`dump_json`] renders the merged,
//!   sequence-ordered log through the hand-rolled [`crate::json`]
//!   writer with its own [`FLIGHT_SCHEMA_VERSION`], and
//!   [`crate::manifest::guard_overwrite`] applies to dump paths like
//!   any other manifest.
//! * **Dump on panic.** [`arm_crash_dump`] installs a chaining panic
//!   hook that writes the flight log before unwinding begins — it fires
//!   for fail-fast worker panics, for the ckpt fault-injection crash
//!   path, and for plain bugs. The supervised executor
//!   (`collect_isolated`) additionally logs every isolated
//!   [`ItemPanic`](https://docs.rs/rayon) as a `flight.worker.panic`
//!   event even though it never unwinds past the item.
//!
//! Event names follow the same `stage.kernel.metric` convention as
//! counters (`flight.span.open`, `flight.ckpt.write`, …); `cargo xtask
//! lint` rule `metric-name` checks literal call sites.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Schema version of `flight.json` dumps. Bump on any layout change.
pub const FLIGHT_SCHEMA_VERSION: u64 = 1;

/// Number of per-worker ring buffers. Worker ids map onto slots modulo
/// this, so arbitrarily large pools still get bounded memory; slot 0 is
/// always the caller thread.
pub const SLOTS: usize = 32;

/// Events each slot retains; the oldest is evicted on overflow.
pub const SLOT_CAPACITY: usize = 1024;

/// Interned-detail table size cap (see [`interned`]).
const MAX_INTERNED: usize = 64;

/// One recorded flight event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Process-global sequence number (total order across slots).
    pub seq: u64,
    /// Monotonic ns since the flight recorder was first enabled.
    pub t_ns: u64,
    /// Rayon-shim worker id at push time (0 = caller thread).
    pub worker: u32,
    /// Event name (`flight.span.open`, `flight.ckpt.write`, …).
    pub name: &'static str,
    /// Event subject (span name, stage name, …); `""` when n/a.
    pub detail: &'static str,
    /// Event-specific magnitude (probe count, item index, seq, …).
    pub arg: u64,
}

/// One slot's bounded history.
#[derive(Debug, Default)]
struct Ring {
    /// Events in arrival order once rotated (see [`Ring::drain`]).
    buf: Vec<FlightEvent>,
    /// Next write position when the ring is full.
    head: usize,
    /// Events evicted from this slot.
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: FlightEvent) {
        if self.buf.len() < SLOT_CAPACITY {
            self.buf.push(ev);
            return;
        }
        self.buf[self.head] = ev;
        self.head = (self.head + 1) % SLOT_CAPACITY;
        self.dropped += 1;
    }

    /// Events in arrival order (oldest first), plus the dropped count.
    fn drain(&self) -> (Vec<FlightEvent>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        (out, self.dropped)
    }
}

/// Whether [`event`] records anything. Off by default so library users
/// (and the no-alloc proofs) pay exactly one atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-global event sequence; also the total order for merged dumps.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Epoch for `t_ns`, fixed at first enable.
static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// The per-worker rings, allocated lazily on first enable.
static RINGS: OnceLock<Vec<Mutex<Ring>>> = OnceLock::new();

/// Where the panic hook dumps to (None = disarmed).
static CRASH_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Interned copies of dynamic detail strings (bounded; see [`interned`]).
static INTERNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Lock a mutex, ignoring poison: rings hold plain data, and the panic
/// hook must still be able to dump after a panicking instrumented thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn rings() -> &'static Vec<Mutex<Ring>> {
    RINGS.get_or_init(|| (0..SLOTS).map(|_| Mutex::new(Ring::default())).collect())
}

/// Turn the flight recorder on or off. The CLI enables it for every
/// run; the epoch is fixed the first time it is enabled.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.set(crate::now());
        let _ = rings();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether [`event`] currently records.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one event. A no-op (one atomic load) when disabled.
#[inline]
pub fn event(name: &'static str, detail: &'static str, arg: u64) {
    if !is_enabled() {
        return;
    }
    record(name, detail, arg);
}

#[cold]
fn record(name: &'static str, detail: &'static str, arg: u64) {
    let t_ns = EPOCH.get().map_or(0, |e| {
        u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    let worker = crate::worker::current();
    let ev = FlightEvent {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        t_ns,
        worker,
        name,
        detail,
        arg,
    };
    let slot = worker as usize % SLOTS;
    lock(&rings()[slot]).push(ev);
}

/// Intern a dynamic detail string so call sites with non-`'static`
/// subjects (checkpoint stage names) can still attach them to events.
///
/// The table is bounded at [`MAX_INTERNED`] distinct strings — the
/// pipeline's stage vocabulary is a handful of names — and returns a
/// sentinel once full, so unbounded caller input can never leak
/// unbounded memory.
#[must_use]
pub fn interned(s: &str) -> &'static str {
    let mut table = lock(&INTERNED);
    if let Some(hit) = table.iter().find(|t| **t == s) {
        return hit;
    }
    if table.len() >= MAX_INTERNED {
        return "<interned-table-full>";
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

/// Everything currently retained, merged across slots in sequence
/// order, plus the total evicted-event count.
#[must_use]
pub fn snapshot() -> (Vec<FlightEvent>, u64) {
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in rings() {
        let (mut evs, d) = lock(ring).drain();
        events.append(&mut evs);
        dropped += d;
    }
    events.sort_by_key(|e| e.seq);
    (events, dropped)
}

/// Render the current flight log as a schema-versioned JSON value.
#[must_use]
pub fn dump_json() -> Value {
    let (events, dropped) = snapshot();
    let mut root = Value::object();
    root.set("schema_version", FLIGHT_SCHEMA_VERSION);
    root.set("slots", SLOTS as u64);
    root.set("slot_capacity", SLOT_CAPACITY as u64);
    root.set("dropped_events", dropped);
    let mut arr = Value::array();
    for e in &events {
        let mut ev = Value::object();
        ev.set("seq", e.seq);
        ev.set("t_ns", e.t_ns);
        ev.set("worker", e.worker);
        ev.set("name", e.name);
        if !e.detail.is_empty() {
            ev.set("detail", e.detail);
        }
        ev.set("arg", e.arg);
        arr.push(ev);
    }
    root.set("events", arr);
    root
}

/// Write the current flight log to `path` (see [`dump_json`]).
///
/// The file is schema-versioned, so
/// [`guard_overwrite`](crate::manifest::guard_overwrite) protects it
/// like any other manifest: refuse a foreign file unless `--force`.
pub fn dump_to(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, dump_json().render())
}

/// Arm the panic-time dump: any panic after this writes the flight log
/// to `path` before unwinding continues (the previous panic hook still
/// runs afterwards, so test-harness and default backtraces survive).
///
/// The hook itself is installed once per process; re-arming only
/// swaps the destination path. Passing the path of an armed dump to
/// [`disarm_crash_dump`] stops panic-time writes again.
pub fn arm_crash_dump(path: &Path) {
    *lock(&CRASH_PATH) = Some(path.to_path_buf());
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            event("flight.panic.hook", "", 0);
            if let Some(path) = lock(&CRASH_PATH).clone() {
                // Best-effort: a failing dump must not turn a panic
                // into an abort.
                let _ = dump_to(&path);
            }
            previous(info);
        }));
    });
}

/// Stop panic-time dumps (normal-exit paths disarm after their own
/// on-demand dump so a later unrelated panic cannot clobber it).
pub fn disarm_crash_dump() {
    *lock(&CRASH_PATH) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flight recorder is process-global; tests serialize on the
    /// rings via this lock and reset state around each body.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn with_flight<R>(f: impl FnOnce() -> R) -> R {
        let _guard = lock(&SERIAL);
        for ring in rings() {
            *lock(ring) = Ring::default();
        }
        set_enabled(true);
        let r = f();
        set_enabled(false);
        disarm_crash_dump();
        r
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _guard = lock(&SERIAL);
        for ring in rings() {
            *lock(ring) = Ring::default();
        }
        set_enabled(false);
        event("flight.test.ignored", "", 1);
        let (events, dropped) = snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn events_merge_in_sequence_order() {
        with_flight(|| {
            event("flight.test.a", "one", 1);
            {
                let _w = crate::worker::enter(3);
                event("flight.test.b", "two", 2);
            }
            event("flight.test.c", "", 3);
            let (events, dropped) = snapshot();
            assert_eq!(dropped, 0);
            assert_eq!(events.len(), 3);
            assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
            assert_eq!(events[1].worker, 3);
            assert_eq!(events[1].detail, "two");
        });
    }

    #[test]
    fn ring_bounds_and_reports_truncation() {
        with_flight(|| {
            for i in 0..(SLOT_CAPACITY as u64 + 10) {
                event("flight.test.flood", "", i);
            }
            let (events, dropped) = snapshot();
            assert_eq!(events.len(), SLOT_CAPACITY);
            assert_eq!(dropped, 10);
            // The oldest events were evicted, the newest retained.
            assert_eq!(events.last().map(|e| e.arg), Some(SLOT_CAPACITY as u64 + 9));
            assert_eq!(events.first().map(|e| e.arg), Some(10));
        });
    }

    #[test]
    fn dump_is_schema_versioned_and_parses() {
        with_flight(|| {
            event("flight.test.dump", "stage", 7);
            let text = dump_json().render();
            assert_eq!(crate::schema_version_of(&text), Some(FLIGHT_SCHEMA_VERSION));
            let parsed = crate::json::parse(&text).expect("dump parses");
            let events = parsed.get("events").expect("events key");
            match events {
                Value::Array(items) => assert!(!items.is_empty()),
                other => panic!("events not an array: {other:?}"),
            }
        });
    }

    #[test]
    fn interning_is_bounded() {
        let a = interned("clustering");
        let b = interned("clustering");
        assert!(std::ptr::eq(a, b), "repeat lookups reuse the entry");
        for i in 0..(MAX_INTERNED + 5) {
            let _ = interned(&format!("stage-{i}"));
        }
        assert_eq!(interned("one-too-many"), "<interned-table-full>");
    }

    #[test]
    fn panic_hook_dumps_to_armed_path() {
        with_flight(|| {
            let path = std::env::temp_dir().join("catapult-flight-hook-test.json");
            let _ = std::fs::remove_file(&path);
            arm_crash_dump(&path);
            event("flight.test.precrash", "", 1);
            #[allow(clippy::disallowed_methods)] // catches the injected crash
            let caught = std::panic::catch_unwind(|| panic!("synthetic crash"));
            assert!(caught.is_err());
            let text = std::fs::read_to_string(&path).expect("flight dump written");
            assert_eq!(crate::schema_version_of(&text), Some(FLIGHT_SCHEMA_VERSION));
            assert!(text.contains("flight.test.precrash"));
            assert!(text.contains("flight.panic.hook"));
            let _ = std::fs::remove_file(&path);
        });
    }
}
