//! The flight recorder: an always-on, bounded, process-global log of
//! the rare runtime events nothing else records, for crash forensics.
//!
//! The [`Recorder`] answers "where did the time go"; the flight
//! recorder answers "what was the process doing" when a run dies. It
//! does not mirror spans or kernel flushes: its dump *embeds* a
//! snapshot of the run's [`Recorder`], so the span tree and counters
//! have one source.
//!
//! * **Rare events only.** Checkpoint loads and writes, worker panics,
//!   warnings, progress ticks and the panic hook itself. None of them
//!   sits on a kernel or span hot path.
//! * **One bounded ring.** Events land in a single ring of [`CAPACITY`]
//!   entries. `seq` is assigned under the ring's lock, so arrival order
//!   is sequence order. Overflow evicts the oldest event and bumps a
//!   `dropped` count — truncation is reported, never silent.
//! * **Near-zero cost.** Disabled (the default), [`event`] is one
//!   relaxed atomic load. Event payloads are `Copy` (`&'static str`
//!   names, one integer).
//! * **Schema-versioned dumps.** [`dump_json`] renders the log and the
//!   recorder's `spans`, `counters` and `histograms` (with the same code
//!   as [`RunManifest`](crate::RunManifest)) under its own
//!   [`FLIGHT_SCHEMA_VERSION`], and
//!   [`crate::manifest::guard_overwrite`] applies to dump paths like
//!   any other manifest.
//! * **Dump on panic.** [`arm_crash_dump`] installs a chaining panic
//!   hook that writes the dump before unwinding begins, so the span
//!   chain that was running is still open (`duration_ns: null`). It
//!   fires for fail-fast worker panics, for the ckpt fault-injection
//!   crash path, and for plain bugs. The supervised executor
//!   (`collect_isolated`) additionally logs every isolated
//!   [`ItemPanic`](https://docs.rs/rayon) as a `flight.worker.panic`
//!   event even though it never unwinds past the item.
//!
//! Event names follow the same `stage.kernel.metric` convention as
//! counters (`flight.ckpt.write`, `flight.worker.panic`, …); `cargo
//! xtask lint` rule `metric-name` checks literal call sites.

use crate::json::Value;
use crate::Recorder;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Schema version of `flight.json` dumps. Bump on any layout change.
pub const FLIGHT_SCHEMA_VERSION: u64 = 2;

/// Events the ring retains; the oldest is evicted on overflow.
pub const CAPACITY: usize = 32_768;

/// One recorded flight event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Process-global sequence number (arrival order).
    pub seq: u64,
    /// Monotonic ns since the flight recorder was first enabled.
    pub t_ns: u64,
    /// Rayon-shim worker id at push time (0 = caller thread).
    pub worker: u32,
    /// Event name (`flight.ckpt.write`, `flight.worker.panic`, …).
    pub name: &'static str,
    /// Event subject (stage name, panic mode, …); `""` when n/a.
    pub detail: &'static str,
    /// Event-specific magnitude (checkpoint seq, item index, …).
    pub arg: u64,
}

/// The bounded event history.
#[derive(Debug)]
struct Ring {
    /// Events in arrival order once rotated (see [`Ring::ordered`]).
    buf: Vec<FlightEvent>,
    /// Next write position when the ring is full.
    head: usize,
    /// The next event's sequence number.
    next_seq: u64,
    /// Events evicted so far.
    dropped: u64,
}

impl Ring {
    const fn new() -> Ring {
        Ring {
            buf: Vec::new(),
            head: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, mut ev: FlightEvent) {
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

    /// Events in arrival order (oldest first), plus the dropped count.
    fn ordered(&self) -> (Vec<FlightEvent>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        (out, self.dropped)
    }
}

/// Whether [`event`] records anything. Off by default so library users
/// (and the no-alloc proofs) pay exactly one atomic load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Epoch for `t_ns`, fixed at first enable.
static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// The event ring.
static RING: Mutex<Ring> = Mutex::new(Ring::new());

/// Where the panic hook dumps to, and the recorder it embeds (None =
/// disarmed).
static CRASH: Mutex<Option<(PathBuf, Recorder)>> = Mutex::new(None);

/// Lock a mutex, ignoring poison: the ring holds plain data, and the
/// panic hook must still be able to dump after a panicking thread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Turn the flight recorder on or off. The CLI enables it for every
/// run; the epoch is fixed the first time it is enabled.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.set(crate::now());
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
    let worker = crate::worker::current();
    let mut ring = lock(&RING);
    let t_ns = EPOCH.get().map_or(0, |e| {
        u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    ring.push(FlightEvent {
        seq: 0, // assigned by the ring
        t_ns,
        worker,
        name,
        detail,
        arg,
    });
}

/// Everything currently retained, in sequence order, plus the total
/// evicted-event count.
#[must_use]
pub fn snapshot() -> (Vec<FlightEvent>, u64) {
    lock(&RING).ordered()
}

/// Render the flight log as a schema-versioned JSON value, followed by
/// `recorder`'s `spans`, `counters` and `histograms` (left out when the
/// recorder is disabled). Open spans render with `duration_ns: null`.
#[must_use]
pub fn dump_json(recorder: &Recorder) -> Value {
    let (events, dropped) = snapshot();
    let mut root = Value::object();
    root.set("schema_version", FLIGHT_SCHEMA_VERSION);
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
    if let Some(snapshot) = recorder.snapshot() {
        crate::manifest::set_snapshot_sections(&mut root, &snapshot);
    }
    root
}

/// Write the flight log and `recorder`'s snapshot to `path` (see
/// [`dump_json`]).
///
/// The file is schema-versioned, so
/// [`guard_overwrite`](crate::manifest::guard_overwrite) protects it
/// like any other manifest: refuse a foreign file unless `--force`.
pub fn dump_to(path: &Path, recorder: &Recorder) -> std::io::Result<()> {
    std::fs::write(path, dump_json(recorder).render())
}

/// Arm the panic-time dump: any panic after this writes the flight log
/// and a snapshot of `recorder` to `path` before unwinding continues
/// (the previous panic hook still runs afterwards, so test-harness and
/// default backtraces survive).
///
/// The hook itself is installed once per process; re-arming only
/// swaps the destination path and recorder. [`disarm_crash_dump`]
/// stops panic-time writes again.
pub fn arm_crash_dump(path: &Path, recorder: &Recorder) {
    *lock(&CRASH) = Some((path.to_path_buf(), recorder.clone()));
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            event("flight.panic.hook", "", 0);
            let armed = lock(&CRASH).clone();
            if let Some((path, recorder)) = armed {
                // The recorder never panics while it holds one of its
                // own locks, so snapshotting it here (through its
                // poison-tolerant `lock`) cannot self-deadlock on the
                // panicking thread. Best-effort: a failing dump must not
                // turn a panic into an abort.
                let _ = dump_to(&path, &recorder);
            }
            previous(info);
        }));
    });
}

/// Stop panic-time dumps (normal-exit paths disarm after their own
/// on-demand dump so a later unrelated panic cannot clobber it).
pub fn disarm_crash_dump() {
    *lock(&CRASH) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flight recorder is process-global; tests serialize on the
    /// ring via this lock and reset state around each body.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn with_flight<R>(f: impl FnOnce() -> R) -> R {
        let _guard = lock(&SERIAL);
        *lock(&RING) = Ring::new();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        disarm_crash_dump();
        r
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _guard = lock(&SERIAL);
        *lock(&RING) = Ring::new();
        set_enabled(false);
        event("flight.test.ignored", "", 1);
        let (events, dropped) = snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn arrival_order_is_sequence_order() {
        with_flight(|| {
            event("flight.test.a", "one", 1);
            {
                let _w = crate::worker::enter(3);
                event("flight.test.b", "two", 2);
            }
            event("flight.test.c", "", 3);
            let (events, dropped) = snapshot();
            assert_eq!(dropped, 0);
            let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, [0, 1, 2]);
            let args: Vec<u64> = events.iter().map(|e| e.arg).collect();
            assert_eq!(args, [1, 2, 3]);
            assert_eq!(events[0].worker, 0);
            assert_eq!(events[1].worker, 3);
            assert_eq!(events[1].detail, "two");
        });
    }

    #[test]
    fn ring_bounds_and_reports_truncation() {
        with_flight(|| {
            for i in 0..(CAPACITY as u64 + 10) {
                event("flight.test.flood", "", i);
            }
            let (events, dropped) = snapshot();
            assert_eq!(events.len(), CAPACITY);
            assert_eq!(dropped, 10);
            // The oldest events were evicted, the newest retained.
            assert_eq!(events.last().map(|e| e.arg), Some(CAPACITY as u64 + 9));
            assert_eq!(events.first().map(|e| e.arg), Some(10));
            assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        });
    }

    #[test]
    fn dump_is_schema_versioned_and_parses() {
        with_flight(|| {
            event("flight.test.dump", "stage", 7);
            let text = dump_json(&Recorder::disabled()).render();
            assert_eq!(crate::schema_version_of(&text), Some(FLIGHT_SCHEMA_VERSION));
            let parsed = crate::json::parse(&text).expect("dump parses");
            let events = parsed.get("events").expect("events key");
            match events {
                Value::Array(items) => assert!(!items.is_empty()),
                other => panic!("events not an array: {other:?}"),
            }
            // A disabled recorder contributes no sections.
            assert!(parsed.get("spans").is_none());
            assert!(parsed.get("counters").is_none());
        });
    }

    #[test]
    fn panic_hook_dumps_to_armed_path() {
        with_flight(|| {
            let path = std::env::temp_dir().join("catapult-flight-hook-test.json");
            let _ = std::fs::remove_file(&path);
            let recorder = Recorder::enabled();
            arm_crash_dump(&path, &recorder);
            event("flight.test.precrash", "", 1);
            let _stage = recorder.span("flight_test_stage");
            recorder.counter("test.flight.precrash").add(5);
            #[allow(clippy::disallowed_methods)] // catches the injected crash
            let caught = std::panic::catch_unwind(|| panic!("synthetic crash"));
            assert!(caught.is_err());
            let text = std::fs::read_to_string(&path).expect("flight dump written");
            assert_eq!(crate::schema_version_of(&text), Some(FLIGHT_SCHEMA_VERSION));
            assert!(text.contains("flight.test.precrash"));
            assert!(text.contains("flight.panic.hook"));
            let parsed = crate::json::parse(&text).expect("dump parses");
            // The span was still open when the hook ran.
            let Some(Value::Array(spans)) = parsed.get("spans") else {
                panic!("spans missing: {text}");
            };
            let open = spans
                .iter()
                .find(|s| s.get("name") == Some(&Value::from("flight_test_stage")))
                .expect("open span in dump");
            assert_eq!(open.get("duration_ns"), Some(&Value::Null));
            let counter = parsed
                .get("counters")
                .and_then(|c| c.get("test.flight.precrash"));
            assert_eq!(counter, Some(&Value::UInt(5)));
            let _ = std::fs::remove_file(&path);
        });
    }
}
