//! Schema-versioned, machine-readable run manifests.
//!
//! A [`RunManifest`] is the JSON record of one pipeline or bench run:
//! what command ran, in which environment, the stage span tree, and
//! every counter, histogram and event the [`Recorder`] captured. The CLI
//! writes one per `--metrics-out PATH`, and the experiments driver emits
//! the same shape.
//!
//! The manifest is also the crash dump. [`arm_crash_dump`] installs a
//! chaining panic hook that writes the armed manifest header, completed
//! by the recorder's snapshot, before unwinding begins: the span chain
//! that was running is still open (`duration_ns: null`), and a
//! `flight.panic.hook` event marks the moment. It fires for fail-fast
//! worker panics, for the ckpt fault-injection crash path, and for plain
//! bugs; the normal exit later overwrites the file with the complete
//! manifest.
//!
//! Field order is fixed (insertion-ordered [`json::Value`]) and pinned
//! by a golden-file test; any layout change must bump
//! [`SCHEMA_VERSION`]. [`RunManifest::write`] refuses to overwrite a
//! manifest from a *different* schema version unless forced, so stale
//! artifacts are never silently clobbered.
//!
//! [`Recorder`]: crate::Recorder

use crate::json::{self, Value};
use crate::recorder::{Snapshot, SpanRecord};
use crate::Recorder;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Version of the manifest layout. Bump on any field add/remove/reorder.
///
/// v2: `dropped_events` and `events` (the recorder's event ring) follow
/// `histograms`.
pub const SCHEMA_VERSION: u64 = 2;

/// Builder for one run's manifest.
#[derive(Clone, Debug)]
pub struct RunManifest {
    root: Value,
}

impl RunManifest {
    /// Start a manifest for `command` (e.g. `"select"`,
    /// `"experiments"`). `schema_version` is always the first field.
    #[must_use]
    pub fn new(command: &str) -> RunManifest {
        let mut root = Value::object();
        root.set("schema_version", SCHEMA_VERSION);
        root.set("command", command);
        RunManifest { root }
    }

    /// Set (or replace) a top-level section.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut RunManifest {
        self.root.set(key, value);
        self
    }

    /// Attach a recorder [`Snapshot`]: `spans` (nested tree),
    /// `counters`, `histograms`, `dropped_events` and `events` sections.
    pub fn attach_snapshot(&mut self, snapshot: &Snapshot) -> &mut RunManifest {
        let root = &mut self.root;
        root.set("spans", span_tree(&snapshot.spans));
        let mut counters = Value::object();
        for (name, value) in &snapshot.counters {
            counters.set(name, *value);
        }
        root.set("counters", counters);
        let mut hists = Value::object();
        for (name, h) in &snapshot.histograms {
            let mut entry = Value::object();
            entry.set("count", h.count);
            entry.set("sum", h.sum);
            entry.set("p50", h.p50);
            entry.set("p90", h.p90);
            entry.set("p99", h.p99);
            hists.set(name, entry);
        }
        root.set("histograms", hists);
        root.set("dropped_events", snapshot.dropped_events);
        let mut events = Value::array();
        for e in &snapshot.events {
            let mut ev = Value::object();
            ev.set("seq", e.seq);
            ev.set("t_ns", e.t_ns);
            ev.set("worker", e.worker);
            ev.set("name", e.name);
            if !e.detail.is_empty() {
                ev.set("detail", e.detail);
            }
            ev.set("arg", e.arg);
            events.push(ev);
        }
        root.set("events", events);
        self
    }

    /// Render to pretty JSON.
    #[must_use]
    pub fn render(&self) -> String {
        self.root.render()
    }

    /// Write to `path`, refusing to overwrite an existing manifest from
    /// a **different** schema version unless `force` is set.
    pub fn write(&self, path: &Path, force: bool) -> Result<(), ManifestError> {
        guard_overwrite(path, SCHEMA_VERSION, force)?;
        std::fs::write(path, self.render()).map_err(ManifestError::Io)
    }
}

/// Where the panic hook writes the crash manifest: the path, the
/// manifest header (command, argv, environment) and the recorder whose
/// snapshot completes it. `None` = disarmed.
static CRASH: Mutex<Option<(PathBuf, RunManifest, Recorder)>> = Mutex::new(None);

/// Lock the crash slot, ignoring poison: the panic hook must still be
/// able to read it after a panicking thread.
fn crash_slot() -> MutexGuard<'static, Option<(PathBuf, RunManifest, Recorder)>> {
    CRASH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arm the crash dump: any panic after this records a
/// `flight.panic.hook` event on `recorder`, then writes `header` plus the
/// recorder's snapshot to `path` — the document a normal exit writes,
/// open spans included — before unwinding continues. The previous panic
/// hook still runs afterwards, so test-harness and default backtraces
/// survive.
///
/// The hook itself is installed once per process; re-arming only swaps
/// the slot. Dropping the returned guard disarms it again, on a normal
/// exit (so a later unrelated panic cannot clobber the final manifest)
/// and while a panic unwinds past the arming frame alike.
pub fn arm_crash_dump(path: &Path, header: &RunManifest, recorder: &Recorder) -> CrashDumpGuard {
    *crash_slot() = Some((path.to_path_buf(), header.clone(), recorder.clone()));
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let armed = crash_slot().clone();
            if let Some((path, mut manifest, recorder)) = armed {
                recorder.event("flight.panic.hook", "", 0);
                // The recorder never panics while it holds one of its
                // own locks, so snapshotting it here (through its
                // poison-tolerant `lock`) cannot self-deadlock on the
                // panicking thread. Best-effort: a failing write must
                // not turn a panic into an abort.
                if let Some(snapshot) = recorder.snapshot() {
                    manifest.attach_snapshot(&snapshot);
                }
                let _ = std::fs::write(&path, manifest.render());
            }
            previous(info);
        }));
    });
    CrashDumpGuard(())
}

/// Disarms the crash dump when dropped (see [`arm_crash_dump`]).
#[must_use = "dropping the guard disarms the crash dump"]
#[derive(Debug)]
pub struct CrashDumpGuard(());

impl Drop for CrashDumpGuard {
    fn drop(&mut self) {
        *crash_slot() = None;
    }
}

/// Check the overwrite guard for `path` without writing: an existing
/// file whose `schema_version` is missing or differs from `version`
/// (the layout about to be written: [`SCHEMA_VERSION`] for manifests,
/// the trace version for traces) is refused unless `force`. Shared with
/// the experiments driver.
pub fn guard_overwrite(path: &Path, version: u64, force: bool) -> Result<(), ManifestError> {
    if force {
        return Ok(());
    }
    match std::fs::read_to_string(path) {
        Ok(existing) => {
            let found = schema_version_of(&existing);
            if found == Some(version) {
                Ok(())
            } else {
                Err(ManifestError::SchemaMismatch {
                    path: path.display().to_string(),
                    found,
                    expected: version,
                })
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(ManifestError::Io(e)),
    }
}

/// Extract `schema_version` from manifest text (`None` for pre-schema
/// files).
#[must_use]
pub fn schema_version_of(text: &str) -> Option<u64> {
    json::extract_uint_field(text, "schema_version")
}

/// The one overwrite-refusal message format, shared by every output the
/// `--force` flag governs (manifests, traces, checkpoint directories): `"<path>: <reason>; pass --force to overwrite"`.
#[must_use]
pub fn overwrite_refusal(path: &str, reason: &str) -> String {
    format!("{path}: {reason}; pass --force to overwrite")
}

/// Why a manifest could not be written.
#[derive(Debug)]
pub enum ManifestError {
    /// The target exists and carries a different (or no) schema version.
    SchemaMismatch {
        /// The refused path.
        path: String,
        /// The version found in the existing file, if any.
        found: Option<u64>,
        /// The version that would have been written.
        expected: u64,
    },
    /// Filesystem error.
    Io(io::Error),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::SchemaMismatch {
                path,
                found,
                expected,
            } => {
                let found = found.map_or_else(|| "none".to_string(), |v| v.to_string());
                let reason =
                    format!("existing manifest has schema_version {found}, current is {expected}");
                write!(f, "{}", overwrite_refusal(path, &reason))
            }
            ManifestError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Environment section: thread pool size, host, toolchain, git commit.
///
/// Everything is best-effort — a missing `.git` or unset variable
/// degrades to `null`, never an error.
#[must_use]
pub fn environment(threads: usize) -> Value {
    let mut env = Value::object();
    env.set("threads", threads);
    env.set(
        "host_cpus",
        std::thread::available_parallelism().map_or(0usize, usize::from),
    );
    env.set("os", std::env::consts::OS);
    env.set("arch", std::env::consts::ARCH);
    let rustc = env!("CATAPULT_OBS_RUSTC");
    env.set(
        "rustc",
        if rustc.is_empty() {
            Value::Null
        } else {
            Value::from(rustc)
        },
    );
    env.set("git_commit", git_commit().map_or(Value::Null, Value::from));
    env
}

/// Best-effort HEAD commit hash of the checkout that holds the running
/// binary: walks up from the executable (not the working directory,
/// which may sit in an unrelated repository) to the nearest `.git` and
/// resolves `HEAD` through loose or packed refs.
#[must_use]
pub fn git_commit() -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let git = exe
        .ancestors()
        .map(|dir| dir.join(".git"))
        .find(|git| git.join("HEAD").is_file())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()); // detached HEAD
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference))
        .map(|hash| hash.trim().to_string())
}

/// Render a flat span list as a nested tree (children in creation
/// order), with human-oriented `duration_ns` instead of raw end stamps.
fn span_tree(spans: &[SpanRecord]) -> Value {
    fn node(spans: &[SpanRecord], s: &SpanRecord) -> Value {
        let mut v = Value::object();
        v.set("name", s.name);
        v.set("worker", s.worker);
        v.set("start_ns", s.start_ns);
        match s.end_ns {
            Some(_) => v.set("duration_ns", s.duration_ns()),
            None => v.set("duration_ns", Value::Null),
        };
        let mut children = Value::array();
        for c in spans.iter().filter(|c| c.parent == Some(s.id)) {
            children.push(node(spans, c));
        }
        v.set("children", children);
        v
    }
    let mut roots = Value::array();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        roots.push(node(spans, s));
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::HistogramSummary;

    fn fixed_snapshot() -> Snapshot {
        Snapshot {
            spans: vec![
                SpanRecord {
                    name: "pipeline",
                    id: 0,
                    parent: None,
                    start_ns: 0,
                    end_ns: Some(100),
                    worker: 0,
                },
                SpanRecord {
                    name: "clustering",
                    id: 1,
                    parent: Some(0),
                    start_ns: 10,
                    end_ns: Some(60),
                    worker: 0,
                },
            ],
            counters: vec![("scoring.iso.probes".to_string(), 42)],
            histograms: vec![(
                "scoring.iso.probes_per_call".to_string(),
                HistogramSummary {
                    count: 2,
                    sum: 42,
                    p50: 31,
                    p90: 31,
                    p99: 31,
                },
            )],
            events: Vec::new(),
            dropped_events: 0,
        }
    }

    #[test]
    fn schema_version_is_first_field() {
        let m = RunManifest::new("select");
        let text = m.render();
        assert!(
            text.starts_with("{\n  \"schema_version\": 2,\n  \"command\": \"select\""),
            "unexpected prefix: {text}"
        );
        assert_eq!(schema_version_of(&text), Some(SCHEMA_VERSION));
    }

    #[test]
    fn span_tree_nests_children() {
        let mut m = RunManifest::new("x");
        m.attach_snapshot(&fixed_snapshot());
        let text = m.render();
        assert!(text.contains("\"name\": \"pipeline\""));
        assert!(text.contains("\"duration_ns\": 100"));
        assert!(text.contains("\"name\": \"clustering\""));
        // The child sits inside the parent's children array.
        let pipeline_at = text.find("\"pipeline\"").unwrap();
        let clustering_at = text.find("\"clustering\"").unwrap();
        assert!(clustering_at > pipeline_at);
    }

    #[test]
    fn overwrite_guard_refuses_other_schemas() {
        let dir = std::env::temp_dir().join("catapult-obs-test-guard");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");

        // Fresh path: fine.
        std::fs::remove_file(&path).ok();
        assert!(guard_overwrite(&path, SCHEMA_VERSION, false).is_ok());

        // Same schema: fine.
        RunManifest::new("a").write(&path, false).unwrap();
        assert!(guard_overwrite(&path, SCHEMA_VERSION, false).is_ok());

        // Pre-schema / foreign file: refused without force.
        std::fs::write(&path, "{\"host_threads\": 1}\n").unwrap();
        let err = guard_overwrite(&path, SCHEMA_VERSION, false);
        assert!(matches!(
            err,
            Err(ManifestError::SchemaMismatch { found: None, .. })
        ));
        assert!(guard_overwrite(&path, SCHEMA_VERSION, true).is_ok());

        // Different version: refused without force.
        std::fs::write(&path, "{\n  \"schema_version\": 999\n}\n").unwrap();
        assert!(matches!(
            guard_overwrite(&path, SCHEMA_VERSION, false),
            Err(ManifestError::SchemaMismatch {
                found: Some(999),
                ..
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panic_hook_writes_the_armed_manifest() {
        let path = std::env::temp_dir().join("catapult-obs-crash-hook-test.json");
        let _ = std::fs::remove_file(&path);
        let recorder = Recorder::enabled();
        let mut header = RunManifest::new("select");
        header.set("argv", Value::array());
        let armed = arm_crash_dump(&path, &header, &recorder);
        recorder.event("flight.test.precrash", "stage", 1);
        let _stage = recorder.span("crash_test_stage");
        recorder.counter("test.crash.precrash").add(5);
        #[allow(clippy::disallowed_methods)] // catches the injected crash
        let caught = std::panic::catch_unwind(|| panic!("synthetic crash"));
        assert!(caught.is_err());
        let text = std::fs::read_to_string(&path).expect("crash manifest written");
        let _ = std::fs::remove_file(&path);
        // Disarmed, a panic writes nothing.
        drop(armed);
        #[allow(clippy::disallowed_methods)] // catches the injected crash
        let caught = std::panic::catch_unwind(|| panic!("after disarm"));
        assert!(caught.is_err());
        assert!(!path.exists(), "a disarmed hook wrote the manifest");
        assert_eq!(schema_version_of(&text), Some(SCHEMA_VERSION));
        let parsed = json::parse(&text).expect("crash manifest parses");
        assert_eq!(parsed.get("command"), Some(&Value::from("select")));
        assert!(parsed.get("argv").is_some(), "header section lost");
        // The span was still open when the hook ran.
        let Some(Value::Array(spans)) = parsed.get("spans") else {
            panic!("spans missing: {text}");
        };
        let open = spans
            .iter()
            .find(|s| s.get("name") == Some(&Value::from("crash_test_stage")))
            .expect("open span in the crash manifest");
        assert_eq!(open.get("duration_ns"), Some(&Value::Null));
        let counter = parsed
            .get("counters")
            .and_then(|c| c.get("test.crash.precrash"));
        assert_eq!(counter, Some(&Value::UInt(5)));
        let Some(Value::Array(events)) = parsed.get("events") else {
            panic!("events missing: {text}");
        };
        let names: Vec<&Value> = events.iter().filter_map(|e| e.get("name")).collect();
        assert_eq!(
            names,
            [
                &Value::from("flight.test.precrash"),
                &Value::from("flight.panic.hook")
            ]
        );
    }

    #[test]
    fn environment_reports_host_facts() {
        let env = environment(4);
        assert_eq!(env.get("threads"), Some(&Value::UInt(4)));
        assert!(env.get("os").is_some());
        assert!(env.get("git_commit").is_some());
    }
}
