//! Schema-versioned, machine-readable run manifests.
//!
//! A [`RunManifest`] is the JSON record of one pipeline or bench run:
//! what command ran, in which environment, the stage span tree, and
//! every counter/histogram the [`Recorder`] captured. The CLI writes one
//! per `--metrics-out PATH`; the bench drivers emit the same shape so
//! `BENCH_*.json` trajectories stay comparable across PRs.
//!
//! Field order is fixed (insertion-ordered [`json::Value`]) and pinned
//! by a golden-file test; any layout change must bump
//! [`SCHEMA_VERSION`]. [`RunManifest::write`] refuses to overwrite a
//! manifest from a *different* schema version unless forced, so stale
//! artifacts are never silently clobbered.
//!
//! [`Recorder`]: crate::Recorder

use crate::json::{self, Value};
use crate::recorder::{Recorder, Snapshot, SpanRecord};
use std::io;
use std::path::Path;

/// Version of the manifest layout. Bump on any field add/remove/reorder.
pub const SCHEMA_VERSION: u64 = 1;

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

    /// Attach a recorder's capture: `spans` (nested tree), `counters`,
    /// and `histograms` sections. A disabled recorder attaches nothing.
    pub fn attach_recorder(&mut self, recorder: &Recorder) -> &mut RunManifest {
        if let Some(snapshot) = recorder.snapshot() {
            self.attach_snapshot(&snapshot);
        }
        self
    }

    /// Attach an already-captured [`Snapshot`] (the testable core of
    /// [`RunManifest::attach_recorder`]).
    pub fn attach_snapshot(&mut self, snapshot: &Snapshot) -> &mut RunManifest {
        self.root.set("spans", span_tree(&snapshot.spans));
        let mut counters = Value::object();
        for (name, value) in &snapshot.counters {
            counters.set(name, *value);
        }
        self.root.set("counters", counters);
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
        self.root.set("histograms", hists);
        self
    }

    /// Render to pretty JSON.
    #[must_use]
    pub fn render(&self) -> String {
        self.root.render()
    }

    /// The underlying JSON tree (for assembling composite documents).
    #[must_use]
    pub fn into_value(self) -> Value {
        self.root
    }

    /// Write to `path`, refusing to overwrite an existing manifest from
    /// a **different** schema version unless `force` is set.
    pub fn write(&self, path: &Path, force: bool) -> Result<(), ManifestError> {
        guard_overwrite(path, force)?;
        std::fs::write(path, self.render()).map_err(ManifestError::Io)
    }
}

/// Check the overwrite guard for `path` without writing: an existing
/// file whose `schema_version` is missing or differs from
/// [`SCHEMA_VERSION`] is refused unless `force`. Shared with the bench
/// drivers, whose `BENCH_*.json` carry the same version field.
pub fn guard_overwrite(path: &Path, force: bool) -> Result<(), ManifestError> {
    if force {
        return Ok(());
    }
    match std::fs::read_to_string(path) {
        Ok(existing) => {
            let found = schema_version_of(&existing);
            if found == Some(SCHEMA_VERSION) {
                Ok(())
            } else {
                Err(ManifestError::SchemaMismatch {
                    path: path.display().to_string(),
                    found,
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
/// `--force` flag governs (manifests, `BENCH_*.json`, checkpoint
/// directories): `"<path>: <reason>; pass --force to overwrite"`.
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
    },
    /// Filesystem error.
    Io(io::Error),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::SchemaMismatch { path, found } => {
                let found = found.map_or_else(|| "none".to_string(), |v| v.to_string());
                let reason = format!(
                    "existing manifest has schema_version {found}, current is {SCHEMA_VERSION}"
                );
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

/// Best-effort HEAD commit hash: walks up from the current directory to
/// the nearest `.git` and resolves `HEAD` through loose or packed refs.
#[must_use]
pub fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head_path = dir.join(".git").join("HEAD");
        if let Ok(head) = std::fs::read_to_string(&head_path) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return Some(head.to_string()); // detached HEAD
            };
            if let Ok(hash) = std::fs::read_to_string(dir.join(".git").join(reference)) {
                return Some(hash.trim().to_string());
            }
            if let Ok(packed) = std::fs::read_to_string(dir.join(".git").join("packed-refs")) {
                for line in packed.lines() {
                    if let Some(hash) = line.strip_suffix(reference) {
                        return Some(hash.trim().to_string());
                    }
                }
            }
            return None;
        }
        if !dir.pop() {
            return None;
        }
    }
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
        }
    }

    #[test]
    fn schema_version_is_first_field() {
        let m = RunManifest::new("select");
        let text = m.render();
        assert!(
            text.starts_with("{\n  \"schema_version\": 1,\n  \"command\": \"select\""),
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
        assert!(guard_overwrite(&path, false).is_ok());

        // Same schema: fine.
        RunManifest::new("a").write(&path, false).unwrap();
        assert!(guard_overwrite(&path, false).is_ok());

        // Pre-schema / foreign file: refused without force.
        std::fs::write(&path, "{\"host_threads\": 1}\n").unwrap();
        let err = guard_overwrite(&path, false);
        assert!(matches!(
            err,
            Err(ManifestError::SchemaMismatch { found: None, .. })
        ));
        assert!(guard_overwrite(&path, true).is_ok());

        // Different version: refused without force.
        std::fs::write(&path, "{\n  \"schema_version\": 999\n}\n").unwrap();
        assert!(matches!(
            guard_overwrite(&path, false),
            Err(ManifestError::SchemaMismatch {
                found: Some(999),
                ..
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn environment_reports_host_facts() {
        let env = environment(4);
        assert_eq!(env.get("threads"), Some(&Value::UInt(4)));
        assert!(env.get("os").is_some());
        assert!(env.get("git_commit").is_some());
    }
}
