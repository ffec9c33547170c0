// Unit tests are allowed the ergonomic panicking shortcuts the library
// itself forbids; the policy targets production code paths only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! catalint — token-level determinism & concurrency analyzer.
//!
//! This crate is the engine behind `cargo xtask lint`. It replaces the
//! original line/substring pass with a small hand-rolled Rust lexer
//! ([`lexer`]) and a per-file token-tree model ([`scan`]), so rules see
//! *code*, never lookalike text inside string literals or comments.
//!
//! It keeps only the invariants clippy cannot check: two file rules on
//! string literals and comparator bodies ([`rules`]), and the rules
//! that need the workspace call graph ([`xrules`], [`taint`]). Float
//! `==` in scoring code, lossy `as` casts in kernel code and shared
//! state outside its owner modules are clippy lints (module-level
//! `clippy::float_cmp` and `clippy::cast_*` levels, and the root
//! `clippy.toml`'s `disallowed-types` and `disallowed-macros`).
//!
//! The pipeline per run:
//!
//! 1. [`discover`] walks the workspace for `.rs` files (deterministic,
//!    sorted order; skips `target/`, `.git/`, this crate's fixtures and
//!    any `golden` data directories);
//! 2. each file is lexed and indexed into a [`scan::SourceFile`];
//! 3. every enabled file rule in [`rules`] runs over the token stream
//!    and emits structured [`diag::Diagnostic`] records, which an inline
//!    `// xtask-allow: <rule>` marker — the only suppression path —
//!    records as allowed instead of active;
//! 4. the symbol index and call graph are built once, and the
//!    interprocedural rules in [`xrules`] and [`taint`] run on top;
//! 5. the [`diag::Report`] — the analyzer's one output — renders
//!    human-readable text and, via the insertion-ordered
//!    `catapult_obs::json` serializer, the `--json` artifact CI uploads.
//!
//! [`RULES`] is the one registry of rule names; each module keeps its
//! own check functions.
//!
//! Zero dependencies outside the workspace, by policy: the analyzer must
//! never constrain what it analyzes.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scan;
pub mod symbols;
pub mod taint;
pub mod xrules;

use diag::Report;
use scan::SourceFile;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use symbols::Workspace;

/// Name and one-line summary of a rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// The rule's name as used by `--rule` and `xtask-allow`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule: the file rules ([`rules`]), the interprocedural rules
/// ([`xrules`]), then [`taint`].
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "metric-name",
        summary: "metric and event names follow stage.kernel.metric",
    },
    RuleInfo {
        name: "float-total-order",
        summary: "f64 comparators go through total_cmp",
    },
    RuleInfo {
        name: "budget-threading",
        summary: "pipeline→kernel call paths must pass a SearchBudget",
    },
    RuleInfo {
        name: "panic-reachability",
        summary: "kernel fns must not panic!/unwrap, directly or through helpers",
    },
    RuleInfo {
        name: "completeness-flow",
        summary: "callers of Completeness-tagged fns must keep the tag",
    },
    RuleInfo {
        name: "lock-order-xfn",
        summary: "multi-lock fns are audited; no lock-order cycles or re-entry",
    },
    RuleInfo {
        name: "taint",
        summary: "nondeterminism sources must not flow into deterministic outputs",
    },
];

/// Look up a rule by name.
fn rule_named(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// Top-level directories scanned for Rust sources.
const SCAN_ROOTS: &[&str] = &["src", "crates", "shims", "tests", "examples", "benches"];

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "golden", "fixtures"];

/// Workspace-relative paths (forward slashes) of every `.rs` file to
/// scan, in sorted (deterministic) order.
pub fn discover(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    Ok(())
}

/// The set of enabled rule names for a `--rule` filter (empty filter →
/// every rule). Returns an error naming any unknown rule.
pub fn enabled_rules(filter: &[String]) -> Result<BTreeSet<&'static str>, String> {
    if filter.is_empty() {
        return Ok(RULES.iter().map(|r| r.name).collect());
    }
    let mut on = BTreeSet::new();
    for name in filter {
        match rule_named(name) {
            Some(info) => {
                on.insert(info.name);
            }
            None => {
                let known: Vec<&str> = RULES.iter().map(|r| r.name).collect();
                return Err(format!(
                    "unknown rule `{name}` (known rules: {})",
                    known.join(", ")
                ));
            }
        }
    }
    Ok(on)
}

/// A full analysis: the finalized lint report plus the workspace symbol
/// index / call graph it ran on (for tests of the graph itself).
#[derive(Debug)]
pub struct Analysis {
    /// The finalized report.
    pub report: Report,
    /// The workspace index the interprocedural rules consumed.
    pub workspace: Workspace,
}

/// Run the enabled rules over the workspace at `root`: the per-file
/// token rules stream over each source, then the symbol index and call
/// graph are built once and the interprocedural rules (taint included)
/// run on top.
pub fn analyze(root: &Path, enabled: &BTreeSet<&'static str>) -> std::io::Result<Analysis> {
    let files = discover(root)?;
    let mut report = Report {
        rules_run: enabled.iter().copied().collect(),
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut parsed = Vec::with_capacity(files.len());
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))?;
        let file = SourceFile::parse(rel.clone(), text);
        rules::check_file(&file, enabled, &mut report.findings);
        parsed.push(file);
    }
    let workspace = Workspace::build(parsed);
    xrules::check_workspace(&workspace, enabled, &mut report.findings);
    taint::check_workspace(&workspace, enabled, &mut report.findings);
    report.finalize();
    Ok(Analysis { report, workspace })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_filter_validates_names() {
        assert_eq!(enabled_rules(&[]).map(|s| s.len()), Ok(RULES.len()));
        let one = enabled_rules(&["metric-name".to_string()]).expect("known rule");
        assert_eq!(one.len(), 1);
        let x = enabled_rules(&["budget-threading".to_string()]).expect("xrule name");
        assert_eq!(x.len(), 1);
        for retired in [
            "bogus",
            "float-eq",
            "cast-truncation",
            "interior-mutability",
            "lint-header",
        ] {
            assert!(enabled_rules(&[retired.to_string()])
                .unwrap_err()
                .contains("unknown rule"));
        }
    }

    #[test]
    fn every_rule_has_unique_name() {
        let names: BTreeSet<&str> = RULES.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), RULES.len());
        assert!(rule_named("float-total-order").is_some());
        assert!(rule_named("taint").is_some());
        assert!(rule_named("nope").is_none());
    }
}
