//! Every rule has a firing and a clean fixture, and the suppression
//! machinery (inline allows) works end to end.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catalint::diag::Diagnostic;
use catalint::rules::check_file;
use catalint::scan::SourceFile;
use catalint::RULES;
use std::collections::BTreeSet;
use std::path::Path;

/// A workspace-relative library path inside both file rules' scope.
const SCOPED_REL: &str = "crates/core/src/fixture.rs";

fn run_source(rule: &'static str, rel: &str, text: String) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel.to_string(), text);
    let mut enabled = BTreeSet::new();
    enabled.insert(rule);
    let mut out = Vec::new();
    check_file(&file, &enabled, &mut out);
    out
}

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run_fixture(rule: &'static str, which: &str) -> Vec<Diagnostic> {
    let path = fixture_dir().join(rule).join(format!("{which}.rs"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    run_source(rule, SCOPED_REL, text)
}

/// The file rules: those with a `fixtures/<rule>/` pair. The
/// interprocedural rules keep theirs under `fixtures/xrules/`, taint
/// under `fixtures/taint/`.
fn file_rules() -> impl Iterator<Item = &'static str> {
    RULES
        .iter()
        .map(|r| r.name)
        .filter(|name| fixture_dir().join(name).join("fires.rs").is_file())
}

#[test]
fn every_rule_has_fixtures() {
    let dir = fixture_dir();
    for rule in RULES {
        let snake = rule.name.replace('-', "_");
        let paired = |a: std::path::PathBuf, b: std::path::PathBuf| a.is_file() && b.is_file();
        let ok = paired(
            dir.join(rule.name).join("fires.rs"),
            dir.join(rule.name).join("clean.rs"),
        ) || paired(
            dir.join("xrules").join(format!("{snake}_fires.rs")),
            dir.join("xrules").join(format!("{snake}_clean.rs")),
        ) || (rule.name == "taint" && dir.join("taint").is_dir());
        assert!(ok, "no fires/clean fixture pair for `{}`", rule.name);
    }
    assert_eq!(file_rules().count(), 2, "the two file rules");
}

#[test]
fn every_rule_has_a_firing_fixture() {
    for rule in file_rules() {
        let found = run_fixture(rule, "fires");
        assert!(
            found.iter().any(|d| d.rule == rule && !d.allowed),
            "fixture for `{rule}` does not fire: {found:?}"
        );
        assert!(
            found.iter().all(|d| d.rule == rule),
            "cross-rule finding in `{rule}` fixture: {found:?}"
        );
        for d in &found {
            assert!(d.line >= 1 && d.col >= 1, "positions are 1-based: {d:?}");
            assert!(!d.snippet.is_empty(), "snippet captured: {d:?}");
        }
    }
}

#[test]
fn every_rule_has_a_clean_fixture() {
    for rule in file_rules() {
        let found = run_fixture(rule, "clean");
        assert!(
            found.is_empty(),
            "clean fixture for `{rule}` fired: {found:?}"
        );
    }
}

/// The regression class that motivated the lexer: rule needles inside
/// string literals and block comments must never fire (the line-based
/// pass tripped on all three of these).
#[test]
fn string_and_comment_lookalikes_never_fire() {
    let cases: [(&'static str, &str); 3] = [
        (
            "float-total-order",
            "fn f(v: &mut [f64]) { let s = \"v.sort_by(|a, b| a.partial_cmp(b).unwrap())\"; v.sort_by(f64::total_cmp); let _ = s; }\n",
        ),
        (
            "float-total-order",
            "/* v.sort_by(|a, b| a.partial_cmp(b).unwrap()); */ fn f() -> u32 { 0 }\n",
        ),
        (
            "metric-name",
            "fn f(r: &Recorder) { let d = \"r.counter(\\\"bad\\\")\"; // r.counter(\"bad\")\n r.counter(\"mining.iso.calls\").incr(d.len()); }\n",
        ),
    ];
    for (rule, src) in cases {
        let found = run_source(rule, SCOPED_REL, src.to_string());
        assert!(
            found.is_empty(),
            "[{rule}] fired on lookalike: {found:?}\nsource: {src}"
        );
    }
}

/// A violation *after* a string containing `//` must still fire — the
/// old pass lost the rest of the line after a stripped fake comment.
#[test]
fn violation_after_comment_lookalike_string_still_fires() {
    let src = "fn f(r: &Recorder) { let s = \"// fake\"; r.counter(\"bad\").incr(s.len()); }\n";
    let found = run_source("metric-name", SCOPED_REL, src.to_string());
    assert_eq!(
        found.len(),
        1,
        "exactly the real `counter(\"bad\")`: {found:?}"
    );
    assert!(!found[0].allowed);
}

#[test]
fn inline_allow_suppresses_but_is_recorded() {
    let src = "fn f(v: &mut [f64]) {\n    // xtask-allow: float-total-order\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let found = run_source("float-total-order", SCOPED_REL, src.to_string());
    assert_eq!(found.len(), 1);
    assert!(found[0].allowed);

    let wrong_rule = "fn f(v: &mut [f64]) {\n    // xtask-allow: metric-name\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let found = run_source("float-total-order", SCOPED_REL, wrong_rule.to_string());
    assert!(!found[0].allowed, "allow must name the rule");
}

#[test]
fn out_of_scope_paths_are_not_checked() {
    let cmp = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
    for rel in ["tests/ranking.rs", "examples/rank.rs"] {
        let found = run_source("float-total-order", rel, cmp.to_string());
        assert!(
            found.is_empty(),
            "comparator rule outside library code ({rel}): {found:?}"
        );
    }

    let metric = "fn f(r: &Recorder) { r.counter(\"bad\").incr(1); }\n";
    for rel in ["crates/obs/src/recorder.rs", "shims/rayon/src/lib.rs"] {
        let found = run_source("metric-name", rel, metric.to_string());
        assert!(
            found.is_empty(),
            "metric rule inside the recorder's own crates ({rel}): {found:?}"
        );
    }
}
