//! Every rule has a firing and a clean fixture, and the suppression
//! machinery (inline allows) works end to end.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catalint::diag::Diagnostic;
use catalint::rules::{check_file, FileCtx};
use catalint::scan::SourceFile;
use catalint::RULES;
use std::collections::BTreeSet;
use std::path::Path;

/// A workspace-relative path that puts a fixture inside the rule's scope.
fn scoped_rel(rule: &str) -> &'static str {
    match rule {
        "float-eq" => "crates/core/src/score.rs",
        "lint-header" => "crates/fixture/src/lib.rs",
        "cast-truncation" => "crates/graph/src/ged.rs",
        _ => "crates/core/src/fixture.rs",
    }
}

fn run_source(rule: &'static str, rel: &str, text: String) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel.to_string(), text);
    let mut enabled = BTreeSet::new();
    enabled.insert(rule);
    let ctx = FileCtx {
        is_crate_root: rule == "lint-header",
    };
    let mut out = Vec::new();
    check_file(&file, &ctx, &enabled, &mut out);
    out
}

fn fixture_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn run_fixture(rule: &'static str, which: &str) -> Vec<Diagnostic> {
    let path = fixture_dir().join(rule).join(format!("{which}.rs"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    run_source(rule, scoped_rel(rule), text)
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
    assert_eq!(file_rules().count(), 6, "the six file rules");
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
            "cast-truncation",
            "fn f() -> usize { let s = \"x as u8\"; s.len() }\n",
        ),
        (
            "cast-truncation",
            "/* let b = x as u8; */ fn f() -> u32 { 0 }\n",
        ),
        (
            "float-eq",
            "fn f(x: f64) -> bool { let d = \"x == 1.0\"; !d.is_empty() && x < 1.0 }\n",
        ),
    ];
    for (rule, src) in cases {
        let found = run_source(rule, scoped_rel(rule), src.to_string());
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
    let src =
        "fn f(x: u64) -> u8 { let s = \"// fake\"; if s.is_empty() { 0 } else { x as u8 } }\n";
    let found = run_source(
        "cast-truncation",
        scoped_rel("cast-truncation"),
        src.to_string(),
    );
    assert_eq!(found.len(), 1, "exactly the real `as u8`: {found:?}");
    assert!(!found[0].allowed);
}

#[test]
fn inline_allow_suppresses_but_is_recorded() {
    let src = "fn f(i: u64) -> u32 {\n    // xtask-allow: cast-truncation\n    i as u32\n}\n";
    let found = run_source(
        "cast-truncation",
        scoped_rel("cast-truncation"),
        src.to_string(),
    );
    assert_eq!(found.len(), 1);
    assert!(found[0].allowed);

    let wrong_rule = "fn f(i: u64) -> u32 {\n    // xtask-allow: float-eq\n    i as u32\n}\n";
    let found = run_source(
        "cast-truncation",
        scoped_rel("cast-truncation"),
        wrong_rule.to_string(),
    );
    assert!(!found[0].allowed, "allow must name the rule");
}

#[test]
fn out_of_scope_paths_are_not_checked() {
    let src = "fn f(x: f64) -> bool { x == 1.0 }\n";
    let found = run_source("float-eq", "crates/eval/src/basic.rs", src.to_string());
    assert!(
        found.is_empty(),
        "scoring rule outside scoring files: {found:?}"
    );

    let cast = "fn f(i: u64) -> u32 { i as u32 }\n";
    let found = run_source(
        "cast-truncation",
        "crates/cluster/src/kmeans.rs",
        cast.to_string(),
    );
    assert!(
        found.is_empty(),
        "cast rule outside kernel/index files: {found:?}"
    );
}
