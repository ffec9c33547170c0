//! The lexer's contract: token spans tile the source byte-identically —
//! no gaps, no overlaps, full coverage — for every fixture and for every
//! real source file in this workspace.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catalint::lexer::{lex, TokenKind};
use std::path::{Path, PathBuf};

fn assert_tiles(src: &str, what: &str) {
    let tokens = lex(src);
    let mut pos = 0usize;
    let mut rebuilt = String::new();
    for t in &tokens {
        assert_eq!(
            t.start, pos,
            "gap or overlap at byte {pos} (token {:?}) in {what}",
            t.kind
        );
        assert!(t.end > t.start || src.is_empty(), "empty token in {what}");
        rebuilt.push_str(t.text(src));
        pos = t.end;
    }
    assert_eq!(pos, src.len(), "token coverage ends early in {what}");
    assert_eq!(rebuilt, src, "round-trip mismatch in {what}");
}

fn workspace_root() -> PathBuf {
    // crates/catalint → workspace root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn every_workspace_source_file_round_trips() {
    let root = workspace_root();
    let files = catalint::discover(&root).expect("discover");
    assert!(
        files.len() > 50,
        "workspace scan looks wrong: only {} files",
        files.len()
    );
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel)).expect("read");
        assert_tiles(&text, rel);
    }
}

#[test]
fn every_fixture_round_trips() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut n = 0;
    for rule_dir in std::fs::read_dir(&dir).expect("fixtures dir") {
        let rule_dir = rule_dir.expect("entry").path();
        for file in std::fs::read_dir(&rule_dir).expect("rule dir") {
            let path = file.expect("entry").path();
            let text = std::fs::read_to_string(&path).expect("read");
            assert_tiles(&text, &path.display().to_string());
            n += 1;
        }
    }
    assert_eq!(
        n, 36,
        "2 file rules x (fires + clean) + 4 xrules x (fires + clean) \
         + 12 taint pairs"
    );
}

#[test]
fn pathological_shapes_round_trip() {
    let cases = [
        "let s = r##\"raw \"# inside\"## ;",
        "/* outer /* nested */ still outer */ fn f() {}",
        "let c = 'a'; let lt: &'a str = x; let esc = '\\'';",
        "let f = 1.; let r = 1..2; let m = 1.max(2);",
        "let b = b\"bytes\"; let rb = br#\"raw bytes\"#;",
        "fn f() { /* unterminated",
        "let s = \"unterminated",
        "let weird = ©; // non-ascii punct survives as Unknown",
        "",
    ];
    for (i, src) in cases.iter().enumerate() {
        assert_tiles(src, &format!("case {i}"));
    }
}

#[test]
fn trivia_classification_is_exact() {
    let src = "// line\n/* block */ fn f(x: &'a str) -> char { 'x' }\n";
    let tokens = lex(src);
    let kinds: Vec<TokenKind> = tokens
        .iter()
        .filter(|t| !t.is_trivia())
        .map(|t| t.kind)
        .collect();
    assert_eq!(kinds[0], TokenKind::Ident, "fn");
    assert!(kinds.contains(&TokenKind::Lifetime));
    assert!(kinds.contains(&TokenKind::CharLit));
    assert!(!kinds.contains(&TokenKind::LineComment));
    assert!(!kinds.contains(&TokenKind::BlockComment));
}
