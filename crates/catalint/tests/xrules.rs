//! Fixture tests for the interprocedural rules.
//!
//! Each fixture under `tests/fixtures/xrules/` is a miniature multi-file
//! workspace: `//@ file: <rel>` headers split it into virtual sources
//! whose paths place them in the directories the rules scope to (kernel
//! files, pipeline crates). `_fires` fixtures must produce exactly the
//! expected findings; `_clean` twins exercise the same shapes written
//! correctly and must stay silent — the pairing keeps each rule's
//! false-positive and false-negative edges pinned.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catalint::diag::Diagnostic;
use catalint::scan::SourceFile;
use catalint::symbols::Workspace;
use catalint::xrules;
use std::collections::BTreeSet;

/// Parse a fixture into a [`Workspace`] of virtual files.
fn fixture_workspace(name: &str) -> Workspace {
    let path = format!(
        "{}/tests/fixtures/xrules/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let mut files = Vec::new();
    let mut rel: Option<String> = None;
    let mut body = String::new();
    for line in text.lines() {
        if let Some(next) = line.strip_prefix("//@ file: ") {
            if let Some(r) = rel.take() {
                files.push(SourceFile::parse(r, std::mem::take(&mut body)));
            }
            rel = Some(next.trim().to_string());
        } else {
            body.push_str(line);
            body.push('\n');
        }
    }
    let r = rel.expect("fixture declares at least one `//@ file:` header");
    files.push(SourceFile::parse(r, body));
    Workspace::build(files)
}

/// Run one interprocedural rule over a fixture.
fn run_rule(fixture: &str, rule: &'static str) -> Vec<Diagnostic> {
    let ws = fixture_workspace(fixture);
    let enabled: BTreeSet<&'static str> = [rule].into_iter().collect();
    let mut out = Vec::new();
    xrules::check_workspace(&ws, &enabled, &mut out);
    out
}

fn messages(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| format!("{}:{} [{}] {}", d.path, d.line, d.enclosing_fn, d.message))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn budget_threading_fires_on_bare_and_unthreaded_calls() {
    let diags = run_rule("budget_threading_fires.rs", "budget-threading");
    assert_eq!(diags.len(), 4, "findings:\n{}", messages(&diags));
    // Bare conveniences: imported with `use` and called unqualified, also
    // right after a string literal holding the same call text.
    for name in ["score_unbounded", "covered", "covered_after_string"] {
        let bare: Vec<_> = diags.iter().filter(|d| d.enclosing_fn == name).collect();
        assert_eq!(bare.len(), 1, "one bare-kernel finding in `{name}`");
        assert!(
            bare[0].message.contains("cannot accept a SearchBudget"),
            "{}",
            bare[0].message
        );
    }
    let unthreaded = diags
        .iter()
        .find(|d| d.enclosing_fn == "score_raw_cap")
        .expect("unthreaded finding");
    assert!(
        unthreaded
            .message
            .contains("path: score_raw_cap -> mcs_with_budget"),
        "witness path names the hop: {}",
        unthreaded.message
    );
}

#[test]
fn budget_threading_is_silent_when_budgets_are_threaded() {
    let diags = run_rule("budget_threading_clean.rs", "budget-threading");
    assert!(
        diags.is_empty(),
        "unexpected findings:\n{}",
        messages(&diags)
    );
}

#[test]
fn panic_reachability_follows_helper_chains_into_kernels() {
    let diags = run_rule("panic_reachability_fires.rs", "panic-reachability");
    assert_eq!(diags.len(), 4, "findings:\n{}", messages(&diags));
    assert!(diags.iter().all(|d| d.path == "crates/graph/src/iso.rs"));
    let chained: Vec<_> = diags
        .iter()
        .filter(|d| d.enclosing_fn == "first_embedding")
        .collect();
    assert_eq!(chained.len(), 1, "findings:\n{}", messages(&diags));
    assert!(
        chained[0]
            .message
            .contains("first_embedding -> mid -> pick"),
        "witness path shows the chain: {}",
        chained[0].message
    );
    assert!(
        chained[0].message.contains(".unwrap()"),
        "{}",
        chained[0].message
    );
}

#[test]
fn panic_reachability_reports_direct_panics_in_kernel_files() {
    let diags = run_rule("panic_reachability_fires.rs", "panic-reachability");
    let direct: Vec<_> = diags
        .iter()
        .filter(|d| d.enclosing_fn == "extend")
        .collect();
    assert_eq!(direct.len(), 2, "findings:\n{}", messages(&diags));
    // Both follow a string holding `//`, which must not swallow them as
    // a comment.
    assert!(direct[0].message.contains("calls .unwrap() directly"));
    assert!(direct[1].message.contains("calls panic! directly"));
    assert!(direct.iter().all(|d| !d.allowed));

    let macro_body: Vec<_> = diags.iter().filter(|d| d.enclosing_fn.is_empty()).collect();
    assert_eq!(macro_body.len(), 1, "findings:\n{}", messages(&diags));
    assert!(macro_body[0]
        .message
        .contains(".expect() in a kernel file outside any fn"));
}

#[test]
fn panic_reachability_is_silent_on_total_helpers() {
    let diags = run_rule("panic_reachability_clean.rs", "panic-reachability");
    assert!(
        diags.iter().all(|d| d.allowed),
        "unexpected findings:\n{}",
        messages(&diags)
    );
}

#[test]
fn panic_reachability_records_each_sanctioned_panic_as_allowed() {
    // One allowed finding per sanctioned library site: the helper's
    // (outside the kernel files, dropped from the closure) and the kernel
    // fn's own; the sanctioned panic in test code is out of scope.
    let diags = run_rule("panic_reachability_clean.rs", "panic-reachability");
    let mut sites: Vec<(&str, &str, bool)> = diags
        .iter()
        .map(|d| (d.path.as_str(), d.enclosing_fn.as_str(), d.allowed))
        .collect();
    sites.sort_unstable();
    assert_eq!(
        sites,
        [
            ("crates/graph/src/helpers.rs", "pool_size", true),
            ("crates/graph/src/iso.rs", "bounded", true),
        ],
        "findings:\n{}",
        messages(&diags)
    );
    let helper = diags
        .iter()
        .find(|d| d.enclosing_fn == "pool_size")
        .expect("sanctioned helper panic");
    assert!(
        helper.message.contains("calls panic!"),
        "{}",
        helper.message
    );
}

#[test]
fn completeness_flow_flags_discarded_tags() {
    let diags = run_rule("completeness_flow_fires.rs", "completeness-flow");
    assert_eq!(diags.len(), 4, "findings:\n{}", messages(&diags));
    let by_fn = |name: &str| diags.iter().filter(|d| d.enclosing_fn == name).count();
    assert_eq!(by_fn("warm_cache"), 1, "bare statement discard");
    assert_eq!(by_fn("warm_quietly"), 1, "`let _` discard");
    assert_eq!(by_fn("total_distance"), 2, "both `.distance` projections");
}

#[test]
fn completeness_flow_is_silent_when_the_tag_is_consumed() {
    let diags = run_rule("completeness_flow_clean.rs", "completeness-flow");
    assert!(
        diags.is_empty(),
        "unexpected findings:\n{}",
        messages(&diags)
    );
}

#[test]
fn lock_order_xfn_finds_cycles_reentry_and_multi_lock_fns() {
    let diags = run_rule("lock_order_xfn_fires.rs", "lock-order-xfn");
    assert_eq!(diags.len(), 4, "findings:\n{}", messages(&diags));
    let cycle = diags
        .iter()
        .find(|d| d.message.contains("lock-order cycle"))
        .expect("cycle finding");
    assert!(
        cycle.message.contains("REGISTRY") && cycle.message.contains("JOURNAL"),
        "{}",
        cycle.message
    );
    let reentry = diags
        .iter()
        .find(|d| d.message.contains("re-entrant"))
        .expect("re-entrancy finding");
    assert_eq!(reentry.enclosing_fn, "compact");
    // Two different locks with no cycle, in library and in test code:
    // one audit finding each, at the second acquisition.
    let audits: Vec<(&str, &str)> = diags
        .iter()
        .filter(|d| {
            d.message
                .contains(&format!("`{}` acquires 2 locks", d.enclosing_fn))
        })
        .map(|d| (d.path.as_str(), d.snippet.as_str()))
        .collect();
    assert_eq!(
        audits,
        [
            (
                "src/locks.rs",
                "let y = b.lock().unwrap_or_else(|e| e.into_inner());"
            ),
            ("tests/ledger.rs", "*a.lock().unwrap() + *b.lock().unwrap()"),
        ]
    );
}

#[test]
fn lock_order_xfn_is_silent_under_a_global_order() {
    // Single-lock fns (and `.lock()` pairs in comments or strings) are
    // silent; the one fn taking both locks inline records its audit as
    // allowed.
    let diags = run_rule("lock_order_xfn_clean.rs", "lock-order-xfn");
    let active: Vec<_> = diags.iter().filter(|d| !d.allowed).collect();
    assert!(
        active.is_empty(),
        "unexpected findings:\n{}",
        messages(&diags)
    );
    assert_eq!(diags.len(), 1, "findings:\n{}", messages(&diags));
    assert_eq!(diags[0].enclosing_fn, "snapshot");
    assert!(diags[0].message.contains("acquires 2 locks"));
}
