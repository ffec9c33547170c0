//! Fixture tests for the interprocedural nondeterminism-taint rule.
//!
//! Each fixture under `tests/fixtures/taint/` is a miniature multi-file
//! workspace (`//@ file: <rel>` headers), paired `_fires`/`_clean` so
//! both the firing shape and its correctly-written twin stay pinned:
//! every nondeterminism source kind, the struct-field sink embedding,
//! the order-sanitizer kill, the checkpoint wire sink, and both halves
//! of the sanctioning policy (justified allow suppresses with an audit
//! diagnostic; a bare marker is itself a finding).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catalint::diag::Diagnostic;
use catalint::scan::SourceFile;
use catalint::symbols::Workspace;
use catalint::taint;
use std::collections::BTreeSet;

/// Parse a fixture into a [`Workspace`] of virtual files.
fn fixture_workspace(name: &str) -> Workspace {
    let path = format!("{}/tests/fixtures/taint/{name}", env!("CARGO_MANIFEST_DIR"));
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

/// Run the taint rule over a fixture.
fn run_taint(fixture: &str) -> Vec<Diagnostic> {
    let ws = fixture_workspace(fixture);
    let enabled: BTreeSet<&'static str> = ["taint"].into_iter().collect();
    let mut out = Vec::new();
    taint::check_workspace(&ws, &enabled, &mut out);
    out
}

fn active(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| !d.allowed).collect()
}

fn messages(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| format!("{}:{} [{}] {}", d.path, d.line, d.enclosing_fn, d.message))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Assert a `_clean` fixture produces no findings at all.
fn assert_clean(fixture: &str) {
    let diags = run_taint(fixture);
    assert!(
        diags.is_empty(),
        "{fixture} should be silent, got:\n{}",
        messages(&diags)
    );
}

#[test]
fn instant_into_selection_result_fires() {
    let diags = run_taint("instant_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    let d = act[0];
    assert!(
        d.message.contains("returns `SelectionResult`"),
        "{}",
        d.message
    );
    assert!(d.message.contains("Instant::now()"), "{}", d.message);
    assert!(d.message.contains("time nondeterminism"), "{}", d.message);
    assert_eq!(d.enclosing_fn, "select_patterns");
}

#[test]
fn instant_clean_twin_is_silent() {
    assert_clean("instant_clean.rs");
}

#[test]
fn hash_iteration_flows_interprocedurally() {
    // The flow anchors at the call in the sink; the unsorted iteration
    // is also reported at its own site.
    let diags = run_taint("hash_iter_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 2, "findings:\n{}", messages(&diags));
    let site = act
        .iter()
        .find(|d| d.path == "crates/core/src/freq.rs")
        .expect("source-site finding");
    assert_eq!(site.enclosing_fn, "edge_frequencies");
    assert!(site.snippet.starts_with("for (e, c) in freq.iter()"));
    let d = act
        .iter()
        .find(|d| d.path == "crates/core/src/select.rs")
        .expect("flow finding");
    assert!(
        d.message.contains("HashMap/HashSet iteration"),
        "{}",
        d.message
    );
    assert!(
        d.message.contains("path rank_edges -> edge_frequencies"),
        "witness path: {}",
        d.message
    );
    assert!(
        d.message.contains("crates/core/src/freq.rs:"),
        "source location: {}",
        d.message
    );
}

#[test]
fn hash_iteration_sorted_at_source_is_silent() {
    assert_clean("hash_iter_clean.rs");
}

#[test]
fn sinkless_hash_iteration_fires_at_its_site() {
    // No sink in sight, an exempt crate included: each unsanitized
    // iteration is reported where it happens, with no witness path.
    let diags = run_taint("hash_iter_sinkless_fires.rs");
    let act = active(&diags);
    let sites: Vec<(&str, &str)> = act
        .iter()
        .map(|d| (d.path.as_str(), d.enclosing_fn.as_str()))
        .collect();
    assert_eq!(
        sites,
        [
            ("crates/core/src/tally.rs", "leak_order"),
            ("crates/core/src/tally.rs", "leak_chain"),
            ("crates/obs/src/seen.rs", "first_seen"),
        ],
        "findings:\n{}",
        messages(&diags)
    );
    for d in &act {
        let lead = format!("in `{}`: HashMap/HashSet iteration order", d.enclosing_fn);
        assert!(d.message.starts_with(&lead), "{}", d.message);
        assert!(!d.message.contains("path "), "{}", d.message);
    }
    // Sorted, sunk into an order-insensitive consumer, in test code, or
    // outside library code: silent.
    assert_clean("hash_iter_sinkless_clean.rs");
}

#[test]
fn env_read_into_manifest_fires() {
    let diags = run_taint("env_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    assert!(
        act[0].message.contains("CATAPULT_THREADS"),
        "{}",
        act[0].message
    );
    assert!(
        act[0].message.contains("env nondeterminism"),
        "{}",
        act[0].message
    );
}

#[test]
fn env_read_in_exempt_shim_is_silent() {
    assert_clean("env_clean.rs");
}

#[test]
fn unseeded_rng_fires_seeded_does_not() {
    let diags = run_taint("rng_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    assert!(
        act[0].message.contains("`thread_rng`"),
        "{}",
        act[0].message
    );
    assert!(
        act[0].message.contains("path sample_patterns -> pick_seed"),
        "{}",
        act[0].message
    );
    assert_clean("rng_clean.rs");
}

#[test]
fn raw_mutex_accumulation_fires() {
    let diags = run_taint("mutex_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    assert!(
        act[0].message.contains("Mutex-guarded accumulation order"),
        "{}",
        act[0].message
    );
    assert!(
        act[0].message.contains("lock-order nondeterminism"),
        "{}",
        act[0].message
    );
}

#[test]
fn sorted_mutex_drain_is_silent() {
    assert_clean("mutex_clean.rs");
}

#[test]
fn struct_field_embedding_makes_wrapper_a_sink() {
    // Acceptance fixture: `Bundle { sel: SelectionResult }` inherits the
    // sink obligation, and the flow crosses two files and two hops.
    let diags = run_taint("struct_field_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    let d = act[0];
    assert!(
        d.message.contains("`bundle_up` returns `Bundle`"),
        "sink obligation: {}",
        d.message
    );
    assert!(
        d.message.contains("path bundle_up -> build_note -> stamp"),
        "witness path: {}",
        d.message
    );
    assert!(
        d.message
            .contains("reached by SystemTime::now() (time nondeterminism)"),
        "source and kind: {}",
        d.message
    );
    assert!(
        d.message.contains("crates/core/src/deep.rs:"),
        "source location: {}",
        d.message
    );
}

#[test]
fn struct_field_clean_twin_is_silent() {
    assert_clean("struct_field_clean.rs");
}

#[test]
fn order_sanitizer_kills_the_propagation_hop() {
    // Acceptance pair: the same hash-order taint reaches the report in
    // `_fires`; a `sort_unstable` on the receiving binding kills the hop
    // in `_clean`. Both keep the unsorted iteration's own site finding.
    let diags = run_taint("sanitizer_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 2, "findings:\n{}", messages(&diags));
    assert!(
        act.iter()
            .any(|d| d.message.contains("path summarize -> label_counts")),
        "findings:\n{}",
        messages(&diags)
    );
    let diags = run_taint("sanitizer_clean.rs");
    assert_eq!(diags.len(), 1, "findings:\n{}", messages(&diags));
    assert_eq!(diags[0].enclosing_fn, "label_counts");
    assert!(!diags[0].message.contains("path "), "{}", diags[0].message);
}

#[test]
fn checkpoint_wire_writer_is_a_sink() {
    let diags = run_taint("wire_sink_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    let d = act[0];
    assert!(
        d.message.contains("writes the checkpoint wire format"),
        "{}",
        d.message
    );
    assert!(
        d.message.contains("path encode_state -> seed_salt"),
        "{}",
        d.message
    );
    assert_clean("wire_sink_clean.rs");
}

#[test]
fn thread_topology_fires_parameter_does_not() {
    let diags = run_taint("parallelism_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    assert!(
        act[0].message.contains("`available_parallelism`"),
        "{}",
        act[0].message
    );
    assert!(
        act[0].message.contains("thread nondeterminism"),
        "{}",
        act[0].message
    );
    assert_clean("parallelism_clean.rs");
}

#[test]
fn bare_allow_marker_is_itself_a_finding() {
    let diags = run_taint("allow_unjustified_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    assert!(
        act[0].message.contains("requires a written justification"),
        "{}",
        act[0].message
    );
}

#[test]
fn justified_allow_suppresses_with_an_audit_diagnostic() {
    let diags = run_taint("allow_justified_clean.rs");
    assert!(
        active(&diags).is_empty(),
        "justified allow must not fail the build:\n{}",
        messages(&diags)
    );
    let audits: Vec<&Diagnostic> = diags.iter().filter(|d| d.allowed).collect();
    assert_eq!(audits.len(), 1, "findings:\n{}", messages(&diags));
    assert!(
        audits[0]
            .message
            .contains("sanctioned nondeterminism source"),
        "{}",
        audits[0].message
    );
    assert!(
        audits[0]
            .message
            .contains("wall-clock feeds the progress meter only"),
        "the justification text is preserved: {}",
        audits[0].message
    );
}

#[test]
fn random_state_fires_btree_does_not() {
    let diags = run_taint("random_state_fires.rs");
    let act = active(&diags);
    assert_eq!(act.len(), 1, "findings:\n{}", messages(&diags));
    assert!(act[0].message.contains("RandomState"), "{}", act[0].message);
    assert_clean("random_state_clean.rs");
}

#[test]
fn findings_are_deterministic_across_runs() {
    let a = messages(&run_taint("sanitizer_fires.rs"));
    let b = messages(&run_taint("sanitizer_fires.rs"));
    assert_eq!(a, b);
}
