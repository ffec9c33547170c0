//! Whole-workspace properties over the *real* repository: determinism
//! of the findings report and resolution of the call-graph paths the
//! budget-threading rule depends on (CLI entry points must reach the
//! iso/mcs/ged kernels through resolved edges, or the rule is blind).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use catalint::symbols::Callee;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/catalint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn report_json_is_byte_identical_across_scans() {
    let root = repo_root();
    let all = catalint::enabled_rules(&[]).expect("every rule");
    let scan = || {
        catalint::analyze(&root, &all)
            .expect("scan")
            .report
            .to_json()
            .render()
    };
    let (ja, jb) = (scan(), scan());
    assert!(ja.contains("\"schema_version\""));
    assert!(ja.contains("\"taint\""), "every rule ran: {ja}");
    assert_eq!(ja, jb, "findings report must be deterministic");
}

#[test]
fn kernel_budget_paths_resolve_from_cli_entry_points() {
    let root = repo_root();
    let ws = catalint::analyze(&root, &BTreeSet::new())
        .expect("scan")
        .workspace;

    // Forward closure over resolved edges from every CLI-crate def.
    let mut seen: BTreeSet<usize> = ws
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.in_test && ws.files[d.file].rel.starts_with("src/"))
        .map(|(i, _)| i)
        .collect();
    assert!(!seen.is_empty(), "no CLI entry points found under src/");
    let mut stack: Vec<usize> = seen.iter().copied().collect();
    while let Some(id) = stack.pop() {
        for &si in ws.calls_of(id) {
            if let Callee::Resolved(t) = ws.calls[si].callee {
                if seen.insert(t) {
                    stack.push(t);
                }
            }
        }
    }

    // Budget-carrying type names, via the struct-embedding fixpoint
    // budget-threading uses (SearchBudget riding inside config structs).
    let carrying = ws.embedding_closure(&["SearchBudget", "BudgetMeter"]);

    for kernel in [
        "crates/graph/src/iso.rs",
        "crates/graph/src/mcs.rs",
        "crates/graph/src/ged.rs",
    ] {
        let reached: Vec<usize> = seen
            .iter()
            .copied()
            .filter(|&id| ws.files[ws.defs[id].file].rel == kernel)
            .collect();
        assert!(
            !reached.is_empty(),
            "no resolved call path from CLI entry points into {kernel}"
        );
        assert!(
            reached.iter().any(|&id| ws.sig_mentions(id, &carrying)),
            "no budget-threading path into {kernel}: reached only {:?}",
            reached
                .iter()
                .map(|&id| ws.defs[id].name.as_str())
                .collect::<Vec<_>>()
        );
    }
}
