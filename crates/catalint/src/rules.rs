//! The per-file lint rules, running on the token tree: `metric-name`
//! and `float-total-order`. Each checks what clippy cannot: the string
//! literal a recorder registers, and a comparator's body.
//!
//! Invariants the compiler can check are not rules here. Doc coverage
//! is `missing_docs` plus `unreachable_pub`; raw clocks, threads and
//! unwinding are the root `clippy.toml`'s `disallowed-methods`; shared
//! state outside its owner modules is its `disallowed-types` and
//! `disallowed-macros`; raw `eprintln!` in pipeline crates is
//! `clippy::print_stderr`; float `==` in the scoring files and lossy
//! `as` casts in the kernel and index files are module-level
//! `clippy::float_cmp` and `clippy::cast_*` lint levels. Pipeline calls
//! into the unbudgeted kernel conveniences and panics in kernel fns,
//! direct or through helpers, are the interprocedural rules' job
//! ([`crate::xrules`]); hash-container iteration order is `taint`'s
//! ([`crate::taint`]).

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::scan::SourceFile;
use std::collections::BTreeSet;

/// Library source files: `src/`, `crates/*/src/`, `shims/*/src/` (tests,
/// benches, and examples live elsewhere).
pub(crate) fn is_library_src(rel: &str) -> bool {
    rel.starts_with("src/")
        || ((rel.starts_with("crates/") || rel.starts_with("shims/")) && rel.contains("/src/"))
}

// ---- driver ------------------------------------------------------------

/// Run every enabled file rule over one file.
pub fn check_file(f: &SourceFile, enabled: &BTreeSet<&'static str>, out: &mut Vec<Diagnostic>) {
    let rel = f.rel.as_str();
    if enabled.contains("metric-name")
        && !rel.starts_with("crates/obs/")
        && !rel.starts_with("shims/")
    {
        metric_name(f, out);
    }
    if enabled.contains("float-total-order") && is_library_src(rel) {
        float_total_order(f, out);
    }
}

/// Record a finding at code token `ci`, honoring the escape hatch.
fn emit(f: &SourceFile, ci: usize, rule: &'static str, message: String, out: &mut Vec<Diagnostic>) {
    out.push(f.diagnostic(ci, rule, message));
}

// ---- metric names ------------------------------------------------------

/// Rule `metric-name`: literal names registered on a `Recorder`
/// (`.counter("…")` / `.histogram("…")` / `.event("…", …)`) follow
/// `stage.kernel.metric` (≥ 3 lowercase dot-separated segments).
fn metric_name(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) {
            continue;
        }
        if f.is_punct(ci, ".")
            && ["counter", "histogram", "event"]
                .iter()
                .any(|m| f.is_ident(ci + 1, m))
            && f.is_punct(ci + 2, "(")
            && ci + 3 < f.n_code()
            && f.ckind(ci + 3) == TokenKind::StrLit
        {
            check_metric_literal(f, ci + 3, out);
        }
    }
}

/// The literal check for recorder metric and event names.
fn check_metric_literal(f: &SourceFile, ci: usize, out: &mut Vec<Diagnostic>) {
    let lit = f.ctext(ci);
    let name = lit.trim_matches(|c| c == '"' || c == '#' || c == 'r' || c == 'b');
    if !valid_metric_name(name) {
        emit(
            f,
            ci,
            "metric-name",
            format!(
                "metric name `{name}` violates the `stage.kernel.metric` \
                 convention (>= 3 lowercase dot-separated segments)"
            ),
            out,
        );
    }
}

/// `stage.kernel.metric`: at least three non-empty `[a-z0-9_]` segments.
fn valid_metric_name(name: &str) -> bool {
    let parts: Vec<&str> = name.split('.').collect();
    parts.len() >= 3
        && parts.iter().all(|p| {
            !p.is_empty()
                && p.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

// ---- comparators --------------------------------------------------------

/// Comparator-taking methods covered by `float-total-order`.
const COMPARATOR_METHODS: &[&str] = &["sort_by", "sort_unstable_by", "min_by", "max_by"];

/// Rule `float-total-order`: a comparator built on `partial_cmp` has no
/// total order — NaN collapses it and `unwrap`/`unwrap_or` arms pick an
/// arbitrary winner, so sorted order (and greedy selection downstream)
/// becomes input-order-dependent. Comparators must go through
/// `total_cmp` (or be integer `cmp`, which never uses `partial_cmp`).
fn float_total_order(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) || !f.is_punct(ci, ".") {
            continue;
        }
        if ci + 2 >= f.n_code()
            || f.ckind(ci + 1) != TokenKind::Ident
            || !COMPARATOR_METHODS.contains(&f.ctext(ci + 1))
            || !f.is_punct(ci + 2, "(")
        {
            continue;
        }
        let Some(close) = f.cmatch(ci + 2) else {
            continue;
        };
        let has = |needle: &str| f.range_any((ci + 3, close), |i| f.is_ident(i, needle));
        if has("partial_cmp") && !has("total_cmp") {
            emit(
                f,
                ci + 1,
                "float-total-order",
                format!(
                    "`{}` comparator uses `partial_cmp` without `total_cmp`; NaN \
                     breaks the total order and reorders greedy selection — use \
                     `f64::total_cmp` (with a deterministic tie-break)",
                    f.ctext(ci + 1)
                ),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_convention() {
        assert!(valid_metric_name("mining.iso.calls"));
        assert!(valid_metric_name("scoring.greedy.iterations"));
        assert!(valid_metric_name("scoring.greedy.rescored"));
        assert!(valid_metric_name("scoring.greedy.memo_hits"));
        assert!(valid_metric_name("mining.iso.probes_per_call"));
        assert!(!valid_metric_name("mining"));
        assert!(!valid_metric_name("mining.calls"));
        assert!(!valid_metric_name("Mining.Iso.Calls"));
        assert!(!valid_metric_name("mining..calls"));
        assert!(!valid_metric_name("mining.iso."));
    }
}
