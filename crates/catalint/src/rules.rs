//! The per-file lint rules, all running on the token tree.
//!
//! **Ported rules** (from the old line-based pass — same names, same
//! escape hatch, now immune to lookalike text in strings and comments):
//! `float-eq`, `lint-header`, `metric-name`. Pipeline calls into the
//! unbudgeted kernel conveniences are the interprocedural
//! `budget-threading` rule's job, and panics in kernel fns — direct or
//! through helpers — are `panic-reachability`'s ([`crate::xrules`]).
//! Invariants the compiler can check are not rules here: doc coverage
//! is `missing_docs` plus `unreachable_pub`, raw clocks, threads and
//! unwinding are the root `clippy.toml`'s `disallowed-methods`, and raw
//! `eprintln!` in pipeline crates is `clippy::print_stderr`.
//!
//! **Determinism rules** (new): `float-total-order`, `cast-truncation`.
//! CATAPULT's pattern scores are products of small f64 factors (ccov ×
//! lcov × div / cog, paper §5) consumed by a greedy argmax, and the
//! workspace guarantees byte-identical `SelectionResult` and run
//! manifests across `threads ∈ {1,2,8}`. Float comparators without a
//! total order and silently truncating casts are hazards that break
//! that guarantee *before* a golden test can flake — these rules catch
//! them at lint time. Hash-container iteration order is the `taint`
//! rule's ([`crate::taint`]), whether or not it reaches a sink.
//!
//! **Concurrency rule** (new): `interior-mutability` (shared state is
//! only allowed where the execution model owns it). Scopes taking two
//! locks are `lock-order-xfn`'s, together with the cross-function
//! cycles ([`crate::xrules`]).

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::scan::SourceFile;
use std::collections::BTreeSet;

/// Per-file context the path predicates cannot derive alone.
#[derive(Debug)]
pub struct FileCtx {
    /// Whether this file is a crate root (`lint-header` target).
    pub is_crate_root: bool,
}

// ---- scopes ------------------------------------------------------------

/// Files holding the NP-hard search kernels.
pub(crate) const KERNEL_FILES: &[&str] = &[
    "crates/graph/src/iso.rs",
    "crates/graph/src/mcs.rs",
    "crates/graph/src/ged.rs",
    "crates/core/src/walk.rs",
    "crates/core/src/select.rs",
];

/// Files holding f64 scoring arithmetic.
const SCORING_FILES: &[&str] = &[
    "crates/core/src/score.rs",
    "crates/core/src/select.rs",
    "crates/core/src/budget.rs",
    "crates/csg/src/weights.rs",
];

/// Index-arithmetic files additionally covered by `cast-truncation`.
const CAST_EXTRA_FILES: &[&str] = &["crates/csg/src/idset.rs"];

/// Modules sanctioned to own shared state: the fault-injection plans
/// (kernel faults in the budget module, persistence faults in the
/// checkpoint crate), the observability crate, and the executor shim.
const INTERIOR_MUT_ALLOWED: &[&str] = &[
    "crates/graph/src/budget.rs",
    "crates/ckpt/src/fault.rs",
    "crates/obs/",
    "shims/rayon/",
];

/// The agreed crate-root marker line.
pub const LINT_HEADER: &str = "// Lint policy: see [workspace.lints] in the root Cargo.toml.";

pub(crate) fn in_dirs(rel: &str, dirs: &[&str]) -> bool {
    dirs.iter().any(|d| rel.starts_with(d))
}

/// Library source files: `src/`, `crates/*/src/`, `shims/*/src/` (tests,
/// benches, and examples live elsewhere).
pub(crate) fn is_library_src(rel: &str) -> bool {
    rel.starts_with("src/")
        || ((rel.starts_with("crates/") || rel.starts_with("shims/")) && rel.contains("/src/"))
}

// ---- driver ------------------------------------------------------------

/// Run every enabled file rule over one file.
pub fn check_file(
    f: &SourceFile,
    ctx: &FileCtx,
    enabled: &BTreeSet<&'static str>,
    out: &mut Vec<Diagnostic>,
) {
    let rel = f.rel.as_str();
    let on = |name: &str| enabled.contains(name);

    if on("float-eq") && SCORING_FILES.contains(&rel) {
        float_eq(f, out);
    }
    if on("lint-header") && ctx.is_crate_root {
        lint_header(f, out);
    }
    if on("metric-name") && !rel.starts_with("crates/obs/") && !rel.starts_with("shims/") {
        metric_name(f, out);
    }
    if on("float-total-order") && is_library_src(rel) {
        float_total_order(f, out);
    }
    if on("cast-truncation") && (KERNEL_FILES.contains(&rel) || CAST_EXTRA_FILES.contains(&rel)) {
        cast_truncation(f, out);
    }
    if on("interior-mutability") && is_library_src(rel) && !in_dirs(rel, INTERIOR_MUT_ALLOWED) {
        interior_mutability(f, out);
    }
}

/// Record a finding at code token `ci`, honoring the escape hatch.
fn emit(f: &SourceFile, ci: usize, rule: &'static str, message: String, out: &mut Vec<Diagnostic>) {
    out.push(f.diagnostic(ci, rule, message));
}

// ---- ported rules ------------------------------------------------------

/// Rule `float-eq`: no `==`/`!=` where either side is a float literal.
fn float_eq(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) || !(f.is_punct(ci, "==") || f.is_punct(ci, "!=")) {
            continue;
        }
        let lhs_float = ci > 0 && f.ckind(ci - 1) == TokenKind::Float;
        let rhs_float = ci + 1 < f.n_code()
            && (f.ckind(ci + 1) == TokenKind::Float
                || (f.is_punct(ci + 1, "-")
                    && ci + 2 < f.n_code()
                    && f.ckind(ci + 2) == TokenKind::Float));
        if lhs_float || rhs_float {
            emit(
                f,
                ci,
                "float-eq",
                "f64 equality comparison in scoring code (use ranges or total_cmp)".into(),
                out,
            );
        }
    }
}

/// Rule `lint-header`: every crate root carries the policy marker line.
fn lint_header(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let found = f
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::LineComment && t.text(&f.text).trim() == LINT_HEADER);
    if !found {
        out.push(f.diagnostic_at(
            (1, 1),
            "",
            "lint-header",
            format!("crate root is missing the marker line `{LINT_HEADER}`"),
        ));
    }
}

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

// ---- determinism rules -------------------------------------------------

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

/// Integer types an `as` cast may silently truncate into.
const NARROW_INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// Rule `cast-truncation`: `as` casts to narrow integer types in kernel
/// and index arithmetic silently wrap on overflow; use `try_into` with a
/// handled error, or a checked helper.
fn cast_truncation(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) {
            continue;
        }
        if f.is_ident(ci, "as")
            && ci + 1 < f.n_code()
            && f.ckind(ci + 1) == TokenKind::Ident
            && NARROW_INT_TYPES.contains(&f.ctext(ci + 1))
        {
            emit(
                f,
                ci,
                "cast-truncation",
                format!(
                    "`as {}` in kernel/index arithmetic truncates silently on \
                     overflow; prefer `try_into` with a handled error or widen the \
                     intermediate type",
                    f.ctext(ci + 1)
                ),
                out,
            );
        }
    }
}

// ---- concurrency rules -------------------------------------------------

/// Type names that introduce shared or interior-mutable state.
const INTERIOR_MUT_TYPES: &[&str] = &[
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "Mutex",
    "RwLock",
    "Condvar",
    "OnceLock",
    "LazyLock",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "thread_local",
];

/// Rule `interior-mutability`: `static` items and interior-mutability
/// types are only allowed where the execution model owns them (the
/// budget fault plan, `crates/obs`, `shims/rayon`). Anywhere else they
/// are hidden cross-thread channels that can break the byte-identical
/// determinism guarantee. Note `'static` lifetimes never match — the
/// lexer separates them.
fn interior_mutability(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for ci in 0..f.n_code() {
        if f.in_test(ci) || f.ckind(ci) != TokenKind::Ident {
            continue;
        }
        let text = f.ctext(ci);
        let hit = text == "static" || INTERIOR_MUT_TYPES.contains(&text);
        if !hit {
            continue;
        }
        // A bare import is not state; the declaration site will fire.
        let (s, _) = f.stmt_range(ci);
        if f.is_ident(s, "use") {
            continue;
        }
        emit(
            f,
            ci,
            "interior-mutability",
            format!(
                "`{text}` outside the sanctioned modules (graph/src/budget.rs, \
                 ckpt/src/fault.rs, crates/obs, shims/rayon) introduces shared \
                 state that threatens \
                 cross-thread determinism; thread the value explicitly or annotate \
                 `// xtask-allow: interior-mutability` with a justification"
            ),
            out,
        );
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
